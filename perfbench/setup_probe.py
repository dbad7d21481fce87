"""Time one set-up in a fresh interpreter and print it as JSON.

Set-up is importing ``acainvert.cli`` and building the workload's inputs.
Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED`` (run.py calls it).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402  (standard library only; imports no acainvert code)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import acainvert.cli  # noqa: F401

    t1 = time.perf_counter()
    inputs.materialize(inputs.generate(workload, seed))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
