"""Time and peak RSS of build, write and verify for a shift pair's bar rules.

The pair is C(x) = x_{-1} + 1, G(x) = x_{+1} - 1 (mod q); its bar rules
have 3q^2 states on (-1, 0, 1), so (3q^2)^3 entries per table (7,077,888
at q = 8).  Each phase runs in a fresh interpreter; write and verify
first build the pair, untimed, so their peak RSS includes the build's:

    PYTHONPATH=src python scripts/bar_pair_costs.py --q 8 --repeat 3
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PHASES = ("build", "write", "verify")


def run_phase(q: int, phase: str) -> dict:
    from acainvert import Alphabet, LocalRule, Neighborhood
    from acainvert.invertibility import Verdict, check_inverse_purely
    from acainvert.nakamura import build_bar_pair
    from acainvert.rulefmt import dump_rule

    shift = LocalRule(Alphabet(q), Neighborhood.line(-1), [(x + 1) % q for x in range(q)])
    unshift = LocalRule(Alphabet(q), Neighborhood.line(1), [(x - 1) % q for x in range(q)])
    t0 = time.perf_counter()
    pair = build_bar_pair(shift, unshift)
    seconds = time.perf_counter() - t0
    if phase == "write":
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            dump_rule(pair.forward, Path(tmp) / "bar-forward.json", extra={"encoding": pair.encoding_doc()})
            seconds = time.perf_counter() - t0
    elif phase == "verify":
        t0 = time.perf_counter()
        report = check_inverse_purely(pair.forward, pair.backward, cap=1 << 62)
        seconds = time.perf_counter() - t0
        if report.verdict is not Verdict.INVERTIBLE:
            raise SystemExit(f"bar pair verdict {report.verdict.value}")
    # ru_maxrss is in KiB on Linux
    return {"phase": phase, "seconds": round(seconds, 6),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--phase", choices=PHASES, help="run one phase in this interpreter")
    args = parser.parse_args()
    if args.phase:
        print(json.dumps(run_phase(args.q, args.phase)))
        return
    for phase in PHASES:
        for _ in range(args.repeat):
            cmd = [sys.executable, __file__, "--q", str(args.q), "--phase", phase]
            print(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout, end="")


if __name__ == "__main__":
    main()
