"""Benchmark for acainvert: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is run from ``src/`` as it stands in the checkout; nothing is
installed.  A run

1. times set-up (importing ``acainvert.cli`` and building the inputs) in
   fresh interpreters, several times, and keeps the median;
2. generates the workload's inputs from the seed and runs whole passes
   over them, serially, until ``--seconds`` have passed (always at least
   one pass, so a pass longer than that is measured whole);
3. gates every output (see ``workloads.py``), counting failed ops;
4. prints one JSON line describing the environment, then, as the last
   line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same passes run with every layer boundary wrapped in a span
(``tracing.py``), and the metrics are the per-layer ones; the spans are
written to ``perfbench/out/``.  Tracing overhead is the traced time of a
sample of ops minus the time of the same ops re-run untraced.

The exit code is 0 when every output is correct, 1 when some are not, and
2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs  # standard library only; the modules that need acainvert load after its check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
REPLAY_SECONDS = 2.0


def _program_or_exit():
    """Import acainvert from this checkout's src/, or exit 2."""
    if not (SRC / "acainvert" / "__init__.py").is_file():
        print(f"error: no acainvert sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import acainvert

    if SRC.resolve() not in Path(acainvert.__file__).resolve().parents:
        print(f"error: acainvert imported from {acainvert.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (set-up, import) seconds over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def environment(workload: str, seed: int, args) -> dict:
    import numpy

    import workloads

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "acainvert").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "workers": workloads.WORKERS[workload],
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def run_passes(workload: str, data: dict, seconds: float, out_dir: Path, tracer, reference: dict):
    """Whole passes until ``seconds`` of them are measured (gating excluded)."""
    import workloads

    passes = []
    expected = None
    ops = 0
    measured = 0.0
    while measured < seconds:
        objs = inputs.materialize(data)  # fresh rule objects: no cached state carries over
        # Start each pass with no garbage pending, and keep the benchmark's
        # own long-lived objects out of the collector's way.
        gc.collect()
        gc.freeze()
        log = workloads.OpLog(workload, tracer=tracer, first_id=ops, expected=expected)
        errors = []
        t0 = time.perf_counter()
        try:
            report = workloads.run_pass(workload, objs, log, out_dir)
        except Exception as exc:  # the pass is lost; every op in it counts as failed
            report = None
            errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0 - log.gate_s
        if report is not None:
            errors += workloads.atlas_errors(report, out_dir, reference)
        passes.append({"records": log.records, "wall": wall, "errors": errors})
        measured += wall
        if expected is None:
            expected = [r.outcome for r in log.records]
        ops += len(log.records)
        if errors:
            break
    return passes


def gate(passes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass.

    A pass-level failure (an exception, or an atlas that misses its
    reference or digest) fails every op of the pass.
    """
    attempted = failed = 0
    messages = []
    for n, p in enumerate(passes):
        records = p["records"]
        attempted += max(1, len(records))
        messages += [f"pass {n}: {m}" for m in p["errors"]]
        messages += [f"pass {n} op {i}: {m}" for i, r in enumerate(records) for m in r.errors]
        if p["errors"]:
            failed += max(1, len(records))
        else:
            failed += sum(1 for r in records if r.errors)
    return attempted, failed, messages


def end_to_end(passes: list, setup_s: float) -> dict:
    ms = [r.ms for p in passes for r in p["records"]]
    # Every pass runs the same ops, so each pass's rate is one sample; the
    # median of them is steadier than the total when the machine is noisy.
    rate = statistics.median(len(p["records"]) / p["wall"] for p in passes)
    return {
        "ops_per_s": (rate, "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def tracing_overhead_ms(records: list) -> float:
    """Median of traced minus untraced milliseconds over re-run ops.

    Each sampled op runs once untraced and once traced, back to back, so
    both see the same state.  The cheapest ops go first: the overhead is a
    few microseconds per span, and it is lost in the noise of long ops.
    """
    import tracing

    deltas = []
    start = time.perf_counter()
    for rec in sorted((r for r in records if not r.errors), key=lambda r: r.ms):
        fn = inspect.unwrap(rec.fn)
        t0 = time.perf_counter()
        fn(*rec.args, **rec.kwargs)
        plain = time.perf_counter() - t0
        with tracing.Tracer().installed():
            traced_fn = getattr(sys.modules[fn.__module__], fn.__name__)
            t0 = time.perf_counter()
            traced_fn(*rec.args, **rec.kwargs)
            traced = time.perf_counter() - t0
        deltas.append((traced - plain) * 1000.0)
        if time.perf_counter() - start > REPLAY_SECONDS:
            break
    return statistics.median(deltas) if deltas else 0.0


def per_layer(tracer, passes: list, import_s: float) -> dict:
    import tracing

    records = [r for p in passes for r in p["records"]]
    ops = max(1, len(records))
    metrics = tracer.layer_metrics(ops)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.op_ms"] = (statistics.fmean(r.ms for r in records) if records else 0.0, "ms/op")
    program_spans = sum(1 for s in tracer.spans if s.name != tracing.GATE_SPAN)
    metrics["trace.spans"] = (program_spans / ops, "spans/op")
    metrics["trace.overhead_ms"] = (tracing_overhead_ms(passes[0]["records"]), "ms/op")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _program_or_exit()
    import tracing
    import workloads

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reference = workloads.load_reference()

    setup_s, import_s = measure_setup(args.workload, args.seed)
    data = inputs.generate(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        passes = run_passes(args.workload, data, args.seconds, out_dir, tracer, reference)
    attempted, failed, messages = gate(passes)
    for message in messages[:20]:
        print(f"gate: {message}", file=sys.stderr)
    if not any(p["records"] for p in passes):
        print("error: no op completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(passes, setup_s)
    else:
        metrics = per_layer(tracer, passes, import_s)
        tracer.write(out_dir / "spans.jsonl")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args.workload, args.seed, args)
    env["passes"] = len(passes)
    (out_dir / "result.json").write_text(json.dumps({"environment": env, **result}, indent=2) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
