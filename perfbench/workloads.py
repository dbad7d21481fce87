"""The four workloads: what one pass runs, and the gate on its outputs.

An op is one rule decision, one bar-pair verification or one trace.  Each
pass runs the same ops through the entry points the command line uses,
looked up on ``acainvert.cli`` at call time so that tracing can wrap them.

The gate counts an op as failed when it raises, returns
``resource-cap-exceeded``, or fails a check:

* atlas summaries equal the reference sets, and the default JSON and CSV
  bytes of ``classify-eca`` match digests recorded in ``reference.json``;
* every negative witness replays through ``core.step`` and fails the
  clause it names;
* every positive inverse passes the check in the opposite direction;
* every trace step is re-derived by a per-cell loop written here.

Each op is gated as soon as it returns, outside its timed region.  Full
checks run on the first pass.  Later passes repeat the same inputs, so
their outputs must equal the first pass's.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from acainvert import atlas, cli, core, rulefmt
from acainvert.invertibility import (
    DecisionReport,
    DerivationConflict,
    Verdict,
    check_inverse_fully_1d,
    check_inverse_purely,
    derive_candidate_inverse,
)

import inputs

PURELY_REFERENCE = frozenset((0, 35, 43, 49, 51, 59, 113, 115, 204, 255))
FULLY_REFERENCE = frozenset((
    33, 35, 38, 41, 43, 46, 49, 51, 52, 54, 57, 59, 60, 62, 97, 99, 102, 105, 107, 108,
    113, 115, 116, 118, 121, 123, 131, 139, 145, 147, 150, 153, 155, 156, 195, 198, 201,
    204, 209, 211,
))
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# bar-pairs runs the purely sweep on threads, at most two of them.
WORKERS = {"eca-fully-atlas": 1, "rule-sample-purely": 1, "bar-pairs": min(2, os.cpu_count() or 1),
           "simulate-traces": 1}


@dataclass
class OpRecord:
    fn: Callable | None
    args: tuple
    kwargs: dict
    ms: float
    errors: list[str]
    outcome: str | None  # digest of the output, which is not kept


@dataclass
class OpLog:
    """Times each op, then gates its output outside the timed region.

    ``expected`` holds the first pass's outcome digests; a repeat pass is
    gated by comparison with them, the first pass by ``gate_op``.  Outputs
    are dropped once gated, so memory does not grow with the pass count.
    """

    workload: str
    tracer: Any = None
    first_id: int = 0
    expected: list[str] | None = None
    records: list[OpRecord] = field(default_factory=list)
    gate_s: float = 0.0

    def run(self, fn: Callable, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = self.first_id + len(self.records)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        rec = OpRecord(fn, args, kwargs, (t1 - t0) * 1000.0, [], None)
        if error is not None:
            rec.errors.append(error)
        else:
            with self.tracer.paused() if self.tracer is not None else contextlib.nullcontext():
                rec.outcome = outcome(self.workload, result)
                i = len(self.records)
                if self.expected is None:
                    rec.errors += gate_op(self.workload, args, kwargs, result)
                elif i >= len(self.expected) or rec.outcome != self.expected[i]:
                    rec.errors.append("output differs from the first pass")
        if self.expected is not None:
            rec.fn, rec.args, rec.kwargs = None, (), {}  # only the first pass is re-run
        self.records.append(rec)
        self.gate_s += time.perf_counter() - t1
        return result


def write_atlas(report, out_dir: Path) -> None:
    """Write the atlas as ``classify-eca --out FILE --csv FILE`` does."""
    Path(out_dir, f"atlas-{report.scheme}.json").write_text(report.to_json())
    Path(out_dir, f"atlas-{report.scheme}.csv").write_text(report.to_csv())


def _classify(scheme: str, log: OpLog, out_dir: Path):
    """``classify-eca --scheme S --out --csv``; each rule decision is an op."""
    # The atlas looks its decider up in its own globals for every rule.
    name = "decide_purely" if scheme == "purely" else "decide_fully_1d"
    decider = getattr(atlas, name)
    setattr(atlas, name, functools.partial(log.run, decider))
    try:
        report = cli.classify_all_eca(scheme)
    finally:
        setattr(atlas, name, decider)
    write_atlas(report, out_dir)
    return report


def nakamura_verify(C, G, out_dir: Path, workers: int):
    """The ``nakamura --verify`` sequence: build, write both tables, verify."""
    pair = cli.build_bar_pair(C, G)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoding = {"encoding": pair.encoding_doc()}
    cli.dump_rule(pair.forward, out_dir / "bar-forward.json", extra=encoding)
    cli.dump_rule(pair.backward, out_dir / "bar-backward.json", extra=encoding)
    return pair, cli.verify_theorem1(C, G, workers=workers)


def run_pass(workload: str, objs: dict, log: OpLog, out_dir: Path):
    """One pass over the workload's inputs; returns the pass-level output."""
    if workload == "eca-fully-atlas":
        return _classify("fully", log, out_dir)
    if workload == "rule-sample-purely":
        report = _classify("purely", log, out_dir)
        for rule in objs["rules"]:
            log.run(cli.decide_purely, rule)
        return report
    if workload == "bar-pairs":
        for i, (C, G) in enumerate(objs["pairs"]):
            log.run(nakamura_verify, C, G, out_dir / f"bar-{i}", WORKERS[workload])
        return None
    if workload == "simulate-traces":
        for rule, scheme, initial, steps, seed in objs["traces"]:
            log.run(cli.simulate, rule, initial, scheme, steps, seed, p=inputs.SIM_P)
        return None
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- the gate


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def atlas_errors(report, out_dir: Path, reference: dict) -> list[str]:
    """Summary against the reference set, written bytes against the digests."""
    errors = []
    expected = PURELY_REFERENCE if report.scheme == "purely" else FULLY_REFERENCE
    if set(report.summary) != expected or len(report.entries) != 256:
        errors.append(f"{report.scheme} atlas summary {list(report.summary)} differs from reference")
    digests = reference[report.scheme]
    for suffix in ("json", "csv"):
        data = Path(out_dir, f"atlas-{report.scheme}.{suffix}").read_bytes()
        if hashlib.sha256(data).hexdigest() != digests[f"{suffix}_sha256"]:
            errors.append(f"{report.scheme} atlas {suffix} bytes differ from the recorded digest")
    return errors


def _same_function(rule, mini) -> bool:
    """``mini`` computes ``rule``'s local function on a subset of its offsets."""
    offsets = rule.neighborhood.offsets
    if not set(mini.neighborhood.offsets) <= set(offsets):
        return False
    where = [offsets.index(o) for o in mini.neighborhood.offsets]
    return all(
        rule.table[i] == mini.apply_local([local[p] for p in where])
        for i, local in enumerate(rule.all_locals())
    )


def _fully_candidates(rule) -> list[tuple[int]]:
    offsets = [o[0] for o in rule.neighborhood.offsets]
    if not offsets:
        return [(0,)]
    reach = rule.q ** (2 * max(abs(o) for o in offsets) + 1)
    return [(a,) for a in range(-reach, reach + 1)]


def replay_errors(C, G, witness) -> list[str]:
    """Re-enact a witness of the pair (C, G) with the plain step operator."""
    step = core.step
    w, active, clause = witness.window, witness.active, witness.clause
    origin = (0,) * C.neighborhood.dimension
    if clause == "derivation-conflict":
        # Two distinct predecessors differing only at 0 step to one window,
        # so no rule on C's neighbourhood can undo both.
        cells = sorted(set(C.neighborhood.offsets) | {origin})
        known = dict(zip(w.cells, w.states))
        if set(known) != set(C.neighborhood.offsets):
            return [f"conflict window {w.cells} is not C's neighbourhood"]
        if origin not in known:
            local = [known[o] for o in C.neighborhood.offsets]
            known[origin] = C.apply_local(local)
        target = core.WindowConfig(tuple(cells), tuple(known[c] for c in cells))
        sources = [
            v for v in range(C.q)
            if v != target[origin] and step(C, target.with_updates({origin: v}), [origin]) == target
        ]
        return [] if len(sources) >= 2 else [f"derivation conflict does not replay: sources {sources}"]
    forward, backward = (C, G) if clause.endswith(("-forward", "-delta")) else (G, C)
    if clause.startswith(("purely-", "eq1-")):
        stepped = step(forward, w, active)
        if core.difference(w, stepped) != frozenset(active):
            return [f"{clause}: the step does not change exactly the active cells"]
        if clause.startswith("eq1-") and tuple(active) != (origin,):
            return [f"{clause}: active set {active} is not the origin"]
        if step(backward, stepped, active) == w:
            return [f"{clause}: the partner rule undoes the step"]
        return []
    if clause in ("eq2-delta", "eq2-gamma"):
        if step(forward, w, [origin]) != w:
            return [f"{clause}: the window is not fixed at 0"]
        if any(step(backward, w, [a]) == w for a in _fully_candidates(C)):
            return [f"{clause}: the partner rule fixes the window at a candidate cell"]
        return []
    return [f"unknown clause {clause!r}"]


def decision_errors(rule, report: DecisionReport, scheme: str) -> list[str]:
    """Gate one decision: witness replay or opposite-direction check."""
    if report.verdict is Verdict.RESOURCE_CAP_EXCEEDED:
        return ["resource-cap-exceeded"]
    mini = core.minimize_neighborhood(rule)
    if not _same_function(rule, mini):
        return ["minimized rule computes another local function"]
    if report.verdict is Verdict.INVERTIBLE:
        if report.inverse is None or report.inverse.neighborhood != rule.neighborhood:
            return ["positive verdict without an inverse on the rule's neighbourhood"]
        checker = check_inverse_purely if scheme == "purely" else check_inverse_fully_1d
        back = checker(report.inverse, rule)
        return [] if back.verdict is Verdict.INVERTIBLE else [f"opposite check: {back.verdict.value}"]
    if report.witness is None:
        return ["negative verdict without a witness"]
    candidate = derive_candidate_inverse(mini)
    if isinstance(candidate, DerivationConflict) != (report.witness.clause == "derivation-conflict"):
        return ["derivation outcome disagrees with the witness clause"]
    return replay_errors(mini, candidate, report.witness)


def bar_errors(C, G, out_dir: Path, workers: int, result) -> list[str]:
    pair, report = result
    errors = []
    offsets = {o[0] for o in C.neighborhood.offsets} | {o[0] for o in G.neighborhood.offsets}
    nbhd = offsets | {-o for o in offsets} | {0}
    window = nbhd | {a + b for a in nbhd for b in nbhd}
    if report.verdict is not Verdict.INVERTIBLE or report.inverse != pair.backward:
        errors.append(f"bar pair verdict {report.verdict.value}")
    if report.stats.windows != (3 * C.q * C.q) ** len(window):
        errors.append(f"bar pair swept {report.stats.windows} windows")
    back = check_inverse_purely(pair.backward, pair.forward, workers=workers)
    if back.verdict is not Verdict.INVERTIBLE:
        errors.append(f"bar pair opposite check: {back.verdict.value}")
    for name, rule in (("bar-forward.json", pair.forward), ("bar-backward.json", pair.backward)):
        doc = json.loads(Path(out_dir, name).read_text())
        if rulefmt.rule_from_dict(doc) != rule or doc.get("encoding") != pair.encoding_doc():
            errors.append(f"{name} does not round-trip")
    return errors


def trace_errors(spec: tuple, scheme: str, initial: tuple, steps: int, seed: int, p: float, trace) -> list[str]:
    """Re-derive every step from the rule spec with a per-cell loop."""
    q, offsets, table = spec
    n = len(initial)
    rng = random.Random(seed)
    state = list(initial)
    if tuple(trace.initial) != tuple(initial) or len(trace.steps) != steps:
        return ["trace has the wrong initial state or length"]
    for t, entry in enumerate(trace.steps, start=1):
        if scheme == "purely":
            active = tuple(i for i in range(n) if rng.random() < p)
        else:
            active = (rng.randrange(n),)
        new = list(state)
        for i in active:
            index = 0
            for o in offsets:
                index = index * q + state[(i + o) % n]
            new[i] = table[index]
        if entry.active != active or entry.states != tuple(new):
            return [f"trace step {t} differs from the per-cell re-derivation"]
        state = new
    return []


def gate_op(workload: str, args: tuple, kwargs: dict, result) -> list[str]:
    """Every check that applies to one op's output."""
    if workload == "eca-fully-atlas":
        return decision_errors(args[0], result, "fully")
    if workload == "rule-sample-purely":
        return decision_errors(args[0], result, "purely")
    if workload == "bar-pairs":
        return bar_errors(*args, result)
    rule, initial, scheme, steps, seed = args
    spec = (rule.q, tuple(o[0] for o in rule.neighborhood.offsets), rule.table)
    return trace_errors(spec, scheme, initial, steps, seed, kwargs["p"], result)


def outcome(workload: str, result) -> str:
    """Digest of what must repeat exactly when the same op runs again."""
    if workload == "simulate-traces":
        # Traces are large; the built-in hash of int tuples is fast and, unlike
        # string hashing, the same in every process.
        return str(hash((result.initial, tuple((s.active, s.states) for s in result.steps))))
    if workload == "bar-pairs":
        pair, report = result
        doc = [pair.forward.table, pair.backward.table, report.to_dict()]
    else:
        doc = result.to_dict()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
