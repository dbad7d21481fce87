"""Tests of the benchmark itself: inputs, gate and printed metric names.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402
from acainvert import (  # noqa: E402
    Alphabet,
    LocalRule,
    Neighborhood,
    WindowConfig,
    eca_from_wolfram,
)
from acainvert.atlas import classify_all_eca  # noqa: E402
from acainvert.invertibility import (  # noqa: E402
    DEFAULT_WINDOW_CAP,
    decide_fully_1d,
    decide_purely,
)
from acainvert.simulate import simulate  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert inputs.generate(workload, 11) == inputs.generate(workload, 11)


@pytest.mark.parametrize("workload", ["rule-sample-purely", "simulate-traces"])
def test_other_seed_gives_other_inputs(workload):
    assert inputs.generate(workload, 11) != inputs.generate(workload, 12)


def test_sample_is_stratified_and_decidable():
    rules = inputs.generate("rule-sample-purely", 3)["rules"]
    assert len(rules) == sum(inputs.sample_size(s) for s in inputs.SAMPLE_STRATA)
    for q, offsets, table in rules:
        assert q in (2, 3) and 1 <= len(offsets) <= 5
        assert set(offsets) <= set(inputs.OFFSET_RANGE)
        assert len(table) == q ** len(offsets)
        assert not (q == 2 and offsets == inputs.ECA_OFFSETS)
        window = {0} | set(offsets) | {a + b for a in offsets for b in offsets}
        assert q ** len(window) <= DEFAULT_WINDOW_CAP


def test_padding_keeps_the_local_function():
    spec = (3, (-1, 0), tuple(range(9)))
    q, offsets, table = inputs.pad_spec(spec, (-1, 0, 2))
    assert offsets == (-1, 0, 2)
    assert all(table[i] == table[i - i % 3] for i in range(27))


def _rule(q, offsets, table):
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), tuple(table))


def _tamper_window(report):
    window = report.witness.window
    states = tuple(1 - s if s < 2 else s for s in window.states)
    witness = dataclasses.replace(report.witness, window=WindowConfig(window.cells, states))
    return dataclasses.replace(report, witness=witness)


@pytest.mark.parametrize("scheme, decide, number", [
    ("purely", decide_purely, 110),
    ("fully", decide_fully_1d, 0),
])
def test_gate_accepts_and_rejects_a_tampered_witness(scheme, decide, number):
    rule = eca_from_wolfram(number)
    report = decide(rule)
    assert report.witness is not None
    assert workloads.decision_errors(rule, report, scheme) == []
    assert workloads.decision_errors(rule, _tamper_window(report), scheme) != []


def test_gate_rejects_a_tampered_conflict_witness():
    # with x_-1 = 0 the centre goes 0 -> 2 and 1 -> 2: two sources of one window
    rule = _rule(3, (-1, 0), (2, 2, 2, 0, 1, 2, 0, 1, 2))
    report = decide_purely(rule)
    assert report.witness.clause == "derivation-conflict"
    assert workloads.decision_errors(rule, report, "purely") == []
    window = WindowConfig(((-1,), (0,)), (1, 2))
    tampered = dataclasses.replace(report, witness=dataclasses.replace(report.witness, window=window))
    assert workloads.decision_errors(rule, tampered, "purely") != []


def test_gate_rejects_a_wrong_inverse():
    rule = eca_from_wolfram(51)
    report = decide_purely(rule)
    assert workloads.decision_errors(rule, report, "purely") == []
    wrong = dataclasses.replace(report, inverse=eca_from_wolfram(204))
    assert workloads.decision_errors(rule, wrong, "purely") != []


def test_gate_rejects_a_tampered_digest(tmp_path):
    report = classify_all_eca("purely")
    workloads.write_atlas(report, tmp_path)
    reference = workloads.load_reference()
    assert workloads.atlas_errors(report, tmp_path, reference) == []

    tampered = json.loads(json.dumps(reference))
    tampered["purely"]["json_sha256"] = "0" * 64
    assert workloads.atlas_errors(report, tmp_path, tampered) != []

    csv = tmp_path / "atlas-purely.csv"
    csv.write_text(csv.read_text().replace("invertible", "invertibIe", 1))
    assert workloads.atlas_errors(report, tmp_path, reference) != []


def test_gate_rederives_traces():
    spec = (2, (-1, 0, 1), tuple((110 >> (7 - i)) & 1 for i in range(8)))
    initial = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1)
    for scheme in ("purely", "fully"):
        trace = simulate(_rule(*spec), initial, scheme, 30, 5, p=0.5)
        assert workloads.trace_errors(spec, scheme, initial, 30, 5, 0.5, trace) == []
        last = trace.steps[-1]
        bad = dataclasses.replace(last, states=tuple(1 - s for s in last.states))
        tampered = dataclasses.replace(trace, steps=trace.steps[:-1] + (bad,))
        assert workloads.trace_errors(spec, scheme, initial, 30, 5, 0.5, tampered) != []


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-traces",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_in_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
