"""Command-line interface: exit codes, JSON output, and file artifacts."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from acainvert.core import eca_from_wolfram
from acainvert.invertibility import two_predecessor_witness
from acainvert.nakamura import verify_theorem1
from acainvert.rulefmt import dump_rule, load_rule
from acainvert.simulate import simulate

from test_atlas import ATLAS_DIGESTS
from test_nakamura import shift_pair


def write_wolfram(tmp_path, name, number):
    path = tmp_path / name
    path.write_text(json.dumps({"wolfram": number}))
    return str(path)


# rule files that json cannot read: not UTF-8, and nested past the parser's
# recursion limit
UNREADABLE = {
    "not-utf8": b'\xff{"wolfram": 110}',
    "deep-nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("cap", ["0", "-3", "abc"])
@pytest.mark.parametrize("command", ["decide-purely", "decide-fully", "classify-eca", "nakamura-verify"])
def test_non_positive_cap_exits_two_before_any_work(run_cli, tmp_path, command, cap):
    if command == "nakamura-verify":
        argv = ["nakamura", "--rule", write_wolfram(tmp_path, "rule.json", 170),
                "--inverse", write_wolfram(tmp_path, "inverse.json", 240),
                "--out-dir", str(tmp_path / "bar"), "--verify"]
    elif command == "classify-eca":
        argv = ["classify-eca", "--scheme", "purely", "--out", str(tmp_path / "atlas.json")]
    else:
        argv = ["decide", "--wolfram", "110", "--scheme", command.split("-")[1]]
    result = run_cli(*argv, "--cap", cap)
    assert (result.exit_code, result.stdout) == (2, "")
    assert not (tmp_path / "bar").exists() and not (tmp_path / "atlas.json").exists()


@pytest.mark.parametrize("command", ["decide", "witness-r2", "nakamura"])
def test_rule_file_past_the_dimension_bound_exits_two(run_cli, tmp_path, capsys, command):
    """A 70-byte file of 10^9 dimensions is refused as it loads: exit 2,
    one stderr line, nothing on stdout and no out-dir."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dimension": 10**9, "alphabet": 2, "neighborhood": [], "table": [1]}))
    argv = {"decide": ["--rule", str(path), "--scheme", "purely"], "witness-r2": ["--rule", str(path)],
            "nakamura": ["--rule", str(path), "--inverse", str(path), "--out-dir", str(tmp_path / "bar")]}
    t0 = time.perf_counter()
    result = run_cli(command, *argv[command])
    assert time.perf_counter() - t0 < 10
    assert (result.exit_code, result.stdout) == (2, "")
    assert capsys.readouterr().err == "error: dimension 1000000000 is above 1048576\n"
    assert not (tmp_path / "bar").exists()


class TestDecide:
    def test_invertible_rule_exits_zero(self, run_cli):
        result = run_cli("decide", "--wolfram", "204", "--scheme", "purely")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "invertible"
        assert doc["inverse"]["table"] is not None
        assert doc["witness"] is None
        assert doc["stats"]["millis"] == 0

    def test_not_invertible_exits_three(self, run_cli):
        result = run_cli("decide", "--wolfram", "110", "--scheme", "purely")
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "not-invertible"
        assert doc["witness"]["clause"] in (
            "purely-forward",
            "purely-backward",
            "derivation-conflict",
        )

    def test_fully_scheme(self, run_cli):
        result = run_cli("decide", "--wolfram", "33", "--scheme", "fully")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["verdict"] == "invertible"

    def test_cap_exceeded_exits_two(self, run_cli):
        result = run_cli("decide", "--wolfram", "110", "--scheme", "purely", "--cap", "4")
        assert result.exit_code == 2
        assert json.loads(result.stdout)["verdict"] == "resource-cap-exceeded"

    @pytest.mark.parametrize("n", [0, 255])
    def test_fully_cap_below_q_refuses_the_empty_neighborhood(self, run_cli, n):
        """Rules 0 and 255 minimize to N = (), whose fully window is cell 0
        alone: 2^1 windows, over a cap of 1 and within a cap of 2."""
        result = run_cli("decide", "--wolfram", str(n), "--scheme", "fully", "--cap", "1")
        assert result.exit_code == 2
        assert json.loads(result.stdout)["verdict"] == "resource-cap-exceeded"
        result = run_cli("decide", "--wolfram", str(n), "--scheme", "fully", "--cap", "2")
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert (doc["witness"]["clause"], doc["stats"]["windows"]) == ("eq2-delta", 4)

    def test_far_offset_fully_cap_exceeded_exits_two(self, run_cli, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"dimension": 1, "alphabet": 2, "neighborhood": [[0], [8000]],
                                    "table": [0, 1, 1, 0]}))
        result = run_cli("decide", "--rule", str(path), "--scheme", "fully")
        assert result.exit_code == 2
        assert json.loads(result.stdout)["verdict"] == "resource-cap-exceeded"

    def test_out_of_range_wolfram_exits_two(self, run_cli):
        result = run_cli("decide", "--wolfram", "300", "--scheme", "purely")
        assert result.exit_code == 2

    def test_usage_error_exits_two(self, run_cli):
        result = run_cli("decide", "--wolfram", "3")
        assert result.exit_code == 2

    def test_rule_file_source(self, run_cli, tmp_path):
        path = write_wolfram(tmp_path, "rule.json", 204)
        result = run_cli("decide", "--rule", path, "--scheme", "purely")
        assert result.exit_code == 0

    def test_missing_rule_file_exits_two(self, run_cli, tmp_path):
        result = run_cli("decide", "--rule", str(tmp_path / "nope.json"), "--scheme", "purely")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"wolfram": True},
            {"dimension": 1, "alphabet": 2, "neighborhood": [0.5], "table": [0, 1]},
        ],
    )
    def test_malformed_rule_file_exits_two(self, run_cli, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = run_cli("decide", "--rule", str(path), "--scheme", "purely")
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_rule_file_exits_two(self, run_cli, tmp_path, capsys, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(UNREADABLE[kind])
        result = run_cli("decide", "--rule", str(path), "--scheme", "purely")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert str(path) in capsys.readouterr().err

    def test_threads_flag_is_a_usage_error(self, run_cli, tmp_path):
        # every command runs in one process on one thread.
        # decide has no --exhaustive: the derived candidate is the only inverse
        rule = write_wolfram(tmp_path, "f.json", 170)
        inverse = write_wolfram(tmp_path, "g.json", 240)
        for argv in (
            ("decide", "--wolfram", "110", "--scheme", "fully", "--threads", "2"),
            ("nakamura", "--rule", rule, "--inverse", inverse,
             "--out-dir", str(tmp_path / "bar"), "--verify", "--threads", "2"),
            ("decide", "--wolfram", "110", "--scheme", "purely", "--exhaustive"),
            ("classify-eca", "--scheme", "purely", "--diff", "--threads", "2"),
        ):
            result = run_cli(*argv)
            assert result.exit_code == 2, argv[0]
            assert result.stdout == ""
        assert not (tmp_path / "bar").exists()


class TestClassifyEca:
    def test_diff_is_empty_and_files_written(self, run_cli, tmp_path):
        out = tmp_path / "atlas.json"
        csv_path = tmp_path / "atlas.csv"
        result = run_cli(
            "classify-eca", "--scheme", "purely",
            "--out", str(out), "--csv", str(csv_path), "--diff",
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"scheme": "purely", "missing": [], "extra": []}
        doc = json.loads(out.read_text())
        assert doc["summary"] == [0, 35, 43, 49, 51, 59, 113, 115, 204, 255]
        assert csv_path.read_text().splitlines()[0] == "rule,verdict,inverse,millis"

    def test_stdout_report_when_no_files(self, run_cli):
        result = run_cli("classify-eca", "--scheme", "purely", "--cap", "8")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["scheme"] == "purely"
        assert len(doc["entries"]) == 256
        # a full three-cell neighborhood needs 32 windows, over the cap of 8
        assert doc["entries"][110]["verdict"] == "resource-cap-exceeded"
        # a rule that minimizes to the center alone needs only 2
        assert doc["entries"][204]["verdict"] == "invertible"

    def test_capped_diff_is_a_cap_error(self, run_cli, tmp_path, capsys):
        """A rule the cap refuses has no verdict to compare, so the diff
        exits 2 with the refusal count on stderr, not 3 with a diff;
        the report files are still written."""
        out = tmp_path / "atlas.json"
        result = run_cli("classify-eca", "--scheme", "purely", "--cap", "8", "--out", str(out), "--diff")
        assert (result.exit_code, result.stdout) == (2, "")
        assert "228 rules exceed the window cap" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["entries"]) == 256


class TestNakamura:
    def test_writes_bar_pair_files(self, run_cli, tmp_path):
        rule = write_wolfram(tmp_path, "rule.json", 204)
        inverse = write_wolfram(tmp_path, "inverse.json", 204)
        out_dir = tmp_path / "bar"
        result = run_cli("nakamura", "--rule", rule, "--inverse", inverse,
                         "--out-dir", str(out_dir))
        assert result.exit_code == 0
        assert result.stdout == ""
        forward = load_rule(out_dir / "bar-forward.json")
        backward = load_rule(out_dir / "bar-backward.json")
        assert forward.alphabet.size == 12
        assert len(forward.table) == 12 ** 3
        assert backward.alphabet.size == 12
        doc = json.loads((out_dir / "bar-forward.json").read_text())
        assert doc["encoding"]["bar_state"] == "code = curr * 3q + old * 3 + time"

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_rule_file_exits_two(self, run_cli, tmp_path, capsys, kind):
        good = write_wolfram(tmp_path, "good.json", 204)
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNREADABLE[kind])
        for rule, inverse in ((str(bad), good), (good, str(bad))):
            result = run_cli("nakamura", "--rule", rule, "--inverse", inverse,
                             "--out-dir", str(tmp_path / "bar"), "--verify")
            assert result.exit_code == 2
            assert result.stdout == ""
            assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "bar").exists()

    def test_verify_prints_report(self, run_cli, tmp_path):
        rule = write_wolfram(tmp_path, "rule.json", 51)
        inverse = write_wolfram(tmp_path, "inverse.json", 51)
        result = run_cli("nakamura", "--rule", rule, "--inverse", inverse,
                         "--out-dir", str(tmp_path / "bar"), "--verify")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "invertible"
        assert doc["stats"]["windows"] == 12 ** 5

    def test_oversized_pair_exits_two_at_once(self, run_cli, tmp_path, capsys):
        """The q = 10^4 shift pair's bar tables would hold (3·10^8)^3
        entries, past what numpy can index, so the build refuses before it
        widens the base rules (which alone took over a minute)."""
        q = 10**4
        paths = []
        for name, offset, shift in (("shift.json", -1, 1), ("unshift.json", 1, -1)):
            path = tmp_path / name
            path.write_text(json.dumps({"dimension": 1, "alphabet": q, "neighborhood": [[offset]],
                                        "table": [(x + shift) % q for x in range(q)]}))
            paths.append(str(path))
        t0 = time.perf_counter()
        result = run_cli("nakamura", "--rule", paths[0], "--inverse", paths[1],
                         "--out-dir", str(tmp_path / "bar"), "--verify")
        assert time.perf_counter() - t0 < 10
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err.startswith("error: bar tables need 300000000^3 entries")
        assert not (tmp_path / "bar").exists()

    def test_bar_alphabet_past_2_63_states_exits_two(self, run_cli, tmp_path, capsys):
        """A 2^32-state base rule would need 3·2^64 bar states, more than an
        alphabet holds: a one-line error, exit 2, and no out-dir."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dimension": 1, "alphabet": 1 << 32, "neighborhood": [], "table": [0]}))
        result = run_cli("nakamura", "--rule", str(path), "--inverse", str(path), "--out-dir", str(tmp_path / "bar"))
        assert (result.exit_code, result.stdout) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: bar tables need 55340232221128654848^1 entries") and err.count("\n") == 1
        assert not (tmp_path / "bar").exists()

    def test_build_out_of_memory_exits_two(self, run_cli, tmp_path, capsys, monkeypatch):
        """A table numpy can index may still not fit (the q = 64 shift pair
        asks for 3.38 TiB); the build's MemoryError is a one-line error.
        The build is replaced, so nothing large is allocated."""
        from acainvert import cli

        def out_of_memory(C, G):
            raise MemoryError("Unable to allocate 3.38 TiB for an array with shape (1855425871872,)")

        monkeypatch.setattr(cli, "build_bar_pair", out_of_memory)
        result = run_cli("nakamura", "--rule", write_wolfram(tmp_path, "rule.json", 170),
                         "--inverse", write_wolfram(tmp_path, "inverse.json", 240),
                         "--out-dir", str(tmp_path / "bar"))
        assert (result.exit_code, result.stdout) == (2, "")
        err = capsys.readouterr().err
        assert err == "error: bar tables do not fit in memory: Unable to allocate 3.38 TiB " \
                      "for an array with shape (1855425871872,)\n"
        assert not (tmp_path / "bar").exists()

    def test_verify_builds_the_pair_once(self, run_cli, tmp_path, monkeypatch):
        from acainvert import cli, nakamura

        calls = []

        def counting(C, G):
            calls.append((C, G))
            return build(C, G)

        build = nakamura.build_bar_pair
        monkeypatch.setattr(cli, "build_bar_pair", counting)
        monkeypatch.setattr(nakamura, "build_bar_pair", counting)
        rule = write_wolfram(tmp_path, "rule.json", 170)
        inverse = write_wolfram(tmp_path, "inverse.json", 240)
        result = run_cli("nakamura", "--rule", rule, "--inverse", inverse,
                         "--out-dir", str(tmp_path / "bar"), "--verify")
        assert result.exit_code == 0
        assert len(calls) == 1
        # recorded when --verify still called verify_theorem1 after the build
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "960012983c3c08dfe6fee3160f29f0c34e54c7d6c18d39024712ed03e3be63e8"
        )
        report = nakamura.verify_theorem1(load_rule(rule), load_rule(inverse))
        assert result.stdout == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_verify_prints_a_long_report_byte_for_byte(self, run_cli, tmp_path):
        """The 3-state shift pair's report is more than one batch of the
        chunks ``_print_json`` writes at a time."""
        paths = [str(tmp_path / name) for name in ("shift.json", "unshift.json")]
        for rule, path in zip(shift_pair(3), paths):
            dump_rule(rule, path)
        result = run_cli("nakamura", "--rule", paths[0], "--inverse", paths[1],
                         "--out-dir", str(tmp_path / "bar"), "--verify")
        assert result.exit_code == 0
        doc = verify_theorem1(*shift_pair(3)).to_dict()
        assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc)) > 1 << 14
        assert result.stdout == json.dumps(doc, indent=2) + "\n"


class TestWitnessR2:
    def test_trivial_rule(self, run_cli):
        result = run_cli("witness-r2", "--wolfram", "51")
        assert result.exit_code == 0
        assert result.stdout.strip() == "trivial rule"

    def test_witness_json(self, run_cli):
        result = run_cli("witness-r2", "--wolfram", "204")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["first"]["states"] == [0, 1, 0, 0, 0, 0, 0]
        assert doc["first_active"] == [2]
        assert doc["second"]["states"] == [0, 0, 0, 0, 0, 1, 0]
        assert doc["second_active"] == [-2]

    def test_planar_witness_prints_byte_for_byte(self, run_cli, tmp_path):
        path = tmp_path / "planar.json"
        path.write_text(json.dumps({"dimension": 2, "alphabet": 2, "neighborhood": [[0, 0], [0, 1], [2, 0]],
                                    "table": [1, 0, 1, 0, 1, 0, 1, 0]}))
        result = run_cli("witness-r2", "--rule", str(path))
        assert result.exit_code == 0
        witness = two_predecessor_witness(load_rule(path))
        assert result.stdout == json.dumps(witness.to_dict(), indent=2) + "\n"

    def test_far_offsets_exit_two_at_once(self, run_cli, tmp_path, capsys):
        """Offsets (0, 10^7) would fill a 10^7-cell window (gigabytes); the
        construction refuses before building it."""
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"dimension": 1, "alphabet": 2, "neighborhood": [[0], [10**7]],
                                    "table": [1, 0, 1, 0]}))
        t0 = time.perf_counter()
        result = run_cli("witness-r2", "--rule", str(path))
        assert time.perf_counter() - t0 < 10
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err == "error: witness window spans 10000003 cells, more than 1048576\n"

    def test_neighborhood_without_origin_exits_two(self, run_cli, tmp_path, capsys):
        path = tmp_path / "shift.json"
        path.write_text(json.dumps({"dimension": 1, "alphabet": 2, "neighborhood": [[1]], "table": [1, 0]}))
        result = run_cli("witness-r2", "--rule", str(path))
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err == "error: witness construction needs offset 0 in the neighborhood\n"


class TestSimulate:
    def test_same_seed_reproduces_text(self, run_cli):
        argv = ("simulate", "--wolfram", "110", "--scheme", "purely",
                "--size", "12", "--steps", "6", "--seed", "7")
        assert run_cli(*argv).stdout == run_cli(*argv).stdout

    def test_text_shape_purely(self, run_cli):
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "purely",
                         "--size", "8", "--steps", "2", "--seed", "1", "--p", "0.25")
        lines = result.stdout.splitlines()
        assert lines[0] == "scheme=purely seed=1 p=0.25"
        assert lines[1].startswith("t=0 ")
        assert len(lines) == 4
        assert "active=[" in lines[2]

    def test_text_shape_fully_has_no_p(self, run_cli):
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "fully",
                         "--size", "8", "--steps", "1", "--seed", "1")
        assert result.stdout.splitlines()[0] == "scheme=fully seed=1"

    def test_text_separates_states_when_q_exceeds_ten(self, run_cli, tmp_path):
        # the identity on 11 states: no state changes, and 10 needs two digits
        path = tmp_path / "q11.json"
        path.write_text(json.dumps({"dimension": 1, "alphabet": 11, "neighborhood": [[0]], "table": list(range(11))}))
        result = run_cli("simulate", "--rule", str(path), "--scheme", "fully",
                         "--size", "4", "--steps", "1", "--seed", "3")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        initial = lines[1].removeprefix("t=0 ")
        assert len(initial.split(",")) == 4 and all(0 <= int(s) <= 10 for s in initial.split(","))
        assert lines[2].startswith(f"t=1 {initial} active=[")

    def test_json_format(self, run_cli):
        result = run_cli("simulate", "--wolfram", "90", "--scheme", "fully",
                         "--size", "6", "--steps", "3", "--seed", "5", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["scheme"] == "fully"
        assert len(doc["initial"]) == 6
        assert len(doc["steps"]) == 3
        assert all(len(entry["active"]) == 1 for entry in doc["steps"])

    @pytest.mark.parametrize("scheme,size,steps,p", [
        ("fully", 7, 2500, "0.5"),
        ("purely", 9, 2049, "0.1"),
        ("purely", 5, 0, "0.5"),
        ("purely", 1364, 7, "0.5"),
        ("fully", 4096, 2, "0.5"),
        ("purely", 3, 2050, "0.3"),
    ])
    def test_json_is_the_bytes_of_the_whole_document(self, run_cli, scheme, size, steps, p):
        """The trace is printed one batch of about 2^12 entries at a time;
        the bytes are those of ``json.dumps`` on the whole trace.  The
        traces span several batches, whose last is short at widths 1364 (3
        steps a batch), 3 (1,024) and 7 (512), and holds one step at width
        4096; the purely traces have steps with no active cell, and the
        zero-step trace prints ``"steps": []``."""
        result = run_cli("simulate", "--wolfram", "110", "--scheme", scheme, "--size", str(size),
                         "--steps", str(steps), "--seed", "3", "--p", p, "--format", "json")
        init = random.Random("3:init")
        initial = [init.randrange(2) for _ in range(size)]
        trace = simulate(eca_from_wolfram(110), initial, scheme, steps, 3, p=float(p))
        assert result.exit_code == 0
        assert result.stdout == json.dumps(trace.to_dict(), indent=2) + "\n"
        if not steps:
            assert '"steps": []' in result.stdout

    def test_bad_size_exits_two(self, run_cli):
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "purely",
                         "--size", "0", "--steps", "1", "--seed", "1")
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,value", [("--p", "nan"), ("--p", "-0.1"), ("--size", "-4")])
    def test_edge_values_exit_two_with_empty_stdout(self, run_cli, flag, value):
        # the edge value comes last, so it overrides the valid --size
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "purely",
                         "--size", "8", "--steps", "1", "--seed", "1", flag, value)
        assert (result.exit_code, result.stdout) == (2, "")

    def test_negative_steps_exit_two(self, run_cli, capsys):
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "purely",
                         "--size", "8", "--steps", "-1", "--seed", "1")
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err == "error: step count must be non-negative, got -1\n"

    def test_oversized_trace_exits_two_before_drawing_the_lattice(self, run_cli, capsys, monkeypatch):
        def no_draw(seed):
            raise AssertionError("the initial lattice was drawn")

        monkeypatch.setattr(random, "Random", no_draw)
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "fully",
                         "--size", "1000000000", "--steps", "1", "--seed", "7")
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err == "error: a trace of size 1000000000 over 1 steps exceeds 1048576 entries\n"

    def test_negative_steps_exit_two_before_drawing_the_lattice(self, run_cli, capsys, monkeypatch):
        # (size + 1) * (steps + 1) is 0 here, so the count is refused on its own
        def no_draw(seed):
            raise AssertionError("the initial lattice was drawn")

        monkeypatch.setattr(random, "Random", no_draw)
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "fully",
                         "--size", "1000000000", "--steps", "-1", "--seed", "7")
        assert (result.exit_code, result.stdout) == (2, "")
        assert capsys.readouterr().err == "error: step count must be non-negative, got -1\n"

    def test_bad_probability_exits_two(self, run_cli):
        result = run_cli("simulate", "--wolfram", "110", "--scheme", "purely",
                         "--size", "8", "--steps", "1", "--seed", "1", "--p", "1.5")
        assert result.exit_code == 2


# run in a fresh interpreter, which prints each command's exit code and
# then whether numpy is loaded
_CHILD = """
import contextlib, io, sys
from acainvert import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {runs!r}]
print(*codes, "numpy" in sys.modules)
"""


def run_child(tmp_path, runs: list[list[str]]) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _CHILD.format(runs=runs)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_that_decide_nothing_never_load_numpy(tmp_path):
    """Importing the CLI, loading a rule from a Wolfram number or a rule
    file, simulating under both schemes in text and JSON, and building a
    witness-r2 window pair read rule tables as Python ints only."""
    # a 3-state rule file, read through load_rule
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"dimension": 1, "alphabet": 3, "neighborhood": [[-1], [0], [1]],
                                "table": [i * 7 % 3 for i in range(27)]}))
    runs = [["witness-r2", "--wolfram", "110"]]
    for source in (["--wolfram", "110"], ["--rule", str(path)]):
        for scheme in ("purely", "fully"):
            for form in ("text", "json"):
                runs.append(["simulate", *source, "--scheme", scheme, "--size", "16", "--steps", "4",
                             "--seed", "7", "--format", form])
    assert run_child(tmp_path, runs) == "0 " * len(runs) + "False\n"


def test_fully_decisions_never_load_numpy(tmp_path):
    """Fully decisions minimize, derive and widen on table bytes: rule 110,
    rule 15 (which minimizes to (-1,), so the derivation flips each entry),
    a 3-state derivation conflict and a 3-state center permutation (which
    minimizes to (0,) and widens back to (-1, 0, 1)) answer without numpy,
    and so does the fully atlas, whose bytes keep their digests."""
    conflict, permutation = tmp_path / "conflict.json", tmp_path / "permutation.json"
    conflict.write_text(json.dumps({"dimension": 1, "alphabet": 3, "neighborhood": [[-1], [0]],
                                    "table": [1, 1, 0, 1, 2, 1, 1, 1, 1]}))
    permutation.write_text(json.dumps({"dimension": 1, "alphabet": 3, "neighborhood": [[-1], [0], [1]],
                                       "table": [(i // 3 + 1) % 3 for i in range(27)]}))
    runs = [["decide", *source, "--scheme", "fully"]
            for source in (["--wolfram", "110"], ["--wolfram", "15"], ["--rule", str(conflict)],
                           ["--rule", str(permutation)])]
    runs.append(["classify-eca", "--scheme", "fully", "--out", "atlas.json", "--csv", "atlas.csv"])
    assert run_child(tmp_path, runs) == "3 3 3 0 0 False\n"
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("atlas.json", "atlas.csv"))
    assert digests == ATLAS_DIGESTS["fully"]


def test_deciding_loads_numpy_and_answers(tmp_path):
    """A decision loads numpy on first use and gives today's verdict."""
    assert run_child(tmp_path, [["decide", "--wolfram", "110", "--scheme", "purely"]]) == "3 True\n"
