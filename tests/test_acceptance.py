"""Acceptance gate: one test per published criterion, one line per verdict.

Each test prints ``PASS criterion N: ...`` or ``FAIL criterion N: ...`` on
the terminal (bypassing capture) so a plain ``pytest -v`` run shows the
per-criterion outcome alongside the test result.
"""

from __future__ import annotations

import contextlib
import itertools
import json

import pytest

from acainvert import (
    Alphabet,
    LocalRule,
    Neighborhood,
    WindowConfig,
    eca_from_wolfram,
    minimize_neighborhood,
    step,
    with_neighborhood,
    wolfram_number,
)
from acainvert.invertibility import (
    Verdict,
    check_inverse_fully_1d,
    check_inverse_purely,
    decide_fully_1d,
    decide_purely,
    two_predecessor_witness,
)
from acainvert.nakamura import build_bar_pair, decode_bar_state, embed_ring, verify_theorem1

from conftest import PADDED_NEIGHBORHOOD, translate
from naive_oracles import (
    all_tables,
    naive_check_fully,
    naive_check_purely,
    naive_decide,
)
from test_nakamura import bar_ring_step, ring_sync_step

PURELY_REFERENCE = frozenset((0, 35, 43, 49, 51, 59, 113, 115, 204, 255))

FULLY_REFERENCE = frozenset(
    (
        33, 35, 38, 41, 43, 46, 49, 51, 52, 54,
        57, 59, 60, 62, 97, 99, 102, 105, 107, 108,
        113, 115, 116, 118, 121, 123, 131, 139, 145, 147,
        150, 153, 155, 156, 195, 198, 201, 204, 209, 211,
    )
)

SYNC_INVERSE_PAIRS = ((51, 51), (204, 204), (170, 240))


@contextlib.contextmanager
def criterion(capsys, number: int, text: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {number}: {text}")
        raise
    else:
        with capsys.disabled():
            print(f"\nPASS criterion {number}: {text}")


def test_criterion_1_purely_classification(run_cli, tmp_path, capsys):
    with criterion(capsys, 1, "purely asynchronous classification reproduces the 10-rule set"):
        out = tmp_path / "purely.json"
        result = run_cli("classify-eca", "--scheme", "purely", "--diff", "--out", str(out))
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"scheme": "purely", "missing": [], "extra": []}
        summary = json.loads(out.read_text())["summary"]
        assert set(summary) == PURELY_REFERENCE
        assert summary == sorted(summary)


def test_criterion_2_fully_classification(run_cli, tmp_path, capsys):
    with criterion(capsys, 2, "fully asynchronous classification reproduces the 40-rule set"):
        out = tmp_path / "fully.json"
        result = run_cli(
            "classify-eca", "--scheme", "fully", "--diff", "--out", str(out)
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"scheme": "fully", "missing": [], "extra": []}
        summary = json.loads(out.read_text())["summary"]
        assert set(summary) == FULLY_REFERENCE
        assert len(summary) == 40


def test_criterion_3_bar_pair_instances(capsys):
    with criterion(capsys, 3, "bar pairs of the pinned synchronous inverse pairs are invertible"):
        for n, g in SYNC_INVERSE_PAIRS:
            report = verify_theorem1(eca_from_wolfram(n), eca_from_wolfram(g))
            assert report.verdict is Verdict.INVERTIBLE, (n, g)
            assert report.stats.windows == 12 ** 5


def test_criterion_4_oracle_equivalence(capsys):
    with criterion(capsys, 4, "deciders match the naive enumeration oracles with zero mismatches"):
        for offsets in ((0,), (0, 1)):
            nb = Neighborhood.line(*offsets)
            tables = list(all_tables(2, len(offsets)))
            # checker level: every ordered pair of rules, both schemes
            for dt, gt in itertools.product(tables, repeat=2):
                C = LocalRule(Alphabet(2), nb, dt)
                G = LocalRule(Alphabet(2), nb, gt)
                got = check_inverse_purely(C, G).verdict is Verdict.INVERTIBLE
                assert got == naive_check_purely(offsets, 2, dt, gt), ("purely", dt, gt)
                got = check_inverse_fully_1d(C, G).verdict is Verdict.INVERTIBLE
                assert got == naive_check_fully(offsets, 2, dt, gt), ("fully", dt, gt)
        # decider level: every rule, the one derived candidate vs. a naive
        # existential search over every table
        cases = (((0,), 2), ((0, 1), 2), ((), 2), ((1,), 2), ((-1,), 2), ((), 3), ((0,), 3))
        for offsets, q in cases:
            nb = Neighborhood.line(*offsets)
            for dt in all_tables(q, len(offsets)):
                rule = LocalRule(Alphabet(q), nb, dt)
                got = decide_purely(rule).verdict
                assert got is not Verdict.RESOURCE_CAP_EXCEEDED
                assert (got is Verdict.INVERTIBLE) == naive_decide(
                    naive_check_purely, offsets, q, dt
                ), ("purely", offsets, q, dt)
                got = decide_fully_1d(rule).verdict
                assert got is not Verdict.RESOURCE_CAP_EXCEEDED
                assert (got is Verdict.INVERTIBLE) == naive_decide(
                    naive_check_fully, offsets, q, dt
                ), ("fully", offsets, q, dt)


def test_criterion_5_invariant_suite(purely_atlas, fully_atlas, capsys):
    with criterion(capsys, 5, "invariant suite passes exhaustively"):
        rules = [eca_from_wolfram(n) for n in range(256)]
        windows = [
            WindowConfig.line(states, start=-2)
            for states in itertools.product(range(2), repeat=5)
        ]
        interior = [(-1,), (0,), (1,)]

        # empty activation set is the identity
        for rule in rules:
            for w in windows:
                assert step(rule, w, []) == w

        # stepping commutes with translation
        for rule in rules:
            for w in windows:
                stepped = step(rule, w, interior)
                for j in (-2, 5):
                    shifted = [(c[0] + j,) for c in interior]
                    assert translate(stepped, j) == step(rule, translate(w, j), shifted)

        # rule number encoding round-trips
        for n, rule in enumerate(rules):
            assert wolfram_number(rule) == n

        # neighborhood minimization is idempotent
        for rule in rules:
            mini = minimize_neighborhood(rule)
            assert minimize_neighborhood(mini) == mini

        # dummy offsets change no verdict
        for n, (entry, rule) in enumerate(zip(purely_atlas.entries, rules)):
            padded = with_neighborhood(rule, PADDED_NEIGHBORHOOD)
            assert decide_purely(padded).verdict is entry.verdict, n
        for n, (entry, rule) in enumerate(zip(fully_atlas.entries, rules)):
            padded = with_neighborhood(rule, PADDED_NEIGHBORHOOD)
            assert decide_fully_1d(padded).verdict is entry.verdict, n

        # every rule that flips anything maps two windows to one successor
        for n, rule in enumerate(rules):
            witness = two_predecessor_witness(rule)
            if n == 51:  # the only rule that never changes a cell
                assert witness is None
                continue
            assert witness.first != witness.second
            joined_first = step(rule, witness.first, [witness.first_active])
            joined_second = step(rule, witness.second, [witness.second_active])
            assert joined_first == joined_second

        # bar rules only hold or advance/retreat the stamp by one
        for n, g in SYNC_INVERSE_PAIRS + ((110, 110),):
            pair = build_bar_pair(eca_from_wolfram(n), eca_from_wolfram(g))
            center = pair.forward.neighborhood.offsets.index(pair.forward.neighborhood.origin)
            for idx, out_code in enumerate(pair.forward.table):
                me = decode_bar_state(2, pair.forward.decode_index(idx)[center])
                out = decode_bar_state(2, out_code)
                if out != me:
                    assert out.time == (me.time + 1) % 3 and out.old == me.curr
            for idx, out_code in enumerate(pair.backward.table):
                me = decode_bar_state(2, pair.backward.decode_index(idx)[center])
                out = decode_bar_state(2, out_code)
                if out != me:
                    assert out.time == (me.time - 1) % 3 and out.curr == me.old

        # synchronous sweeps on rings stay in lockstep with the base rules
        for n, g in SYNC_INVERSE_PAIRS:
            C, G = eca_from_wolfram(n), eca_from_wolfram(g)
            pair = build_bar_pair(C, G)
            for size in range(3, 9):
                for states in itertools.product(range(2), repeat=size):
                    nxt = ring_sync_step(C, states)
                    for t in (0, 1, 2):
                        here = embed_ring(states, G, t)
                        there = embed_ring(nxt, G, t + 1)
                        assert bar_ring_step(pair.forward, 2, here) == there
                        assert bar_ring_step(pair.backward, 2, there) == here


def test_criterion_6_determinism_across_workers(run_cli, tmp_path, capsys):
    with criterion(capsys, 6, "reports are byte-identical across runs and worker counts"):
        purely = []
        for run in (1, 2):
            out = tmp_path / f"purely-{run}.json"
            csv_path = tmp_path / f"purely-{run}.csv"
            result = run_cli(
                "classify-eca", "--scheme", "purely", "--out", str(out), "--csv", str(csv_path)
            )
            assert result.exit_code == 0
            purely.append(out.read_bytes() + csv_path.read_bytes())
        assert purely[0] == purely[1]

        fully = []
        for run in (1, 2):
            out = tmp_path / f"fully-{run}.json"
            result = run_cli("classify-eca", "--scheme", "fully", "--out", str(out))
            assert result.exit_code == 0
            fully.append(out.read_bytes())
        assert fully[0] == fully[1]

        theorem = [
            json.dumps(
                verify_theorem1(
                    eca_from_wolfram(170), eca_from_wolfram(240), workers=workers
                ).to_dict(),
                indent=2,
            ).encode()
            for workers in (1, 3)
        ]
        assert theorem[0] == theorem[1]
