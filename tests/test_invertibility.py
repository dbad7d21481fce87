"""Invertibility checkers, deciders, candidate derivation, and witnesses."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acainvert import (
    Alphabet,
    LocalRule,
    Neighborhood,
    WindowConfig,
    difference,
    eca_from_wolfram,
    minimize_neighborhood,
    step,
    with_neighborhood,
    wolfram_number,
)
from acainvert.atlas import FULLY_INVERTIBLE_ECA, PURELY_INVERTIBLE_ECA, classify_all_eca
from acainvert.errors import (
    AlphabetMismatchError,
    NeighborhoodMismatchError,
    NotOneDimensionalError,
    OutOfRangeError,
    ResourceCapExceededError,
)
from acainvert import invertibility
from acainvert.core import add_cells
from acainvert.invertibility import (
    DEFAULT_WINDOW_CAP,
    DerivationConflict,
    Verdict,
    check_inverse_fully_1d,
    check_inverse_purely,
    decide_fully_1d,
    decide_purely,
    derive_candidate_inverse,
    two_predecessor_witness,
)
from acainvert.nakamura import build_bar_pair, verify_theorem1

from conftest import assert_like_public_window, sha256_of
from naive_oracles import (
    all_tables,
    naive_candidate,
    naive_check_fully,
    naive_check_purely,
    naive_first_conflict,
    naive_least_fully_witness,
    naive_least_path,
    naive_least_purely_witness,
    naive_purely_certificate,
)
from test_nakamura import bar_pair_inputs, bar_table_inputs, planar_inputs, shift_pair


def rule_of(table, *offsets, q=2):
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), tuple(table))


# a binary radius-2 rule whose fully test window has 69 cells
RADIUS_TWO_TABLE = (1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1,
                    1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0)


def replay_witness(C, G, report, candidates=None):
    """Re-enact the reported violation with the plain step operator."""
    w = report.witness.window
    active = report.witness.active
    clause = report.witness.clause
    if clause == "purely-forward":
        stepped = step(C, w, active)
        assert difference(w, stepped) == frozenset(active)
        assert step(G, stepped, active) != w
    elif clause == "purely-backward":
        stepped = step(G, w, active)
        assert difference(w, stepped) == frozenset(active)
        assert step(C, stepped, active) != w
    elif clause == "eq1-forward":
        stepped = step(C, w, active)
        assert difference(w, stepped) == frozenset(active) == frozenset({(0,)})
        assert step(G, stepped, active) != w
    elif clause == "eq1-backward":
        stepped = step(G, w, active)
        assert difference(w, stepped) == frozenset(active) == frozenset({(0,)})
        assert step(C, stepped, active) != w
    elif clause == "eq2-delta":
        assert step(C, w, [(0,)]) == w
        assert all(step(G, w, [a]) != w for a in candidates)
    elif clause == "eq2-gamma":
        assert step(G, w, [(0,)]) == w
        assert all(step(C, w, [a]) != w for a in candidates)
    elif clause == "derivation-conflict":
        # the window is the minimized rule's neighborhood; two states of
        # cell 0 other than the successor's both step to the successor, so
        # no rule undoes both steps
        mini = minimize_neighborhood(C)
        origin = mini.neighborhood.origin
        assert w.cells == mini.neighborhood.offsets
        cells = dict(zip(w.cells, w.states))
        if origin not in cells:
            # the rule does not read cell 0: the successor holds its output there
            cells[origin] = mini.apply_local(w.states)
        successor = WindowConfig(tuple(cells), tuple(cells.values()))
        sources = [
            v for v in range(C.q)
            if v != successor[origin] and step(mini, successor.with_updates({origin: v}), [origin]) == successor
        ]
        assert len(sources) >= 2, sources
    else:
        raise AssertionError(f"unknown clause {clause}")


class TestPurelyTestWindow:
    """T = M + M with M = N ∪ {0}, read off the purely check's witnesses."""

    def test_eca_shape(self):
        rep = check_inverse_purely(eca_from_wolfram(110), eca_from_wolfram(110))
        assert rep.witness.window.cells == tuple((i,) for i in range(-2, 3))

    def test_origin_only(self):
        # a flip at 0 that the identity does not undo; {0} is the only set
        rep = check_inverse_purely(rule_of([1, 0], 0), rule_of([0, 1], 0))
        assert rep.witness.window.cells == ((0,),)
        assert rep.witness.active == ((0,),)
        assert rep.stats.windows == 2

    def test_pairwise_sums(self):
        # N = (0, 2): N + N = {0, 2, 4} has a gap, and only {0} and {0, 2} are tested
        rep = check_inverse_purely(rule_of([1, 0, 1, 0], 0, 2), rule_of([0, 0, 1, 1], 0, 2))
        assert rep.witness.window.cells == ((0,), (2,), (4,))
        assert rep.witness.active == ((0,),)
        assert rep.stats.windows == 2 ** 3


class TestFullyTestWindow:
    """The interval {0} ∪ N ∪ A ∪ (A+N), read off the fully check's witnesses."""

    def test_eca_shape(self):
        # A = -8..8 for q = 2, m = 1 (see TestCheckInverseFully.test_witness_replays)
        rep = check_inverse_fully_1d(eca_from_wolfram(0), eca_from_wolfram(255))
        assert rep.witness.window.cells == tuple((i,) for i in range(-9, 10))
        assert rep.stats.windows == 2 * 2 ** 19  # eq2 counts both clause pairs

    def test_empty_neighborhood(self):
        # constant 1 and constant 0: A = {0}, so the window is cell 0 alone
        rep = check_inverse_fully_1d(rule_of([1]), rule_of([0]))
        assert rep.witness.window.cells == ((0,),)
        assert rep.witness.clause == "eq2-delta"
        assert rep.stats.windows == 2 * 2 ** 1

    def test_cap_guard(self):
        with pytest.raises(ResourceCapExceededError, match="^fully test window has 19 cells, 2\\^19 exceeds cap 1024$"):
            check_inverse_fully_1d(eca_from_wolfram(110), eca_from_wolfram(110), cap=1 << 10)

    def test_cap_guard_empty_neighborhood(self):
        # the one-cell window of N = () has 2^1 windows: cap 2 answers, cap 1 refuses
        assert check_inverse_fully_1d(rule_of([1]), rule_of([0]), cap=2).stats.windows == 2 * 2 ** 1
        with pytest.raises(ResourceCapExceededError, match="^fully test window has 1 cells, 2\\^1 exceeds cap 1$"):
            check_inverse_fully_1d(rule_of([1]), rule_of([0]), cap=1)

    @pytest.mark.parametrize("far", [8000, 10**6])
    def test_far_offset_exceeds_cap_without_a_huge_size(self, far):
        # 2^(2m+1) has thousands of digits here; the refusal must not print it
        C = rule_of([0, 1, 1, 0], 0, far)
        with pytest.raises(ResourceCapExceededError):
            check_inverse_fully_1d(C, C)


@pytest.mark.parametrize("check", [check_inverse_purely, check_inverse_fully_1d])
def test_alphabet_mismatch(check):
    with pytest.raises(AlphabetMismatchError):
        check(rule_of([1, 0], 0), rule_of([0, 1, 2], 0, q=3))


class TestCheckInversePurely:
    def test_toggler_pair_invertible(self):
        rep = check_inverse_purely(eca_from_wolfram(204), eca_from_wolfram(204))
        assert rep.verdict is Verdict.INVERTIBLE
        assert rep.witness is None
        assert rep.stats.windows == 2 ** 5

    def test_keeper_pair_invertible(self):
        rep = check_inverse_purely(eca_from_wolfram(51), eca_from_wolfram(51))
        assert rep.verdict is Verdict.INVERTIBLE

    def test_constant_pair_invertible(self):
        rep = check_inverse_purely(eca_from_wolfram(0), eca_from_wolfram(255))
        assert rep.verdict is Verdict.INVERTIBLE

    def test_rule_110_self_pair_witness(self):
        rep = check_inverse_purely(eca_from_wolfram(110), eca_from_wolfram(110))
        assert rep.verdict is Verdict.NOT_INVERTIBLE
        assert rep.witness.clause == "purely-forward"
        assert rep.witness.window == WindowConfig.line((0, 0, 0, 1, 1), start=-2)
        assert rep.witness.active == ((0,), (1,))

    def test_witness_replays(self):
        for n, g in ((110, 110), (30, 30), (33, 123), (0, 0)):
            C, G = eca_from_wolfram(n), eca_from_wolfram(g)
            rep = check_inverse_purely(C, G)
            if rep.verdict is Verdict.NOT_INVERTIBLE:
                replay_witness(C, G, rep)

    def test_symmetric_verdicts(self):
        for n, g in ((110, 110), (0, 255), (35, 115), (33, 123)):
            a = check_inverse_purely(eca_from_wolfram(n), eca_from_wolfram(g))
            b = check_inverse_purely(eca_from_wolfram(g), eca_from_wolfram(n))
            assert a.verdict == b.verdict

    def test_neighborhood_mismatch(self):
        with pytest.raises(NeighborhoodMismatchError):
            check_inverse_purely(eca_from_wolfram(110), rule_of([0, 1], 0))

    def test_cap(self):
        with pytest.raises(ResourceCapExceededError):
            check_inverse_purely(eca_from_wolfram(110), eca_from_wolfram(110), cap=4)

    def test_int64_index_limit_binds_above_it(self):
        # (sum of the 9 reads) mod 3 over the 4-D von Neumann neighborhood:
        # |T| = 41 and 3^41 > 2^62, so the int64 window index, not the cap, binds
        origin = (0,) * 4
        offsets = [origin] + [tuple(s if i == j else 0 for i in range(4)) for j in range(4) for s in (-1, 1)]
        table = tuple(sum(local) % 3 for local in itertools.product(range(3), repeat=9))
        C = LocalRule(Alphabet(3), Neighborhood(4, tuple(offsets)), table)
        with pytest.raises(ResourceCapExceededError, match=f"needs {3 ** 41} window assignments, the int64 index limit is {1 << 62}$"):
            check_inverse_purely(C, C, cap=1 << 80)
        assert decide_purely(C, window_cap=1 << 80).verdict is Verdict.RESOURCE_CAP_EXCEEDED

    def test_worker_count_does_not_change_result(self):
        base = check_inverse_purely(eca_from_wolfram(110), eca_from_wolfram(110))
        for workers in (2, 4):
            rep = check_inverse_purely(eca_from_wolfram(110), eca_from_wolfram(110), workers=workers)
            assert rep.to_dict() == base.to_dict()

    def test_matches_naive_oracle_on_eca_pairs(self):
        pairs = [(0, 255), (35, 115), (51, 51), (204, 204), (110, 110), (30, 86), (33, 123)]
        for n, g in pairs:
            C, G = eca_from_wolfram(n), eca_from_wolfram(g)
            got = check_inverse_purely(C, G).verdict is Verdict.INVERTIBLE
            want = naive_check_purely((-1, 0, 1), 2, C.table, G.table)
            assert got == want, (n, g)


class TestCheckInverseFully:
    def test_keeper_pair_invertible(self):
        rep = check_inverse_fully_1d(eca_from_wolfram(51), eca_from_wolfram(51))
        assert rep.verdict is Verdict.INVERTIBLE

    def test_toggler_pair_invertible(self):
        rep = check_inverse_fully_1d(eca_from_wolfram(204), eca_from_wolfram(204))
        assert rep.verdict is Verdict.INVERTIBLE

    def test_xor_pair_invertible(self):
        rep = check_inverse_fully_1d(eca_from_wolfram(150), eca_from_wolfram(150))
        assert rep.verdict is Verdict.INVERTIBLE

    def test_constant_pair_not_invertible(self):
        rep = check_inverse_fully_1d(eca_from_wolfram(0), eca_from_wolfram(255))
        assert rep.verdict is Verdict.NOT_INVERTIBLE

    def test_witness_replays(self):
        cand = [(a,) for a in range(-8, 9)]
        for n, g in ((0, 255), (110, 110), (106, 106)):
            C, G = eca_from_wolfram(n), eca_from_wolfram(g)
            rep = check_inverse_fully_1d(C, G)
            if rep.verdict is Verdict.NOT_INVERTIBLE:
                replay_witness(C, G, rep, candidates=cand)

    def test_requires_one_dimension(self):
        square = LocalRule(Alphabet(2), Neighborhood(2, ((0, 0),)), (0, 1))
        with pytest.raises(NotOneDimensionalError):
            check_inverse_fully_1d(square, square)

    def test_cap_above_int64_decides_radius_two_rule(self):
        # 2^69 windows: the sweep uses Python ints, so only the cap limits it
        C = rule_of(RADIUS_TWO_TABLE, -2, -1, 0, 1, 2)
        G = derive_candidate_inverse(C)
        rep = check_inverse_fully_1d(C, G, cap=1 << 80)
        assert rep.verdict is Verdict.NOT_INVERTIBLE
        assert rep.witness.clause == "eq2-gamma"
        assert len(rep.witness.window.cells) == 69
        replay_witness(C, G, rep, candidates=[(a,) for a in range(-32, 33)])
        assert decide_fully_1d(C, window_cap=1 << 80).witness.clause == "eq2-gamma"
        assert decide_fully_1d(C).verdict is Verdict.RESOURCE_CAP_EXCEEDED

    def test_matches_naive_oracle_on_eca_pairs(self):
        pairs = [(33, 123), (51, 51), (204, 204), (0, 255), (110, 110), (150, 150)]
        for n, g in pairs:
            C, G = eca_from_wolfram(n), eca_from_wolfram(g)
            got = check_inverse_fully_1d(C, G).verdict is Verdict.INVERTIBLE
            want = naive_check_fully((-1, 0, 1), 2, C.table, G.table)
            assert got == want, (n, g)


def golden_fully_pairs():
    """A fixed, seeded list of 100 ECA pairs: half random, half the derived
    candidate of a random rule with at most one table bit flipped, so every
    clause and the invertible verdict all occur."""
    rng = random.Random(1208)
    pairs = []
    for i in range(100):
        a = rng.randrange(256)
        if i % 2:
            b = rng.randrange(256)
        else:
            candidate = wolfram_number(derive_candidate_inverse(eca_from_wolfram(a)))
            b = candidate ^ (rng.randrange(2) << rng.randrange(8))
        pairs.append((a, b))
    return pairs


class TestFullyGoldenWitnesses:
    """Digests of full reports (verdict, inverse, least witness window,
    clause, logical window count) recorded with the exhaustive window
    enumerator that preceded the de Bruijn sweep."""

    def test_decide_all_eca(self):
        docs = [decide_fully_1d(eca_from_wolfram(n)).to_dict() for n in range(256)]
        assert sha256_of(docs) == "3c563ff5d4b96a07d94c798657e7a679c12d34026be7adbbcbe6db50ae68e862"

    def test_check_seeded_eca_pairs(self):
        docs = [
            check_inverse_fully_1d(eca_from_wolfram(a), eca_from_wolfram(b)).to_dict()
            for a, b in golden_fully_pairs()
        ]
        assert sha256_of(docs) == "8bad0a5049764909894486fb607d70c04576760085e6d919f1d254f9384fade7"


def _partner(rng, rule):
    """A random table, or the derived candidate with at most one entry
    changed, over the rule's alphabet and neighborhood."""
    q = rule.q
    table = [rng.randrange(q) for _ in rule.table]
    candidate = derive_candidate_inverse(rule)
    if rng.randrange(2) and isinstance(candidate, LocalRule):
        table = list(candidate.table)
        table[rng.randrange(len(table))] = rng.randrange(q)
    return LocalRule(rule.alphabet, rule.neighborhood, tuple(table))


def golden_fully_rule_pairs():
    """A fixed, seeded list of 600 pairs at q in {2, 3} on one to three
    offsets in [-2, 2], each rule with a ``_partner``."""
    rng = random.Random(22)
    pairs = []
    for _ in range(600):
        q = rng.choice((2, 3))
        neighborhood = Neighborhood.line(*sorted(rng.sample(range(-2, 3), rng.randint(1, 3))))
        C = LocalRule(Alphabet(q), neighborhood, tuple(rng.randrange(q) for _ in range(q ** len(neighborhood))))
        pairs.append((C, _partner(rng, C)))
    return pairs


def test_fully_check_seeded_pairs_golden_digest():
    """Pins full reports of direct fully checks past the elementary rules,
    where every clause and the invertible verdict occur; recorded with the
    check that built its eq1 witness from the one violating block."""
    reports = [check_inverse_fully_1d(C, G, cap=1 << 1000) for C, G in golden_fully_rule_pairs()]
    clauses = {r.witness.clause if r.witness else None for r in reports}
    assert clauses == {None, "eq1-forward", "eq1-backward", "eq2-delta", "eq2-gamma"}
    assert sha256_of([r.to_dict() for r in reports]) == "c4b2642746b11696ca51da3bd3502a8e620499f0f50c559329c2d354cf6933ef"


UNCAPPED_FULLY_SPACES = ((3, 1), (4, 1), (2, 2), (2, 3), (3, 2))


def uncapped_fully_rules(q, radius, count=60):
    """``count`` seeded sparse rules at q states on offsets -radius..radius:
    each keeps cell 0 except at 2-8 redrawn entries."""
    rng = random.Random(f"uncapped {q} {radius}")
    neighborhood = Neighborhood.line(*range(-radius, radius + 1))
    size = q ** len(neighborhood)
    rules = []
    for _ in range(count):
        table = [i // q**radius % q for i in range(size)]
        for _ in range(rng.randint(2, 8)):
            table[rng.randrange(size)] = rng.randrange(q)
        rules.append(LocalRule(Alphabet(q), neighborhood, tuple(table)))
    return rules


def test_uncapped_fully_reports_golden_digest():
    """Pins fully decisions past the elementary rules at a cap above every
    q^|T| (up to 3^491 windows at q = 3, radius 2), where the default cap
    refuses many of them; each space gives both verdicts and both eq2
    clauses."""
    docs = []
    for q, radius in UNCAPPED_FULLY_SPACES:
        reports = [decide_fully_1d(rule, window_cap=1 << 2000) for rule in uncapped_fully_rules(q, radius)]
        clauses = {r.witness.clause if r.witness else None for r in reports}
        assert {None, "eq2-delta", "eq2-gamma"} <= clauses, (q, radius)
        docs += [r.to_dict() for r in reports]
    assert sha256_of(docs) == "b63ac912941d3788626a140abc2214dd1b9935cca345b19cb2a38054bce17a3a"


def golden_purely_pairs():
    """A fixed, seeded list of 150 rule pairs for the purely check: ECA
    pairs, 2- and 3-state rules on offsets in [-2, 2] (ten with no offset
    0), padded rules, one 2-D neighborhood, and the bar pairs built from
    the bar-pairs inputs in both orders."""
    rng = random.Random(1209)
    pairs = []
    for i in range(40):
        a = rng.randrange(256)
        if i % 2:
            b = rng.randrange(256)
        else:
            candidate = wolfram_number(derive_candidate_inverse(eca_from_wolfram(a)))
            b = candidate ^ (rng.randrange(2) << rng.randrange(8))
        pairs.append((eca_from_wolfram(a), eca_from_wolfram(b)))

    def random_rule(q, neighborhood):
        table = tuple(rng.randrange(q) for _ in range(q ** len(neighborhood)))
        return LocalRule(Alphabet(q), neighborhood, table)

    draws = [(2, rng.randint(1, 3), range(-2, 3)) for _ in range(30)]
    draws += [(3, rng.randint(1, 2), range(-2, 3)) for _ in range(30)]
    draws += [(rng.randint(2, 3), rng.randint(1, 2), (-2, -1, 1, 2)) for _ in range(10)]
    for q, arity, span in draws:
        C = random_rule(q, Neighborhood.line(*sorted(rng.sample(list(span), arity))))
        pairs.append((C, _partner(rng, C)))
    for _ in range(20):
        q = rng.randint(2, 3)
        base = sorted(rng.sample(range(-1, 2), 2))
        wide = Neighborhood.line(*sorted(set(base) | set(rng.sample(range(-2, 3), 2))))
        C = random_rule(q, Neighborhood.line(*base))
        G = _partner(rng, C)
        pairs.append((with_neighborhood(C, wide), with_neighborhood(G, wide)))
    square = Neighborhood(2, ((0, 0), (0, 1), (1, 0)))
    for _ in range(6):
        C = random_rule(2, square)
        pairs.append((C, _partner(rng, C)))
    for C, G in bar_pair_inputs():
        pair = build_bar_pair(C, G)
        pairs += [(pair.forward, pair.backward), (pair.backward, pair.forward)]
    return pairs


def sweep_block_pairs():
    """Every ECA with its derived candidate (itself where derivation
    conflicts), a seeded sample of 2- and 3-state rules on 1 to 4 offsets
    with partners, and the bar pair of every ``bar_pair_inputs()`` pair."""
    rng = random.Random(15)
    pairs = []
    for n in range(256):
        rule = eca_from_wolfram(n)
        candidate = derive_candidate_inverse(rule)
        pairs.append((rule, candidate if isinstance(candidate, LocalRule) else rule))
    for _ in range(60):
        q = rng.randint(2, 3)
        neighborhood = Neighborhood.line(*sorted(rng.sample(range(-2, 3), rng.randint(1, 4))))
        C = LocalRule(Alphabet(q), neighborhood, [rng.randrange(q) for _ in range(q ** len(neighborhood))])
        pairs.append((C, _partner(rng, C)))
    for C, G in bar_pair_inputs():
        pair = build_bar_pair(C, G)
        pairs.append((pair.forward, pair.backward))
    return pairs


@pytest.fixture
def expansions(monkeypatch):
    """(rows in, rows out) of every block the purely sweep extends.  The
    sweep makes its first row with ``numpy.zeros``, patched here to return
    it as an ndarray subclass, which every slice and repeat of it
    inherits, whose 2-D ``repeat`` logs its rows in and out."""
    log = []

    class Rows(np.ndarray):
        def repeat(self, repeats, axis=None):
            out = super().repeat(repeats, axis)
            if self.ndim == 2:
                log.append((len(self), len(out)))
            return out

    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: zeros(*args, **kwargs).view(Rows))
    return log


def assert_block_bound(log, q):
    """The memory bound of the purely sweep: a block of more than one row
    is never extended into more than ``_SWEEP_BLOCK`` rows, while one row
    may make up to q."""
    assert log
    block = invertibility._SWEEP_BLOCK
    assert all(out <= (block if n > 1 else q) for n, out in log), (block, q, max(log, key=lambda e: e[1]))


@pytest.mark.parametrize("block", [1, 3, 64])
def test_sweep_block_does_not_change_results(monkeypatch, expansions, block):
    """A block of more than one row that would make more than
    ``_SWEEP_BLOCK`` children (n·q of n rows at a column without a test,
    the flips their reads allow at a test column) is halved by rows, and
    the bound cut across activation sets drops rows too; none of it may
    change a verdict or a witness, in either direction, or break the
    sweep's memory bound.  A pair whose M = N ∪ {0} is {0} alone has only
    the set {0}, which is decided by one table comparison and never
    swept, so there is no block to bound; every other pair sweeps its
    two-cell sets, and the bound is asserted on each of them."""
    ordered = [(C, G) for pair in sweep_block_pairs() for C, G in (pair, pair[::-1])]
    default = [check_inverse_purely(C, G).to_dict() for C, G in ordered]
    monkeypatch.setattr(invertibility, "_SWEEP_BLOCK", block)
    swept = 0
    for (C, G), expected in zip(ordered, default):
        expansions.clear()
        assert check_inverse_purely(C, G).to_dict() == expected
        if len({C.neighborhood.origin, *C.neighborhood.offsets}) >= 2:
            assert_block_bound(expansions, C.q)
            swept += 1
    assert swept


def test_shift_bar_pair_keeps_the_block_bound(expansions):
    """The q = 4 shift pair's bar pair (48 states) splits blocks at test
    columns at the default block size."""
    pair = build_bar_pair(*shift_pair(4))
    report = check_inverse_purely(pair.forward, pair.backward, cap=1 << 62)
    assert report.verdict is Verdict.INVERTIBLE
    assert_block_bound(expansions, pair.forward.q)


def test_every_set_sweep_returns_a_window_that_replays(monkeypatch):
    """Each activation set D of each ``sweep_block_pairs()`` pair is swept
    on its own, in both directions.  A row it returns is a window over T,
    0 outside D + M, whose cells the first rule changes at exactly D and
    the second does not restore; a block of one row returns the same rows."""

    def sweeps():
        for C, G in sweep_block_pairs():
            layout, sweep = invertibility._purely_sets(C, G, 1 << 62)
            for backward in (False, True):
                for i, active in enumerate(layout):
                    row = sweep(backward, i, None)
                    yield C, G, backward, layout.cells, active, None if row is None else tuple(row.tolist())

    swept = list(sweeps())
    witnesses = 0
    for C, G, backward, cells, active, row in swept:
        if row is None:
            continue
        witnesses += 1
        A, B = (G, C) if backward else (C, G)
        reads = {add_cells(c, m) for c in active for m in {C.neighborhood.origin, *C.neighborhood.offsets}}
        assert all(state == 0 for cell, state in zip(cells, row) if cell not in reads)
        w = WindowConfig(cells, row)
        stepped = step(A, w, active)
        assert difference(w, stepped) == frozenset(active)
        assert step(B, stepped, active) != w
    assert witnesses
    monkeypatch.setattr(invertibility, "_SWEEP_BLOCK", 1)
    assert [row for *_, row in sweeps()] == [row for *_, row in swept]


def test_padded_bar_pair_holds_in_smaller_blocks(monkeypatch, expansions):
    """The last ``bar_table_inputs()`` pair, on (-2, ..., 2), has 12^9
    windows, so it runs at one block size only: a quarter of the default.
    Both directions are invertible, as the construction claims, so the
    check sweeps only the sets of at most two cells here; the larger sets,
    where blocks split at both kinds of column, are swept at this block
    size by ``test_small_sets_decide_on_pinned_pairs``."""
    monkeypatch.setattr(invertibility, "_SWEEP_BLOCK", invertibility._SWEEP_BLOCK // 4)
    pair = build_bar_pair(*bar_table_inputs()[-1])
    for C, G in ((pair.forward, pair.backward), (pair.backward, pair.forward)):
        expansions.clear()
        report = check_inverse_purely(C, G, cap=1 << 62)
        assert (report.verdict, report.inverse, report.witness) == (Verdict.INVERTIBLE, G, None)
        assert_block_bound(expansions, C.q)


def set_holds(C, G):
    """The activation family and, per direction (forward, then backward),
    whether each set's clause holds, every set swept on its own."""
    family, sweep = invertibility._purely_sets(C, G, 1 << 62)
    return family, [[sweep(backward, i, None) is None for i in range(len(family))] for backward in (False, True)]


def assert_small_sets_decide(C, G):
    """The sets of at most two cells decide the purely verdict: both
    directions' small sets hold iff every set does, and one direction holds
    on every set once its own small sets and the other direction's {0}
    hold.  The check answers what the whole family answers.  Returns
    whether the small sets hold."""
    family, holds = set_holds(C, G)
    small = [all(h for h, active in zip(flags, family) if len(active) <= 2) for flags in holds]
    whole = all(holds[0]) and all(holds[1])
    assert (small[0] and small[1]) == whole, (C, G)
    for d in (0, 1):
        # family[0] is {0}
        if small[d] and holds[1 - d][0]:
            assert all(holds[d]), (C, G, d)
    assert (check_inverse_purely(C, G, cap=1 << 62).verdict is Verdict.INVERTIBLE) == whole, (C, G)
    return small[0] and small[1]


def small_set_bar_pairs():
    """The bar pairs of every ``bar_table_inputs()`` pair, the padded one
    included, and of the unpadded planar pair (the padded planar pair's
    larger sets sweep for minutes)."""
    pairs = [build_bar_pair(C, G) for C, G in bar_table_inputs() + planar_inputs()[:1]]
    return [(pair.forward, pair.backward) for pair in pairs]


SMALL_SET_CORPORA = {
    "sweep-block": sweep_block_pairs,
    "golden": golden_purely_pairs,
    "bar": small_set_bar_pairs,
}


@pytest.mark.parametrize("corpus", SMALL_SET_CORPORA)
def test_small_sets_decide_on_pinned_pairs(monkeypatch, corpus):
    """At a quarter of the default block, so the padded bar pair's larger
    sets split blocks at both kinds of column."""
    monkeypatch.setattr(invertibility, "_SWEEP_BLOCK", invertibility._SWEEP_BLOCK // 4)
    passed = [assert_small_sets_decide(C, G) for C, G in SMALL_SET_CORPORA[corpus]()]
    # only a pair that passes the small sets could show a mismatch
    assert any(passed)


VON_NEUMANN = Neighborhood(2, ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)))


@st.composite
def sparse_flip_pairs(draw):
    """A rule that keeps cell 0 except at 1-6 redrawn entries, q <= 3, on
    M = N of at most six cells in [-3, 3] or on the 2-D von Neumann
    neighborhood, and a partner: its derived candidate (the rule itself on
    a conflict), with one entry redrawn half the time.  Such pairs often
    pass the small sets, the only inputs on which they could disagree
    with the whole family."""
    q = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        others = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=5, unique=True))
        neighborhood = Neighborhood.line(0, *others)
    else:
        neighborhood = VON_NEUMANN
    k = len(neighborhood)
    weight = q ** (k - 1 - neighborhood.offsets.index(neighborhood.origin))
    table = [index // weight % q for index in range(q**k)]
    entries = st.tuples(st.integers(0, q**k - 1), st.integers(0, q - 1))
    for index, state in draw(st.lists(entries, min_size=1, max_size=6)):
        table[index] = state
    C = LocalRule(Alphabet(q), neighborhood, tuple(table))
    candidate = derive_candidate_inverse(C)
    partner = list((candidate if isinstance(candidate, LocalRule) else C).table)
    if draw(st.booleans()):
        partner[draw(st.integers(0, q**k - 1))] = draw(st.integers(0, q - 1))
    return C, LocalRule(C.alphabet, neighborhood, tuple(partner))


@settings(max_examples=150, deadline=None)
@given(pair=sparse_flip_pairs())
def test_small_sets_decide_on_sparse_flip_pairs(pair):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invertibility, "_SWEEP_BLOCK", invertibility._SWEEP_BLOCK // 4)
        assert_small_sets_decide(*pair)


def least_unreturned_zero_flip(A, B):
    """Brute force over the q^|M| local configurations x over M = N ∪ {0},
    in order: the window over T = M + M that holds x on M and 0 elsewhere,
    for the least x whose center A changes and B, reading the result, does
    not change back; None if there is none."""
    origin = A.neighborhood.origin
    reach = sorted({origin, *A.neighborhood.offsets})
    cells = sorted({add_cells(a, b) for a in reach for b in reach})
    for x in itertools.product(range(A.q), repeat=len(reach)):
        local = dict(zip(reach, x))
        out = A.apply_local([local[n] for n in A.neighborhood])
        if out != local[origin]:
            image = {**local, origin: out}
            if B.apply_local([image[n] for n in B.neighborhood]) != local[origin]:
                return tuple(local.get(cell, 0) for cell in cells)
    return None


def zero_set_pairs():
    """``sweep_block_pairs()`` and ``golden_purely_pairs()``, with pairs on
    no offset, on the offset 0 alone, on offsets without 0, and in 2-D."""
    pairs = sweep_block_pairs() + golden_purely_pairs()
    for q in (2, 3):
        pairs += [(rule_of(a, q=q), rule_of(b, q=q)) for a, b in itertools.product([(s,) for s in range(q)], repeat=2)]
        pairs += [(rule_of(a, 0, q=q), rule_of(b, 0, q=q)) for a in itertools.permutations(range(q)) for b in
                  (a, tuple(range(q)), tuple(reversed(range(q))))]
    rng = random.Random(24)
    planar = [Neighborhood(2, ((0, 1), (1, 0))), Neighborhood(2, ((0, 0), (0, 1), (1, -1))), VON_NEUMANN]
    for neighborhood in [Neighborhood.line(-1, 1), Neighborhood.line(-2, 1)] + planar:
        for _ in range(4):
            C = LocalRule(Alphabet(2), neighborhood, [rng.randrange(2) for _ in range(2 ** len(neighborhood))])
            pairs += [(C, _partner(rng, C)), (C, C)]
    return pairs


def assert_zero_set_is_the_brute_force(C, G):
    """``sweep(backward, 0, None)`` returns the brute-force row in each
    direction.  Returns the rows."""
    layout, sweep = invertibility._purely_sets(C, G, 1 << 62)
    rows = []
    for backward, (A, B) in ((False, (C, G)), (True, (G, C))):
        row = sweep(backward, 0, None)
        expected = least_unreturned_zero_flip(A, B)
        assert (None if row is None else tuple(row.tolist())) == expected, (C, G, backward)
        rows.append(expected)
    return rows


def test_zero_set_is_one_table_comparison():
    """The set {0} is decided by one comparison of the two widened tables;
    its least window must be the least violating local configuration, in
    both directions, on every pinned pair."""
    rows = [row for C, G in zero_set_pairs() for row in assert_zero_set_is_the_brute_force(C, G)]
    assert any(row is None for row in rows) and any(row is not None for row in rows)


@settings(max_examples=100, deadline=None)
@given(pair=sparse_flip_pairs())
def test_zero_set_is_one_table_comparison_on_sparse_flip_pairs(pair):
    assert_zero_set_is_the_brute_force(*pair)


def cache_sample():
    """A seeded sample of rules for the layout caches: q in {2, 3} on one
    to four offsets in [-2, 2], some without 0, some padded by a dummy
    offset, and some center-permuting, so that many decisions reach the
    sweeps; 1-D, so the fully decider takes them too."""
    rng = random.Random(1)
    rules = []
    for _ in range(120):
        q = rng.choice((2, 3))
        neighborhood = Neighborhood.line(*sorted(rng.sample(range(-2, 3), rng.randint(1, 4))))
        if rng.random() < 0.5 and (0,) in neighborhood:
            weight = q ** (len(neighborhood) - 1 - neighborhood.offsets.index((0,)))
            shift = rng.randrange(1, q)
            table = [(index // weight % q + shift * (rng.random() < 0.3)) % q for index in range(q ** len(neighborhood))]
        else:
            table = [rng.randrange(q) for _ in range(q ** len(neighborhood))]
        rule = LocalRule(Alphabet(q), neighborhood, table)
        if len(neighborhood) < 4 and rng.random() < 0.3:
            free = [n for n in range(-2, 3) if (n,) not in neighborhood]
            rule = with_neighborhood(rule, Neighborhood(1, (*neighborhood, (rng.choice(free),))))
        rules.append(rule)
    return rules


def sample_reports(rules):
    return [[decide(rule).to_dict() for decide in (decide_purely, decide_fully_1d)] for rule in rules]


def clear_layout_caches():
    invertibility._purely_layout.cache_clear()
    invertibility._fully_layout.cache_clear()


def test_layout_caches_do_not_depend_on_order():
    """Layouts are built per (N, q) on first use; deciding the sample
    forward from empty caches, then backward from full ones, then backward
    from empty ones gives the same reports."""
    rules = cache_sample()
    clear_layout_caches()
    forward = sample_reports(rules)
    assert sample_reports(rules[::-1])[::-1] == forward
    clear_layout_caches()
    assert sample_reports(rules[::-1])[::-1] == forward
    verdicts = {doc["verdict"] for pair in forward for doc in pair}
    assert {"invertible", "not-invertible"} <= verdicts
    assert any(doc["witness"] and doc["witness"]["clause"].startswith("purely") for doc, _ in forward)


def test_layout_caches_give_the_bytes_of_a_fresh_interpreter(tmp_path):
    """A subprocess decides the sample with empty caches; its report
    bytes equal this process's, whose caches are warm."""
    tests = Path(__file__).resolve().parent
    rules = cache_sample()
    sample_reports(rules)  # fills the caches
    expected = json.dumps(sample_reports(rules))
    script = (
        "import json, sys\n"
        "from test_invertibility import cache_sample, sample_reports\n"
        "sys.stdout.write(json.dumps(sample_reports(cache_sample())))\n"
    )
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_cached_layout_arrays_are_read_only():
    """Every check of one (N, q) and cap reads the same cached weights, so
    no caller may write to them."""
    C = eca_from_wolfram(30)
    check_inverse_purely(C, C)
    layout = invertibility._purely_layout(C.neighborhood, 2, DEFAULT_WINDOW_CAP)
    with pytest.raises(ValueError):
        layout.weights[0] = 1
    same, _ = invertibility._purely_sets(C, C, DEFAULT_WINDOW_CAP)
    assert same is layout
    with pytest.raises(ValueError):
        same.weights[-1] += 1


def test_layouts_are_kept_per_neighborhood_and_alphabet():
    """Two alphabets on one neighborhood get two layouts, each with the
    index weights of its own q."""
    for q in (2, 3, 2):
        C = LocalRule(Alphabet(q), Neighborhood.line(-1, 0, 1), [0] * q**3)
        layout, _ = invertibility._purely_sets(C, C, 1 << 62)
        assert layout.weights.tolist() == [q ** (len(layout.cells) - 1 - x) for x in range(len(layout.cells))]


def test_refused_layout_is_not_cached():
    """A q^|T| over the cap is refused before the layout is built, so the
    refused (N, q, cap) leaves no cache entry; once (N, q) is cached under
    a larger cap, the smaller cap still refuses it."""
    # the identity on (-3, 0, 5); T = {-6, -3, 0, 2, 5, 10}, so 2^6 windows
    C = rule_of([0, 0, 1, 1, 0, 0, 1, 1], -3, 0, 5)
    clear_layout_caches()
    with pytest.raises(ResourceCapExceededError):
        check_inverse_purely(C, C, cap=2**6 - 1)
    assert invertibility._purely_layout.cache_info().currsize == 0
    assert check_inverse_purely(C, C, cap=2**6).verdict is Verdict.INVERTIBLE
    assert invertibility._purely_layout.cache_info().currsize == 1
    with pytest.raises(ResourceCapExceededError):
        check_inverse_purely(C, C, cap=2**6 - 1)
    assert invertibility._purely_layout.cache_info().currsize == 1


def test_one_neighborhood_under_two_caps_gives_the_same_reports():
    """Layouts are cached per (N, q) and cap, so deciding the sample under
    a second cap builds each layout again; the report bytes are the same."""
    rules = cache_sample()
    clear_layout_caches()
    reports, sizes = [], []
    for cap in (DEFAULT_WINDOW_CAP, 1 << 62):
        reports.append(json.dumps([decide_purely(rule, window_cap=cap).to_dict() for rule in rules]))
        sizes.append(invertibility._purely_layout.cache_info().currsize)
    assert reports[0] == reports[1]
    assert sizes[1] == 2 * sizes[0] > 0


def test_layout_cache_evicts_without_changing_reports():
    """300 binary pairs on (0, d), d = 1 .. 300, need 300 layouts, more
    than the cache holds; the checks give the reports each gives from an
    empty cache, also when its layout was evicted and is built again."""
    rng = random.Random(27)
    pairs = []
    for d in range(1, 301):
        C = rule_of([rng.randrange(2) for _ in range(4)], 0, d)
        candidate = derive_candidate_inverse(C)
        pairs.append((C, candidate if isinstance(candidate, LocalRule) else _partner(rng, C)))
    fresh = []
    for C, G in pairs:
        clear_layout_caches()
        fresh.append(check_inverse_purely(C, G).to_dict())
    clear_layout_caches()
    assert [check_inverse_purely(C, G).to_dict() for C, G in pairs] == fresh
    info = invertibility._purely_layout.cache_info()
    assert (info.currsize, info.misses) == (256, 300)
    # the 44 least recently used layouts were evicted
    assert [check_inverse_purely(C, G).to_dict() for C, G in pairs[:44]] == fresh[:44]
    assert invertibility._purely_layout.cache_info().misses == 344
    assert {doc["verdict"] for doc in fresh} == {"invertible", "not-invertible"}


def shift_bar_pair(q):
    pair = build_bar_pair(*shift_pair(q))
    return pair.forward, pair.backward


FLIP_LIST_PAIRS = {
    "shift-bar-q4": lambda: shift_bar_pair(4),
    "failing-backward-zero": lambda: (eca_from_wolfram(4), eca_from_wolfram(236)),
    "zero-reach": lambda: (rule_of([1, 0], 0), rule_of([1, 0], 0)),
}


@pytest.mark.parametrize("name", FLIP_LIST_PAIRS)
def test_each_direction_lists_its_flips_once(monkeypatch, name):
    """A check lists each direction's flips once, whichever of {0}, the
    small sets and the larger sets it sweeps: two ``_flips`` calls on two
    different tables."""
    C, G = FLIP_LIST_PAIRS[name]()
    tables = []
    flips = invertibility._flips
    monkeypatch.setattr(invertibility, "_flips", lambda tab, q, w: tables.append(tab) or flips(tab, q, w))
    check_inverse_purely(C, G, cap=1 << 62)
    assert len(tables) == 2 and tables[0] is not tables[1]


def test_invertible_pair_builds_plans_for_the_two_cell_sets_only(monkeypatch):
    """The binary identity rule on 16 offsets has 2^15 activation sets.
    An invertible verdict sweeps only the sets {0, e}, so only their 15
    plans are built, and {0}, a table comparison, needs none."""
    offsets = range(-7, 9)
    C = LocalRule(Alphabet(2), Neighborhood.line(*offsets), [index >> 8 & 1 for index in range(1 << 16)])
    built = []
    plan = invertibility._set_plan
    monkeypatch.setattr(invertibility, "_set_plan", lambda active, *rest: built.append(active) or plan(active, *rest))
    clear_layout_caches()
    report = check_inverse_purely(C, C, cap=1 << 62)
    assert (report.verdict, report.inverse) == (Verdict.INVERTIBLE, C)
    assert len(built) < len(offsets) + 1
    zero = offsets.index(0)
    assert sorted(built) == sorted([sorted({zero, x}) for x in range(len(offsets)) if x != zero])


# (offsets, C table, G table, clause): on M = N ∪ {0} of four cells the
# family order puts a three-cell set before a two-cell one, and in these
# pairs both violate the reported direction's least window
LEAST_WINDOW_TIES = [
    ((-2, 0, 1, 3), (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1),
     (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1), "purely-forward"),
    ((-2, -1, 0, 1), (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1),
     (1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1), "purely-backward"),
]


@pytest.mark.parametrize("offsets,delta,gamma,clause", LEAST_WINDOW_TIES)
def test_tie_on_the_least_window_goes_to_the_earlier_set(offsets, delta, gamma, clause):
    """The small sets are swept first, so the later two-cell set sets the
    bound; the earlier three-cell set must still win the tie."""
    C = rule_of(delta, *offsets)
    G = rule_of(gamma, *offsets)
    family, sweep = invertibility._purely_sets(C, G, 1 << 62)
    backward = clause == "purely-backward"
    least = {}
    for i in range(len(family)):
        row = sweep(backward, i, None)
        if row is not None:
            least[i] = int(row @ family.weights)
    window = min(least.values())
    ties = [i for i in sorted(least) if least[i] == window]
    assert len(family[ties[0]]) == 3 and any(len(family[i]) == 2 for i in ties[1:])
    w = check_inverse_purely(C, G).witness
    assert (w.active, w.clause) == (family[ties[0]], clause)
    assert (w.window.states, tuple(c[0] for c in w.active), w.clause) == naive_least_purely_witness(
        offsets, 2, delta, gamma
    )


@pytest.mark.parametrize("n,g", [(4, 236), (20, 236)])
def test_failing_backward_zero_sends_the_forward_direction_to_its_larger_sets(n, g):
    """The forward small sets hold, but the backward {0} fails, so the
    small sets do not decide the forward direction; here it fails at M."""
    C, G = eca_from_wolfram(n), eca_from_wolfram(g)
    family, holds = set_holds(C, G)
    assert all(h for h, active in zip(holds[0], family) if len(active) <= 2) and not holds[1][0]
    w = check_inverse_purely(C, G).witness
    assert (w.active, w.clause) == (((-1,), (0,), (1,)), "purely-forward")
    assert (w.window.states, tuple(c[0] for c in w.active), w.clause) == naive_least_purely_witness(
        (-1, 0, 1), 2, C.table, G.table
    )


class TestPurelyGoldenWitnesses:
    """Digests of full reports (verdict, inverse, least witness window,
    activation set, clause, logical window count) recorded with the
    chunked window enumerator that preceded the per-activation-set sweep."""

    def test_decide_all_eca(self):
        docs = [decide_purely(eca_from_wolfram(n)).to_dict() for n in range(256)]
        assert sha256_of(docs) == "c8f8933bba3ae545eac7173bf7fb514953093f3f75202bab5262c3cde786741a"

    def test_check_seeded_pairs(self):
        docs = [check_inverse_purely(C, G).to_dict() for C, G in golden_purely_pairs()]
        assert sha256_of(docs) == "f18f46c0419836f1d36ab84400f0c3222624502d6e17f80a770fccdd2ae67d86"


def widening_pairs():
    """A fixed, seeded list of 48 pairs at q = 2, 3 on offsets in [-2, 2],
    half of them without offset 0."""
    rng = random.Random(1210)
    pairs = []
    for i in range(48):
        q = 2 + i // 2 % 2
        offsets = rng.sample((-2, -1, 1, 2), rng.randint(1, 4 - q))
        if i % 2:
            offsets.append(0)
        table = tuple(rng.randrange(q) for _ in range(q ** len(offsets)))
        C = LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)
        pairs.append((C, _partner(rng, C)))
    return pairs


def test_checks_agree_on_pairs_widened_to_their_reads():
    """The purely sweep reads both rules widened to M = N ∪ {0}, and the
    fully sweep widened to the block min(M) .. max(M).  Widening a pair
    to that neighborhood first leaves the test window and the activation
    family as they are, so the verdict, witness and window count agree."""
    clauses = set()
    for C, G in widening_pairs():
        reads = sorted({0, *(n[0] for n in C.neighborhood)})
        for check, wide, cap in (
            (check_inverse_purely, Neighborhood.line(*reads), 1 << 24),
            (check_inverse_fully_1d, Neighborhood.line(*range(reads[0], reads[-1] + 1)), 1 << 800),
        ):
            a = check(C, G, cap=cap)
            b = check(with_neighborhood(C, wide), with_neighborhood(G, wide), cap=cap)
            assert (a.verdict, a.witness, a.stats.windows) == (b.verdict, b.witness, b.stats.windows), (C, G)
            clauses.add(a.witness.clause if a.witness else None)
    assert clauses == {
        None, "purely-forward", "purely-backward", "eq1-forward", "eq1-backward", "eq2-delta", "eq2-gamma"
    }


@pytest.mark.parametrize(
    "offsets,q", [((), 2), ((0,), 2), ((1,), 2), ((-1, 0), 2), ((0,), 3), ((-1, 1), 2), ((1,), 3)]
)
def test_purely_witness_matches_naive_least_witness(offsets, q):
    neighborhood = Neighborhood.line(*offsets)
    tables = [tuple(t) for t in all_tables(q, len(offsets))]
    for delta, gamma in itertools.product(tables, repeat=2):
        C = LocalRule(Alphabet(q), neighborhood, delta)
        G = LocalRule(Alphabet(q), neighborhood, gamma)
        w = check_inverse_purely(C, G).witness
        got = None if w is None else (w.window.states, tuple(c[0] for c in w.active), w.clause)
        assert got == naive_least_purely_witness(offsets, q, delta, gamma), (delta, gamma)


@pytest.mark.parametrize("offsets,q", [((), 2), ((0,), 2), ((), 3), ((0,), 3)])
def test_fully_witness_matches_naive_least_witness(offsets, q):
    neighborhood = Neighborhood.line(*offsets)
    tables = [tuple(t) for t in all_tables(q, len(offsets))]
    for delta, gamma in itertools.product(tables, repeat=2):
        C = LocalRule(Alphabet(q), neighborhood, delta)
        G = LocalRule(Alphabet(q), neighborhood, gamma)
        rep = check_inverse_fully_1d(C, G)
        got = None if rep.witness is None else (rep.witness.window.states, rep.witness.clause)
        assert got == naive_least_fully_witness(offsets, q, delta, gamma), (delta, gamma)


def least_path_cases():
    """Seeded (q, k, masks) for ``_least_path``: q <= 3, k <= 3 and at most
    six steps.  The masks are empty, full, dense or sparse; each list draws
    them from a small pool, so one mask object recurs in runs, and some
    lists have the fully check's shape, a run of one mask on each side of
    another."""
    rng = random.Random(26)
    cases = []
    for q, k, steps in itertools.product((1, 2, 3), (1, 2, 3), range(7)):
        size = q**k
        full = (1 << size) - 1
        for _ in range(3):
            dense = rng.getrandbits(size) | rng.getrandbits(size)
            sparse = rng.getrandbits(size) & rng.getrandbits(size)
            pool = (0, full, dense, sparse)
            cases.append((q, k, [rng.choice(pool) for _ in range(steps)]))
            cases.append((q, k, [dense] * (steps // 2) + [sparse] + [dense] * (steps // 2)))
        cases += [(q, k, [0] * steps), (q, k, [full] * steps)]
    return cases


def test_least_path_matches_brute_force():
    words = []
    for q, k, allowed in least_path_cases():
        word = invertibility._least_path(q, k, allowed)
        assert word == naive_least_path(q, k, allowed), (q, k, allowed)
        words.append(word)
    assert None in words and any(w is not None and any(w) for w in words)


class TestDeriveCandidate:
    def test_keeper_yields_itself(self):
        assert wolfram_number(derive_candidate_inverse(eca_from_wolfram(51))) == 51

    def test_toggler_yields_itself(self):
        assert wolfram_number(derive_candidate_inverse(eca_from_wolfram(204))) == 204

    def test_constant_rules_pair_up(self):
        assert wolfram_number(derive_candidate_inverse(eca_from_wolfram(0))) == 255
        assert wolfram_number(derive_candidate_inverse(eca_from_wolfram(255))) == 0

    def test_rule_33(self):
        assert wolfram_number(derive_candidate_inverse(eca_from_wolfram(33))) == 123

    def test_center_blind_q3_conflict(self):
        # delta(l) = l(1) over N=(1): distinct centers flip to the same
        # successor window, so no table can undo both.
        rule = rule_of([0, 1, 2], 1, q=3)
        conflict = derive_candidate_inverse(rule)
        assert isinstance(conflict, DerivationConflict)
        assert conflict.first_value != conflict.second_value

    def test_center_blind_q2_has_no_conflict(self):
        # With two states the alternative center value is unique.
        rule = rule_of([0, 1], 1)
        candidate = derive_candidate_inverse(rule)
        assert isinstance(candidate, LocalRule)

    def test_candidate_is_necessary_for_all_invertible_eca(self):
        # Wherever the decider finds an inverse, that inverse agrees with
        # the derived candidate (the candidate's pinned entries are forced).
        for n in (35, 43, 49, 51, 59, 113, 115, 204):
            rule = minimize_neighborhood(eca_from_wolfram(n))
            candidate = derive_candidate_inverse(rule)
            rep = check_inverse_purely(rule, candidate)
            assert rep.verdict is Verdict.INVERTIBLE


def conflict_rules():
    """The 3-state rule x_1 on N = (1,), and 60 seeded rules with q <= 3 on
    offsets in [-2, 2] whose candidate derivation conflicts, half of them
    drawn with offset 0 and half without.  No binary rule conflicts: two
    flips onto one image change its center from two values other than its
    own."""
    rng = random.Random(1211)
    rules = [rule_of([0, 1, 2], 1, q=3)]
    while len(rules) < 61:
        q = rng.choice((2, 3))
        with_origin = len(rules) % 2
        offsets = rng.sample((-2, -1, 1, 2), rng.randint(1 - with_origin, 2)) + [0] * with_origin
        rule = rule_of([rng.randrange(q) for _ in range(q ** len(offsets))], *offsets, q=q)
        if isinstance(derive_candidate_inverse(minimize_neighborhood(rule)), DerivationConflict):
            rules.append(rule)
    return rules


@pytest.mark.parametrize("decide", [decide_purely, decide_fully_1d])
def test_derivation_conflict_witnesses_replay(decide):
    """Every derivation-conflict witness among the 256 elementary rules
    (there are none) and the conflict rules replays through core.step."""
    eca = [eca_from_wolfram(n) for n in range(256)]
    replayed = {True: 0, False: 0}
    for rule in eca + conflict_rules():
        rep = decide(rule)
        if rep.witness is None or rep.witness.clause != "derivation-conflict":
            assert rule in eca, rule
            continue
        replay_witness(rule, None, rep)
        replayed[rule.neighborhood.origin in minimize_neighborhood(rule).neighborhood] += 1
    # the minimized neighborhood holds 0 for some conflicts and lacks it for others
    assert replayed[True] >= 10 and replayed[False] >= 10, replayed


def test_witness_windows_match_the_public_constructor():
    """The witness windows the checks build over cells they hold in order
    (every clause, and both two-predecessor windows) are the windows the
    public constructor builds."""
    rules = all_eca_rules() + conflict_rules()
    reports = [decide(rule) for rule in rules for decide in (decide_purely, decide_fully_1d)]
    reports += [check_inverse_fully_1d(eca_from_wolfram(a), eca_from_wolfram(b)) for a, b in golden_fully_pairs()]
    clauses = set()
    for report in reports:
        if report.witness is not None:
            assert_like_public_window(report.witness.window)
            clauses.add(report.witness.clause)
    assert clauses == {
        "purely-forward", "purely-backward", "eq1-forward", "eq1-backward", "eq2-delta", "eq2-gamma",
        "derivation-conflict",
    }
    for rule in all_eca_rules()[1::15] + witness_sample_rules()[:30]:
        pair = two_predecessor_witness(rule)
        if pair is not None:
            assert_like_public_window(pair.first)
            assert_like_public_window(pair.second)


def test_derivation_conflict_sources_match_naive_walk():
    """With 0 in the minimized neighborhood, the whole conflict (image,
    both sources and their centers) is the first one a walk of the table
    in index order meets."""
    checked = 0
    for rule in conflict_rules():
        mini = minimize_neighborhood(rule)
        if mini.neighborhood.origin not in mini.neighborhood:
            continue
        conflict = derive_candidate_inverse(mini)
        offsets = tuple(c[0] for c in mini.neighborhood.offsets)
        assert (
            conflict.observed,
            conflict.first_source,
            conflict.first_value,
            conflict.second_source,
            conflict.second_value,
        ) == naive_first_conflict(offsets, mini.q, mini.table), rule
        checked += 1
    assert checked >= 10


def test_derivations_without_center_golden_digest():
    """Candidates and decisions of rules whose neighborhood lacks 0: the
    first 2,000 tables at q in 1..4 over (), (1,), (-1,) and (-1, 1),
    recorded before that branch of the derivation was reduced."""
    docs = []
    for q in (1, 2, 3, 4):
        for offsets in ((), (1,), (-1,), (-1, 1)):
            for table in itertools.islice(all_tables(q, len(offsets)), 2000):
                rule = rule_of(table, *offsets, q=q)
                docs.append(repr(derive_candidate_inverse(rule)))
                docs.append(decide_purely(rule).to_dict())
                docs.append(decide_fully_1d(rule).to_dict())
    assert len(docs) == 13809
    assert sha256_of(docs) == "f392d02159e3b2450372ef63c4a4a38dd4201786a8b523102cbd923dfaf56188"


def _unpinned_candidate_rules(rng, count):
    """Seeded rules with 0 in N, q in {2, 3} and offsets in [-2, 2] whose
    candidate derivation succeeds; each entry keeps its center with
    probability 1/2, so that 3-state rules derive too."""
    rules = []
    while len(rules) < count:
        q = rng.choice((2, 3))
        # most binary rules stay within [-1, 1], where the fully check runs too
        near = q == 2 and rng.random() < 0.75
        others = rng.sample([-1, 1] if near else [-2, -1, 1, 2], rng.randint(0, 2 if near or q == 3 else 3))
        offsets = tuple(sorted(others + [0]))
        weight = q ** (len(offsets) - 1 - offsets.index(0))
        table = [
            (i // weight) % q if rng.random() < 0.5 else rng.randrange(q) for i in range(q ** len(offsets))
        ]
        rule = rule_of(table, *offsets, q=q)
        candidate = derive_candidate_inverse(rule)
        if isinstance(candidate, LocalRule):
            rules.append((rule, candidate, weight))
    return rules


def test_candidate_is_unique_at_unpinned_entries():
    """An entry no flip of the rule maps to is unpinned: the candidate
    keeps the center there, and any other value there is flipped back by
    no rule entry, so the changed table is no inverse under either scheme.
    Fully checks run on binary rules with offsets in [-1, 1]; wider fully
    windows exceed the cap."""
    rng = random.Random(7)
    variations = {"purely": 0, "fully": 0}
    for rule, candidate, weight in _unpinned_candidate_rules(rng, 265):
        q = rule.q
        # the flip images of the rule, computed from its table here
        pinned = {i + (out - (i // weight) % q) * weight for i, out in enumerate(rule.table)}
        unpinned = [i for i in range(len(rule.table)) if i not in pinned]
        fully = q == 2 and all(abs(o[0]) <= 1 for o in rule.neighborhood.offsets)
        for i in unpinned:
            assert candidate.table[i] == (i // weight) % q
            for value in range(q):
                if value == candidate.table[i]:
                    continue
                table = list(candidate.table)
                table[i] = value
                other = LocalRule(rule.alphabet, rule.neighborhood, tuple(table))
                assert check_inverse_purely(rule, other).verdict is Verdict.NOT_INVERTIBLE, (rule, i, value)
                variations["purely"] += 1
                if fully:
                    assert check_inverse_fully_1d(rule, other).verdict is Verdict.NOT_INVERTIBLE, (rule, i, value)
                    variations["fully"] += 1
    assert variations["purely"] >= 600 and variations["fully"] >= 100, variations


class TestDecidePurely:
    @pytest.mark.parametrize("n,expected", [(0, True), (33, False), (255, True), (204, True)])
    def test_paper_examples(self, n, expected):
        rep = decide_purely(eca_from_wolfram(n))
        assert (rep.verdict is Verdict.INVERTIBLE) == expected

    def test_inverse_re_expressed_over_original_neighborhood(self):
        rep = decide_purely(eca_from_wolfram(204))
        assert rep.verdict is Verdict.INVERTIBLE
        assert rep.inverse.neighborhood == eca_from_wolfram(204).neighborhood
        assert wolfram_number(rep.inverse) == 204

    def test_invertible_result_checks_both_directions(self):
        for n in (0, 35, 51, 115):
            rule = eca_from_wolfram(n)
            rep = decide_purely(rule)
            assert rep.verdict is Verdict.INVERTIBLE
            assert check_inverse_purely(rule, rep.inverse).verdict is Verdict.INVERTIBLE
            assert check_inverse_purely(rep.inverse, rule).verdict is Verdict.INVERTIBLE

    def test_not_invertible_has_witness(self):
        rep = decide_purely(eca_from_wolfram(110))
        assert rep.verdict is Verdict.NOT_INVERTIBLE
        assert rep.witness is not None

    def test_window_cap_verdict(self):
        rep = decide_purely(eca_from_wolfram(110), window_cap=4)
        assert rep.verdict is Verdict.RESOURCE_CAP_EXCEEDED
        assert rep.witness is None and rep.inverse is None

    def test_derivation_conflict_verdict(self):
        rule = rule_of([0, 1, 2], 1, q=3)
        rep = decide_purely(rule)
        assert rep.verdict is Verdict.NOT_INVERTIBLE
        assert rep.witness.clause == "derivation-conflict"

    def test_dummy_neighbor_invariance_sample(self):
        wide = Neighborhood.line(-2, -1, 0, 1)
        for n in (0, 33, 110, 204, 150):
            rule = eca_from_wolfram(n)
            padded = with_neighborhood(rule, wide)
            assert decide_purely(rule).verdict == decide_purely(padded).verdict


def naive_certifies(rule):
    """Whether the naive two-cell certificate passes for a 1-D rule over
    offsets that hold 0 and its naively derived candidate; a derivation
    conflict fails it."""
    offsets, q = tuple(o[0] for o in rule.neighborhood.offsets), rule.q
    if naive_first_conflict(offsets, q, rule.table) is not None:
        return False
    return naive_purely_certificate(offsets, q, rule.table, naive_candidate(offsets, q, rule.table))


def certificate_rules():
    """300 seeded 1-D rules with q in {2, 3} on offsets in [-2, 2] that
    hold 0: the identity on the center with one to three entries redrawn."""
    rng = random.Random(31)
    rules = []
    for _ in range(300):
        q = rng.choice((2, 3))
        offsets = sorted({0, *rng.sample((-2, -1, 1, 2), rng.randint(0, 4))})
        weight = q ** (len(offsets) - 1 - offsets.index(0))
        table = [i // weight % q for i in range(q ** len(offsets))]
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(len(table))] = rng.randrange(q)
        rules.append(rule_of(table, *offsets, q=q))
    return rules


@pytest.mark.parametrize("corpus", ["eca", "seeded"])
def test_naive_certificate_agrees_with_decide_purely(corpus):
    """The two-cell certificate, checked by plain loops that share no code
    with the package, passes exactly for the rules that decide_purely
    finds invertible."""
    rules = [eca_from_wolfram(n) for n in range(256)] if corpus == "eca" else certificate_rules()
    verdicts = [decide_purely(rule, window_cap=1 << 62).verdict for rule in rules]
    assert [naive_certifies(rule) for rule in rules] == [v is Verdict.INVERTIBLE for v in verdicts]
    # both answers occur
    assert len(set(verdicts)) == 2


def von_neumann_rules():
    """30 seeded binary rules on the von Neumann neighborhood: the identity
    on the center with each entry flipped with probability p, p cycling
    through 0.002, 0.01, 0.03, 0.05, 0.1 and 0.2."""
    rng = random.Random(33)
    neighborhood = Neighborhood(2, ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)))
    weight = 2 ** (len(neighborhood) - 1 - neighborhood.offsets.index((0, 0)))
    ps = (0.002, 0.01, 0.03, 0.05, 0.1, 0.2)
    return [
        LocalRule(Alphabet(2), neighborhood, [i // weight % 2 ^ (rng.random() < ps[r % len(ps)]) for i in range(32)])
        for r in range(30)
    ]


def test_naive_certificate_agrees_with_decide_purely_in_2d():
    """The two-cell certificate on d-tuple offsets passes exactly for the
    2-D rules that decide_purely finds invertible (binary rules have no
    derivation conflict, so the naive candidate is always defined)."""
    rules = von_neumann_rules()
    verdicts = [decide_purely(rule, window_cap=1 << 62).verdict for rule in rules]
    certified = []
    for rule in rules:
        offsets = rule.neighborhood.offsets
        assert naive_first_conflict(offsets, 2, rule.table) is None
        certified.append(naive_purely_certificate(offsets, 2, rule.table, naive_candidate(offsets, 2, rule.table)))
    assert certified == [v is Verdict.INVERTIBLE for v in verdicts]
    # both answers occur, each for at least a third of the rules
    assert min(certified.count(True), certified.count(False)) >= 10


def relation_rules():
    """600 seeded 1-D rules with q in {2, 3} on offsets in [-2, 2] that
    hold 0: a random permutation of the center state with one to three
    entries redrawn."""
    rng = random.Random(34)
    rules = []
    for _ in range(600):
        q = rng.choice((2, 3))
        offsets = sorted({0, *rng.sample((-2, -1, 1, 2), rng.randint(0, 4))})
        weight = q ** (len(offsets) - 1 - offsets.index(0))
        permutation = rng.sample(range(q), q)
        table = [permutation[i // weight % q] for i in range(q ** len(offsets))]
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(len(table))] = rng.randrange(q)
        rules.append(rule_of(table, *offsets, q=q))
    return rules


_BOTH_ECA = PURELY_INVERTIBLE_ECA & FULLY_INVERTIBLE_ECA


@pytest.mark.parametrize(
    "corpus,expected",
    [("eca", (len(PURELY_INVERTIBLE_ECA) + len(FULLY_INVERTIBLE_ECA), len(_BOTH_ECA))), ("seeded", (434, 170))],
)
def test_inverses_round_trip_and_agree_across_schemes(corpus, expected):
    """Deciding a returned inverse, under the same scheme, gives back the
    rule up to minimization; and when both schemes find a rule
    invertible, their inverses are equal.  ``expected`` counts the round
    trips over both schemes and the rules invertible under both."""
    rules = [eca_from_wolfram(n) for n in range(256)] if corpus == "eca" else relation_rules()
    round_trips = agreements = 0
    for rule in rules:
        reports = [decide(rule) for decide in (decide_purely, decide_fully_1d)]
        for report, decide in zip(reports, (decide_purely, decide_fully_1d)):
            if report.verdict is Verdict.INVERTIBLE:
                back = decide(report.inverse)
                assert back.verdict is Verdict.INVERTIBLE, (rule, decide)
                assert minimize_neighborhood(back.inverse) == minimize_neighborhood(rule), (rule, decide)
                round_trips += 1
        if all(report.verdict is Verdict.INVERTIBLE for report in reports):
            assert reports[0].inverse == reports[1].inverse, rule
            agreements += 1
    assert (round_trips, agreements) == expected


_BAD_CAPS = {"float": 2.0**30, "float-1e9": 1e9, "str": "9", "bool": True, "numpy-float": np.float64(1 << 24)}
# the deciders answer these two without a checker: one state, and a derivation conflict
_ONE_STATE = LocalRule(Alphabet(1), Neighborhood.line(-1, 0), [0])
_CONFLICT = LocalRule(Alphabet(3), Neighborhood.line(-1, 0), [1, 1, 0, 1, 2, 1, 1, 1, 1])


@pytest.mark.parametrize("cap", _BAD_CAPS.values(), ids=_BAD_CAPS)
@pytest.mark.parametrize(
    "call",
    [
        lambda identity, cap: check_inverse_purely(identity, identity, cap=cap),
        lambda identity, cap: check_inverse_fully_1d(identity, identity, cap=cap),
        lambda identity, cap: decide_purely(identity, window_cap=cap),
        lambda identity, cap: decide_fully_1d(identity, window_cap=cap),
        lambda identity, cap: classify_all_eca("purely", cap=cap),
        lambda identity, cap: classify_all_eca("fully", cap=cap),
        lambda identity, cap: verify_theorem1(identity, identity, cap=cap),
        lambda identity, cap: decide_purely(_ONE_STATE, window_cap=cap),
        lambda identity, cap: decide_fully_1d(_ONE_STATE, window_cap=cap),
        lambda identity, cap: decide_purely(_CONFLICT, window_cap=cap),
        lambda identity, cap: decide_fully_1d(_CONFLICT, window_cap=cap),
    ],
    ids=["check-purely", "check-fully", "decide-purely", "decide-fully", "atlas-purely", "atlas-fully",
         "verify-theorem1", "decide-purely-one-state", "decide-fully-one-state", "decide-purely-conflict",
         "decide-fully-conflict"],
)
def test_window_caps_must_be_integers(call, cap):
    """A cap that is not an integer is refused, not truncated, compared as
    a float or read as 1."""
    with pytest.raises(OutOfRangeError) as caught:
        call(eca_from_wolfram(51), cap)
    assert str(caught.value) == f"window cap {cap!r} is not an integer"


def test_numpy_integer_caps_are_read_as_ints():
    rule = eca_from_wolfram(51)
    for decide in (decide_purely, decide_fully_1d):
        assert decide(rule, window_cap=np.int64(1 << 24)).inverse == decide(rule).inverse == rule
        assert decide(rule, window_cap=np.int64(1)).verdict is Verdict.RESOURCE_CAP_EXCEEDED


class TestDecideFully:
    @pytest.mark.parametrize("n,expected", [(33, True), (0, False), (150, True), (204, True)])
    def test_paper_examples(self, n, expected):
        rep = decide_fully_1d(eca_from_wolfram(n))
        assert (rep.verdict is Verdict.INVERTIBLE) == expected

    def test_rule_33_inverse_is_123(self):
        rep = decide_fully_1d(eca_from_wolfram(33))
        assert wolfram_number(rep.inverse) == 123

    def test_invertible_result_checks_both_directions(self):
        for n in (33, 51, 150):
            rule = eca_from_wolfram(n)
            rep = decide_fully_1d(rule)
            assert check_inverse_fully_1d(rule, rep.inverse).verdict is Verdict.INVERTIBLE
            assert check_inverse_fully_1d(rep.inverse, rule).verdict is Verdict.INVERTIBLE

    def test_requires_one_dimension(self):
        square = LocalRule(Alphabet(2), Neighborhood(2, ((0, 0),)), (0, 1))
        with pytest.raises(NotOneDimensionalError):
            decide_fully_1d(square)

    def test_window_cap_verdict(self):
        rep = decide_fully_1d(eca_from_wolfram(33), window_cap=64)
        assert rep.verdict is Verdict.RESOURCE_CAP_EXCEEDED

    def test_frozen_negative_witness(self):
        rep = decide_fully_1d(eca_from_wolfram(0))
        assert rep.verdict is Verdict.NOT_INVERTIBLE
        assert rep.witness.clause == "eq2-delta"
        assert rep.witness.window == WindowConfig.line((0,), start=0)


class TestReportSerialization:
    def test_millis_zeroed_by_default(self):
        rep = decide_purely(eca_from_wolfram(110))
        doc = rep.to_dict()
        assert doc["stats"]["millis"] == 0
        assert set(doc) == {"verdict", "inverse", "witness", "stats"}

    def test_timings_opt_in(self):
        rep = decide_purely(eca_from_wolfram(110))
        assert rep.to_dict(timings=True)["stats"]["millis"] >= 0


class TestTwoPredecessorWitness:
    def test_trivial_rule_has_none(self):
        assert two_predecessor_witness(eca_from_wolfram(51)) is None

    def test_toggler_matches_pinned_construction(self):
        wit = two_predecessor_witness(eca_from_wolfram(204))
        assert wit.first == WindowConfig.line((0, 1, 0, 0, 0, 0, 0), start=-3)
        assert wit.second == WindowConfig.line((0, 0, 0, 0, 0, 1, 0), start=-3)
        assert wit.first_active == (2,)
        assert wit.second_active == (-2,)

    def test_constant_rule_witness(self):
        wit = two_predecessor_witness(eca_from_wolfram(0))
        assert wit.first == WindowConfig.line((0, 0, 0, 0, 0, 1, 0), start=-3)
        assert wit.second == WindowConfig.line((0, 1, 0, 0, 0, 0, 0), start=-3)

    def test_validity_for_sample(self):
        for n in (0, 30, 90, 110, 204, 255):
            rule = eca_from_wolfram(n)
            wit = two_predecessor_witness(rule)
            assert wit.first != wit.second
            merged_first = step(rule, wit.first, [wit.first_active])
            merged_second = step(rule, wit.second, [wit.second_active])
            assert merged_first == merged_second

    def test_box_past_the_bound_is_refused(self, monkeypatch):
        """On offsets (0, D) the windows span -1 .. D + 1, so D + 3 cells;
        past the bound the construction refuses before filling the box."""
        monkeypatch.setattr(invertibility, "_WITNESS_CELLS", 100)
        for far in (90, 97):
            wit = two_predecessor_witness(rule_of([1, 0, 1, 0], 0, far))
            assert len(wit.first.cells) == far + 3
        for far in (98, 1000):
            message = f"^witness window spans {far + 3} cells, more than 100$"
            with pytest.raises(ResourceCapExceededError, match=message):
                two_predecessor_witness(rule_of([1, 0, 1, 0], 0, far))


def witness_sample_rules():
    """600 seeded rules in 1-3 dimensions at q in {2, 3}: offset 0 plus up
    to three offsets in [-3, 3]^d, each entry flipped with probability 0.3
    (to a state other than its center's), else mapped to its center."""
    rng = random.Random(2121)
    rules = []
    for _ in range(600):
        dim, q = rng.randint(1, 3), rng.choice((2, 3))
        others = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 3))}
        neighborhood = Neighborhood(dim, tuple(others | {(0,) * dim}))
        weight = q ** (len(neighborhood) - 1 - neighborhood.offsets.index((0,) * dim))
        table = []
        for idx in range(q ** len(neighborhood)):
            center = idx // weight % q
            table.append(rng.choice([s for s in range(q) if s != center]) if rng.random() < 0.3 else center)
        rules.append(LocalRule(Alphabet(q), neighborhood, table))
    return rules


def all_eca_rules():
    return [eca_from_wolfram(n) for n in range(256)]


@pytest.mark.parametrize(
    "rules,digest",
    [
        (witness_sample_rules, "9c20dbcd76be185127c34d54d868ea6f60012d6adb50a0ccf268a932c8250968"),
        (all_eca_rules, "67ee30f118d68a53287e744812c4d182c3813dbc6684065ad60f88e1d86eef03"),
    ],
    ids=["seeded_1_to_3_dims", "all_eca"],
)
def test_witness_golden_digest(rules, digest):
    """Pins every witness window, cell for cell, in one to three dimensions;
    recorded with the construction that filled a dict of the whole box."""
    docs = [None if w is None else w.to_dict() for w in map(two_predecessor_witness, rules())]
    assert sha256_of(docs) == digest


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 255), g=st.integers(0, 255))
def test_purely_check_symmetry_property(n, g):
    a = check_inverse_purely(eca_from_wolfram(n), eca_from_wolfram(g))
    b = check_inverse_purely(eca_from_wolfram(g), eca_from_wolfram(n))
    assert a.verdict == b.verdict


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 255), g=st.integers(0, 255))
def test_purely_check_matches_naive_property(n, g):
    got = check_inverse_purely(eca_from_wolfram(n), eca_from_wolfram(g)).verdict
    want = naive_check_purely((-1, 0, 1), 2, eca_from_wolfram(n).table, eca_from_wolfram(g).table)
    assert (got is Verdict.INVERTIBLE) == want


# large enough that every drawn rule decides under both schemes
PROPERTY_CAP = 1 << 800


@st.composite
def small_rules(draw):
    """q in {2, 3} on 1-3 offsets in [-2, 2]: a uniform table, or one that
    permutes cell 0's state for each reading of the other cells."""
    q = draw(st.sampled_from((2, 3)))
    neighborhood = Neighborhood.line(*draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)))
    k = len(neighborhood)
    if (0,) in neighborhood and draw(st.booleans()):
        center = neighborhood.offsets.index((0,))
        drawn = draw(st.lists(st.permutations(range(q)), min_size=q ** (k - 1), max_size=q ** (k - 1)))
        perms = dict(zip(itertools.product(range(q), repeat=k - 1), drawn))
        table = [
            perms[local[:center] + local[center + 1 :]][local[center]]
            for local in itertools.product(range(q), repeat=k)
        ]
    else:
        table = draw(st.lists(st.integers(0, q - 1), min_size=q**k, max_size=q**k))
    return LocalRule(Alphabet(q), neighborhood, tuple(table))


@settings(max_examples=60, deadline=None)
@given(rule=small_rules())
def test_deciders_property(rule):
    """Every negative witness replays on the pair the decider checked, and
    every inverse passes the check in the opposite direction."""
    mini = minimize_neighborhood(rule)
    candidate = derive_candidate_inverse(mini)
    offsets = [n[0] for n in mini.neighborhood.offsets]
    reach = rule.q ** (2 * max(abs(o) for o in offsets) + 1) if offsets else 0
    candidates = [(a,) for a in range(-reach, reach + 1)]
    for decide, check in ((decide_purely, check_inverse_purely), (decide_fully_1d, check_inverse_fully_1d)):
        rep = decide(rule, window_cap=PROPERTY_CAP)
        if rep.verdict is Verdict.NOT_INVERTIBLE:
            replay_witness(mini, candidate, rep, candidates=candidates)
        else:
            assert rep.verdict is Verdict.INVERTIBLE
            assert check(rep.inverse, rule, cap=PROPERTY_CAP).verdict is Verdict.INVERTIBLE


def mirrored(rule):
    """The rule on the mirrored lattice: offsets negated, table re-indexed."""
    offsets = [n[0] for n in rule.neighborhood.offsets]
    neighborhood = Neighborhood.line(*(-o for o in offsets))
    mirror = [n[0] for n in neighborhood.offsets]
    table = []
    for local in itertools.product(range(rule.q), repeat=rule.arity):
        seen = dict(zip(mirror, local))
        table.append(rule.apply_local([seen[-o] for o in offsets]))
    return LocalRule(rule.alphabet, neighborhood, tuple(table))


def relabeled(rule, perm):
    """The rule with every state s renamed perm[s]."""
    back = {t: s for s, t in enumerate(perm)}
    table = tuple(
        perm[rule.apply_local([back[s] for s in local])] for local in rule.all_locals()
    )
    return LocalRule(rule.alphabet, rule.neighborhood, table)


@pytest.mark.parametrize("decide", [decide_purely, decide_fully_1d])
def test_eca_verdicts_invariant_under_mirror_and_state_swap(decide):
    for n in range(256):
        rule = eca_from_wolfram(n)
        base = decide(rule)
        for transform in (mirrored, lambda r: relabeled(r, (1, 0))):
            image = decide(transform(rule))
            assert image.verdict is base.verdict, n
            if base.inverse is not None:
                assert image.inverse == transform(base.inverse), n


def dilated(rule, g):
    """The 1-D rule reading offset g·n where it read n."""
    return LocalRule(rule.alphabet, Neighborhood.line(*(g * n[0] for n in rule.neighborhood.offsets)), rule.table)


@pytest.mark.parametrize("g", [2, 3])
def test_purely_eca_verdicts_invariant_under_dilation(g):
    """Reading (-g, 0, g) splits Z into g independent copies of the ECA's
    lattice, so neither the verdict nor, dilated, the inverse may change.
    The fully scheme waits for a check past the window cap: at g = 2 its
    window has 69 cells, refused even at cap 2^62."""
    for n in range(256):
        rule = eca_from_wolfram(n)
        base = decide_purely(rule)
        image = decide_purely(dilated(rule, g))
        assert image.verdict is base.verdict, n
        assert image.inverse == (None if base.inverse is None else dilated(base.inverse, g)), n


def test_purely_verdicts_invariant_under_mirror_and_state_permutation():
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(200):
        q = rng.choice((2, 3))
        offsets = sorted(rng.sample(range(-2, 3), rng.randint(1, 3)))
        table = tuple(rng.randrange(q) for _ in range(q ** len(offsets)))
        rule = LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)
        perm = tuple(rng.sample(range(q), q))
        want = decide_purely(rule).verdict
        verdicts.add(want)
        assert decide_purely(mirrored(rule)).verdict is want, (q, offsets, table)
        assert decide_purely(relabeled(rule, perm)).verdict is want, (q, offsets, table, perm)
    assert verdicts == {Verdict.INVERTIBLE, Verdict.NOT_INVERTIBLE}
