"""Seeded cyclic-lattice sandbox runs."""

from __future__ import annotations

import collections.abc
import hashlib
import importlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from acainvert import eca_from_wolfram
from acainvert.errors import LatticeTooSmallError, NotOneDimensionalError, OutOfRangeError, ResourceCapExceededError
from acainvert.simulate import TraceStep, simulate

from naive_oracles import step_ring

# the package exports the function ``simulate`` under the module's name
simulate_module = importlib.import_module("acainvert.simulate")


def test_fully_scheme_activates_exactly_one_cell():
    trace = simulate(eca_from_wolfram(110), [0, 1, 0, 1, 1], "fully", 20, seed=7)
    assert len(trace.steps) == 20
    for entry in trace.steps:
        assert len(entry.active) == 1
    assert trace.p is None


def test_purely_scheme_respects_probability_extremes():
    rule = eca_from_wolfram(110)
    quiet = simulate(rule, [0, 1, 0, 1, 1], "purely", 10, seed=3, p=0.0)
    assert all(entry.active == () for entry in quiet.steps)
    assert quiet.steps[-1].states == (0, 1, 0, 1, 1)
    busy = simulate(rule, [0, 1, 0, 1, 1], "purely", 10, seed=3, p=1.0)
    assert all(entry.active == (0, 1, 2, 3, 4) for entry in busy.steps)


def test_same_seed_reproduces():
    a = simulate(eca_from_wolfram(30), [0, 0, 1, 0, 0], "purely", 15, seed=42)
    b = simulate(eca_from_wolfram(30), [0, 0, 1, 0, 0], "purely", 15, seed=42)
    assert a == b
    c = simulate(eca_from_wolfram(30), [0, 0, 1, 0, 0], "purely", 15, seed=43)
    assert a != c


def test_trace_serialization():
    trace = simulate(eca_from_wolfram(204), [0, 0, 0], "fully", 1, seed=0)
    doc = trace.to_dict()
    assert doc["scheme"] == "fully"
    assert doc["initial"] == [0, 0, 0]
    assert len(doc["steps"]) == 1
    assert set(doc["steps"][0]) == {"active", "states"}


def test_validation_errors():
    rule = eca_from_wolfram(110)
    with pytest.raises(ValueError):
        simulate(rule, [0, 1, 0], "diagonal", 1, seed=0)
    with pytest.raises(OutOfRangeError):
        simulate(rule, [0, 1, 0], "purely", 1, seed=0, p=1.5)
    with pytest.raises(LatticeTooSmallError):
        simulate(rule, [0, 1], "purely", 1, seed=0)
    from acainvert import Alphabet, LocalRule, Neighborhood

    flat = LocalRule(Alphabet(2), Neighborhood(2, (((0, 0)),)), (0, 1))
    with pytest.raises(NotOneDimensionalError):
        simulate(flat, [0, 1, 0], "purely", 1, seed=0)


def test_trace_at_the_bound_runs_and_one_entry_more_is_refused(monkeypatch):
    rule = eca_from_wolfram(110)
    # 5 cells over 3 steps: (5 + 1) * (3 + 1) entries
    monkeypatch.setattr(simulate_module, "_TRACE_ENTRIES", 24)
    assert len(simulate(rule, [0, 1, 0, 1, 1], "fully", 3, seed=1).steps) == 3
    monkeypatch.setattr(simulate_module, "_TRACE_ENTRIES", 23)
    with pytest.raises(ResourceCapExceededError):
        simulate(rule, [0, 1, 0, 1, 1], "fully", 3, seed=1)


def test_oversized_trace_is_refused_before_any_cell_is_read():
    class Unreadable(collections.abc.Sequence):
        def __len__(self):
            return 1 << 40

        def __getitem__(self, index):
            raise AssertionError("a cell was read")

    with pytest.raises(ResourceCapExceededError):
        simulate(eca_from_wolfram(110), Unreadable(), "fully", 1, seed=1)


@pytest.mark.parametrize("p", [True, False, "0.5", None, float("nan")])
def test_bad_probabilities_are_refused(p):
    with pytest.raises(OutOfRangeError):
        simulate(eca_from_wolfram(110), [0, 1, 0], "purely", 1, seed=0, p=p)


@pytest.mark.parametrize("p", [0, Fraction(1, 3), np.float64(0.5)])
def test_probability_is_kept_as_given(p):
    trace = simulate(eca_from_wolfram(110), [0, 1, 0], "purely", 2, seed=0, p=p)
    assert trace.p is p


@pytest.mark.parametrize("initial", [[1.9, True, 0], [0, 1, "1"], [0, 1, 0.0], [0, 2, 1], [-1, 0, 1]])
def test_bad_initial_states_are_refused(initial):
    with pytest.raises(OutOfRangeError):
        simulate(eca_from_wolfram(204), initial, "fully", 2, seed=0)


@pytest.mark.parametrize("steps", [-3, 2.0, True, "2"])
def test_bad_step_counts_are_refused(steps):
    with pytest.raises(OutOfRangeError):
        simulate(eca_from_wolfram(204), [0, 1, 0], "purely", steps, seed=0)


def test_integer_like_states_are_accepted():
    import numpy as np

    trace = simulate(eca_from_wolfram(204), np.array([1, 0, 1]), "fully", 2, seed=0)
    assert trace.initial == (1, 0, 1)
    assert all(type(s) is int for s in trace.initial)
    assert simulate(eca_from_wolfram(204), [0, 1, 0], "purely", 0, seed=0).steps == ()


# ------------------------------------------------------------ pinned traces


def _golden_groups():
    """Seeded trace inputs, grouped; every input is derived from fixed seeds.

    Each case is ``(rule, initial, scheme, steps, seed, p)``.  The groups
    cover every ECA under both schemes, 3-state rules, a padded rule,
    neighborhoods that omit 0 and the empty one, lattices exactly as long
    as the neighborhood extent, and the activation probabilities 0, 0.3
    and 1.
    """
    from acainvert import Alphabet, LocalRule, Neighborhood, with_neighborhood

    rng = random.Random("golden-traces")

    def line_rule(q, offsets):
        size = q ** len(offsets)
        table = tuple(rng.randrange(q) for _ in range(size))
        return LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)

    def cases(rule, size, steps, schemes=("purely", "fully"), ps=(0.3,)):
        out = []
        for scheme in schemes:
            for p in ps if scheme == "purely" else (0.5,):
                initial = [rng.randrange(rule.q) for _ in range(size)]
                out.append((rule, initial, scheme, steps, rng.randrange(1 << 31), p))
        return out

    groups = {}
    for scheme in ("purely", "fully"):
        groups[f"eca-{scheme}"] = [
            case for n in range(256)
            for case in cases(eca_from_wolfram(n), 11, 14, schemes=(scheme,))
        ]
    groups["q3"] = [
        case for offsets in ((-1, 0, 1), (0, 1), (-2, 0), (0,))
        for case in cases(line_rule(3, offsets), 13, 25)
    ]
    padded = with_neighborhood(eca_from_wolfram(30), Neighborhood.line(-2, -1, 0, 1, 3))
    groups["padded"] = cases(padded, 12, 30)
    groups["offsets-without-0"] = [
        case for q, offsets in ((2, (-1, 1)), (2, (1, 2)), (3, (-3,)), (2, (-2, 2)))
        for case in cases(line_rule(q, offsets), 9, 25)
    ]
    groups["empty-neighborhood"] = [
        case for q in (2, 3) for case in cases(line_rule(q, ()), 5, 10)
    ]
    groups["size-equals-extent"] = [
        case for q, offsets in ((2, (-1, 0, 1)), (3, (-2, 0, 1)), (2, (3,)), (2, ()), (3, (0, 4)))
        for case in cases(line_rule(q, offsets), max(offsets, default=0) - min(offsets, default=0) + 1, 12)
    ]
    groups["p-extremes"] = [
        case for n in (30, 54, 110, 204)
        for case in cases(eca_from_wolfram(n), 10, 8, schemes=("purely",), ps=(0.0, 0.3, 1.0))
    ]
    return groups


def _digest(group) -> str:
    lines = [
        json.dumps(simulate(rule, initial, scheme, steps, seed, p=p).to_dict(), sort_keys=True)
        for rule, initial, scheme, steps, seed, p in group
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestTraceGoldenDigests:
    """sha256 over the sorted-key JSON of each trace, one line per trace.

    Recorded with the per-step cyclic update loop that ``simulate`` had
    before its step loop was inlined, so a trace that changes by one bit
    or one random draw fails here.
    """

    DIGESTS = {
        "eca-fully": "b4310b57dc6df3e805054a1012d903e57bdfda419ec3330ce485b73beb11f392",
        "eca-purely": "80aee9d8348b70ded72a4b864c506327ef2abfbb41819b28b94c90478ba89ef0",
        "empty-neighborhood": "5fcabbd5b617c9e9241e514e45fe7057dda13ac3c62f3b8849e834247ac201fc",
        "offsets-without-0": "7aa22b43ea2507e4efcd0a0c5e87b5ba1d227b6d0fb72b6daee9e8e5f9ce9639",
        "p-extremes": "ad1c6667eadf0ae7cb833917af0b58a3d514637fef94f5fc52364fed8f4ec8bb",
        "padded": "86835c774e4d98a2d8b217abd72420dd9d67910604e4e61eaada57dc8ffd79af",
        "q3": "411144c13a05b02d00f281370334b4a1ed5d919e1cc79b9e72c84075a0925df7",
        "size-equals-extent": "79ab8a4870b270ef9784642dd496f1d5312341ae573099881931c816e25747b3",
    }

    @pytest.fixture(scope="class")
    def groups(self):
        return _golden_groups()

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, groups, name):
        assert _digest(groups[name]) == self.DIGESTS[name]

    def test_every_group_is_pinned(self, groups):
        assert set(groups) == set(self.DIGESTS)


def test_traces_replay_through_naive_oracle():
    """Each step equals ``step_ring`` on a schedule drawn, as the docstring of
    ``simulate`` says, from an independent ``random.Random(seed)``."""
    for group in _golden_groups().values():
        for rule, initial, scheme, steps, seed, p in group:
            trace = simulate(rule, initial, scheme, steps, seed, p=p)
            offsets = tuple(o[0] for o in rule.neighborhood.offsets)
            rng = random.Random(seed)
            n = len(initial)
            states = tuple(initial)
            assert trace.initial == states
            assert len(trace.steps) == steps
            for entry in trace.steps:
                if scheme == "purely":
                    active = tuple(i for i in range(n) if rng.random() < p)
                else:
                    active = (rng.randrange(n),)
                states = step_ring(offsets, rule.q, rule.table, states, active)
                assert entry == TraceStep(active, states)
