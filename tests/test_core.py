"""Core types: alphabets, neighborhoods, rules, windows, and the step operator."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acainvert import (
    ECA_NEIGHBORHOOD,
    Alphabet,
    LocalRule,
    Neighborhood,
    WindowConfig,
    difference,
    eca_from_wolfram,
    local_config,
    minimize_neighborhood,
    simulate,
    step,
    with_neighborhood,
    wolfram_number,
)
from acainvert.errors import (
    DomainMismatchError,
    NotElementaryError,
    OutOfDomainError,
    OutOfRangeError,
)

from conftest import translate
from naive_oracles import step_ring


def rule_of(table, *offsets, q=2):
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), tuple(table))


class TestAlphabet:
    def test_states(self):
        assert 2 in Alphabet(3)
        assert 3 not in Alphabet(3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(0)


class TestNeighborhood:
    def test_canonical_order(self):
        n = Neighborhood(1, ((1,), (-1,), (0,)))
        assert n.offsets == ((-1,), (0,), (1,))
        assert n == Neighborhood.line(-1, 0, 1) == ECA_NEIGHBORHOOD

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Neighborhood.line(0, 0)

    def test_pairwise_sums(self):
        n = Neighborhood.line(-1, 0, 1)
        assert n.pairwise_sums() == frozenset({(-2,), (-1,), (0,), (1,), (2,)})

    def test_symmetrized_with_origin(self):
        assert Neighborhood.line(1).symmetrized_with_origin() == Neighborhood.line(-1, 0, 1)
        assert Neighborhood.line(-2, 1).symmetrized_with_origin() == Neighborhood.line(-2, -1, 1, 2, 0)

    def test_union(self):
        assert Neighborhood.line(0, 1).union(Neighborhood.line(-1)) == ECA_NEIGHBORHOOD


class TestLocalRule:
    def test_index_is_mixed_radix_first_offset_most_significant(self):
        rule = rule_of([i % 2 for i in range(8)], -1, 0, 1)
        assert rule.local_index((1, 0, 1)) == 5
        assert rule.local_index((0, 1, 1)) == 3
        assert rule.decode_index(5) == (1, 0, 1)

    def test_index_round_trip_q3(self):
        rule = rule_of([0] * 9, -1, 1, q=3)
        for idx, local in enumerate(itertools.product(range(3), repeat=2)):
            assert rule.local_index(local) == idx
            assert rule.decode_index(idx) == local

    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            rule_of([0, 1], -1, 0, 1)

    def test_table_values_validated(self):
        with pytest.raises(ValueError):
            rule_of([0, 2], 0)

    @pytest.mark.parametrize("table, bad", [([0, 3, 1, 7], 3), ([1, -1, 5, 0], -1)])
    def test_table_error_names_first_bad_value(self, table, bad):
        with pytest.raises(ValueError, match=rf"^table value {bad} outside alphabet of size 2$"):
            rule_of(table, -1, 1)


class TestWolframCodec:
    def test_round_trip_all_256(self):
        for n in range(256):
            assert wolfram_number(eca_from_wolfram(n)) == n

    def test_constant_rules(self):
        assert eca_from_wolfram(0).table == (0,) * 8
        assert eca_from_wolfram(255).table == (1,) * 8

    def test_center_keeper_and_toggler(self):
        keep = eca_from_wolfram(51)
        toggle = eca_from_wolfram(204)
        for local in keep.all_locals():
            assert keep.apply_local(local) == local[1]
            assert toggle.apply_local(local) == 1 - local[1]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            eca_from_wolfram(256)
        with pytest.raises(OutOfRangeError):
            eca_from_wolfram(-1)

    def test_non_elementary_rejected(self):
        with pytest.raises(NotElementaryError):
            wolfram_number(rule_of([0, 1], 0))


class TestWindowConfig:
    def test_sorted_cells(self):
        w = WindowConfig(((2,), (0,), (1,)), (5, 3, 4))
        assert w.cells == ((0,), (1,), (2,))
        assert w.states == (3, 4, 5)

    def test_line_and_segment(self):
        w = WindowConfig.line((1, 2, 3), start=-1)
        assert w[(0,)] == 2
        assert w.cells == ((-1,), (0,), (1,))

    def test_getitem_out_of_domain(self):
        w = WindowConfig.line((1, 2, 3))
        with pytest.raises(OutOfDomainError):
            w[(9,)]

    def test_with_updates(self):
        w = WindowConfig.line((0, 0, 0))
        assert w.with_updates({(1,): 1}).states == (0, 1, 0)
        with pytest.raises(OutOfDomainError):
            w.with_updates({(7,): 1})

    def test_mapping_round_trip(self):
        w = WindowConfig.line((4, 5), start=2)
        assert WindowConfig.from_mapping({(3,): 5, (2,): 4}) == w


class TestStep:
    def test_toggler_single_cell(self):
        rule = eca_from_wolfram(204)
        w = WindowConfig.line((0, 0, 0), start=-1)
        assert step(rule, w, [(0,)]).states == (0, 1, 0)

    def test_keeper_is_identity(self):
        rule = eca_from_wolfram(51)
        w = WindowConfig.line((0, 1, 0), start=-1)
        assert step(rule, w, [(0,)]) == w

    def test_empty_activation_is_identity(self):
        for n in (30, 90, 110, 184):
            rule = eca_from_wolfram(n)
            w = WindowConfig.line((0, 1, 1, 0, 1), start=-2)
            assert step(rule, w, []) == w

    def test_active_cell_must_be_in_domain(self):
        rule = eca_from_wolfram(204)
        w = WindowConfig.line((0, 0, 0), start=-1)
        with pytest.raises(OutOfDomainError):
            step(rule, w, [(5,)])

    def test_neighbor_must_be_in_domain(self):
        rule = eca_from_wolfram(204)
        w = WindowConfig.line((0, 0, 0), start=-1)
        with pytest.raises(OutOfDomainError):
            step(rule, w, [(1,)])

    def test_simultaneity_reads_the_old_states(self):
        # Rule 170 maps every cell to the complement of its right neighbor;
        # updating two adjacent cells together must not chain.  A sequential
        # left-then-right sweep would leave cell -1 at 0 here.
        rule = eca_from_wolfram(170)
        w = WindowConfig.line((0, 0, 0, 0, 0), start=-2)
        out = step(rule, w, [(-1,), (0,)])
        assert out.states == (0, 1, 1, 0, 0)

    def test_difference(self):
        a = WindowConfig.line((0, 1, 0))
        b = WindowConfig.line((1, 1, 0))
        assert difference(a, b) == frozenset({(0,)})
        with pytest.raises(DomainMismatchError):
            difference(a, WindowConfig.line((0, 1)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 255),
    states=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    j=st.integers(-4, 4),
)
def test_translation_commutes_with_step(n, states, j):
    rule = eca_from_wolfram(n)
    w = WindowConfig.line(states, start=-2)
    stepped = step(rule, w, [(0,)])
    assert translate(stepped, j) == step(rule, translate(w, j), [(j,)])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 255),
    states=st.lists(st.integers(0, 1), min_size=5, max_size=9),
    scheme=st.sampled_from(("purely", "fully")),
    seed=st.integers(0, 2**32),
)
def test_ring_step_matches_reference(n, states, scheme, seed):
    rule = eca_from_wolfram(n)
    current = tuple(states)
    for entry in simulate(rule, states, scheme, 4, seed).steps:
        expected = step_ring((-1, 0, 1), 2, rule.table, current, entry.active)
        assert entry.states == expected
        current = entry.states


class TestMinimizeNeighborhood:
    def test_center_only_rules(self):
        assert minimize_neighborhood(eca_from_wolfram(204)).neighborhood == Neighborhood.line(0)
        assert minimize_neighborhood(eca_from_wolfram(51)).neighborhood == Neighborhood.line(0)

    def test_right_only_rule(self):
        reduced = minimize_neighborhood(eca_from_wolfram(170))
        assert reduced.neighborhood == Neighborhood.line(1)
        assert all(reduced.apply_local((v,)) == 1 - v for v in (0, 1))

    def test_full_dependency_kept(self):
        assert minimize_neighborhood(eca_from_wolfram(110)).neighborhood == ECA_NEIGHBORHOOD

    def test_constant_rule_drops_everything(self):
        assert minimize_neighborhood(eca_from_wolfram(0)).neighborhood == Neighborhood(1, ())

    def test_idempotent_all_256(self):
        for n in range(256):
            once = minimize_neighborhood(eca_from_wolfram(n))
            assert minimize_neighborhood(once) == once

    def test_preserves_function(self):
        for n in (0, 51, 110, 170, 204, 232):
            rule = eca_from_wolfram(n)
            reduced = minimize_neighborhood(rule)
            restored = with_neighborhood(reduced, ECA_NEIGHBORHOOD)
            assert restored.table == rule.table


class TestWithNeighborhood:
    def test_dummy_extension_round_trip(self):
        rule = rule_of([1, 0], 0)
        wide = with_neighborhood(rule, Neighborhood.line(-1, 0, 1))
        assert wide.neighborhood == ECA_NEIGHBORHOOD
        assert minimize_neighborhood(wide) == rule

    def test_own_neighborhood_returns_the_rule(self):
        for rule in (eca_from_wolfram(110), rule_of([1, 0], 0), rule_of([0, 1, 1, 0], -1, 1)):
            assert with_neighborhood(rule, rule.neighborhood) is rule

    def test_rejects_missing_offset(self):
        rule = eca_from_wolfram(110)
        with pytest.raises(ValueError):
            with_neighborhood(rule, Neighborhood.line(0, 1))


class TestLocalConfig:
    def test_reads_neighborhood_order(self):
        w = WindowConfig.line((7, 8, 9), start=-1)
        assert local_config(w, (0,), ECA_NEIGHBORHOOD) == (7, 8, 9)
        assert local_config(w, 0, Neighborhood.line(1)) == (9,)

    def test_out_of_domain(self):
        w = WindowConfig.line((7, 8, 9), start=-1)
        with pytest.raises(OutOfDomainError):
            local_config(w, (1,), ECA_NEIGHBORHOOD)
