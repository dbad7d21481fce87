"""Core types: alphabets, neighborhoods, rules, windows, and the step operator."""

from __future__ import annotations

import copy
import importlib
import itertools
import os
import pickle
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acainvert
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
from acainvert.atlas import classify_all_eca
from acainvert.errors import (
    CaError,
    DomainMismatchError,
    NotElementaryError,
    OutOfDomainError,
    OutOfRangeError,
)
from acainvert.nakamura import BarState, decode_bar_state, encode_bar_state
from acainvert.rulefmt import dump_rule

from conftest import assert_like_public_window, translate
from naive_oracles import step_ring


def rule_of(table, *offsets, q=2):
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), tuple(table))


class TestAlphabet:
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

    def test_rejects_bad_dimension_or_cells(self):
        with pytest.raises(ValueError, match="at least 1"):
            Neighborhood(0, ())
        # a bare integer is a cell only in one dimension
        with pytest.raises(OutOfDomainError, match="needs dimension 1"):
            Neighborhood(2, (0,))
        with pytest.raises(OutOfDomainError, match="has dimension 2, expected 1"):
            Neighborhood(1, ((0, 1),))


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

    @pytest.mark.parametrize(
        "table",
        [(0.9, 1.2), [0.0, 1.0], (0, 1.0), ("0", "1"), "01", (True, False), np.array([0.0, 1.0]),
         np.array([True, False]), (0, None)],
        ids=["floats", "float-list", "int-and-float", "str-tuple", "str", "bools", "float-array", "bool-array",
             "none"],
    )
    def test_non_integer_table_refused(self, table):
        with pytest.raises(ValueError, match=r"^table value .+ is not an integer$"):
            LocalRule(Alphabet(2), Neighborhood.line(0), table)

    @pytest.mark.parametrize(
        "table, bad",
        [((0, 2**70), 2**70), ((2**64, 5), 2**64), ((1, -(2**70)), -(2**70)), ((-1, 2**63), -1),
         (np.array([1, 300], dtype=np.int16), 300), (np.array([0, -1], dtype=np.int8), -1),
         (np.array([2**64 - 1, 0], dtype=np.uint64), 2**64 - 1)],
        ids=["2^70", "2^64", "-2^70", "-1-before-2^63", "int16", "int8", "uint64"],
    )
    def test_table_error_names_first_bad_value_of_any_width(self, table, bad):
        with pytest.raises(ValueError, match=rf"^table value {bad} outside alphabet of size 2$"):
            LocalRule(Alphabet(2), Neighborhood.line(0), table)


def test_range_check_of_integer_arrays():
    """An integer array of any width is accepted exactly when every entry
    is a state; otherwise its first entry that is not one is named.  The
    sizes q sit on both sides of the signed and unsigned 8-bit bounds."""
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        for q in (1, 2, 127, 128, 129, 200, 255, 256, 257, 300):
            states = [s % (int(info.max) + 1) for s in range(q)]
            rule = LocalRule(Alphabet(q), Neighborhood.line(0), np.array(states, dtype=dtype))
            assert rule.table == tuple(states), (dtype, q)
            for bad in {int(info.min), -1, -100, q, int(info.max)}:
                if 0 <= bad < q or not info.min <= bad <= info.max:
                    continue
                values = states[: q // 2] + [bad] + states[q // 2 + 1 :]
                with pytest.raises(ValueError, match=rf"^table value {bad} outside alphabet of size {q}$"):
                    LocalRule(Alphabet(q), Neighborhood.line(0), np.array(values, dtype=dtype))


class TestLocalRuleValue:
    """A rule is a value: its table is stored once, read-only, and the
    form it was given in does not matter."""

    TABLE = (0, 1, 1, 0, 1, 1, 1, 0)  # rule 110

    def forms(self):
        return [self.TABLE, list(self.TABLE), np.array(self.TABLE, dtype=np.int64), np.array(self.TABLE, dtype=object)]

    def test_forms_are_equal_and_hash_equal(self):
        rules = [LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, t) for t in self.forms()]
        assert all(r == rules[0] and hash(r) == hash(rules[0]) for r in rules)
        assert rules[0] == eca_from_wolfram(110)
        assert len({*rules, eca_from_wolfram(110)}) == 1

    def test_repr_is_the_dataclass_repr_of_the_int_table(self):
        want = (
            "LocalRule(alphabet=Alphabet(size=2), neighborhood=Neighborhood(dimension=1, "
            "offsets=((-1,), (0,), (1,))), table=(0, 1, 1, 0, 1, 1, 1, 0))"
        )
        for table in self.forms():
            rule = LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, table)
            assert repr(rule) == want
            assert all(type(v) is int for v in rule.table)

    def test_unequal_when_alphabet_or_neighborhood_differs(self):
        rule = eca_from_wolfram(110)
        assert rule != LocalRule(Alphabet(3), ECA_NEIGHBORHOOD, self.TABLE[:1] * 27)
        assert rule != LocalRule(Alphabet(2), Neighborhood.line(-1, 0, 2), self.TABLE)
        assert rule != LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, (1,) + self.TABLE[1:])

    def test_array_is_read_only(self):
        rule = eca_from_wolfram(110)
        with pytest.raises(ValueError):
            rule.array[0] = 1
        with pytest.raises(ValueError):
            rule.array.reshape((2, 2, 2))[0, 0, 0] = 1
        assert rule.table == self.TABLE

    def test_copies_and_pickles_are_read_only_equal_values(self):
        rule = eca_from_wolfram(110)
        for other in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule), copy.copy(rule)):
            assert other == rule and hash(other) == hash(rule) and repr(other) == repr(rule)
            with pytest.raises(ValueError):
                other.array[0] = 1

    def test_caller_array_is_copied(self):
        table = np.array(self.TABLE, dtype=np.uint8)
        rule = LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, table)
        table[:] = 1
        assert rule.table == self.TABLE
        assert rule.array.tolist() == list(self.TABLE)

    @pytest.mark.parametrize("q, dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16),
                                          (70000, np.uint32)])
    def test_array_is_the_smallest_unsigned_dtype(self, q, dtype):
        rule = LocalRule(Alphabet(q), Neighborhood.line(0), range(q))
        assert rule.array.dtype == dtype
        assert rule.array.shape == (q,)
        assert rule.table == tuple(range(q))

    @pytest.mark.parametrize("q", [1, 2, 256, 257, 65536, 65537, 2**32, 2**32 + 1, 2**63])
    def test_sequences_and_arrays_store_the_same_bytes(self, q):
        """A tuple and a list, checked in pure Python, and an ndarray,
        checked by numpy, give one rule.  On the neighborhood with no
        offsets the table is the one entry q - 1, so each q sits at the
        edge of an entry width: 256 and 257 are the last uint8 and the
        first uint16 alphabets."""
        forms = [(q - 1,), [q - 1], np.array([q - 1]), np.array([q - 1], dtype=np.uint64)]
        rules = [LocalRule(Alphabet(q), Neighborhood.line(), table) for table in forms]
        first = rules[0]
        assert all(r == first and hash(r) == hash(first) and r._bytes == first._bytes for r in rules)
        assert {r.array.dtype for r in rules} == {np.min_scalar_type(q - 1)}
        assert len(first._bytes) == first.array.itemsize
        for rule in rules:
            assert rule.table == (q - 1,) and type(rule.table[0]) is int
            assert rule.array.tolist() == [q - 1]

    def test_axis_view_is_mixed_radix(self):
        rule = rule_of([0, 1, 2, 0, 1, 2, 2, 2, 0], -1, 1, q=3)
        axes = rule.array.reshape((3, 3))
        for local in rule.all_locals():
            assert axes[local] == rule.apply_local(local)


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

    def test_rejects_unpaired_or_repeated_cells(self):
        with pytest.raises(ValueError, match="equal length"):
            WindowConfig(((0,),), ())
        with pytest.raises(ValueError, match="distinct"):
            WindowConfig(((0,), (0,)), (1, 2))

    def test_line_and_segment(self):
        w = WindowConfig.line((1, 2, 3), start=-1)
        assert w[(0,)] == 2
        assert w.cells == ((-1,), (0,), (1,))

    def test_getitem_out_of_domain(self):
        w = WindowConfig.line((1, 2, 3))
        with pytest.raises(OutOfDomainError):
            w[(9,)]

    def test_empty_window(self):
        empty = WindowConfig((), ())
        with pytest.raises(ValueError, match="no dimension"):
            empty.dimension
        with pytest.raises(OutOfDomainError, match="empty window"):
            empty[(0,)]

    def test_with_updates(self):
        w = WindowConfig.line((0, 0, 0))
        assert w.with_updates({(1,): 1}).states == (0, 1, 0)
        with pytest.raises(OutOfDomainError):
            w.with_updates({(7,): 1})

    def test_mapping_round_trip(self):
        w = WindowConfig.line((4, 5), start=2)
        assert WindowConfig(((3,), (2,)), (5, 4)) == w

    def test_public_constructor_coerces_numpy_states(self):
        w = WindowConfig(((1,), (0,)), (np.uint8(3), np.int64(2)))
        assert w.states == (2, 3)
        assert all(type(s) is int for s in w.states)


def test_windows_built_by_step_and_with_updates_match_the_public_constructor():
    corner = Neighborhood(2, ((0, 0), (0, 1), (1, 0)))
    planar = LocalRule(Alphabet(3), corner, tuple((7 * i + 1) % 3 for i in range(27)))
    square = WindowConfig(tuple(itertools.product(range(3), range(3))), tuple(i % 3 for i in range(9)))
    line = WindowConfig.line((0, 1, 1, 0, 1, 0, 0, 1), start=-3)
    cases = [(eca_from_wolfram(n), line, active) for n in (30, 110, 204) for active in ([], [0], [-2, 0, 3])]
    cases += [(planar, square, [(0, 0), (1, 1)])]
    for rule, window, active in cases:
        stepped = step(rule, window, active)
        assert_like_public_window(stepped)
        updated = stepped.with_updates({window.cells[0]: np.uint8(1), window.cells[-1]: 2 % rule.q})
        assert_like_public_window(updated)
        assert updated.states[0] == 1
        # lookups, updates and steps leave every window its two fields and nothing cached
        for w in (window, stepped, updated):
            assert vars(w).keys() == {"cells", "states"}
    gapped = WindowConfig(((0,), (2,)), (1, 0))
    assert (1,) not in gapped and (0, 0) not in gapped and (0, 0) not in line
    for absent in ((1,), (3,), (-1,)):
        with pytest.raises(OutOfDomainError, match="not in window domain"):
            gapped[absent]
    assert (0,) not in WindowConfig((), ())


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
        with pytest.raises(ValueError, match="dimensions differ"):
            with_neighborhood(rule, Neighborhood(2, ((0, 0),)))


@st.composite
def rules_within(draw, span=(-2, 2)):
    """A rule with q <= 3 on at most three offsets in ``span``."""
    q = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(*span), unique=True, max_size=3))
    table = draw(st.lists(st.integers(0, q - 1), min_size=q ** len(offsets), max_size=q ** len(offsets)))
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)


@settings(max_examples=150, deadline=None)
@given(rule=rules_within(), extra=st.lists(st.integers(-3, 3), unique=True, max_size=2))
def test_with_neighborhood_matches_per_entry_loop(rule, extra):
    """Each entry of the widened table reads the rule at its own offsets."""
    target = Neighborhood(1, tuple(set(rule.neighborhood) | {(n,) for n in extra}))
    wide = with_neighborhood(rule, target)
    where = [target.offsets.index(o) for o in rule.neighborhood.offsets]
    for i, local in enumerate(itertools.product(range(rule.q), repeat=len(target))):
        assert wide.table[i] == rule.table[rule.local_index([local[j] for j in where])]


@settings(max_examples=150, deadline=None)
@given(rule=rules_within())
def test_minimize_matches_per_entry_loop(rule):
    """An offset is kept exactly when two local configurations that differ
    only there map to different states, and the kept offsets compute the
    same function."""
    q, offsets = rule.q, rule.neighborhood.offsets
    needed = set()
    for local in rule.all_locals():
        for j in range(len(offsets)):
            for v in range(q):
                other = local[:j] + (v,) + local[j + 1 :]
                if rule.apply_local(other) != rule.apply_local(local):
                    needed.add(offsets[j])
    mini = minimize_neighborhood(rule)
    assert set(mini.neighborhood.offsets) == needed
    where = [offsets.index(o) for o in mini.neighborhood.offsets]
    for local in rule.all_locals():
        assert mini.apply_local([local[j] for j in where]) == rule.apply_local(local)


class TestLocalConfig:
    def test_reads_neighborhood_order(self):
        w = WindowConfig.line((7, 8, 9), start=-1)
        assert local_config(w, (0,), ECA_NEIGHBORHOOD) == (7, 8, 9)
        assert local_config(w, 0, Neighborhood.line(1)) == (9,)

    def test_out_of_domain(self):
        w = WindowConfig.line((7, 8, 9), start=-1)
        with pytest.raises(OutOfDomainError):
            local_config(w, (1,), ECA_NEIGHBORHOOD)


def test_package_exports_match_module_all():
    """The package exports exactly the names its modules list in ``__all__``;
    each name is listed by one module and is that module's object (a name
    listed twice would silently bind the later module's)."""
    owner = {}
    for info in pkgutil.iter_modules(acainvert.__path__):
        module = importlib.import_module(f"acainvert.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name not in owner, (name, owner[name].__name__, module.__name__)
            owner[name] = module
    exported = {
        name for name, value in vars(acainvert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(set(owner) - exported) == []
    assert sorted(exported - set(owner)) == []
    for name, module in owner.items():
        assert getattr(acainvert, name) is getattr(module, name), (name, module.__name__)


_ECA_110 = eca_from_wolfram(110)
_WINDOW = WindowConfig.line((0, 1, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Alphabet(2.0),
        lambda: Alphabet(True),
        lambda: Neighborhood(2.0, ((0, 0),)),
        lambda: Neighborhood.line(0.5, 1),
        lambda: Neighborhood(1, ("7",)),
        lambda: Neighborhood(1, ((True,),)),
        lambda: WindowConfig(((0,), (1,)), (0, 0.7)),
        lambda: WindowConfig(((0.5,),), (0,)),
        lambda: WindowConfig.line((0, 1), start=0.5),
        lambda: eca_from_wolfram(True),
        lambda: eca_from_wolfram(3.0),
        lambda: step(_ECA_110, _WINDOW, [0.9]),
        lambda: _WINDOW[0.5],
        lambda: _WINDOW.with_updates({(1,): 0.7}),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [0, True]),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), (np.True_, 0)),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [[0, 1]]),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [[0, 1], [1]]),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [0, [1]]),
        lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [np.zeros((1, 2), int), np.zeros((1, 3), int)]),
    ],
    ids=[
        "alphabet-float", "alphabet-bool", "dimension-float", "line-float-offset", "str-offset",
        "bool-coordinate", "float-state", "float-cell", "line-float-start", "wolfram-bool", "wolfram-float",
        "float-active-cell", "float-cell-lookup", "float-update", "bool-mixed-into-table",
        "numpy-bool-mixed-into-table", "nested-table", "ragged-table", "ragged-entry",
        "ragged-arrays",
    ],
)
def test_non_integers_entering_core_are_refused(build):
    """Every value that enters core must be an integer: a bool, float, str
    or list raises OutOfRangeError, which is both a CaError and a
    ValueError, instead of being truncated, read as 0/1 or read as an
    axis."""
    with pytest.raises(OutOfRangeError, match=r"^.+ is not an integer$") as caught:
        build()
    assert isinstance(caught.value, CaError) and isinstance(caught.value, ValueError)


def test_numpy_integers_are_stored_as_python_ints():
    alphabet = Alphabet(np.int64(3))
    assert type(alphabet.size) is int and alphabet == Alphabet(3)
    neighborhood = Neighborhood(np.int32(2), ((np.int64(0), np.uint8(1)), (np.int16(-1), 0)))
    assert neighborhood == Neighborhood(2, ((0, 1), (-1, 0)))
    assert {type(x) for cell in neighborhood.offsets for x in cell} | {type(neighborhood.dimension)} == {int}
    window = WindowConfig(((np.int64(1),), (np.int8(0),)), (np.uint8(1), np.int64(0)))
    assert window == WindowConfig.line((0, 1), start=np.int64(0))
    assert {type(x) for cell in window.cells for x in cell} | set(map(type, window.states)) == {int}
    assert window[np.int64(1)] == 1
    assert window.with_updates({(0,): np.int64(1)}).states == (1, 1)
    assert set(map(type, window.with_updates({(0,): np.int64(1)}).states)) == {int}
    assert eca_from_wolfram(np.uint8(110)) == _ECA_110
    assert step(_ECA_110, _WINDOW, [np.int64(1)]) == step(_ECA_110, _WINDOW, [1])


# (build, exception class, message, whether it was already a ValueError)
_REFUSALS = {
    "alphabet-empty": (lambda: Alphabet(0), OutOfRangeError, "alphabet must have 1 to 2**63 states, got 0", True),
    "alphabet-above": (lambda: Alphabet((1 << 63) + 1), OutOfRangeError,
                       "alphabet must have 1 to 2**63 states, got 9223372036854775809", True),
    "dimension-zero": (lambda: Neighborhood(0, ()), OutOfRangeError, "dimension must be at least 1", True),
    "offsets-repeated": (lambda: Neighborhood.line(0, 0), OutOfRangeError, "offsets must be distinct", True),
    "table-entry-above-int64": (lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [0, 1 << 64]), OutOfRangeError,
                                "table value 18446744073709551616 outside alphabet of size 2", True),
    "table-length": (lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [0]), OutOfRangeError,
                     "table has 1 entries, expected 2", True),
    "table-value": (lambda: LocalRule(Alphabet(2), Neighborhood.line(0), [0, 2]), OutOfRangeError,
                    "table value 2 outside alphabet of size 2", True),
    "window-lengths": (lambda: WindowConfig(((0,),), (0, 1)), OutOfRangeError,
                       "cells and states must have equal length", True),
    "window-cells-repeated": (lambda: WindowConfig(((0,), (0,)), (0, 1)), OutOfRangeError,
                              "cells must be distinct", True),
    "empty-window-dimension": (lambda: WindowConfig((), ()).dimension, OutOfRangeError,
                               "empty window has no dimension", True),
    "widen-across-dimensions": (lambda: with_neighborhood(rule_of((0, 1), 0), Neighborhood(2, ((0, 0),))),
                                OutOfRangeError, "dimensions differ", True),
    "widen-without-offset": (lambda: with_neighborhood(rule_of((0, 1), 1), Neighborhood.line(0)), OutOfRangeError,
                             "offset (1,) missing from target neighborhood", True),
    "bar-stamp": (lambda: BarState(0, 0, 3), OutOfRangeError, "time stamp must be 0, 1 or 2", True),
    "bar-state": (lambda: encode_bar_state(2, BarState(2, 0, 0)), OutOfRangeError,
                  "bar state BarState(curr=2, old=0, time=0) outside alphabet of size 2", True),
    "bar-code": (lambda: decode_bar_state(2, 99), OutOfRangeError, "bar code 99 outside 0..11", True),
    "atlas-scheme": (lambda: classify_all_eca("sync"), OutOfRangeError,
                     "unknown scheme 'sync', expected one of ('purely', 'fully')", True),
    "simulate-scheme": (lambda: simulate(_ECA_110, [0, 1, 0], "sync", 1, 0), OutOfRangeError,
                        "unknown scheme 'sync', expected one of ('purely', 'fully')", True),
    "dump-extra-replaces-field": (lambda: dump_rule(_ECA_110, os.devnull, extra={"table": []}), OutOfRangeError,
                                  "extra fields ['table'] would replace rule fields", True),
    # refused only now
    "dimension-above-2**20": (lambda: Neighborhood((1 << 20) + 1, ()), OutOfRangeError,
                              "dimension 1048577 is above 1048576", False),
    "window-mixed-dimensions": (lambda: WindowConfig(((0,), (0, 1)), (0, 0)), OutOfDomainError,
                                "cell (0, 1) has dimension 2, expected 1", False),
    "window-bare-cell-in-2d": (lambda: WindowConfig(((0, 0), 1), (0, 0)), OutOfDomainError,
                               "bare integer cell needs dimension 1, got 2", False),
}


@pytest.mark.parametrize("name", _REFUSALS)
def test_every_refusal_is_a_ca_error(name):
    """Every argument the package refuses raises a CaError with its
    message; the refusals that were plain ValueErrors are still
    ValueErrors, so callers that catch ValueError keep working."""
    build, error, message, value_error = _REFUSALS[name]
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
    assert isinstance(caught.value, CaError)
    assert isinstance(caught.value, ValueError) or not value_error


def test_dimension_bound_is_inclusive():
    assert Neighborhood(1 << 20, ()).dimension == 1 << 20


def test_bare_integer_cells_are_one_dimensional():
    """A bare integer is the 1-D cell (n,), as ``window[n]`` and ``step``
    read it, whether every cell is bare or only some are."""
    window = WindowConfig(((1,), (0,), (2,)), (1, 0, 1))
    assert WindowConfig((1, 0, 2), (1, 0, 1)) == window
    assert WindowConfig((1, (0,), 2), (1, 0, 1)) == window
    assert WindowConfig(((1,), 0, np.int64(2)), (1, 0, 1)) == window
