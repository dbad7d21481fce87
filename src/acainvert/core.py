"""Alphabets, neighborhoods, local rules, finite windows, and step operators.

Cells are d-tuples of integers and states are dense integers ``0..q-1``.
A rule table is stored flat in mixed-radix order: the local configuration
``(s_1, ..., s_k)`` read along the canonically sorted offsets maps to index
``sum_j s_j * q**(k-1-j)``.  An elementary rule's entry ``i`` is bit ``7 - i``
of its Wolfram number, so ``table[i] = (number >> (7 - i)) & 1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    NotElementaryError,
    OutOfDomainError,
    OutOfRangeError,
)

Cell = tuple[int, ...]

__all__ = [
    "Cell",
    "Alphabet",
    "Neighborhood",
    "LocalRule",
    "WindowConfig",
    "ECA_NEIGHBORHOOD",
    "add_cells",
    "local_config",
    "step",
    "difference",
    "eca_from_wolfram",
    "wolfram_number",
    "minimize_neighborhood",
    "with_neighborhood",
]


def add_cells(a: Cell, b: Cell) -> Cell:
    return tuple(x + y for x, y in zip(a, b))


def as_cell(value: int | Sequence[int], dimension: int) -> Cell:
    """Coerce ``value`` to a d-tuple; bare integers are accepted when d = 1."""
    if isinstance(value, (int, np.integer)):
        if dimension != 1:
            raise OutOfDomainError(f"bare integer cell needs dimension 1, got {dimension}")
        return (int(value),)
    cell = tuple(int(v) for v in value)
    if len(cell) != dimension:
        raise OutOfDomainError(f"cell {cell} has dimension {len(cell)}, expected {dimension}")
    return cell


@dataclass(frozen=True)
class Alphabet:
    """A dense state alphabet ``{0, ..., size-1}``."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("alphabet must have at least one state")

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.size


@dataclass(frozen=True)
class Neighborhood:
    """A finite set of relative offsets, stored sorted and without repeats."""

    dimension: int
    offsets: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        canon = tuple(sorted(as_cell(n, self.dimension) for n in self.offsets))
        if len(set(canon)) != len(canon):
            raise ValueError("offsets must be distinct")
        object.__setattr__(self, "offsets", canon)

    @classmethod
    def line(cls, *offsets: int) -> "Neighborhood":
        """One-dimensional neighborhood from bare integer offsets."""
        return cls(1, tuple((n,) for n in offsets))

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.offsets)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.offsets

    @property
    def origin(self) -> Cell:
        return (0,) * self.dimension

    def pairwise_sums(self) -> frozenset[Cell]:
        return frozenset(add_cells(m, n) for m in self.offsets for n in self.offsets)

    def symmetrized_with_origin(self) -> "Neighborhood":
        """The smallest superset closed under negation and containing 0."""
        cells = {self.origin}
        for n in self.offsets:
            cells.add(n)
            cells.add(tuple(-x for x in n))
        return Neighborhood(self.dimension, tuple(sorted(cells)))

    def union(self, other: "Neighborhood") -> "Neighborhood":
        if self.dimension != other.dimension:
            raise ValueError("cannot union neighborhoods of different dimensions")
        return Neighborhood(self.dimension, tuple(sorted(set(self.offsets) | set(other.offsets))))

    def max_abs_1d(self) -> int | None:
        """Largest absolute offset coordinate, or None for the empty neighborhood."""
        if not self.offsets:
            return None
        return max(abs(n[0]) for n in self.offsets)


ECA_NEIGHBORHOOD = Neighborhood(1, ((-1,), (0,), (1,)))


@dataclass(frozen=True)
class LocalRule:
    """A local transition table over a fixed alphabet and neighborhood."""

    alphabet: Alphabet
    neighborhood: Neighborhood
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(map(int, self.table))
        expected = self.alphabet.size ** len(self.neighborhood)
        if len(table) != expected:
            raise ValueError(f"table has {len(table)} entries, expected {expected}")
        if min(table) < 0 or max(table) >= self.alphabet.size:
            # the range test runs in C; the loop only names the first bad value
            bad = next(v for v in table if v not in self.alphabet)
            raise ValueError(f"table value {bad} outside alphabet of size {self.alphabet.size}")
        object.__setattr__(self, "table", table)

    @property
    def q(self) -> int:
        return self.alphabet.size

    @property
    def arity(self) -> int:
        return len(self.neighborhood)

    def local_index(self, local: Sequence[int]) -> int:
        """Mixed-radix index of a local configuration, first offset most significant."""
        idx = 0
        for s in local:
            idx = idx * self.q + s
        return idx

    def decode_index(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.arity):
            index, d = divmod(index, self.q)
            digits.append(d)
        return tuple(reversed(digits))

    def apply_local(self, local: Sequence[int]) -> int:
        return self.table[self.local_index(local)]

    def all_locals(self) -> Iterator[tuple[int, ...]]:
        """All local configurations in table-index order."""
        return itertools.product(range(self.q), repeat=self.arity)

    @cached_property
    def table_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)


@dataclass(frozen=True)
class WindowConfig:
    """An assignment of states to a finite set of cells.

    Cells are kept sorted lexicographically, so two configurations over the
    same domain compare equal exactly when their states agree cell by cell.
    """

    cells: tuple[Cell, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.states):
            raise ValueError("cells and states must have equal length")
        pairs = sorted(zip((tuple(c) for c in self.cells), self.states))
        cells = tuple(p[0] for p in pairs)
        if len(set(cells)) != len(cells):
            raise ValueError("cells must be distinct")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "states", tuple(int(p[1]) for p in pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[Cell, int]) -> "WindowConfig":
        items = sorted(mapping.items())
        return cls(tuple(c for c, _ in items), tuple(v for _, v in items))

    @classmethod
    def line(cls, states: Sequence[int], start: int = 0) -> "WindowConfig":
        """One-dimensional window on the integer interval starting at ``start``."""
        cells = tuple((start + i,) for i in range(len(states)))
        return cls(cells, tuple(states))

    @cached_property
    def _index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @property
    def dimension(self) -> int:
        if not self.cells:
            raise ValueError("empty window has no dimension")
        return len(self.cells[0])

    def __getitem__(self, cell: int | Sequence[int]) -> int:
        if not self.cells:
            raise OutOfDomainError(f"cell {cell} not in empty window")
        key = as_cell(cell, self.dimension)
        if key not in self._index:
            raise OutOfDomainError(f"cell {cell} not in window domain")
        return self.states[self._index[key]]

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._index

    def with_updates(self, updates: Mapping[Cell, int]) -> "WindowConfig":
        states = list(self.states)
        for cell, value in updates.items():
            pos = self._index.get(tuple(cell))
            if pos is None:
                raise OutOfDomainError(f"cell {cell} not in window domain")
            states[pos] = int(value)
        return WindowConfig(self.cells, tuple(states))


def local_config(config: WindowConfig, cell: int | Sequence[int], neighborhood: Neighborhood) -> tuple[int, ...]:
    """The states seen from ``cell`` along the neighborhood offsets."""
    base = as_cell(cell, neighborhood.dimension)
    out = []
    for n in neighborhood.offsets:
        target = add_cells(base, n)
        if target not in config:
            raise OutOfDomainError(f"neighbor {target} of cell {base} not in window domain")
        out.append(config[target])
    return tuple(out)


def step(rule: LocalRule, config: WindowConfig, active: Iterable[int | Sequence[int]]) -> WindowConfig:
    """Apply the rule simultaneously at every active cell; all others hold."""
    dim = rule.neighborhood.dimension
    cells = {as_cell(a, dim) for a in active}
    states = list(config.states)
    index = config._index
    for a in sorted(cells):
        if a not in index:
            raise OutOfDomainError(f"active cell {a} not in window domain")
        states[index[a]] = rule.apply_local(local_config(config, a, rule.neighborhood))
    return WindowConfig(config.cells, tuple(states))


def difference(a: WindowConfig, b: WindowConfig) -> frozenset[Cell]:
    """The set of cells on which two same-domain configurations disagree."""
    if a.cells != b.cells:
        raise DomainMismatchError("configurations have different domains")
    return frozenset(c for c, x, y in zip(a.cells, a.states, b.states) if x != y)


def eca_from_wolfram(number: int) -> LocalRule:
    """The elementary rule with the given Wolfram number.

    Writing the number as eight binary digits, the digits from most to
    least significant are the outputs for the local configurations
    (0,0,0), (0,0,1), ..., (1,1,1) in ascending order; the table entry
    for the local configuration with index ``i`` is therefore bit
    ``7 - i`` of the number.  Rule 0 is constant zero, 255 is constant
    one, and 204 and 51 are the self-inverse pair that toggles or keeps
    the centre cell.
    """
    if not 0 <= number <= 255:
        raise OutOfRangeError(f"Wolfram number {number} outside 0..255")
    table = tuple((number >> (7 - i)) & 1 for i in range(8))
    return LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, table)


def wolfram_number(rule: LocalRule) -> int:
    """Inverse of :func:`eca_from_wolfram`."""
    if rule.alphabet.size != 2 or rule.neighborhood != ECA_NEIGHBORHOOD:
        raise NotElementaryError("rule is not a binary rule on offsets (-1, 0, 1)")
    return sum(bit << (7 - i) for i, bit in enumerate(rule.table))


def _is_dummy(rule: LocalRule, position: int) -> bool:
    """True when the table never depends on the offset at this position."""
    q = rule.q
    weight = q ** (rule.arity - 1 - position)
    for idx in range(len(rule.table)):
        if (idx // weight) % q != 0:
            continue
        first = rule.table[idx]
        if any(rule.table[idx + v * weight] != first for v in range(1, q)):
            return False
    return True


def minimize_neighborhood(rule: LocalRule) -> LocalRule:
    """Drop every offset the table does not depend on.

    The result computes the same local function; repeated application is a
    fixed point after one pass.
    """
    keep = [j for j in range(rule.arity) if not _is_dummy(rule, j)]
    if len(keep) == rule.arity:
        return rule
    q = rule.q
    offsets = tuple(rule.neighborhood.offsets[j] for j in keep)
    weights = [q ** (rule.arity - 1 - j) for j in keep]
    table = []
    for local in itertools.product(range(q), repeat=len(keep)):
        full = sum(s * w for s, w in zip(local, weights))
        table.append(rule.table[full])
    return LocalRule(rule.alphabet, Neighborhood(rule.neighborhood.dimension, offsets), tuple(table))


def with_neighborhood(rule: LocalRule, neighborhood: Neighborhood) -> LocalRule:
    """Re-express the rule over a superset neighborhood; new offsets are dummy.

    Entry i of the result reads digit j of i, first digit most significant,
    at the target's j-th offset.  The rule itself is returned when the
    target is its own neighborhood.
    """
    if neighborhood == rule.neighborhood:
        return rule
    if neighborhood.dimension != rule.neighborhood.dimension:
        raise ValueError("dimensions differ")
    q, k = rule.q, len(neighborhood)
    weights = np.zeros(k, dtype=np.int64)
    for j, n in enumerate(rule.neighborhood.offsets):
        if n not in neighborhood:
            raise ValueError(f"offset {n} missing from target neighborhood")
        weights[neighborhood.offsets.index(n)] = q ** (rule.arity - 1 - j)
    digits = np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1) % q
    return LocalRule(rule.alphabet, neighborhood, tuple(rule.table_array[digits @ weights].tolist()))
