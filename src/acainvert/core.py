"""Alphabets, neighborhoods, local rules, finite windows, and step operators.

Cells are d-tuples of integers and states are dense integers ``0..q-1``.
A rule table is stored once, as one byte string of its entries in
mixed-radix order: the local configuration ``(s_1, ..., s_k)`` read along
the canonically sorted offsets maps to index ``sum_j s_j * q**(k-1-j)``.
Two views of those bytes are built on first read: ``table``, a tuple of
Python ints, which stepping and simulating read without numpy, and
``array``, a flat read-only numpy array, which loads numpy.  Its axis
view ``array.reshape((q,) * k)`` has axis j read offset j, so widening
and minimizing a rule add and drop axes.  An elementary rule's entry
``i`` is bit ``7 - i`` of its Wolfram number, so
``table[i] = (number >> (7 - i)) & 1``.

That "Wolfram number" is this package's own: the 8-bit reversal of
Wolfram's standard code, which gives entry ``i`` bit ``i``.  Here 110 is
standard 118, 204 (negate the center) is standard 51, and 51 (the
identity) is standard 204.  Every elementary rule number the package
reads or writes uses it, including ``atlas.PURELY_INVERTIBLE_ECA`` and
``atlas.FULLY_INVERTIBLE_ECA``.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainMismatchError,
    NotElementaryError,
    OutOfDomainError,
    OutOfRangeError,
)

if TYPE_CHECKING:
    import numpy as np

Cell = tuple[int, ...]

# the update schemes the package decides, simulates and classifies under
SCHEMES = ("purely", "fully")

__all__ = [
    "Cell",
    "Alphabet",
    "Neighborhood",
    "LocalRule",
    "WindowConfig",
    "ECA_NEIGHBORHOOD",
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


def _integer(value: Any, what: str) -> int:
    """``value`` as a Python int.  A bool, or anything ``operator.index``
    refuses (a float, a str), raises :class:`OutOfRangeError`."""
    if type(value) is int:
        return value
    # bool is a subclass of int, but True/False are not states, offsets or
    # counts; numpy 1.x lets operator.index read a numpy bool, with a warning,
    # and no numpy bool exists unless numpy is loaded
    bools = (bool, sys.modules["numpy"].bool_) if "numpy" in sys.modules else bool
    if not isinstance(value, bools):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise OutOfRangeError(f"{what} {value!r} is not an integer")


def as_cell(value: int | Sequence[int], dimension: int, what: str = "cell coordinate") -> Cell:
    """``value`` as a d-tuple of Python ints; a bare integer is a cell when
    d = 1.  A coordinate that is not an integer raises OutOfRangeError."""
    try:
        coordinates = iter(value)
    except TypeError:
        coordinate = _integer(value, what)
        if dimension != 1:
            raise OutOfDomainError(f"bare integer cell needs dimension 1, got {dimension}") from None
        return (coordinate,)
    cell = tuple(_integer(v, what) for v in coordinates)
    if len(cell) != dimension:
        raise OutOfDomainError(f"cell {cell} has dimension {len(cell)}, expected {dimension}")
    return cell


@dataclass(frozen=True)
class Alphabet:
    """A dense state alphabet ``{0, ..., size-1}``."""

    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", _integer(self.size, "alphabet size"))
        # a table entry is read through uint64 (see LocalRule), so q <= 2**63
        if not 1 <= self.size <= 1 << 63:
            raise OutOfRangeError(f"alphabet must have 1 to 2**63 states, got {self.size}")


@dataclass(frozen=True)
class Neighborhood:
    """A finite set of relative offsets, stored sorted and without repeats."""

    dimension: int
    offsets: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _integer(self.dimension, "dimension"))
        if self.dimension < 1:
            raise OutOfRangeError("dimension must be at least 1")
        canon = tuple(sorted(as_cell(n, self.dimension, "offset coordinate") for n in self.offsets))
        # every cell holds one int per axis; checked after the offsets, so one of the wrong length is named first
        if self.dimension > 1 << 20:
            raise OutOfRangeError(f"dimension {self.dimension} is above {1 << 20}")
        if len(set(canon)) != len(canon):
            raise OutOfRangeError("offsets must be distinct")
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


ECA_NEIGHBORHOOD = Neighborhood(1, ((-1,), (0,), (1,)))


# struct's unsigned formats by byte width; a table entry is stored in the
# narrowest that holds q - 1
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(q: int) -> int:
    return 1 if q <= 1 << 8 else 2 if q <= 1 << 16 else 4 if q <= 1 << 32 else 8


def _entry_bytes(table: Any, q: int, count: int) -> bytes:
    """The stored bytes of ``count`` table entries given as Python values,
    checked in pure Python.  A sequence other than a str or bytes holds
    the entries; anything else is one entry, as numpy reads a scalar."""
    if not isinstance(table, (list, tuple)):
        table = list(table) if isinstance(table, Sequence) and not isinstance(table, (str, bytes)) else [table]
    if set(map(type, table)) != {int}:
        # bools, floats, strs, lists or numpy integers: read one by one, so the first bad entry is named
        table = [_integer(v, "table value") for v in table]
    if len(table) != count:
        raise OutOfRangeError(f"table has {len(table)} entries, expected {count}")
    fmt = _FORMATS[_width(q)]
    try:
        # each refuses a negative entry and one too wide for it
        data = bytes(table) if fmt == "B" else array(fmt, table)
    except (ValueError, OverflowError):
        data = None
    if data is None or max(data) >= q:
        bad = next(v for v in table if not 0 <= v < q)
        raise OutOfRangeError(f"table value {bad} outside alphabet of size {q}")
    return bytes(data)


def _array_bytes(values: np.ndarray, q: int, count: int) -> bytes:
    """The stored bytes of an array of ``count`` entries.  numpy checks
    and packs an integer array of states; any other array (of floats,
    bools or objects, of the wrong size, or with an entry out of range)
    goes through ``_entry_bytes``, which refuses it and names its first
    bad entry."""
    if values.dtype.kind in "iu" and values.size == count:
        # viewed unsigned, a negative entry lies above every q <= 2**63
        unsigned = values if values.dtype.kind == "u" else values.astype("i8", copy=False).view("u8")
        if unsigned.max() < q:
            return values.astype(f"u{_width(q)}", copy=False).tobytes()
    return _entry_bytes(values.ravel().tolist(), q, count)


class _view(cached_property):
    """``functools.cached_property`` without the lock it takes before
    Python 3.12, which costs each first read about a microsecond; threads
    that race build a view twice at worst, and all of them keep the first."""

    def __get__(self, rule: Any, owner: type | None = None) -> Any:
        return self if rule is None else vars(rule).setdefault(self.attrname, self.func(rule))


@dataclass(frozen=True)
class LocalRule:
    """A local transition table over a fixed alphabet and neighborhood.

    The ``table`` argument may be a flat sequence of q^k integers, or an
    integer array of q^k entries taken in C order; floats, strings, bools
    and nested or ragged lists are refused.  A sequence is checked in pure
    Python; only an array goes through numpy.  The table is stored once,
    as the bytes of its entries in the smallest unsigned width (1, 2, 4 or
    8 bytes) that holds q - 1.  Two views of those bytes are built on
    first read: ``table``, a tuple of Python ints, and ``array``, a flat
    read-only numpy array whose view ``array.reshape((q,) * k)`` has one
    axis per offset (see the module docstring).  Only ``array`` loads
    numpy.  Rules are equal when their alphabets, neighborhoods and table
    bytes are.
    """

    alphabet: Alphabet
    neighborhood: Neighborhood
    _bytes: bytes

    def __init__(self, alphabet: Alphabet, neighborhood: Neighborhood, table: Sequence[int] | np.ndarray) -> None:
        q, count = alphabet.size, alphabet.size ** len(neighborhood)
        # only an ndarray or a numpy scalar goes through numpy, and neither exists before numpy is loaded
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(table, (numpy.ndarray, numpy.generic)):
            data = _array_bytes(numpy.asarray(table), q, count)
        else:
            data = _entry_bytes(table, q, count)
        # frozen, so the fields are written past __setattr__
        vars(self).update(alphabet=alphabet, neighborhood=neighborhood, _bytes=data)

    @_view
    def table(self) -> tuple[int, ...]:
        width = _width(self.q)
        # bytes iterate as the entries of width 1
        return tuple(self._bytes if width == 1 else memoryview(self._bytes).cast(_FORMATS[width]))

    @_view
    def array(self) -> np.ndarray:
        import numpy as np

        # read-only, as a view of bytes
        return np.frombuffer(self._bytes, f"u{_width(self.q)}")

    def __repr__(self) -> str:
        return f"LocalRule(alphabet={self.alphabet!r}, neighborhood={self.neighborhood!r}, table={self.table!r})"

    def __reduce__(self) -> tuple[type, tuple]:
        # copies and pickles go through the constructor, from the table's ints
        return LocalRule, (self.alphabet, self.neighborhood, self.table)

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
        """The local configuration at a table index, first offset most significant."""
        return tuple(index // self.q ** (self.arity - 1 - j) % self.q for j in range(self.arity))

    def apply_local(self, local: Sequence[int]) -> int:
        return self.table[self.local_index(local)]

    def all_locals(self) -> Iterator[tuple[int, ...]]:
        """All local configurations in table-index order."""
        return itertools.product(range(self.q), repeat=self.arity)


@dataclass(frozen=True)
class WindowConfig:
    """An assignment of states to a finite set of cells.

    Cells are kept sorted lexicographically, so two configurations over the
    same domain compare equal exactly when their states agree cell by cell,
    and a cell's position is found by bisecting the cells.
    """

    cells: tuple[Cell, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.states):
            raise OutOfRangeError("cells and states must have equal length")
        # every cell has the first one's dimension: its length, or 1 for a bare integer
        first = next(iter(self.cells), ())
        dimension = len(first) if hasattr(first, "__len__") else 1
        pairs = sorted((as_cell(c, dimension), _integer(s, "state")) for c, s in zip(self.cells, self.states))
        cells = tuple(p[0] for p in pairs)
        if len(set(cells)) != len(cells):
            raise OutOfRangeError("cells must be distinct")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "states", tuple(p[1] for p in pairs))

    @classmethod
    def _canonical(cls, cells: tuple[Cell, ...], states: tuple[int, ...]) -> "WindowConfig":
        """The window over ``cells``, which must already be sorted and
        distinct, with ``states`` already Python ints; nothing is checked,
        sorted or converted."""
        window = object.__new__(cls)
        # frozen, so the fields are written past __setattr__
        vars(window).update(cells=cells, states=states)
        return window

    @classmethod
    def line(cls, states: Sequence[int], start: int = 0) -> "WindowConfig":
        """One-dimensional window on the integer interval starting at ``start``."""
        start = _integer(start, "window start")
        cells = tuple((start + i,) for i in range(len(states)))
        return cls(cells, tuple(states))

    @property
    def dimension(self) -> int:
        if not self.cells:
            raise OutOfRangeError("empty window has no dimension")
        return len(self.cells[0])

    def _position(self, cell: Cell) -> int | None:
        """The index of ``cell`` in the sorted ``cells``, or None when it is absent."""
        pos = bisect.bisect_left(self.cells, cell)
        return pos if pos < len(self.cells) and self.cells[pos] == cell else None

    def __getitem__(self, cell: int | Sequence[int]) -> int:
        if not self.cells:
            raise OutOfDomainError(f"cell {cell} not in empty window")
        pos = self._position(as_cell(cell, self.dimension))
        if pos is None:
            raise OutOfDomainError(f"cell {cell} not in window domain")
        return self.states[pos]

    def __contains__(self, cell: Cell) -> bool:
        return self._position(cell) is not None

    def with_updates(self, updates: Mapping[Cell, int]) -> "WindowConfig":
        states = list(self.states)
        for cell, value in updates.items():
            pos = self._position(tuple(cell))
            if pos is None:
                raise OutOfDomainError(f"cell {cell} not in window domain")
            states[pos] = _integer(value, "state")
        return WindowConfig._canonical(self.cells, tuple(states))


def local_config(config: WindowConfig, cell: int | Sequence[int], neighborhood: Neighborhood) -> tuple[int, ...]:
    """The states seen from ``cell`` along the neighborhood offsets."""
    base = as_cell(cell, neighborhood.dimension)
    out = []
    for n in neighborhood.offsets:
        target = add_cells(base, n)
        pos = config._position(target)
        if pos is None:
            raise OutOfDomainError(f"neighbor {target} of cell {base} not in window domain")
        out.append(config.states[pos])
    return tuple(out)


def step(rule: LocalRule, config: WindowConfig, active: Iterable[int | Sequence[int]]) -> WindowConfig:
    """Apply the rule simultaneously at every active cell; all others hold."""
    dim = rule.neighborhood.dimension
    cells = {as_cell(a, dim) for a in active}
    states = list(config.states)
    for a in sorted(cells):
        pos = config._position(a)
        if pos is None:
            raise OutOfDomainError(f"active cell {a} not in window domain")
        states[pos] = rule.apply_local(local_config(config, a, rule.neighborhood))
    return WindowConfig._canonical(config.cells, tuple(states))


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

    This is the 8-bit reversal of Wolfram's standard code, not the
    standard code itself: 110 here is standard 118, 204 is standard 51
    and 51 is standard 204.
    """
    number = _integer(number, "Wolfram number")
    if not 0 <= number <= 255:
        raise OutOfRangeError(f"Wolfram number {number} outside 0..255")
    # entry i is bit 7 - i: the i-th of the number's eight binary digits
    return LocalRule(Alphabet(2), ECA_NEIGHBORHOOD, tuple(map(int, f"{number:08b}")))


def wolfram_number(rule: LocalRule) -> int:
    """Inverse of :func:`eca_from_wolfram`.

    The number is the 8-bit reversal of Wolfram's standard code: the
    standard rule 118 gives 110, standard 51 (negate the center) gives 204
    and standard 204 (the identity) gives 51.
    """
    if rule.alphabet.size != 2 or rule.neighborhood != ECA_NEIGHBORHOOD:
        raise NotElementaryError("rule is not a binary rule on offsets (-1, 0, 1)")
    return sum(bit << (7 - i) for i, bit in enumerate(rule.table))


def minimize_neighborhood(rule: LocalRule) -> LocalRule:
    """Drop every offset the table does not depend on.

    An offset is dropped when every slice of the axis view along its axis
    equals the first.  The result computes the same local function;
    repeated application is a fixed point after one pass.
    """
    import numpy as np

    q, k = rule.q, rule.arity
    axes = rule.array.reshape((q,) * k)
    keep = [j for j in range(k) if np.count_nonzero(axes != axes[(slice(None),) * j + (slice(0, 1),)])]
    if len(keep) == k:
        return rule
    offsets = tuple(rule.neighborhood.offsets[j] for j in keep)
    table = axes[tuple(slice(None) if j in keep else 0 for j in range(k))]
    return LocalRule(rule.alphabet, Neighborhood(rule.neighborhood.dimension, offsets), table)


def with_neighborhood(rule: LocalRule, neighborhood: Neighborhood) -> LocalRule:
    """Re-express the rule over a superset neighborhood; new offsets are dummy.

    Entry i of the result reads digit j of i, first digit most significant,
    at the target's j-th offset.  Both neighborhoods are sorted, so the
    rule's axes keep their order among the target's, and the result is the
    axis view broadcast along the new axes.  The rule itself is returned
    when the target is its own neighborhood.
    """
    if neighborhood == rule.neighborhood:
        return rule
    if neighborhood.dimension != rule.neighborhood.dimension:
        raise OutOfRangeError("dimensions differ")
    if missing := [n for n in rule.neighborhood if n not in neighborhood]:
        raise OutOfRangeError(f"offset {missing[0]} missing from target neighborhood")
    import numpy as np

    q = rule.q
    shape = [q if n in rule.neighborhood else 1 for n in neighborhood]
    return LocalRule(rule.alphabet, neighborhood, np.broadcast_to(rule.array.reshape(shape), (q,) * len(shape)))
