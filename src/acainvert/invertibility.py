"""Finite-window decision procedures for phase-space invertibility.

A rule pair (C, G) is checked over a finite test window T whose shape
depends on the update scheme; each check builds its own.  With
M = N ∪ {0}, the purely window is T = M + M = {0} ∪ N ∪ (N+N), tested at
every activation set 0 ∈ D ⊆ M, ordered by the indicator vector of M's
non-origin offsets (first offset most significant), so {0} comes first.
The fully window (d = 1) is the interval {0} ∪ N ∪ A ∪ (A+N) around the
candidate cells A = {-q^(2m+1), ..., q^(2m+1)}, m = max |n| over N (A is
{0} when N is empty).  Window assignments ``Q^T`` are ordered as
mixed-radix integers with the lexicographically first cell as the most
significant digit, so integer order equals lexicographic window order and
the least violation is well defined.

Neither check enumerates Q^T.  Each reads both rules widened by
``core.with_neighborhood`` to the cells a test reads, so a local
configuration's table index is its own mixed-radix value.  The purely
check lists, once per direction, the entries of the first rule's table
widened to M = N ∪ {0} that change the center, with their new states.
The clause for an activation set D reads only the cells
S = D ∪ (D+N), so its least violating window is 0 outside S.  For
D = {0}, S is M, and that window is the least listed entry that the
partner's widened table does not take back.  The check sweeps every
other D on its own, in blocks of numpy rows that are windows over T,
assigning the cells of S one at a time in window order and leaving the
others 0; a block of several rows that would make more than a fixed
number of children is halved first, which bounds memory for any q^|T|.
The sets with at most two cells decide the verdict (the proof is in
``check_inverse_purely``), so they are checked first; the larger sets are
swept only for a direction that fails, to find its least witness.  A
cell c of D is decided once its last read c + max(N ∪ {0}) is assigned;
that cell then grows each partial window only by the states that make c
change, which the same list gives per assignment of c's other reads.
The fully check (d = 1) reads blocks of k = span(N ∪ {0}) consecutive
cells, the rules widened to that block.  Each of its clauses is one
least-path search in the de Bruijn graph of width k over the candidate
blocks the clause reads, in O(|T|·q^k) steps (Sutner, Complex Systems 5,
1991), on masks that are Python ints with bit b set for an allowed block
b; the cells outside those blocks stay 0, which gives the least window,
as the cells outside S do for the purely check.
Both find the least violation enumeration would find, report the logical
count q^|T| in ``stats.windows``, and run on one thread.  What a check
reads of (N, q) alone is built once per (N, q), and for the purely check
once per cap too, and kept in a ``functools.lru_cache`` of 256 entries:
for the purely check M, T, the positions of M + M in T, T's index
weights, and the plan of each set the first time it is swept; for the
fully check the test cells, the block, and the center state at each
block index.  Nothing that depends on a rule table is cached.

Clause identifiers carried by witnesses:

* ``purely-forward`` / ``purely-backward``: a simultaneous update at the
  active set D is not undone (or not redone) by the partner rule;
* ``eq1-forward`` / ``eq1-backward``: a single-cell flip at 0 is not
  undone by the partner rule;
* ``eq2-delta`` / ``eq2-gamma``: a window fixed at 0 by one rule is fixed
  at no candidate cell by the partner rule;
* ``derivation-conflict``: two local configurations force a candidate
  inverse to two different values, so no same-neighborhood inverse exists.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .core import (
    Cell,
    LocalRule,
    Neighborhood,
    WindowConfig,
    _integer,
    add_cells,
    minimize_neighborhood,
    step,
    with_neighborhood,
)
from .errors import (
    AlphabetMismatchError,
    CenterNotInNeighborhoodError,
    NeighborhoodMismatchError,
    NotOneDimensionalError,
    ResourceCapExceededError,
)
from .rulefmt import rule_to_dict, window_to_dict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Verdict",
    "Witness",
    "EnumerationStats",
    "DecisionReport",
    "DerivationConflict",
    "TwoPredecessorWitness",
    "check_inverse_purely",
    "check_inverse_fully_1d",
    "derive_candidate_inverse",
    "decide_purely",
    "decide_fully_1d",
    "two_predecessor_witness",
    "DEFAULT_WINDOW_CAP",
]

DEFAULT_WINDOW_CAP = 1 << 24

# the purely sweep's cut computes window indices in int64 (rows @ weights)
_INDEX_LIMIT = 1 << 62

# two_predecessor_witness refuses windows of more cells; building, checking and
# printing one this large through the CLI peaks near 237 MB
_WITNESS_CELLS = 1 << 20


class Verdict(str, Enum):
    INVERTIBLE = "invertible"
    NOT_INVERTIBLE = "not-invertible"
    RESOURCE_CAP_EXCEEDED = "resource-cap-exceeded"


CLAUSE_PURELY_FORWARD = "purely-forward"
CLAUSE_PURELY_BACKWARD = "purely-backward"
CLAUSE_EQ1_FORWARD = "eq1-forward"
CLAUSE_EQ1_BACKWARD = "eq1-backward"
CLAUSE_EQ2_DELTA = "eq2-delta"
CLAUSE_EQ2_GAMMA = "eq2-gamma"
CLAUSE_DERIVATION_CONFLICT = "derivation-conflict"


@dataclass(frozen=True)
class Witness:
    """The least counterexample: a window, an activation set, and a clause."""

    window: WindowConfig
    active: tuple[Cell, ...]
    clause: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": window_to_dict(self.window),
            "active": [list(c) for c in self.active],
            "clause": self.clause,
        }


@dataclass(frozen=True)
class EnumerationStats:
    windows: int
    millis: float


@dataclass(frozen=True)
class DecisionReport:
    verdict: Verdict
    inverse: LocalRule | None
    witness: Witness | None
    stats: EnumerationStats

    def to_dict(self, timings: bool = False) -> dict[str, Any]:
        """JSON shape; wall time is zeroed unless asked for, so identical
        inputs serialize to identical bytes."""
        return {
            "verdict": self.verdict.value,
            "inverse": rule_to_dict(self.inverse) if self.inverse is not None else None,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "stats": {
                "windows": self.stats.windows,
                "millis": int(round(self.stats.millis)) if timings else 0,
            },
        }


def _report(
    t0: float, windows: int, verdict: Verdict, inverse: LocalRule | None = None, witness: Witness | None = None
) -> DecisionReport:
    """The report of a decision begun at ``t0``, timed up to now."""
    millis = (time.perf_counter() - t0) * 1000.0
    return DecisionReport(verdict, inverse, witness, EnumerationStats(windows, millis))


def _require_pair(C: LocalRule, G: LocalRule) -> None:
    if C.alphabet != G.alphabet:
        raise AlphabetMismatchError("rules must share an alphabet")
    if C.neighborhood != G.neighborhood:
        raise NeighborhoodMismatchError("rules must share a neighborhood")


# children a purely sweep makes from one block at once (or q, from one
# row); bounds its memory for any q^|T|
_SWEEP_BLOCK = 1 << 14


def _set_plan(active: list[int], sums: list[list[int]], zero: int, width: int):
    """How the purely sweep for one activation set D reads its rows.

    Both rules are read widened to M = N ∪ {0}.  A row holds a window over
    T (``width`` cells), then the stepped state of each cell of D; the
    sweep assigns the window positions of S = D + M, in window order, and
    the other cells stay 0.  ``active`` indexes D into M, ``zero`` indexes
    0, and ``sums[i][j]`` is the window position of M[i] + M[j].
    Returns (``positions``, ``tests``, ``undo``).  ``positions`` lists S.
    A cell c of D can be tested once its last read c + max(M) is assigned,
    and distinct cells have distinct last reads, so the position
    ``positions[i]`` completes at most one test: ``tests[i]`` is None or
    (positions of the test's other reads along M, stepped column).
    ``undo`` lists (position, columns of its reads along M after the
    step) for every cell of D.
    """
    stepped = {sums[i][zero]: width + j for j, i in enumerate(active)}
    last = {sums[i][-1]: (sums[i][:-1], width + j) for j, i in enumerate(active)}
    positions = sorted({x for i in active for x in sums[i]})
    undo = [(sums[i][zero], [stepped.get(x, x) for x in sums[i]]) for i in active]
    return positions, [last.get(x) for x in positions], undo


def _flips(tab: np.ndarray, q: int, w: int):
    """The entries of the rule table ``tab`` whose update changes the
    center, 0's index weight being ``w``: their indices (``sources``,
    ascending), their centers, and their new center states."""
    import numpy as np

    # axis 1 is the read of 0
    out = tab.reshape(-1, q, w)
    change = out != np.arange(q)[:, None]
    sources = change.ravel().nonzero()[0]
    # centers in the table's narrow dtype, as its states are: a check keeps both
    # directions' lists
    return sources, (sources // w % q).astype(tab.dtype), out[change]


def _local_indices(rows: np.ndarray, columns: list[int], q: int) -> np.ndarray:
    import numpy as np

    index = np.zeros(len(rows), dtype=np.int64)
    for col in columns:
        index = index * q + rows[:, col]
    return index


def _purely_sweep(q: int, weights: np.ndarray, plan, table, tab2, bound: int | None):
    """Least window over T, whose index weights are ``weights``, whose
    flip by the rule behind ``table`` at every cell of D is not undone by
    ``tab2``; only windows whose index is below ``bound`` count.  None if
    there is none.  ``plan`` is D's ``_set_plan``, and ``table`` the
    compressed flip table ``_purely_sets`` derives from ``_flips``.

    A row is a window over T followed by the stepped cells of D.  Rows
    grow one position of S at a time in window order; the cells outside S
    stay 0.  A position that completes a test gets only the digits that
    make the tested cell change state, read off the flip table by the
    row's other reads of M; every other position of S gets all q digits.
    Children follow their parent, in digit order, so every block of rows
    stays lexicographically sorted.  Blocks wait on a stack, least on top,
    so the first violation found is the least.  One rule bounds memory: a
    block of n > 1 rows that would make more than ``_SWEEP_BLOCK``
    children (n·q at a position without a test, the flip counts of its
    reads at a test position) is halved by rows, lower half on top, and
    each half keeps its reads' flip-table rows, so they are not read
    again.  So a block of more than one row is never extended into more
    than ``_SWEEP_BLOCK`` rows, and one row makes at most q.
    """
    import numpy as np

    positions, tests, undo = plan
    counts, ends, flip_digits, flip_states = table
    width = len(weights)
    dtype = np.min_scalar_type(q)
    digits = np.arange(q, dtype=dtype)
    # (level, rows, the flip-table rows of their test's reads or None)
    stack = [(0, np.zeros((1, width + len(undo)), dtype=dtype), None)]
    while stack:
        level, rows, prefix = stack.pop()
        n = len(rows)
        col = positions[level]
        test = tests[level]
        if test is not None:
            reads, out_col = test
            if prefix is None:
                prefix = _local_indices(rows, reads, q)
            count = counts[prefix]
            total = count.cumsum()
        # n·q bounds the children, so a small block never reads their count
        if n > 1 and n * q > _SWEEP_BLOCK and (test is None or total[-1] > _SWEEP_BLOCK):
            for half in (slice(n // 2, None), slice(n // 2)):
                stack.append((level, rows[half], None if test is None else prefix[half]))
            continue
        if test is None:
            rows = rows.repeat(q, axis=0)
            # repeat returns a fresh C-ordered array, so this reshape is a view
            rows.reshape(n, q, -1)[:, :, col] = digits
        else:
            rows = rows.repeat(count, axis=0)
            # child j of a parent takes flip entry ends[prefix] - count + j
            slot = np.arange(len(rows)) + (ends[prefix] - total).repeat(count)
            rows[:, col] = flip_digits[slot]
            rows[:, out_col] = flip_states[slot]
        if bound is not None:
            keep = int(np.searchsorted(rows[:, : col + 1] @ weights[: col + 1], bound))
            if keep < len(rows):
                # rows still on the stack come later in window order
                stack.clear()
                rows = rows[:keep]
        if not len(rows):
            continue
        if level + 1 < len(positions):
            stack.append((level + 1, rows, None))
            continue
        missed = False
        for x, reads in undo:
            missed = missed | (tab2[_local_indices(rows, reads, q)] != rows[:, x])
        hits = missed.nonzero()[0]
        if len(hits):
            return rows[hits[0], :width]
    return None


class _PurelyLayout:
    """What the purely check reads of (N, q) alone.  ``reach`` is
    M = N ∪ {0}, ``cells`` is T = M + M, ``zero`` indexes 0 in M,
    ``w`` is 0's index weight in a table over M, ``sums[i][j]`` is the
    position of M[i] + M[j] in T, and ``weights`` (read-only) are T's
    window index weights.  The layout is also the activation family, as a
    lazy sequence: set i holds 0 and each other cell of M whose bit is set
    in i, the first offset most significant, so {0} is set 0 and the sets
    {0, e} are the powers of two.  ``plans[i]`` is set i's ``_set_plan``,
    built the first time set i is swept.
    """

    def __init__(self, reach: Neighborhood, cells: tuple[Cell, ...], q: int):
        import numpy as np

        self.reach, self.cells, self.plans = reach, cells, {}
        self.zero = reach.offsets.index(reach.origin)
        self.w = q ** (len(reach) - 1 - self.zero)
        self.sums = [[cells.index(add_cells(a, b)) for b in reach] for a in reach]
        self.weights = q ** np.arange(len(cells) - 1, -1, -1, dtype=np.int64)
        self.weights.flags.writeable = False
        # set i holds M[x] when i has all of bits[x]; 0 has none, so every set holds it
        self.bits = [0 if x == self.zero else 1 << (len(reach) - 1 - x - (x < self.zero)) for x in range(len(reach))]

    def __len__(self) -> int:
        return 1 << (len(self.reach) - 1)

    def __getitem__(self, i: int) -> tuple[Cell, ...]:
        i = range(len(self))[i]  # IndexError past the end, which ends iteration
        return tuple(cell for cell, bit in zip(self.reach, self.bits) if i & bit == bit)


def _least_zero_flip(layout: _PurelyLayout, q: int, flips, tab2: np.ndarray):
    """``_purely_sweep`` for D = {0}, read off ``flips``, the first rule's
    ``_flips`` over M.  The clause reads only S = M, and M ⊂ T keeps T's
    lexicographic order, so the least violating window is the least flip
    source b, of center c and new state out, whose image b + (out - c)·w
    ``tab2`` does not take back to c; b's digits go at M's positions in T,
    0 elsewhere.  None if there is none.
    """
    import numpy as np

    sources, centers, states = flips
    # int64 before subtracting, so a narrow unsigned table does not wrap
    missed = sources[tab2[sources + (states.astype(np.int64) - centers) * layout.w] != centers]
    if not len(missed):
        return None
    row = np.zeros(len(layout.cells), dtype=np.min_scalar_type(q))
    row[layout.sums[layout.zero]] = np.unravel_index(missed[0], (q,) * len(layout.reach))
    return row


@functools.lru_cache(maxsize=256)
def _purely_layout(neighborhood: Neighborhood, q: int, cap: int) -> _PurelyLayout:
    """The ``_PurelyLayout`` of (N, q), built once per (N, q) and cap.  A
    q^|T| above ``cap`` or the int64 index limit is refused before the
    layout is built, and a refusal is not cached.  Threads that race build
    a layout or a plan twice at worst, never a wrong one."""
    reach = Neighborhood(neighborhood.dimension, tuple({neighborhood.origin, *neighborhood.offsets}))  # M
    cells = tuple(sorted({add_cells(a, b) for a in reach for b in reach}))  # T = M + M
    windows = q ** len(cells)
    if windows > min(cap, _INDEX_LIMIT):
        bound = f"cap is {cap}" if cap <= _INDEX_LIMIT else f"the int64 index limit is {_INDEX_LIMIT}"
        raise ResourceCapExceededError(f"purely test window needs {windows} window assignments, {bound}")
    return _PurelyLayout(reach, cells, q)


def _purely_sets(C: LocalRule, G: LocalRule, cap: int):
    """The ``_purely_layout`` of (N, q), which is also the activation
    family in order, and ``sweep(backward, i, bound)``, which finds set
    i's least violating window in one direction (C then G, or G then C
    when ``backward``): ``_least_zero_flip`` for {0}, which ignores
    ``bound`` (the check sweeps {0} before it has a best window), and
    ``_purely_sweep`` for the other sets.  A direction lists its first
    rule's ``_flips`` once, on first use, and derives the sweep's
    compressed flip table from them: row p of the (q^(k-1), q) table,
    k = |M|, holds the flips whose first k - 1 reads have index p, stored
    as the ``counts[p]`` entries that end at ``ends[p]``, each a last read
    (``digits``, ascending) with its new center state.
    """
    import numpy as np

    _require_pair(C, G)
    q = C.q
    layout = _purely_layout(C.neighborhood, q, cap)
    tables = (with_neighborhood(C, layout.reach).array, with_neighborhood(G, layout.reach).array)
    listed = {}

    def sweep(backward: bool, i: int, bound: int | None):
        if backward not in listed:
            sources, centers, states = _flips(tables[backward], q, layout.w)
            counts = np.bincount(sources // q, minlength=len(tables[backward]) // q)
            digits = (sources % q).astype(states.dtype)
            listed[backward] = (sources, centers, states), (counts, counts.cumsum(), digits, states)
        flips, table = listed[backward]
        if i == 0:
            return _least_zero_flip(layout, q, flips, tables[not backward])
        if i not in layout.plans:
            active = [x for x, bit in enumerate(layout.bits) if i & bit == bit]
            layout.plans[i] = _set_plan(active, layout.sums, layout.zero, len(layout.cells))
        return _purely_sweep(q, layout.weights, layout.plans[i], table, tables[not backward], bound)

    return layout, sweep


def check_inverse_purely(
    C: LocalRule,
    G: LocalRule,
    *,
    cap: int = DEFAULT_WINDOW_CAP,
    workers: int = 1,
) -> DecisionReport:
    """Exact invertibility check for the purely asynchronous scheme.

    Verdict is invertible iff, over the finite window, every simultaneous
    update by one rule at an admissible active set is undone by the other
    rule at the same set, in both directions.  With M = N ∪ {0}, the test
    window is T = M + M = {0} ∪ N ∪ (N+N), and the admissible sets are
    every D with 0 ∈ D ⊆ M, taken in the order of the indicator vector of
    M's non-origin offsets, first offset most significant, so {0} comes
    first and M last; a tie on the least window goes to the earlier set.
    The clause for a set D constrains the windows in which the first rule
    changes every cell of D, and reads only S = D ∪ (D+N), so its least
    violating window is 0 outside S.  For D = {0}, S = M, and
    ``_least_zero_flip`` finds it among the first rule's flips over M,
    read against the second rule's table widened to M.  For every other
    D, ``_purely_sweep`` finds it, assigning only the cells of S, growing
    rows only by digits that flip, and skips every window that cannot
    beat the least (window, D) found so far.  The layout of (N, q), from T to each swept set's plan, is
    built once per (N, q) and cap and cached.

    The sets of at most two cells decide the verdict.  Write "C flips c
    in x" for C(x|c+M) ≠ x_c, C_E x for x with every cell of E updated by
    C at once, and let I(E), for 0 ∈ E ⊆ M, say: whenever C flips every
    cell of E in x, replacing the cells of E∖{0} by their C-images leaves
    C(x|M) unchanged.

    1. The test at a cell c of D reads only D ∩ (c+M); translated by -c
       it is cell 0's test for E = (D - c) ∩ M, a set of the family.  So
       the forward clauses hold for every D iff cell 0 is undone for
       every E: G((C_E x)|M) = x_0 whenever C flips every cell of E in x.
    2. Forward {0, e} and backward {0} give I({0, e}).  Let C flip 0 and
       e in x, y = C_{0,e} x, and z be y with cell 0 at x_0.  By forward
       {0, e}, G(y|M) = x_0 ≠ y_0, so G flips cell 0 of y, to z; backward
       {0} says C undoes that, so C(z|M) = y_0 = C(x|M).
    3. I(E) holds for every E, by strong induction on |E|; it says
       nothing for {0}, and step 2 gives it for two cells.  Let C flip
       every cell of E = {0, e_1, ..., e_r} in x, y = C_E x, and x^j be x
       with e_1, ..., e_j set to their C-images y_(e_1), ..., y_(e_j).
       Let C(x^(j-1)|M) = y_0, as holds at j = 1.  Cell e_j reads x^(j-1)
       as it reads x except at the e_i, i < j, in e_j + M; translated by
       -e_j they form with 0 a set of at most j ≤ r cells, all flipped by
       C, so by its I, C(x^(j-1)|e_j+M) = y_(e_j) ≠ x_(e_j).  C thus flips
       0 and e_j in x^(j-1), and I({0, e_j}) gives C(x^j|M) = y_0.  At
       j = r this is I(E).
    4. I(E) and forward {0} give the clause for E.  With x and y as in
       3, z = x^r is y with cell 0 at x_0.  By I(E), C(z|M) = y_0 ≠ z_0,
       so C flips cell 0 of z, to y, and forward {0} says G(y|M) = x_0.

    So the forward clauses follow from forward {0}, backward {0} and
    every forward {0, e}; the backward ones, symmetrically, from backward
    {0}, forward {0} and every backward {0, e}.  Nothing here uses how G
    was derived, nor the dimension.  The check tests the forward small
    sets ({0}, then each {0, e}, in family order), then the backward {0},
    then the backward sets {0, e}, and if all of them hold it returns
    invertible.  A direction sweeps its larger sets only when its own
    small sets or the other direction's {0} fail, and then only to find
    its least witness: the least small-set window is the bound, and a set
    before the best one in family order also keeps a window equal to it,
    so the witness is the least (window, D) over the whole family.  A
    forward witness is reported first; the backward direction runs only
    when the forward one holds.  ``stats.windows`` counts the q^|T|
    logical windows; ``workers`` is accepted and not used.  ``cap`` must be
    an integer: a bool, float or str raises :class:`OutOfRangeError`.
    """
    t0 = time.perf_counter()
    layout, sweep = _purely_sets(C, G, _integer(cap, "window cap"))
    windows = C.q ** len(layout.cells)

    def least(backward: bool, sets: Iterable[int], best=None):
        """The least (window index, set, row) over ``sets`` in one
        direction, or ``best`` if none beats it."""
        for i in sets:
            # a set before the best one in family order wins a tie
            row = sweep(backward, i, None if best is None else best[0] + (i < best[1]))
            if row is not None:
                best = (int(row @ layout.weights), i, row)
        return best

    # {0} is set 0 and each {0, e} a power of two; a larger set has two bits
    # or more, and the larger sets are listed only when swept
    small = [0, *(1 << j for j in range(len(layout).bit_length() - 1))]
    zero_back = None
    for backward, clause in ((False, CLAUSE_PURELY_FORWARD), (True, CLAUSE_PURELY_BACKWARD)):
        # the backward pass starts from the backward {0}, which the forward pass swept
        best = least(backward, small[backward:], zero_back)
        if best is None and not backward:
            # the forward small sets hold, so the backward {0} decides the forward direction
            zero_back = least(True, small[:1])
        if best is not None or zero_back is not None:
            best = least(backward, (i for i in range(len(layout)) if i & (i - 1)), best)
        if best is not None:
            _, i, row = best
            witness = Witness(WindowConfig._canonical(layout.cells, tuple(row.tolist())), layout[i], clause)
            return _report(t0, windows, Verdict.NOT_INVERTIBLE, witness=witness)
    return _report(t0, windows, Verdict.INVERTIBLE, G)


def _least_path(q: int, k: int, allowed: list[int]) -> list[int] | None:
    """Least word (first letter most significant) whose i-th k-letter
    block b is a set bit of the int mask ``allowed[i]``, blocks read in
    mixed radix; None if there is none.  A word is a path in the de Bruijn
    graph of width k: block b leads from state b // q to state b % span,
    span = q^(k-1), a state being k - 1 letters.  A backward pass marks, in
    an int over the states, those from which the remaining blocks can be
    completed: a step keeps ``good = ok & (after * lift)``, the allowed
    blocks that lead to a marked state (lift = Σ_h 2^(h·span) copies the
    marks ``after`` to every block), and marks state s when ``good`` has a
    bit in [s·q, s·q + q).  A greedy forward pass takes, at each step, the
    lowest bit of ``good`` in the current state's q-bit group.  With one
    step the word is the least allowed block itself.  Consecutive equal
    masks that leave the marks unchanged are passed over, so a long run
    of one mask costs about one step.
    """
    span = q ** (k - 1)
    lift = ((1 << q * span) - 1) // ((1 << span) - 1)
    after = (1 << span) - 1
    goods = []
    last = good = None
    settled = False
    for ok in reversed(allowed):
        # unless the same mask already mapped ``after`` to itself
        if not (settled and ok == last):
            good = ok & after * lift
            # bit s·q of ``fold`` is set when state s's group holds a bit of
            # ``good``; in the q^k-digit binary string those are every q-th digit
            fold = good
            for h in range(1, q):
                fold |= good >> h
            now = int(format(fold, f"0{q * span}b")[q - 1 :: q], 2)
            last, settled, after = ok, now == after, now
        goods.append(good)
    if not after:
        return None
    state = (after & -after).bit_length() - 1
    word = [(state // q ** (k - 2 - i)) % q for i in range(k - 1)]
    low = (1 << q) - 1
    for good in reversed(goods):
        group = good >> state * q & low
        letter = (group & -group).bit_length() - 1
        word.append(letter)
        state = (state * q + letter) % span
    return word


# bytes of 0s and 1s to the ASCII digits int(..., 2) reads
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: list[bool]) -> int:
    """The int whose bit b is ``flags[b]``, built in O(len(flags))."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


@functools.lru_cache(maxsize=256)
def _fully_layout(left: int, right: int, reach: int, q: int):
    """The fully check's test cells, its block ``left .. right`` of
    N ∪ {0}, the block index weight of 0, and the center state at each
    block index: all of (N, q) alone, so built once per (N, q)."""
    cells = tuple((i,) for i in range(left - reach, right + reach + 1))
    center = tuple(b // q**right % q for b in range(q ** (right - left + 1)))
    return cells, Neighborhood.line(*range(left, right + 1)), q**right, center


def check_inverse_fully_1d(
    C: LocalRule,
    G: LocalRule,
    *,
    cap: int = DEFAULT_WINDOW_CAP,
) -> DecisionReport:
    """Exact invertibility check for the fully asynchronous scheme, d = 1.

    Four clauses over every window w of the test cells: a flip at 0 by
    either rule is undone by the other at 0 (eq1-forward / eq1-backward),
    and a window fixed at 0 by either rule is fixed at some candidate cell
    by the other (eq2-delta / eq2-gamma).  With m = max |n| over N, the
    candidate cells are A = {-q^(2m+1), ..., q^(2m+1)} (just {0} when N is
    empty), and the test window is the interval of cells
    {0} ∪ N ∪ A ∪ (A+N).  The first violated clause, in that order, is
    reported with its least window.  Both rules are read widened to the
    block min(N ∪ {0}) .. max(N ∪ {0}) of k cells, so a block's table
    index is its own mixed-radix value.  Each clause is one
    ``_least_path`` search over the blocks it reads, in O(|T|·q^k) steps,
    from two masks, ints whose bit b stands for block b of the q^k:
    ``around`` marks the blocks at 0 that violate the clause, and
    ``others`` the blocks it allows at the other candidates it reads.
    eq1 reads only the block at 0; eq2 reads the block at every
    candidate, where the partner must leave the block unfixed.  The cells
    outside the blocks read stay 0, which gives the least window.
    ``stats.windows`` counts q^|T| logical windows per clause pair read.
    The check refuses when q^|T| exceeds ``cap``, for every neighborhood;
    a ``cap`` that is not an integer raises :class:`OutOfRangeError`.

    The verdict quantifies over every configuration of Z, periodic or not.
    ``decide_fully_1d`` answers not-invertible, with clause eq2-delta, for
    the elementary rules 134 and 142 on ``0000000000101010101``, 148 on
    ``1010101010000000000``, 158 on ``1111111111010101010``, and 212 and
    214 on ``0101010101111111111``.  Each window has two different periodic
    tails, which no ring configuration can contain; ``ROADMAP.md`` item 11
    covers these rules on rings.
    """
    t0 = time.perf_counter()
    if C.neighborhood.dimension != 1:
        raise NotOneDimensionalError("fully asynchronous check requires one dimension")
    _require_pair(C, G)
    cap = _integer(cap, "window cap")
    q = C.q
    offsets = [n[0] for n in C.neighborhood.offsets]
    left, right = min([0, *offsets]), max([0, *offsets])  # the block N ∪ {0}
    reach = 0  # candidates run from -reach to reach
    if offsets:
        m = max(-left, right)
        if q >= 2 and 2 * m + 1 > cap.bit_length():
            # the window spans more than 2^(2m+1) > 2m+1 cells, so it fails the
            # test below; this refuses before building a q^(2m+1) integer
            raise ResourceCapExceededError(
                f"fully test window has more than {q}^{2 * m + 1} cells, so {q}^cells exceeds cap {cap}"
            )
        reach = q ** (2 * m + 1)
    size = right - left + 1 + 2 * reach
    if q >= 2 and (size > cap.bit_length() or q**size > cap):
        raise ResourceCapExceededError(f"fully test window has {size} cells, {q}^{size} exceeds cap {cap}")
    cells, block, weight, center = _fully_layout(left, right, reach, q)
    wide_c, wide_g = with_neighborhood(C, block), with_neighborhood(G, block)

    tab_c, tab_g = wide_c.table, wide_g.table
    # the blocks whose center each rule changes
    move_c, move_g = (_mask([t != c for t, c in zip(tab, center)]) for tab in (tab_c, tab_g))
    pairs = ((tab_c, tab_g, move_c, move_g), (tab_g, tab_c, move_g, move_c))
    clauses = (CLAUSE_EQ1_FORWARD, CLAUSE_EQ1_BACKWARD, CLAUSE_EQ2_DELTA, CLAUSE_EQ2_GAMMA)
    # stats.windows counts q^|T| windows per clause pair read, eq pairs in all
    for eq, clause, (tab1, tab2, move1, move2) in zip((1, 1, 2, 2), clauses, pairs * 2):
        if eq == 1:
            # eq1 reads only the block at 0: a flip there by tab1 that tab2 does not undo
            side, others = 0, None
            around = _mask([t != c and tab2[b + (t - c) * weight] != c for b, (t, c) in enumerate(zip(tab1, center))])
        else:
            # eq2 reads every candidate's block: tab1 fixes 0 and tab2 fixes no candidate
            side, others = reach, move2
            around = move2 & ~move1
        if around:
            word = _least_path(q, len(block), [others] * side + [around] + [others] * side)
            if word is not None:
                pad = [0] * (reach - side)
                witness = Witness(WindowConfig._canonical(cells, tuple(pad + word + pad)), ((0,),), clause)
                return _report(t0, eq * q**size, Verdict.NOT_INVERTIBLE, witness=witness)
    return _report(t0, 2 * q**size, Verdict.INVERTIBLE, G)


@dataclass(frozen=True)
class DerivationConflict:
    """Two local configurations force a candidate inverse to two values."""

    observed: tuple[int, ...]
    first_source: tuple[int, ...]
    first_value: int
    second_source: tuple[int, ...]
    second_value: int


def derive_candidate_inverse(rule: LocalRule) -> LocalRule | DerivationConflict:
    """The unique same-neighborhood inverse candidate, or the conflict
    proving none exists.

    When the neighborhood N contains 0, every local configuration the rule
    flips pins the candidate's value at the flipped configuration: an
    inverse must undo a flip at 0 (the purely clause for the active set
    {0}, and ``eq1-backward`` under the fully scheme).  Every other entry
    keeps its center value: were an inverse to change cell 0 of such an x'
    to v, the rule would have to change v back to x'(0), which makes x' a
    flip image, and flip images are pinned.  So no other table over N can
    be an inverse, and for a rule with a minimal neighborhood a conflict is
    a definitive negative answer.  The table is built in one pass: it
    starts as the identity on the center, and each flip writes its source's
    center once, at its image.  An image's own center is the flip's output,
    and only a flip writes there, so a second write to one image is the
    conflict; its first source is the image with the written state at its
    center.

    When N lacks 0, no entry reads cell 0, so each configuration has q - 1
    predecessors through it, one per other state of cell 0.  At q <= 2
    every entry is pinned to that one other state, q - 1 - out.  At q >= 3
    two predecessors of the least configuration pin its entry to the two
    least states other than its output, and that conflict is returned.
    """
    import numpy as np

    q = rule.q
    origin = rule.neighborhood.origin
    if origin in rule.neighborhood:
        weight = q ** (rule.arity - 1 - rule.neighborhood.offsets.index(origin))
        table = [i // weight % q for i in range(len(rule.table))]
        for idx, out in enumerate(rule.table):
            center = (idx // weight) % q
            if out == center:
                continue
            image = idx + (out - center) * weight
            # the image's center is out, so any other state there was written by a first source
            if table[image] != out:
                return DerivationConflict(
                    observed=rule.decode_index(image),
                    first_source=rule.decode_index(image + (table[image] - out) * weight),
                    first_value=table[image],
                    second_source=rule.decode_index(idx),
                    second_value=center,
                )
            table[image] = center
    elif q <= 2:
        table = tuple(q - 1 - out for out in rule.table)
    else:
        source = rule.decode_index(0)
        first, second = [v for v in range(3) if v != rule.table[0]][:2]
        return DerivationConflict(source, source, first, source, second)
    # an array, which LocalRule checks and packs with numpy
    return LocalRule(rule.alphabet, rule.neighborhood, np.array(table))


def _decide(rule: LocalRule, checker: Callable, *, window_cap: int) -> DecisionReport:
    # read before the early answers below, which never reach the checker
    window_cap = _integer(window_cap, "window cap")
    t0 = time.perf_counter()
    if rule.q == 1:
        # one-state alphabets admit exactly one rule, which inverts itself
        return _report(t0, 0, Verdict.INVERTIBLE, rule)
    mini = minimize_neighborhood(rule)
    candidate = derive_candidate_inverse(mini)
    if isinstance(candidate, DerivationConflict):
        window = WindowConfig._canonical(mini.neighborhood.offsets, candidate.observed)
        witness = Witness(window, (mini.neighborhood.origin,), CLAUSE_DERIVATION_CONFLICT)
        return _report(t0, 0, Verdict.NOT_INVERTIBLE, witness=witness)
    try:
        checked = checker(mini, candidate, cap=window_cap)
    except ResourceCapExceededError:
        return _report(t0, 0, Verdict.RESOURCE_CAP_EXCEEDED)
    inverse = with_neighborhood(candidate, rule.neighborhood) if checked.verdict is Verdict.INVERTIBLE else None
    return _report(t0, checked.stats.windows, checked.verdict, inverse, checked.witness)


def decide_purely(rule: LocalRule, *, window_cap: int = DEFAULT_WINDOW_CAP) -> DecisionReport:
    """Decide purely asynchronous invertibility of a single rule.

    The neighborhood is minimized, the single candidate inverse derived and
    checked.  A returned inverse is re-expressed over the rule's original
    neighborhood.
    """
    return _decide(rule, check_inverse_purely, window_cap=window_cap)


def decide_fully_1d(rule: LocalRule, *, window_cap: int = DEFAULT_WINDOW_CAP) -> DecisionReport:
    """Decide fully asynchronous invertibility of a one-dimensional rule."""
    if rule.neighborhood.dimension != 1:
        raise NotOneDimensionalError("fully asynchronous decision requires one dimension")
    return _decide(rule, check_inverse_fully_1d, window_cap=window_cap)


@dataclass(frozen=True)
class TwoPredecessorWitness:
    """Two distinct windows over the same cells mapped to one successor by
    single-cell steps."""

    first: WindowConfig
    first_active: Cell
    second: WindowConfig
    second_active: Cell

    def to_dict(self) -> dict[str, Any]:
        first = window_to_dict(self.first)
        return {
            "first": first,
            "first_active": list(self.first_active),
            # both windows fill one box, so they share its cells list
            "second": {**first, "states": list(self.second.states)},
            "second_active": list(self.second_active),
        }


def two_predecessor_witness(rule: LocalRule) -> TwoPredecessorWitness | None:
    """Construct two window configurations with a common single-step successor.

    Returns None exactly when the rule never flips any cell (every local
    configuration maps to its center value), in which case no such witness
    exists.  Otherwise two far-apart copies of the least flipping local
    configuration are laid out on a background of zeros; flipping either
    copy's center in advance makes both windows step to the same successor.
    The windows fill the bounding box of both copies; a box of more than
    ``_WITNESS_CELLS`` cells raises ``ResourceCapExceededError``.
    """
    if rule.neighborhood.origin not in rule.neighborhood:
        raise CenterNotInNeighborhoodError("witness construction needs offset 0 in the neighborhood")
    q = rule.q
    offsets = rule.neighborhood.offsets
    dim = rule.neighborhood.dimension
    weight = q ** (rule.arity - 1 - offsets.index(rule.neighborhood.origin))
    # the least entry whose output is not its center
    index = next((i for i, out in enumerate(rule.table) if out != i // weight % q), None)
    if index is None:
        return None
    successor_value = rule.table[index]

    # the copies around -d·e1 and +d·e1 share a cell exactly when two offsets
    # that agree past the first axis differ by 2d on it
    gaps = {a[0] - b[0] for a in offsets for b in offsets if a[1:] == b[1:]}
    distance = next(d for d in itertools.count(1) if 2 * d not in gaps)
    far = (distance,) + (0,) * (dim - 1)
    near = tuple(-x for x in far)

    ell = rule.decode_index(index)
    copies = {add_cells(center, n): state for center in (near, far) for n, state in zip(offsets, ell)}
    lo = [min(c[axis] for c in copies) for axis in range(dim)]
    hi = [max(c[axis] for c in copies) for axis in range(dim)]
    cells = math.prod(b - a + 1 for a, b in zip(lo, hi))
    if cells > _WITNESS_CELLS:
        raise ResourceCapExceededError(f"witness window spans {cells} cells, more than {_WITNESS_CELLS}")
    # product yields the box in window order, so it needs no sort
    box = tuple(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    shared = WindowConfig._canonical(box, tuple(copies.get(c, 0) for c in box))
    first = shared.with_updates({near: successor_value})
    second = shared.with_updates({far: successor_value})

    joined_a = step(rule, first, [far])
    joined_b = step(rule, second, [near])
    if joined_a != joined_b or first == second:
        raise RuntimeError("witness construction failed to verify; this is a bug")
    return TwoPredecessorWitness(first=first, first_active=far, second=second, second_active=near)
