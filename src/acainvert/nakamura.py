"""Invertibility-preserving transformation from synchronous to purely
asynchronous automata.

Each cell of the transformed automaton carries a bar state: the current
state, the previous state, and a mod-3 time stamp.  A cell may advance
(apply the forward rule and increment its stamp) only when no neighbor
lags behind it and its stored previous state is consistent with the
backward rule.  Retreating under (C, G) is advancing under (G, C) in
reversed time: with sigma the involution on bar states that swaps curr
and old and negates the stamp, applied cellwise, the backward rule of
(C, G) is sigma ∘ forward(G, C) ∘ sigma.  For a synchronous
inverse pair (C, G) the two transformed rules are inverses under the
purely asynchronous scheme; :func:`verify_theorem1` runs the exact
finite-window check on the transformed pair, which tests the tables, not
the premise.

Bar states are serialized through the fixed bijection
``code = curr * 3q + old * 3 + time``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Sequence

from .core import Alphabet, LocalRule, Neighborhood, with_neighborhood
from .errors import AlphabetMismatchError, NeighborhoodMismatchError, OutOfRangeError, ResourceCapExceededError
from .invertibility import DEFAULT_WINDOW_CAP, DecisionReport, check_inverse_purely

__all__ = [
    "BarState",
    "BarRulePair",
    "bar_alphabet",
    "encode_bar_state",
    "decode_bar_state",
    "build_bar_pair",
    "embed_ring",
    "verify_theorem1",
]

# entries in one slab of build_bar_pair's tables; bounds its working memory
_TABLE_BLOCK = 1 << 15


@dataclass(frozen=True)
class BarState:
    """Current state, previous state, and a mod-3 time stamp."""

    curr: int
    old: int
    time: int

    def __post_init__(self) -> None:
        if self.time not in (0, 1, 2):
            raise OutOfRangeError("time stamp must be 0, 1 or 2")


def bar_alphabet(q: int) -> Alphabet:
    return Alphabet(3 * q * q)


def encode_bar_state(q: int, state: BarState) -> int:
    if not (0 <= state.curr < q and 0 <= state.old < q):
        raise OutOfRangeError(f"bar state {state} outside alphabet of size {q}")
    return state.curr * 3 * q + state.old * 3 + state.time


def decode_bar_state(q: int, code: int) -> BarState:
    if not 0 <= code < 3 * q * q:
        raise OutOfRangeError(f"bar code {code} outside 0..{3 * q * q - 1}")
    curr, rest = divmod(code, 3 * q)
    old, t = divmod(rest, 3)
    return BarState(curr=curr, old=old, time=t)


@dataclass(frozen=True)
class BarRulePair:
    """Transformed forward/backward rules over the bar-state alphabet.

    ``forward`` and ``backward`` are the two bar rules, both on the shared
    neighborhood N′ that :func:`build_bar_pair` builds, and
    ``base_alphabet`` is the alphabet of the rules they were built from.
    """

    forward: LocalRule
    backward: LocalRule
    base_alphabet: Alphabet

    def encoding_doc(self) -> dict[str, Any]:
        q = self.base_alphabet.size
        return {
            "base_alphabet": q,
            "bar_state": "code = curr * 3q + old * 3 + time",
            "fields": {"curr": f"0..{q - 1}", "old": f"0..{q - 1}", "time": "0..2"},
        }


def build_bar_pair(C: LocalRule, G: LocalRule) -> BarRulePair:
    """Tabulate the transformed pair over the symmetrized neighborhood.

    The shared neighborhood N′ holds both inputs' offsets, their
    negations and the origin; added offsets are dummies of the base rules.

    A bar table has one axis per offset, indexed by the bar code read
    there.  Curr, old and stamp are decoded once per bar code; laid along
    each offset's own axis, they broadcast to everything the tables need.
    One move formula fills both tables: the forward table is the forward
    rule of (C, G), and the backward table is sigma ∘ forward(G, C) ∘
    sigma, where sigma(curr·3q + old·3 + t) = old·3q + curr·3 + (-t mod 3)
    on each code.  The tables are filled in slabs that fix the leading
    axes, one index or a run of them at a time, so that a slab holds at most
    ``_TABLE_BLOCK`` entries.  Tables of more entries than numpy can
    index raise ``ResourceCapExceededError`` before anything is built.
    """
    import numpy as np

    if C.alphabet != G.alphabet:
        raise AlphabetMismatchError("bar construction needs a shared alphabet")
    if C.neighborhood.dimension != G.neighborhood.dimension:
        raise NeighborhoodMismatchError("bar construction needs a shared dimension")
    reach = {*C.neighborhood, *G.neighborhood, C.neighborhood.origin}
    shared = Neighborhood(C.neighborhood.dimension, tuple(reach | {tuple(-x for x in n) for n in reach}))
    q = C.q
    center = shared.offsets.index(shared.origin)
    arity = len(shared)
    size = 3 * q * q
    # checked before widening, which alone can take minutes at large q, and
    # before the bar alphabet, which refuses more than 2**63 states
    if size**arity > np.iinfo(np.intp).max:
        raise ResourceCapExceededError(
            f"bar tables need {size}^{arity} entries, more than numpy can index ({np.iinfo(np.intp).max})"
        )
    alphabet = bar_alphabet(q)

    # per bar code, in intp: a bar code reaches 3q^2 - 1, which wraps in
    # the base tables' narrow dtype
    code = np.arange(size)
    curr, old, stamp = code // (3 * q), code // 3 % q, code % 3
    later = (stamp + 1) % 3
    # an advanced center's old and stamp
    advanced = curr * 3 + later
    # sigma: swap curr and old, negate the stamp; an involution
    reverse = old * (3 * q) + curr * 3 + (-stamp) % 3
    weights = q ** np.arange(arity - 1, -1, -1)
    # the base tables widened to the shared offsets
    dtab, gtab = (with_neighborhood(rule, shared).array.astype(np.intp) for rule in (C, G))

    def advance(fill, check, axes, same):
        """The forward bar rule at the codes ``axes``: the center advances
        when its old equals ``check`` on the current view, taking
        ``fill``, a base table scaled into the curr field, as its new
        curr.  ``same`` marks the neighbors whose stamp is the center's."""
        me = axes[center]
        t0 = stamp[me]
        # some neighbor is a tick behind the center
        ahead = functools.reduce(np.logical_or, [later[a] == t0 for a in axes])
        # the current base view as a flat base-table index: a neighbor a
        # tick ahead of the center is read by its old state.  It is used
        # only where no neighbor lags, where it is defined
        now = sum(np.where(s, curr[a], old[a]) * w for s, a, w in zip(same, axes, weights))
        # where the center cannot move, it keeps its code
        return np.where(~ahead & (old[me] == check[now]), fill[now] + advanced[me], me)

    dfill, gfill = dtab * (3 * q), gtab * (3 * q)
    # a slab fixes the first ``lead`` axes and spans the ``rest``
    lead = next(k for k in range(arity + 1) if size ** (arity - k) <= _TABLE_BLOCK)
    rest = arity - lead
    span = size**rest
    run = max(1, _TABLE_BLOCK // span)
    forward_table = np.empty(size**arity, dtype=np.min_scalar_type(size - 1))
    backward_table = np.empty_like(forward_table)
    for lo in range(0, size**lead, run):
        hi = min(lo + run, size**lead)
        # the codes read at each offset: axis 0 runs over the slab's
        # indices into the lead axes, and each later offset j has axis
        # 1 + j - lead
        prefix = np.arange(lo, hi)
        axes = [(prefix // size ** (lead - 1 - j) % size).reshape((-1,) + (1,) * rest) for j in range(lead)]
        axes += [code.reshape((1,) * (1 + i) + (-1,) + (1,) * (rest - 1 - i)) for i in range(rest)]
        # sigma keeps equal stamps equal, so both directions share ``same``
        same = [stamp[a] == stamp[axes[center]] for a in axes]
        block = slice(lo * span, hi * span)
        forward = advance(dfill, gtab, axes, same)
        # retreating under (C, G) is advancing under (G, C) in reversed time
        backward = reverse[advance(gfill, dtab, [reverse[a] for a in axes], same)]
        # both are stored only now: freeing the forward slab before the
        # backward one is built let the allocator return the heap and fault
        # it back in every slab (under glibc, 942 minor faults per q = 4
        # build instead of 220)
        forward_table[block], backward_table[block] = forward.ravel(), backward.ravel()
    return BarRulePair(
        forward=LocalRule(alphabet, shared, forward_table),
        backward=LocalRule(alphabet, shared, backward_table),
        base_alphabet=C.alphabet,
    )


def embed_ring(states: Sequence[int], G: LocalRule, t: int) -> tuple[BarState, ...]:
    """Lift a cyclic lattice into bar states, wrapping neighbor reads."""
    if G.neighborhood.dimension != 1:
        raise NeighborhoodMismatchError("ring embedding is one-dimensional")
    n = len(states)
    out = []
    for i in range(n):
        local = [states[(i + off[0]) % n] for off in G.neighborhood.offsets]
        out.append(BarState(states[i], G.apply_local(local), t % 3))
    return tuple(out)


def verify_theorem1(
    C: LocalRule,
    G: LocalRule,
    *,
    cap: int = DEFAULT_WINDOW_CAP,
    workers: int = 1,
) -> DecisionReport:
    """Run the exact purely asynchronous check on the bar pair of (C, G).

    This checks that the two bar tables undo each other's steps under the
    purely scheme, which tests how the tables were built.  It does not
    check that (C, G) is a synchronous inverse pair, and it cannot falsify
    that premise: every pair tried so far got ``invertible``, including
    pairs that are not synchronous inverses, such as 400 random ECA
    pairs, the self-pairs (110, 110), (30, 30) and (90, 90), and (0, 255).
    The check runs on one thread; ``workers`` is accepted and not used.
    """
    pair = build_bar_pair(C, G)
    return check_inverse_purely(pair.forward, pair.backward, cap=cap)
