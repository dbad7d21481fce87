"""Reference implementations used to cross-check the fast engine.

Everything here favors directness over speed: windows are plain tuples,
rules are plain (offsets, table) pairs, and each decision clause is
transcribed as an explicit loop; only the ring oracle, which holds whole
phase spaces, uses numpy arrays.  Nothing is imported from the package
under test, so agreement between these oracles and the engine is
meaningful evidence for both.

Rules are given as ``(offsets, table)`` with the table indexed by the
mixed-radix encoding of the local configuration (first offset most
significant), matching the package's table layout.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def pattern_index(offsets, q, window, pos, at):
    """Table index of the local configuration observed at cell ``at``."""
    idx = 0
    for o in offsets:
        idx = idx * q + window[pos[at + o]]
    return idx


def purely_window_cells(offsets):
    cells = {0} | set(offsets) | {m + n for m in offsets for n in offsets}
    return sorted(cells)


def fully_candidate_cells(offsets, q):
    if not offsets:
        return [0]
    m = max(abs(o) for o in offsets)
    reach = q ** (2 * m + 1)
    return list(range(-reach, reach + 1))


def fully_window_cells(offsets, q):
    cand = fully_candidate_cells(offsets, q)
    cells = {0} | set(offsets) | set(cand) | {a + n for a in cand for n in offsets}
    return sorted(cells)


def naive_check_purely(offsets, q, delta, gamma):
    """Pair enumeration of the one-sided-window biconditional.

    Enumerates every ordered pair (c, c') over the window cells, keeps the
    pairs whose difference set D satisfies 0 in D subset {0} union N, and
    demands c' = Delta_D(c) exactly when c = Gamma_D(c').
    """
    cells = purely_window_cells(offsets)
    pos = {c: i for i, c in enumerate(cells)}
    allowed = {0} | set(offsets)
    windows = list(product(range(q), repeat=len(cells)))
    for c in windows:
        for cp in windows:
            diff = [cell for cell in cells if c[pos[cell]] != cp[pos[cell]]]
            if 0 not in diff or not set(diff) <= allowed:
                continue
            fwd = all(cp[pos[i]] == delta[pattern_index(offsets, q, c, pos, i)] for i in diff)
            bwd = all(c[pos[i]] == gamma[pattern_index(offsets, q, cp, pos, i)] for i in diff)
            if fwd != bwd:
                return False
    return True


def naive_check_fully(offsets, q, delta, gamma):
    """Direct transcription of the two fully asynchronous window clauses.

    For every window: a flip of cell 0 by either rule must be undone by
    the other rule at cell 0 (the difference-set-{0} biconditional), and a
    window fixed at cell 0 by either rule must be fixed at some candidate
    cell by the other rule.
    """
    cells = fully_window_cells(offsets, q)
    pos = {c: i for i, c in enumerate(cells)}
    cand = fully_candidate_cells(offsets, q)
    center = pos[0]
    for w in product(range(q), repeat=len(cells)):
        mine = w[center]
        d0 = delta[pattern_index(offsets, q, w, pos, 0)]
        g0 = gamma[pattern_index(offsets, q, w, pos, 0)]
        if d0 != mine:
            flipped = w[:center] + (d0,) + w[center + 1:]
            if gamma[pattern_index(offsets, q, flipped, pos, 0)] != mine:
                return False
        if g0 != mine:
            flipped = w[:center] + (g0,) + w[center + 1:]
            if delta[pattern_index(offsets, q, flipped, pos, 0)] != mine:
                return False
        if d0 == mine:
            if not any(gamma[pattern_index(offsets, q, w, pos, a)] == w[pos[a]] for a in cand):
                return False
        if g0 == mine:
            if not any(delta[pattern_index(offsets, q, w, pos, a)] == w[pos[a]] for a in cand):
                return False
    return True


def naive_least_fully_witness(offsets, q, delta, gamma):
    """Least window violating a fully asynchronous clause, or None.

    The clauses are tried in the fixed order eq1-forward, eq1-backward,
    eq2-delta, eq2-gamma; each scans every window in lexicographic order
    (first cell most significant) and the first violation found is
    returned as ``(states, clause)``.
    """
    cells = fully_window_cells(offsets, q)
    pos = {c: i for i, c in enumerate(cells)}
    cand = fully_candidate_cells(offsets, q)
    center = pos[0]

    def flip_not_undone(w, one, other):
        mine = w[center]
        out = one[pattern_index(offsets, q, w, pos, 0)]
        if out == mine:
            return False
        flipped = w[:center] + (out,) + w[center + 1:]
        return other[pattern_index(offsets, q, flipped, pos, 0)] != mine

    def fixed_but_stuck(w, one, other):
        if one[pattern_index(offsets, q, w, pos, 0)] != w[center]:
            return False
        return not any(other[pattern_index(offsets, q, w, pos, a)] == w[pos[a]] for a in cand)

    clauses = (
        ("eq1-forward", flip_not_undone, delta, gamma),
        ("eq1-backward", flip_not_undone, gamma, delta),
        ("eq2-delta", fixed_but_stuck, delta, gamma),
        ("eq2-gamma", fixed_but_stuck, gamma, delta),
    )
    for clause, violated, one, other in clauses:
        for w in product(range(q), repeat=len(cells)):
            if violated(w, one, other):
                return w, clause
    return None


def naive_least_path(q, k, allowed):
    """Least word of len(allowed) + k - 1 letters, first letter most
    significant, whose i-th block of k letters, read in mixed radix as b,
    has bit b of the int ``allowed[i]`` set; None if there is none.  Every
    word is tried in order."""
    for word in product(range(q), repeat=len(allowed) + k - 1):
        blocks = [sum(x * q ** (k - 1 - j) for j, x in enumerate(word[i : i + k])) for i in range(len(allowed))]
        if all(mask >> b & 1 for mask, b in zip(allowed, blocks)):
            return list(word)
    return None


def purely_activation_family(offsets):
    """Every D with 0 in D subset {0} union N, ordered by the indicator
    vector of the non-origin offsets, most significant first."""
    others = sorted(set(offsets) - {0})
    family = []
    for mask in range(1 << len(others)):
        chosen = [o for i, o in enumerate(others) if (mask >> (len(others) - 1 - i)) & 1]
        family.append(tuple(sorted([0] + chosen)))
    return family


def naive_least_purely_witness(offsets, q, delta, gamma):
    """Least violation of the purely asynchronous clause, or None.

    A window w violates the clause for (one, other) at D when stepping one
    at D changes every cell of D and stepping other at D afterwards does
    not give w back.  The forward direction (delta, then gamma) is tried
    first; within a direction the windows are scanned in lexicographic
    order (first cell most significant) and, per window, the sets D in
    family order.  The first violation is returned as
    ``(states, active, clause)``.
    """
    cells = purely_window_cells(offsets)
    pos = {c: i for i, c in enumerate(cells)}
    family = purely_activation_family(offsets)

    def violated(w, active, one, other):
        stepped = list(w)
        for c in active:
            out = one[pattern_index(offsets, q, w, pos, c)]
            if out == w[pos[c]]:
                return False
            stepped[pos[c]] = out
        return any(other[pattern_index(offsets, q, stepped, pos, c)] != w[pos[c]] for c in active)

    directions = (("purely-forward", delta, gamma), ("purely-backward", gamma, delta))
    for clause, one, other in directions:
        for w in product(range(q), repeat=len(cells)):
            for active in family:
                if violated(w, active, one, other):
                    return w, active, clause
    return None


def origin_of(offsets):
    """The origin in the form of the offsets: 0 for integer offsets (1-D),
    a d-tuple of zeros for d-tuple offsets."""
    return next((tuple(0 for _ in o) for o in offsets if isinstance(o, tuple)), 0)


def add_offsets(a, b):
    """The sum of two integer offsets, or of two d-tuples coordinatewise."""
    return tuple(x + y for x, y in zip(a, b)) if isinstance(a, tuple) else a + b


def naive_first_conflict(offsets, q, table):
    """The first conflict in deriving an inverse candidate over offsets
    that hold the origin: the local configurations are walked in index
    order, and the walk stops at the first one the rule changes at the
    origin onto an image that an earlier change already produced.  Returns
    (image, the earlier source, its center, this source, its center), or
    None.  Offsets are integers (1-D) or d-tuples."""
    center = offsets.index(origin_of(offsets))
    hit = {}
    for idx, local in enumerate(product(range(q), repeat=len(offsets))):
        out = table[idx]
        if out == local[center]:
            continue
        image = local[:center] + (out,) + local[center + 1 :]
        if image in hit:
            return image, hit[image], hit[image][center], local, local[center]
        hit[image] = local
    return None


def naive_candidate(offsets, q, table):
    """The candidate inverse over offsets that hold the origin, for a rule
    with no derivation conflict: the image of every local configuration
    the rule changes at the origin maps back to that configuration's
    center, and every other configuration keeps its center.  Offsets are
    integers (1-D) or d-tuples."""
    center = offsets.index(origin_of(offsets))
    configs = list(product(range(q), repeat=len(offsets)))
    candidate = {local: local[center] for local in configs}
    for idx, local in enumerate(configs):
        if table[idx] != local[center]:
            candidate[local[:center] + (table[idx],) + local[center + 1 :]] = local[center]
    return tuple(candidate[local] for local in configs)


def naive_purely_certificate(offsets, q, delta, gamma):
    """Whether the purely clause holds, in both directions, on D = {0} and
    on every D = {0, e} with e in M = {0} union N: by the two-cell theorem,
    exactly when the pair is purely invertible.  The clause for D reads
    only S = D + M, so each set enumerates the windows over S alone.
    Offsets are integers (1-D) or d-tuples, and 0 is the origin."""
    zero = origin_of(offsets)
    M = sorted({zero} | set(offsets))
    for one, other in ((delta, gamma), (gamma, delta)):
        for active in [(zero,)] + [(zero, e) for e in M if e != zero]:
            cells = sorted({add_offsets(c, m) for c in active for m in M})
            pos = {c: i for i, c in enumerate(cells)}
            # reads[c]: the window positions cell c reads, in offset order
            reads = {c: [pos[add_offsets(c, o)] for o in offsets] for c in active}

            def index(w, c):
                idx = 0
                for i in reads[c]:
                    idx = idx * q + w[i]
                return idx

            for w in product(range(q), repeat=len(cells)):
                stepped = list(w)
                for c in active:
                    stepped[pos[c]] = one[index(w, c)]
                    # the clause binds only where every cell of D changes
                    if stepped[pos[c]] == w[pos[c]]:
                        break
                else:
                    if any(other[index(stepped, c)] != w[pos[c]] for c in active):
                        return False
    return True


def all_tables(q, arity):
    return product(range(q), repeat=q ** arity)


def naive_decide(check, offsets, q, delta):
    """Invertible iff some same-neighborhood table passes the check."""
    return any(check(offsets, q, delta, tuple(gamma)) for gamma in all_tables(q, len(offsets)))


def naive_synchronous_inverse(offsets, q, c_table, g_table):
    """Whether (C, G), two rules on the same offsets, are a synchronous
    inverse pair: on every assignment to the cells {0} ∪ (N + N), one rule
    applied at every cell of N and then the other at 0 gives back the
    state of 0, with G after C and with C after G."""
    cells = sorted({0} | {m + n for m in offsets for n in offsets})
    pos = {c: i for i, c in enumerate(cells)}
    for first, second in ((c_table, g_table), (g_table, c_table)):
        for window in product(range(q), repeat=len(cells)):
            idx = 0
            for n in offsets:
                idx = idx * q + first[pattern_index(offsets, q, window, pos, n)]
            if second[idx] != window[pos[0]]:
                return False
    return True


def step_ring(offsets, q, table, states, active):
    """One asynchronous step on a cyclic lattice."""
    n = len(states)
    out = list(states)
    for i in active:
        idx = 0
        for o in offsets:
            idx = idx * q + states[(i + o) % n]
        out[i] = table[idx]
    return tuple(out)


def ring_relation(offsets, table, n, scheme):
    """A binary rule's phase space on the ring of n cells, from the
    definition: a dense 2^n x 2^n bool matrix whose entry [x, y] says
    x -> y, where bit i of x is cell i's state.

    purely: x -> y when x xor y lies within the cells the rule changes in
    x.  fully: x -> y when they differ in one such cell, and x -> x when
    some cell keeps its state.
    """
    x = np.arange(1 << n)[:, None]
    cells = np.arange(n)
    index = sum(((x >> (cells + o) % n) & 1) << (len(offsets) - 1 - j) for j, o in enumerate(offsets))
    changed = np.asarray(table)[index] != ((x >> cells) & 1)
    mask = (changed << cells).sum(axis=1)[:, None]
    moved = x ^ x.T
    if scheme == "purely":
        return (moved & ~mask) == 0
    one_changed_cell = ((moved & (moved - 1)) == 0) & ((moved & mask) != 0)
    return one_changed_cell | np.diag(mask[:, 0] != (1 << n) - 1)


def ring_inverses(offsets, n, scheme):
    """Each binary table on ``offsets`` mapped to the list of tables G on
    them whose ring relation is its relation transposed: C is invertible
    on the ring of n cells when that list is not empty."""
    tables = list(all_tables(2, len(offsets)))
    relations = [ring_relation(offsets, table, n, scheme) for table in tables]
    by_relation = {}
    for table, relation in zip(tables, relations):
        by_relation.setdefault(relation.tobytes(), []).append(table)
    return {table: by_relation.get(relation.T.tobytes(), []) for table, relation in zip(tables, relations)}


# Bar states of the Nakamura construction are plain (curr, old, time)
# tuples, coded as curr * 3q + old * 3 + time.  ``center`` is the position
# of offset 0 in a local configuration.


class UndefinedView(Exception):
    """A base-rule view of a bar-state local configuration is undefined."""


def is_ahead(local, center):
    """Some neighbor's stamp is one tick behind the center's."""
    t0 = local[center][2]
    return any(t0 == (t + 1) % 3 for _, _, t in local)


def is_behind(local, center):
    """Some neighbor's stamp is one tick ahead of the center's."""
    t0 = local[center][2]
    return any(t == (t0 + 1) % 3 for _, _, t in local)


def curr_local(local, center):
    """The current base-rule view: neighbors that already advanced
    contribute their previous state."""
    t0 = local[center][2]
    out = []
    for curr, old, t in local:
        if t == t0:
            out.append(curr)
        elif t == (t0 + 1) % 3:
            out.append(old)
        else:
            raise UndefinedView("a neighbor lags the center")
    return tuple(out)


def old_local(local, center):
    """The previous base-rule view: neighbors still one tick back
    contribute their current state."""
    t0 = local[center][2]
    out = []
    for curr, old, t in local:
        if t == t0:
            out.append(old)
        elif t == (t0 - 1) % 3:
            out.append(curr)
        else:
            raise UndefinedView("a neighbor leads the center")
    return tuple(out)


def naive_bar_tables(q, c_offsets, c_table, g_offsets, g_table):
    """The forward and backward bar tables of a 1-D base pair, entry by entry.

    The shared offsets are those of both rules, their negations and 0,
    sorted.  Each base rule reads its own offsets out of a view over the
    shared offsets.  Forward advances the center (new curr from C, old
    from the center's curr, stamp + 1) when no neighbor lags and the
    center's old equals G on the current view; backward retreats it
    (curr from the center's old, old from G, stamp - 1) when no neighbor
    leads and the center's curr equals C on the previous view.  Returns
    ``(offsets, forward, backward)``.
    """
    offsets = sorted({0} | set(c_offsets) | set(g_offsets) | {-o for o in (*c_offsets, *g_offsets)})
    center = offsets.index(0)
    size = 3 * q * q

    def base(rule_offsets, table, view):
        idx = 0
        for o in rule_offsets:
            idx = idx * q + view[offsets.index(o)]
        return table[idx]

    def code(curr, old, t):
        return curr * 3 * q + old * 3 + t

    forward, backward = [], []
    for codes in product(range(size), repeat=len(offsets)):
        local = [(c // (3 * q), c // 3 % q, c % 3) for c in codes]
        curr, old, t0 = local[center]
        out = codes[center]
        if not is_ahead(local, center):
            view = curr_local(local, center)
            if old == base(g_offsets, g_table, view):
                out = code(base(c_offsets, c_table, view), curr, (t0 + 1) % 3)
        forward.append(out)
        out = codes[center]
        if not is_behind(local, center):
            view = old_local(local, center)
            if curr == base(c_offsets, c_table, view):
                out = code(old, base(g_offsets, g_table, view), (t0 - 1) % 3)
        backward.append(out)
    return tuple(offsets), tuple(forward), tuple(backward)
