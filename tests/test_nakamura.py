"""Bar-state construction: encoding, movability predicates, and lockstep."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from acainvert import (
    Alphabet,
    LocalRule,
    Neighborhood,
    derive_candidate_inverse,
    eca_from_wolfram,
    minimize_neighborhood,
    with_neighborhood,
)
from acainvert.errors import AlphabetMismatchError, NeighborhoodMismatchError, ResourceCapExceededError
from acainvert.invertibility import Verdict, check_inverse_purely
from acainvert.rulefmt import dump_rule
from acainvert.simulate import simulate
from acainvert.nakamura import (
    BarState,
    bar_alphabet,
    build_bar_pair,
    decode_bar_state,
    embed_ring,
    encode_bar_state,
    verify_theorem1,
)

from conftest import sha256_of
from naive_oracles import (
    UndefinedView,
    curr_local,
    is_ahead,
    is_behind,
    naive_bar_tables,
    naive_purely_certificate,
    old_local,
    step_ring,
)

ECA = eca_from_wolfram(110).neighborhood

INVERSE_PAIRS = [(51, 51), (204, 204), (170, 240)]


def bar_pair_inputs():
    """The synchronous inverse pairs that perfbench's bar-pairs workload
    verifies: six ECA pairs and the 3-state shift pair C(x) = x_{-1} + 1,
    G(x) = x_{+1} - 1 (mod 3)."""
    ecas = ((51, 51), (204, 204), (170, 240), (240, 170), (15, 85), (85, 15))
    pairs = [(eca_from_wolfram(a), eca_from_wolfram(b)) for a, b in ecas]
    return pairs + [shift_pair(3)]


def ring_sync_step(rule, states):
    n = len(states)
    return tuple(
        rule.apply_local(tuple(states[(i + off[0]) % n] for off in rule.neighborhood.offsets))
        for i in range(n)
    )


def bar_ring_step(bar_rule, q, bar_states):
    n = len(bar_states)
    codes = [encode_bar_state(q, s) for s in bar_states]
    return tuple(
        decode_bar_state(
            q,
            bar_rule.apply_local(
                tuple(codes[(i + off[0]) % n] for off in bar_rule.neighborhood.offsets)
            ),
        )
        for i in range(n)
    )


class TestEncoding:
    @pytest.mark.parametrize("q", [2, 3])
    def test_round_trip(self, q):
        for code in range(bar_alphabet(q).size):
            state = decode_bar_state(q, code)
            assert encode_bar_state(q, state) == code

    def test_alphabet_size(self):
        assert bar_alphabet(2).size == 12
        assert bar_alphabet(3).size == 27

    def test_rejects_bad_time_stamp(self):
        with pytest.raises(ValueError):
            BarState(0, 0, 3)

    def test_rejects_out_of_alphabet_state(self):
        with pytest.raises(ValueError):
            encode_bar_state(2, BarState(2, 0, 0))

    def test_rejects_out_of_range_code(self):
        with pytest.raises(ValueError):
            decode_bar_state(2, 12)


class TestMovabilityPredicates:
    """The naive oracle's bar predicates, on (curr, old, time) tuples read
    at offsets (-1, 0, 1)."""

    def test_uniform_stamps_neither_ahead_nor_behind(self):
        local = [(0, 0, 1)] * 3
        assert not is_ahead(local, 1)
        assert not is_behind(local, 1)

    def test_lagging_neighbor_makes_center_ahead(self):
        local = [(0, 0, 0), (0, 0, 1), (0, 0, 1)]
        assert is_ahead(local, 1)
        assert not is_behind(local, 1)

    def test_leading_neighbor_makes_center_behind(self):
        local = [(0, 0, 2), (0, 0, 1), (0, 0, 1)]
        assert is_behind(local, 1)
        assert not is_ahead(local, 1)

    def test_wraparound_of_stamps(self):
        # stamp 0 is one tick ahead of stamp 2
        local = [(0, 0, 0), (0, 0, 2), (0, 0, 2)]
        assert is_behind(local, 1)

    def test_curr_local_uses_old_of_advanced_neighbors(self):
        local = [(1, 0, 2), (0, 1, 1), (1, 1, 1)]
        assert curr_local(local, 1) == (0, 0, 1)

    def test_curr_local_undefined_when_neighbor_lags(self):
        local = [(0, 0, 0), (0, 0, 1), (0, 0, 1)]
        with pytest.raises(UndefinedView):
            curr_local(local, 1)

    def test_old_local_uses_curr_of_lagging_neighbors(self):
        local = [(1, 0, 0), (0, 1, 1), (1, 0, 1)]
        assert old_local(local, 1) == (1, 1, 0)

    def test_old_local_undefined_when_neighbor_leads(self):
        local = [(0, 0, 2), (0, 0, 1), (0, 0, 1)]
        with pytest.raises(UndefinedView):
            old_local(local, 1)


class TestBuildBarPair:
    def test_shapes(self):
        pair = build_bar_pair(eca_from_wolfram(204), eca_from_wolfram(204))
        assert pair.forward.alphabet.size == 12
        assert pair.backward.alphabet.size == 12
        assert pair.forward.neighborhood == pair.backward.neighborhood == ECA
        assert pair.base_alphabet == Alphabet(2)
        assert len(pair.forward.table) == 12 ** 3

    def test_encoding_doc(self):
        pair = build_bar_pair(eca_from_wolfram(51), eca_from_wolfram(51))
        doc = pair.encoding_doc()
        assert doc["base_alphabet"] == 2
        assert "curr" in doc["fields"]

    def test_neighborhood_is_symmetrized_union(self):
        """N′ holds both rules' offsets, their negations and 0; a rule
        paired with itself gives its own N closed under negation, with 0."""
        cases = [((-1,), (2,), (-2, -1, 0, 1, 2)), ((1,), (1,), (-1, 0, 1)), ((-2, 1), (-2, 1), (-2, -1, 0, 1, 2))]
        for left, right, shared in cases:
            C, G = (LocalRule(Alphabet(2), Neighborhood.line(*n), [0] * 2 ** len(n)) for n in (left, right))
            pair = build_bar_pair(C, G)
            assert pair.forward.neighborhood == pair.backward.neighborhood == Neighborhood.line(*shared)

    @pytest.mark.parametrize("q", [math.isqrt((1 << 63) // 3) + 1, 1 << 32])
    def test_bar_alphabet_past_2_63_states_is_a_cap_error(self, q):
        """From the least q with 3q^2 > 2^63, the bar alphabet is larger
        than an alphabet may be; the table size is checked first, so the
        build refuses with a cap error, not a ValueError."""
        rule = LocalRule(Alphabet(q), Neighborhood(1, ()), (0,))
        with pytest.raises(ResourceCapExceededError, match=rf"bar tables need {3 * q * q}\^1 entries"):
            build_bar_pair(rule, rule)

    def test_alphabet_mismatch(self):
        q3 = LocalRule(Alphabet(3), Neighborhood.line(0), (0, 1, 2))
        with pytest.raises(AlphabetMismatchError):
            build_bar_pair(eca_from_wolfram(51), q3)

    def test_dimension_mismatch(self):
        square = LocalRule(Alphabet(2), Neighborhood(2, ((0, 0),)), (0, 1))
        with pytest.raises(NeighborhoodMismatchError):
            build_bar_pair(eca_from_wolfram(51), square)

    @pytest.mark.parametrize("n,g", INVERSE_PAIRS + [(110, 110)])
    def test_every_entry_holds_or_steps_once(self, n, g):
        # Forward either keeps the cell or advances the stamp by one while
        # shifting curr into old; backward mirrors this.  No third behavior.
        pair = build_bar_pair(eca_from_wolfram(n), eca_from_wolfram(g))
        center = pair.forward.neighborhood.offsets.index(pair.forward.neighborhood.origin)
        for idx, out_code in enumerate(pair.forward.table):
            me = decode_bar_state(2, pair.forward.decode_index(idx)[center])
            out = decode_bar_state(2, out_code)
            if out != me:
                assert out.time == (me.time + 1) % 3
                assert out.old == me.curr
        for idx, out_code in enumerate(pair.backward.table):
            me = decode_bar_state(2, pair.backward.decode_index(idx)[center])
            out = decode_bar_state(2, out_code)
            if out != me:
                assert out.time == (me.time - 1) % 3
                assert out.curr == me.old


def bar_table_inputs():
    """The bar-pairs inputs plus one pair whose symmetrized union
    (-2, -1, 0, 1, 2) adds dummy offsets to both rules; its 12^5-entry
    tables span several of build_bar_pair's blocks."""
    padded = (
        LocalRule(Alphabet(2), Neighborhood.line(0, 2), (0, 1, 1, 0)),
        LocalRule(Alphabet(2), Neighborhood.line(-1), (1, 0)),
    )
    return bar_pair_inputs() + [padded]


BAR_TABLE_DIGESTS = [
    "66ab76783a96a87b8494443a451d4a57e621e3fccf1d2187ec2e078451a7c1ee",
    "c971af337ba227f1e87da43db8fd9fa8185ad161f9756e827214c130da4b9838",
    "02caf4a5af14e8d77f1e6d1157f6fdb0fcb161da4a12b889e9c803df59ecae84",
    "8efe8a4a5db077dc6907b69666316f72d066f0a2099d9e4ba5dfe2f1011c2b57",
    "6ae3a0c27772ee1162d0a5bf9c344aa8a534faf51aa39c8dc27e0d29ba37d2ac",
    "5e9744a620ff07b29582b56c6e429a431f1c92fe8c3e3e0dfa12b194b2031f2a",
    "0d1f0546d9ce728ff8b5feef86d6a8451417f7d10779b80ae13a2e18fe58766e",
    "a56c87d1f94a367dd028b46815eb12b215849dc0a74792222514fb55c1c6bbe6",
]


class TestBarTableGoldenDigests:
    """Digests of both bar tables, recorded with the per-entry loop over
    the predicates that preceded the array build."""

    @pytest.mark.parametrize("index", range(len(BAR_TABLE_DIGESTS)))
    def test_tables(self, index):
        C, G = bar_table_inputs()[index]
        pair = build_bar_pair(C, G)
        assert sha256_of([pair.forward.table, pair.backward.table]) == BAR_TABLE_DIGESTS[index]


BAR_FILE_DIGESTS = [
    ("5dd15fa70a93a64dba293267d4d748c2349363e334361147f98c061ea6256a9e",
     "1405e0b9813c4f6ecd0f3857055b84749756ff9eded81ea374d7280c682c72aa"),
    ("0190002dc869b8a72e0bacbcff93ee7a3b28e854dcb866e28f8aa6b4e7862cc4",
     "b5ae4750d81885754a4b6230b02ba3926711c2f5703c94904d1d14640ba0f6bf"),
    ("ecf5fac74e4fd0ed899bcecbbc43d94750222db05d1a00a434f03fe5b4d148a7",
     "b66a44fd6391cae6c35c176e81785a200ad96c54549c6ce5edea2e34623bc144"),
    ("3290516ed992dce1c66f42e74cac76baf1a2486871171947bd932a8af53fe92b",
     "dc204d771b321ad1df76791eb1e57f7f37893052ba4b211d01fc6c18919b4882"),
    ("311094e99d06df5ef773be0cdc54898a6db2f82f3be98cd20ef09b488110ca25",
     "e4b5abd4b552493149e88e935234d4e2cb709450f04da9709e80abf3a97f3a70"),
    ("5573a910c2ea058d3d680cec384367b4f011c8c604690eebc1c0da4a5c449fa4",
     "9b8ee2454b2d01243822c3cd243caaf61b2e2d29443fb4299d34e925420afc4f"),
    ("d65f0c1f4ebfafc3368db20340c2015383da6ab91884f6cd0fdec26f9ea76a50",
     "97aea73c179ecc95b2fe15708b2ffd34ce3b70775e8393670c4191ed59e98362"),
    ("6c128f414cb925222e09488919d71d9809191e805521eed50409ab46429fa223",
     "e47de6e5fe83a70fc19a7cb65d4901c26660f92ea0e100fc984b222c4705a8a3"),
]


def shift_pair(q):
    """C(x) = x_{-1} + 1, G(x) = x_{+1} - 1 (mod q): a synchronous inverse pair."""
    shift = LocalRule(Alphabet(q), Neighborhood.line(-1), [(x + 1) % q for x in range(q)])
    unshift = LocalRule(Alphabet(q), Neighborhood.line(1), [(x - 1) % q for x in range(q)])
    return shift, unshift


def planar_inputs():
    """Two 2-D pairs, C(x) = x_(0,-1) and G(x) = x_(0,1) at q = 2: as
    given, and with C padded by a dummy offset (-1, 0), so the symmetrized
    union is the von Neumann neighborhood and the 12^5-entry tables carry
    dummy axes on both sides of the center."""
    up = LocalRule(Alphabet(2), Neighborhood(2, ((0, -1),)), (0, 1))
    down = LocalRule(Alphabet(2), Neighborhood(2, ((0, 1),)), (0, 1))
    padded = LocalRule(Alphabet(2), Neighborhood(2, ((-1, 0), (0, -1))), (0, 1, 0, 1))
    return [(up, down), (padded, down)]


# recorded with the per-configuration build that unravelled every table index
MORE_BAR_TABLE_DIGESTS = {
    "shift-q4": "55d566f157d2c6d425d21ab57118d6ae462edd39a0181271c645712b9855ff8a",
    # on its three offsets, the 2-D shift pair has the tables of the ECA pair (15, 85)
    "planar": BAR_TABLE_DIGESTS[4],
    "planar-padded": "ebdf68e8f6ed9a7da76544cbfb7e768ac68b4f7464c4f3d8c0f8735264e4e86d",
}


@pytest.mark.parametrize("name", MORE_BAR_TABLE_DIGESTS)
def test_more_bar_table_digests(name):
    inputs = {"shift-q4": shift_pair(4), "planar": planar_inputs()[0], "planar-padded": planar_inputs()[1]}
    pair = build_bar_pair(*inputs[name])
    assert sha256_of([pair.forward.table, pair.backward.table]) == MORE_BAR_TABLE_DIGESTS[name]


@pytest.mark.parametrize("index", [0, 1])
def test_planar_tables_are_derived_inverses_of_each_other(index):
    """The 1-D naive oracle cannot read 2-D pairs; the derived inverse
    cross-checks both, and the purely check the unpadded one (12^5
    logical windows; the padded pair's von Neumann window has 12^13)."""
    C, G = planar_inputs()[index]
    pair = build_bar_pair(C, G)
    # N′: the offsets (0, ±1) and the origin, and for the padded pair (±1, 0) too
    shared = [((0, -1), (0, 0), (0, 1)), ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))][index]
    assert pair.forward.neighborhood == pair.backward.neighborhood == Neighborhood(2, shared)
    for one, other in ((pair.forward, pair.backward), (pair.backward, pair.forward)):
        candidate = derive_candidate_inverse(minimize_neighborhood(one))
        assert isinstance(candidate, LocalRule)
        assert with_neighborhood(candidate, one.neighborhood) == other
        if index == 0:
            assert check_inverse_purely(one, other).verdict is Verdict.INVERTIBLE


def _plain(rule):
    """A 1-D rule as the naive oracles take it: (offsets, table)."""
    return tuple(o[0] for o in rule.neighborhood.offsets), rule.table


@pytest.mark.parametrize("index", range(len(BAR_TABLE_DIGESTS)))
def test_tables_match_naive_oracle(index):
    C, G = bar_table_inputs()[index]
    pair = build_bar_pair(C, G)
    offsets, forward, backward = naive_bar_tables(C.q, *_plain(C), *_plain(G))
    assert offsets == tuple(o[0] for o in pair.forward.neighborhood.offsets)
    assert pair.forward.table == forward
    assert pair.backward.table == backward


@pytest.mark.parametrize("q", [10, 16])
def test_bar_pairs_wider_than_uint8(q):
    """The shift pair x + 1, x - 1 (mod q) on N = (0,): its bar alphabets
    have 300 and 768 states, so bar codes computed from base table entries
    overflow the base tables' uint8 dtype unless widened first, and the bar
    tables are stored in 2-byte entries."""
    shift = LocalRule(Alphabet(q), Neighborhood.line(0), [(x + 1) % q for x in range(q)])
    unshift = LocalRule(Alphabet(q), Neighborhood.line(0), [(x - 1) % q for x in range(q)])
    pair = build_bar_pair(shift, unshift)
    assert pair.forward.q == 3 * q * q
    offsets, forward, backward = naive_bar_tables(q, *_plain(shift), *_plain(unshift))
    assert offsets == (0,)
    assert pair.forward.table == forward
    assert pair.backward.table == backward
    # the tables stored as built are the bytes LocalRule checks and stores, at 2-byte entries
    for rule, table in ((pair.forward, forward), (pair.backward, backward)):
        checked = LocalRule(rule.alphabet, rule.neighborhood, table)
        assert rule == checked and rule._bytes == checked._bytes and len(rule._bytes) == 2 * len(table)
    assert check_inverse_purely(pair.forward, pair.backward).verdict is Verdict.INVERTIBLE
    assert check_inverse_purely(pair.backward, pair.forward).verdict is Verdict.INVERTIBLE


@pytest.mark.parametrize("index", range(len(BAR_TABLE_DIGESTS) + 1))
def test_tables_are_derived_inverses_of_each_other(index):
    """Each bar table is the candidate inverse that derive_candidate_inverse
    gives for its partner, minimized and widened back: a cross-check
    through code that build_bar_pair does not share.  The last pair is the
    q = 4 shift pair, whose 48 bar states are the widest alphabet here."""
    pair = build_bar_pair(*(bar_table_inputs() + [shift_pair(4)])[index])
    for one, other in ((pair.forward, pair.backward), (pair.backward, pair.forward)):
        candidate = derive_candidate_inverse(minimize_neighborhood(one))
        assert isinstance(candidate, LocalRule)
        assert with_neighborhood(candidate, one.neighborhood) == other


def reversed_time(q, code):
    """sigma on one bar code: curr and old swapped, the stamp negated."""
    return code // 3 % q * 3 * q + code // (3 * q) * 3 + -code % 3


@pytest.mark.parametrize("index", range(len(bar_pair_inputs()) + 1))
def test_backward_table_is_the_swapped_forward_table_in_reversed_time(index):
    """On the naive oracle's tables, entry by entry: the backward table of
    (C, G) at x is sigma of the forward table of (G, C) at sigma x, sigma
    applied to every code.  The last pair is the q = 2 shift pair."""
    C, G = (bar_pair_inputs() + [shift_pair(2)])[index]
    q, size = C.q, 3 * C.q * C.q
    offsets, _, backward = naive_bar_tables(q, *_plain(C), *_plain(G))
    _, swapped, _ = naive_bar_tables(q, *_plain(G), *_plain(C))
    sigma = [reversed_time(q, code) for code in range(size)]
    for idx, codes in enumerate(itertools.product(range(size), repeat=len(offsets))):
        mirrored = 0
        for code in codes:
            mirrored = mirrored * size + sigma[code]
        assert backward[idx] == sigma[swapped[mirrored]], (idx, codes)


def ring_advances(C, G, seed, scheme, steps):
    """Run the forward bar rule of (C, G) for ``steps`` asynchronous steps
    of ``scheme`` (purely at p = 1/2) on a 9-cell ring, from ``embed_ring``
    at stamp 0 of seeded base states.  Returns the base states, the curr
    each cell writes at each of its advances, in order, the bar pair and
    the last bar codes."""
    q = C.q
    pair = build_bar_pair(C, G)
    rng = random.Random(seed)
    states = tuple(rng.randrange(q) for _ in range(9))
    codes = tuple(encode_bar_state(q, s) for s in embed_ring(states, G, 0))
    written = [[] for _ in codes]
    for step in simulate(pair.forward, codes, scheme, steps, seed, p=0.5).steps:
        for cell, (was, now) in enumerate(zip(codes, step.states)):
            # the forward rule changes a code only by advancing it
            if was != now:
                written[cell].append(decode_bar_state(q, now).curr)
        codes = step.states
    return states, written, pair, codes


def assert_follows_the_synchronous_orbit(C, states, written, least):
    """Every cell advanced at least ``least`` times, and its t-th advance
    wrote the cell's state at step t of C's synchronous orbit."""
    offsets, table = _plain(C)
    orbit = [states]
    while len(orbit) <= max(map(len, written)):
        orbit.append(step_ring(offsets, C.q, table, orbit[-1], range(len(states))))
    for cell, currs in enumerate(written):
        assert len(currs) >= least
        assert currs == [row[cell] for row in orbit[1 : len(currs) + 1]]


def assert_frozen(pair, written, last):
    """No cell advanced more than three times, and the last codes are a
    fixed point of the forward bar rule."""
    assert max(map(len, written)) <= 3
    offsets, table = _plain(pair.forward)
    assert step_ring(offsets, pair.forward.q, table, last, range(len(last))) == last


def false_pair(name):
    """The padded pair of ``bar_table_inputs()``, or the self-pair of an
    ECA named by its number: pairs that are not synchronous inverses."""
    return bar_table_inputs()[-1] if name == "padded" else (eca_from_wolfram(int(name)),) * 2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("index", range(len(bar_pair_inputs())))
def test_bar_ring_of_an_inverse_pair_follows_the_synchronous_orbit(index, seed):
    """For a synchronous inverse pair, the t-th advance of each cell
    writes the cell's state at step t of C's synchronous orbit, and every
    cell keeps advancing: at least 100 times in 400 steps."""
    C, G = bar_pair_inputs()[index]
    states, written, _, _ = ring_advances(C, G, seed, "purely", 400)
    assert_follows_the_synchronous_orbit(C, states, written, 100)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("index", range(len(bar_pair_inputs())))
def test_fully_bar_ring_of_an_inverse_pair_follows_the_synchronous_orbit(index, seed):
    """The same under the fully scheme, one cell at a time: in 3,600 steps
    every cell advances at least 150 times (172-194 on these seeds)."""
    C, G = bar_pair_inputs()[index]
    states, written, _, _ = ring_advances(C, G, seed, "fully", 3600)
    assert_follows_the_synchronous_orbit(C, states, written, 150)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", ["padded", "110"])
def test_bar_ring_of_a_false_pair_freezes(name, seed):
    """For pairs that are not synchronous inverses, the padded pair of
    ``bar_table_inputs()`` and (110, 110), the ring stops: no cell advances
    more than three times, and the last codes are a fixed point of the
    forward bar rule.  Over seeds 0-299, (110, 110) reads three advances
    at 12 seeds (seed 8 among them) and two or fewer at the rest; the padded
    pair never more than two."""
    _, written, pair, last = ring_advances(*false_pair(name), seed, "purely", 400)
    assert_frozen(pair, written, last)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["padded", "110", "30"])
def test_fully_bar_ring_of_a_false_pair_freezes(name, seed):
    """The same under the fully scheme, in 3,600 steps.  Over seeds 0-9 the
    most advances of a cell are 3 for (110, 110), 4 for (30, 30) (at seed
    8) and 2 for the padded pair, and every run freezes."""
    _, written, pair, last = ring_advances(*false_pair(name), seed, "fully", 3600)
    assert_frozen(pair, written, last)


@pytest.mark.parametrize("name", ["shift-q2", "110", "30"])
def test_two_cell_certificate_holds_on_bar_pairs(name):
    """The naive two-cell certificate passes on the bar pairs of the q = 2
    shift pair and of two pairs that are not synchronous inverses: data
    for the conjecture that every bar pair is purely invertible."""
    C, G = shift_pair(2) if name == "shift-q2" else (eca_from_wolfram(int(name)),) * 2
    bar = build_bar_pair(C, G)
    offsets, forward = _plain(bar.forward)
    assert naive_purely_certificate(offsets, bar.forward.q, forward, bar.backward.table)


class TestBarFileGoldenDigests:
    """Digests of the files ``nakamura --out-dir`` writes, recorded while
    the rule writer still encoded the whole indented document with
    ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize("index", range(len(BAR_FILE_DIGESTS)))
    def test_files(self, run_cli, tmp_path, index):
        C, G = bar_table_inputs()[index]
        dump_rule(C, tmp_path / "rule.json")
        dump_rule(G, tmp_path / "inverse.json")
        out_dir = tmp_path / "bar"
        result = run_cli("nakamura", "--rule", str(tmp_path / "rule.json"),
                         "--inverse", str(tmp_path / "inverse.json"), "--out-dir", str(out_dir))
        assert result.exit_code == 0
        digests = tuple(
            hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("bar-forward.json", "bar-backward.json")
        )
        assert digests == BAR_FILE_DIGESTS[index]


class TestEmbed:
    def test_toggler_pair_stores_flipped_old_state(self):
        lifted = embed_ring((0, 1), eca_from_wolfram(204), 2)
        assert lifted == (BarState(0, 1, 2), BarState(1, 0, 2))

    def test_time_stamp_reduced_mod_3(self):
        lifted = embed_ring((0,), eca_from_wolfram(51), 7)
        assert lifted[0].time == 1

    def test_ring_embedding_needs_one_dimension(self):
        square = LocalRule(Alphabet(2), Neighborhood(2, ((0, 0),)), (0, 1))
        with pytest.raises(NeighborhoodMismatchError):
            embed_ring((0, 1), square, 0)


class TestLockstep:
    """On a ring, a synchronous sweep of the forward bar rule tracks the
    synchronous base dynamics, and the backward sweep undoes it."""

    @pytest.mark.parametrize("n,g", INVERSE_PAIRS)
    def test_forward_and_backward_sweeps(self, n, g):
        C, G = eca_from_wolfram(n), eca_from_wolfram(g)
        pair = build_bar_pair(C, G)
        for size in (3, 4, 5):
            for states in itertools.product(range(2), repeat=size):
                nxt = ring_sync_step(C, states)
                for t in (0, 1, 2):
                    here = embed_ring(states, G, t)
                    there = embed_ring(nxt, G, t + 1)
                    assert bar_ring_step(pair.forward, 2, here) == there
                    assert bar_ring_step(pair.backward, 2, there) == here


class TestVerifyTheorem1:
    def test_toggler_pair(self):
        report = verify_theorem1(eca_from_wolfram(204), eca_from_wolfram(204))
        assert report.verdict is Verdict.INVERTIBLE
        assert report.stats.windows == 12 ** 5
