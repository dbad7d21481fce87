"""JSON rule and window documents."""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acainvert import Alphabet, LocalRule, Neighborhood, WindowConfig, eca_from_wolfram
from acainvert import rulefmt
from acainvert.errors import RuleFormatError
from acainvert.nakamura import build_bar_pair
from acainvert.rulefmt import (
    dump_rule,
    load_rule,
    rule_from_dict,
    rule_to_dict,
    window_to_dict,
    write_json,
)

from test_nakamura import bar_table_inputs


def test_rule_dict_shape():
    doc = rule_to_dict(eca_from_wolfram(110))
    assert doc == {
        "dimension": 1,
        "alphabet": 2,
        "neighborhood": [[-1], [0], [1]],
        "table": [0, 1, 1, 0, 1, 1, 1, 0],
    }


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 255))
def test_rule_dict_round_trip(n):
    rule = eca_from_wolfram(n)
    assert rule_from_dict(rule_to_dict(rule)) == rule


@st.composite
def small_rules(draw):
    q = draw(st.integers(1, 4))
    offsets = draw(st.lists(st.integers(-2, 2), unique=True, max_size=3))
    table = draw(st.lists(st.integers(0, q - 1), min_size=q ** len(offsets), max_size=q ** len(offsets)))
    return LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)


@settings(max_examples=100, deadline=None)
@given(rule=small_rules())
def test_drawn_rule_dict_round_trip(rule):
    doc = rule_to_dict(rule)
    assert rule_from_dict(json.loads(json.dumps(doc))) == rule
    assert doc["table"] == list(rule.array.tolist())


def test_wolfram_shorthand():
    assert rule_from_dict({"wolfram": 110}) == eca_from_wolfram(110)


def test_integer_offsets_accepted():
    doc = {"dimension": 1, "alphabet": 2, "neighborhood": [0], "table": [0, 1]}
    rule = rule_from_dict(doc)
    assert rule.neighborhood.offsets == ((0,),)


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"wolfram": "110"},
        {"dimension": 1, "alphabet": 2, "table": [0, 1]},
        {"dimension": 1, "alphabet": 2, "neighborhood": [[0]], "table": [0, 1, 2]},
        {"dimension": 1, "alphabet": 2, "neighborhood": [[0], [0]], "table": [0, 1]},
        # bool, float and str are not integers here, even where int() would take them
        pytest.param({"wolfram": True}, id="bool-wolfram"),
        pytest.param(
            {"dimension": 1, "alphabet": 2.7, "neighborhood": [0], "table": [0, 1]},
            id="float-alphabet",
        ),
        pytest.param(
            {"dimension": 1, "alphabet": 2, "neighborhood": [0], "table": "10"}, id="str-table"
        ),
        pytest.param(
            {"dimension": 1, "alphabet": 2, "neighborhood": [0], "table": [True, False]},
            id="bool-table-entries",
        ),
        pytest.param(
            {"dimension": 1, "alphabet": 2, "neighborhood": [0.5], "table": [0, 1]},
            id="float-offset",
        ),
        pytest.param(
            {"dimension": "1", "alphabet": 2, "neighborhood": [0], "table": [0, 1]},
            id="str-dimension",
        ),
        pytest.param(
            {"dimension": 1, "alphabet": 2, "neighborhood": [[False]], "table": [0, 1]},
            id="bool-coordinate",
        ),
        pytest.param(
            {"dimension": 1, "alphabet": 2, "neighborhood": "[[0]]", "table": [0, 1]},
            id="str-neighborhood",
        ),
    ],
)
def test_malformed_rules_rejected(doc):
    with pytest.raises(RuleFormatError):
        rule_from_dict(doc)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"wolfram": 300}, "Wolfram number 300 outside 0..255"),
        ({"wolfram": 3.0}, "Wolfram number 3.0 is not an integer"),
        ({"alphabet": 2.0}, "alphabet size 2.0 is not an integer"),
        ({"neighborhood": [[0, "1"]]}, "offset coordinate '1' is not an integer"),
        ({"table": [[0, 1]]}, r"table value \[0, 1\] is not an integer"),
        ({"table": [0, True]}, "table value True is not an integer"),
        ({"table": [[0, 1], [1]]}, r"table value \[0, 1\] is not an integer"),
    ],
)
def test_values_are_checked_by_core_and_refused_as_format_errors(fields, message):
    """A rule document's numbers are checked where the rule is built; each
    bad value, a range error included, is a RuleFormatError naming it."""
    doc = {"dimension": 1, "alphabet": 2, "neighborhood": [0], "table": [0, 1], **fields}
    with pytest.raises(RuleFormatError, match=f"^{message}$"):
        rule_from_dict(doc)


def test_dimension_above_the_bound_is_refused():
    """A rule document may have up to 2^20 dimensions: the origin alone is
    a tuple of that many ints, so 10^9 would need gigabytes."""
    doc = {"dimension": 1 << 20, "alphabet": 2, "neighborhood": [], "table": [1]}
    assert rule_from_dict(doc).neighborhood.dimension == 1 << 20
    with pytest.raises(RuleFormatError, match="dimension 1048577 is above 1048576"):
        rule_from_dict({**doc, "dimension": (1 << 20) + 1})


# values whose indented text spans several lines at depth 2
_NESTED = [{"a": [1, [2, 3]], "b": {}}, [], [[]], "s", None, {"c": {"d": [4]}}]


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("sizes", [(), (1,), (3,), (1, 1, 1), (2, 1, 3)], ids=str)
def test_write_json_is_json_dumps(position, sizes):
    """``write_json`` writes the bytes of ``json.dumps(doc, indent=2)`` and
    a newline, with the key anywhere among keys holding nested dicts and
    lists, and the list's items split into any blocks (none, one, or
    blocks of one item)."""
    before = {"first": {}, "middle": {"n": 1, "nested": {"x": [1, 2]}}, "last": {"n": 1}}[position]
    after = {"first": {"more": [[1, {"y": []}]], "z": {"w": [0]}}, "middle": {"tail": [{"k": "v"}]},
             "last": {}}[position]
    items = [_NESTED[i % len(_NESTED)] if i % 2 else i for i in range(sum(sizes))]
    rendered = [json.dumps(item, indent=2).replace("\n", "\n    ") for item in items]
    starts = list(itertools.accumulate(sizes, initial=0))
    blocks = [",\n    ".join(rendered[a:b]) for a, b in zip(starts, starts[1:])]
    chunks = []
    write_json({**before, "list": [], **after}, "list", iter(blocks), chunks.append)
    assert "".join(chunks) == json.dumps({**before, "list": items, **after}, indent=2) + "\n"


def test_file_round_trip(tmp_path):
    rule = eca_from_wolfram(33)
    path = tmp_path / "rule.json"
    dump_rule(rule, path, extra={"note": "kept"})
    assert load_rule(path) == rule
    doc = json.loads(path.read_text())
    assert doc["note"] == "kept"


def _random_extra(rng: random.Random) -> dict:
    """Extra fields like the bar pair's encoding document: strings,
    numbers, lists and a nested object."""
    q = rng.randint(1, 9)
    return {
        "encoding": {
            "base_alphabet": q,
            "bar_state": "code = curr * 3q + old * 3 + time",
            "fields": {"curr": f"0..{q - 1}", "old": f"0..{q - 1}", "time": "0..2"},
        },
        "note": rng.choice(["", "kept", "ünïcode", 'quote " and \\ backslash']),
        "sizes": [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))],
        "ratio": rng.choice([0.5, 1e-7, None, True]),
    }


def test_dump_rule_writes_indented_json_bytes(tmp_path, monkeypatch):
    """The file is exactly ``json.dumps(doc, indent=2)`` and a newline:
    q from 1 to 4 (q = 1 and the empty neighborhood give one-entry
    tables), 0 to 3 offsets, a 2-D neighborhood, with and without extra
    fields; wide alphabets, whose entries are uint8 (q = 256), uint16
    (q = 300), uint32 (q = 2^16 + 1) and uint64 (a one-entry table at
    q = 2^40), which a string table sized by q could not hold; one table
    longer than a write block, and all of them again in blocks of 5."""
    rng = random.Random(20261018)
    neighborhoods = [Neighborhood.line(*sorted(rng.sample(range(-3, 4), n))) for n in (0, 1, 2, 3)]
    neighborhoods.append(Neighborhood(2, ((0, 0), (0, 1), (1, 0))))
    rules = []
    for q in (1, 2, 3, 4):
        for neighborhood in neighborhoods:
            table = tuple(rng.randrange(q) for _ in range(q ** len(neighborhood)))
            rules.append(LocalRule(Alphabet(q), neighborhood, table))
    for q, offsets in ((256, (0,)), (300, (0,)), (256, (-1, 1)), ((1 << 16) + 1, (0,)), (1 << 40, ())):
        neighborhood = Neighborhood.line(*offsets)
        table = [rng.randrange(q) for _ in range(q ** len(neighborhood))]
        if q > 1 << 16:
            # the largest states render through the per-entry path
            table[-1] = q - 1
        rules.append(LocalRule(Alphabet(q), neighborhood, table))
    assert [rule.array.dtype for rule in rules[-5:]] == [np.uint8, np.uint16, np.uint8, np.uint32, np.uint64]
    # 3^11 entries span several blocks of the default size
    rules.append(LocalRule(Alphabet(3), Neighborhood.line(*range(11)), np.arange(3**11) * 7 % 3))
    assert len(rules[-1].array) > rulefmt._WRITE_BLOCK
    # a fresh file per dump: rewriting one file pays a disk flush on each
    # truncation (ext4's auto_da_alloc), about 0.1 s a dump
    paths = (tmp_path / f"rule-{i}.json" for i in itertools.count())
    for block in (rulefmt._WRITE_BLOCK, 5):
        monkeypatch.setattr(rulefmt, "_WRITE_BLOCK", block)
        for rule in rules:
            for extra in (None, {}, _random_extra(rng)):
                path = next(paths)
                dump_rule(rule, path, extra=extra)
                doc = rule_to_dict(rule)
                doc.update(extra or {})
                assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode(), (rule.q, extra)


def test_dump_rule_memory_stays_below_the_text_it_writes(tmp_path):
    """Writing the padded bar pair's 12^5-entry forward table allocates
    less, at its peak, than the text of the table alone."""
    pair = build_bar_pair(*bar_table_inputs()[-1])
    path = tmp_path / "rule.json"
    tracemalloc.start()
    try:
        dump_rule(pair.forward, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the table's items and their separators
    table = sum(len(str(v)) for v in pair.forward.table) + (12**5 - 1) * len(",\n    ")
    assert peak < table


def test_dump_rule_refuses_extra_that_replaces_a_rule_field(tmp_path):
    with pytest.raises(ValueError):
        dump_rule(eca_from_wolfram(110), tmp_path / "rule.json", extra={"table": [0]})


def test_dump_rule_leaves_no_tuple_copy_of_the_table(tmp_path):
    # the int tuple behind ``rule.table`` is cached on first read; writing
    # a large bar table must not pin a second copy of it on the rule
    rule = LocalRule(Alphabet(3), Neighborhood.line(-1, 0, 1), np.arange(27) % 3)
    dump_rule(rule, tmp_path / "rule.json")
    assert "table" not in vars(rule)
    assert load_rule(tmp_path / "rule.json") == rule


def test_load_wolfram_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"wolfram": 204}))
    assert load_rule(path) == eca_from_wolfram(204)


def test_window_round_trip():
    w = WindowConfig.line((0, 1, 0, 1), start=-2)
    doc = window_to_dict(w)
    assert doc == {"cells": [[-2], [-1], [0], [1]], "states": [0, 1, 0, 1]}

