"""Full 256-rule classification reports and their serializations."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import replace

import pytest

from acainvert.atlas import (
    FULLY_INVERTIBLE_ECA,
    AtlasReport,
    PURELY_INVERTIBLE_ECA,
    classify_all_eca,
    diff_against_reference,
)
from acainvert.core import eca_from_wolfram, wolfram_number
from acainvert.invertibility import Verdict

from naive_oracles import ring_inverses

PURELY_INVERSES = {
    0: 255,
    35: 115,
    43: 113,
    49: 59,
    51: 51,
    59: 49,
    113: 43,
    115: 35,
    204: 204,
    255: 0,
}

FULLY_INVERSE_SAMPLES = {
    33: 123,
    35: 115,
    38: 118,
    41: 121,
    43: 113,
    46: 116,
    49: 59,
    51: 51,
    52: 62,
    54: 54,
    57: 57,
    59: 49,
}


class TestPurelyAtlas:
    def test_summary_matches_reference(self, purely_atlas):
        assert set(purely_atlas.summary) == set(PURELY_INVERTIBLE_ECA)
        assert diff_against_reference(purely_atlas) == ((), ())

    def test_inverse_numbers(self, purely_atlas):
        for rule, inverse in PURELY_INVERSES.items():
            assert wolfram_number(purely_atlas.entries[rule].inverse) == inverse

    def test_entry_count_and_order(self, purely_atlas):
        assert len(purely_atlas.entries) == 256
        assert [e["rule"] for e in purely_atlas.to_dict()["entries"]] == list(range(256))

    def test_non_invertible_entries_have_no_inverse(self, purely_atlas):
        for e in purely_atlas.entries:
            if e.verdict is not Verdict.INVERTIBLE:
                assert e.inverse is None


class TestFullyAtlas:
    def test_summary_matches_reference(self, fully_atlas):
        assert set(fully_atlas.summary) == set(FULLY_INVERTIBLE_ECA)
        assert diff_against_reference(fully_atlas) == ((), ())

    def test_inverse_samples(self, fully_atlas):
        for rule, inverse in FULLY_INVERSE_SAMPLES.items():
            assert wolfram_number(fully_atlas.entries[rule].inverse) == inverse

    def test_purely_invertible_is_subset(self, purely_atlas, fully_atlas):
        # every purely invertible rule except the constants is also fully
        # invertible; the constants fail the single-cell scheme
        purely = set(purely_atlas.summary)
        fully = set(fully_atlas.summary)
        assert purely - fully == {0, 255}


# invertible on every ring but not on Z: each witness window has two
# different periodic tails, which no ring holds; the pairs are 134 <-> 214,
# 142 <-> 212 and 148 <-> 158
RING_ONLY_FULLY = {134: 214, 142: 212, 148: 158, 158: 148, 212: 142, 214: 134}


@pytest.mark.parametrize("scheme", ["purely", "fully"])
def test_ring_oracle_from_the_definition(scheme, request):
    """On the ring of 8 cells, a rule's phase space reversed is another
    ECA's exactly for the atlas's invertible rules, that ECA is unique and
    it is the atlas's inverse; under fully, the six rules of
    RING_ONLY_FULLY are ring-invertible too."""
    atlas = request.getfixturevalue(f"{scheme}_atlas")
    found = ring_inverses((-1, 0, 1), 8, scheme)
    ring = {}
    for n in range(256):
        inverses = found[eca_from_wolfram(n).table]
        assert len(inverses) <= 1, n
        if inverses:
            ring[n] = inverses[0]
    exceptions = RING_ONLY_FULLY if scheme == "fully" else {}
    assert set(ring) == set(atlas.summary) | set(exceptions)
    assert not set(exceptions) & set(atlas.summary)
    for n in atlas.summary:
        assert ring[n] == atlas.entries[n].inverse.table
    for n, inverse in exceptions.items():
        assert ring[n] == eca_from_wolfram(inverse).table


class TestSerialization:
    def test_to_dict_shape(self, purely_atlas):
        doc = purely_atlas.to_dict()
        assert doc["scheme"] == "purely"
        assert doc["summary"] == sorted(PURELY_INVERTIBLE_ECA)
        assert len(doc["entries"]) == 256
        first = doc["entries"][0]
        assert set(first) == {"rule", "verdict", "inverse", "windows", "millis"}
        assert first == {
            "rule": 0,
            "verdict": "invertible",
            "inverse": 255,
            "windows": 2,
            "millis": 0,
        }

    def test_millis_zeroed_unless_requested(self, purely_atlas):
        assert all(e["millis"] == 0 for e in purely_atlas.to_dict()["entries"])

    def test_to_json_round_trips(self, purely_atlas):
        doc = json.loads(purely_atlas.to_json())
        assert doc == purely_atlas.to_dict()

    def test_to_csv_shape(self, purely_atlas):
        rows = list(csv.reader(io.StringIO(purely_atlas.to_csv())))
        assert rows[0] == ["rule", "verdict", "inverse", "millis"]
        assert len(rows) == 257
        assert rows[1] == ["0", "invertible", "255", "0"]
        assert rows[2] == ["1", "not-invertible", "", "0"]


# sha256 of the default `classify-eca --out FILE --csv FILE` output of each
# scheme, as recorded in perfbench/reference.json
ATLAS_DIGESTS = {
    "purely": (
        "317efa590dc11aea20d696b78b17121ee3a10818f146f90dd92ecb7e2cf9bc08",
        "cca65e5dcceaf683be1e9380cdfe37826b3f61ef84449cf83e0fa83bc3c60a9d",
    ),
    "fully": (
        "a9039e7bc675a25b42f96018e41631fc4a9359a4cf8a89e5624d04626384b937",
        "b5e5b77e14666f1d2df941c9c5e75d294b034783e49f95b019cd8b3df5ab40e3",
    ),
}


@pytest.mark.parametrize("fixture", ["purely_atlas", "fully_atlas"])
def test_atlas_bytes_pinned(fixture, request):
    """Default JSON and CSV hash to the recorded digests, and timings change
    nothing but the ``millis`` fields, which are non-negative ints."""
    report = request.getfixturevalue(fixture)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (report.to_json(), report.to_csv()))
    assert digests == ATLAS_DIGESTS[report.scheme]
    plain, timed = report.to_dict(), report.to_dict(timings=True)
    for entry in timed["entries"]:
        assert isinstance(entry["millis"], int) and entry["millis"] >= 0
        entry["millis"] = 0
    assert timed == plain


class TestDiff:
    def test_reports_missing_and_extra(self, purely_atlas):
        entries = list(purely_atlas.entries)
        entries[110] = replace(entries[110], verdict=Verdict.INVERTIBLE)
        entries[204] = replace(entries[204], verdict=Verdict.NOT_INVERTIBLE, inverse=None)
        mutated = AtlasReport(scheme="purely", entries=tuple(entries))
        assert diff_against_reference(mutated) == ((204,), (110,))


class TestClassify:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            classify_all_eca("sync")
