"""Full 256-rule classification reports and their serializations."""

from __future__ import annotations

import csv
import io
import json

import pytest

from acainvert.atlas import (
    FULLY_INVERTIBLE_ECA,
    AtlasEntry,
    AtlasReport,
    PURELY_INVERTIBLE_ECA,
    classify_all_eca,
    diff_against_reference,
)
from acainvert.invertibility import Verdict

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
        by_rule = {e.rule: e for e in purely_atlas.entries}
        for rule, inverse in PURELY_INVERSES.items():
            assert by_rule[rule].inverse == inverse

    def test_entry_count_and_order(self, purely_atlas):
        assert [e.rule for e in purely_atlas.entries] == list(range(256))

    def test_non_invertible_entries_have_no_inverse(self, purely_atlas):
        for e in purely_atlas.entries:
            if e.verdict is not Verdict.INVERTIBLE:
                assert e.inverse is None


class TestFullyAtlas:
    def test_summary_matches_reference(self, fully_atlas):
        assert set(fully_atlas.summary) == set(FULLY_INVERTIBLE_ECA)
        assert diff_against_reference(fully_atlas) == ((), ())

    def test_inverse_samples(self, fully_atlas):
        by_rule = {e.rule: e for e in fully_atlas.entries}
        for rule, inverse in FULLY_INVERSE_SAMPLES.items():
            assert by_rule[rule].inverse == inverse

    def test_purely_invertible_is_subset(self, purely_atlas, fully_atlas):
        # every purely invertible rule except the constants is also fully
        # invertible; the constants fail the single-cell scheme
        purely = set(purely_atlas.summary)
        fully = set(fully_atlas.summary)
        assert purely - fully == {0, 255}


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

    def test_inline_table_inverse_serializes(self):
        from acainvert import Alphabet, LocalRule, Neighborhood

        rule = LocalRule(Alphabet(3), Neighborhood.line(0), (0, 1, 2))
        entry = AtlasEntry(rule=7, verdict=Verdict.INVERTIBLE, inverse=rule, windows=3, millis=1.0)
        report = AtlasReport(scheme="purely", entries=(entry,))
        doc = report.to_dict()["entries"][0]["inverse"]
        assert doc["table"] == [0, 1, 2]
        row = list(csv.reader(io.StringIO(report.to_csv())))[1]
        assert json.loads(row[2])["table"] == [0, 1, 2]


class TestDiff:
    def test_reports_missing_and_extra(self, purely_atlas):
        mutated = AtlasReport(
            scheme="purely",
            entries=tuple(
                AtlasEntry(
                    rule=e.rule,
                    verdict=Verdict.INVERTIBLE if e.rule == 110 else e.verdict,
                    inverse=e.inverse,
                    windows=e.windows,
                    millis=e.millis,
                )
                for e in purely_atlas.entries
                if e.rule != 204
            ),
        )
        assert diff_against_reference(mutated) == ((204,), (110,))


class TestClassify:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            classify_all_eca("sync")
