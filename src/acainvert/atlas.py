"""Classification of all 256 elementary rules under both update schemes.

The reference lists of invertible Wolfram numbers are compiled in; a
mismatch against them is a reportable diff, never silently accepted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any

from .core import LocalRule, eca_from_wolfram, wolfram_number
from .errors import NotElementaryError
from .invertibility import (
    DEFAULT_WINDOW_CAP,
    DecisionReport,
    Verdict,
    decide_fully_1d,
    decide_purely,
)
from .rulefmt import rule_to_dict

__all__ = [
    "PURELY_INVERTIBLE_ECA",
    "FULLY_INVERTIBLE_ECA",
    "AtlasEntry",
    "AtlasReport",
    "classify_all_eca",
    "diff_against_reference",
]

PURELY_INVERTIBLE_ECA = frozenset((0, 35, 43, 49, 51, 59, 113, 115, 204, 255))

FULLY_INVERTIBLE_ECA = frozenset(
    (
        33, 35, 38, 41, 43, 46, 49, 51, 52, 54,
        57, 59, 60, 62, 97, 99, 102, 105, 107, 108,
        113, 115, 116, 118, 121, 123, 131, 139, 145, 147,
        150, 153, 155, 156, 195, 198, 201, 204, 209, 211,
    )
)

SCHEMES = ("purely", "fully")


@dataclass(frozen=True)
class AtlasEntry:
    rule: int
    verdict: Verdict
    inverse: int | LocalRule | None
    windows: int
    millis: float

    def inverse_json(self) -> Any:
        if self.inverse is None or isinstance(self.inverse, int):
            return self.inverse
        return rule_to_dict(self.inverse)


@dataclass(frozen=True)
class AtlasReport:
    scheme: str
    entries: tuple[AtlasEntry, ...]

    @property
    def summary(self) -> tuple[int, ...]:
        return tuple(e.rule for e in self.entries if e.verdict is Verdict.INVERTIBLE)

    def to_dict(self, timings: bool = False) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "entries": [
                {
                    "rule": e.rule,
                    "verdict": e.verdict.value,
                    "inverse": e.inverse_json(),
                    "windows": e.windows,
                    "millis": int(round(e.millis)) if timings else 0,
                }
                for e in self.entries
            ],
            "summary": list(self.summary),
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(self.to_dict(timings=timings), indent=2) + "\n"

    def to_csv(self, timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rule", "verdict", "inverse", "millis"])
        for e in self.entries:
            inverse = e.inverse_json()
            if inverse is None:
                text = ""
            elif isinstance(inverse, int):
                text = str(inverse)
            else:
                text = json.dumps(inverse, separators=(",", ":"))
            writer.writerow([e.rule, e.verdict.value, text, int(round(e.millis)) if timings else 0])
        return buf.getvalue()


def _entry_from_report(rule: int, report: DecisionReport) -> AtlasEntry:
    inverse: int | LocalRule | None = None
    if report.inverse is not None:
        try:
            inverse = wolfram_number(report.inverse)
        except NotElementaryError:
            inverse = report.inverse
    return AtlasEntry(
        rule=rule,
        verdict=report.verdict,
        inverse=inverse,
        windows=report.stats.windows,
        millis=report.stats.millis,
    )


def classify_all_eca(scheme: str, *, cap: int = DEFAULT_WINDOW_CAP) -> AtlasReport:
    """Decide every Wolfram rule 0..255 under the given scheme, in rule order."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    decider = decide_purely if scheme == "purely" else decide_fully_1d
    entries = tuple(
        _entry_from_report(n, decider(eca_from_wolfram(n), window_cap=cap)) for n in range(256)
    )
    return AtlasReport(scheme=scheme, entries=entries)


def diff_against_reference(report: AtlasReport) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(missing, extra) relative to the compiled-in reference list."""
    reference = PURELY_INVERTIBLE_ECA if report.scheme == "purely" else FULLY_INVERTIBLE_ECA
    found = set(report.summary)
    missing = tuple(sorted(reference - found))
    extra = tuple(sorted(found - reference))
    return missing, extra
