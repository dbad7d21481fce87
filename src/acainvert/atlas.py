"""Classification of all 256 elementary rules under both update schemes.

The reference lists of invertible Wolfram numbers are compiled in, in
this package's numbering (the 8-bit reversal of Wolfram's standard code;
see ``core``); a mismatch against them is a reportable diff, never
silently accepted.
``AtlasReport.entries`` holds each rule's ``DecisionReport``, rule n at
index n.  The JSON and CSV forms have one row per rule: rule, verdict,
inverse (its Wolfram number, found as the row is written), windows (JSON
only) and millis.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any

from .core import SCHEMES, eca_from_wolfram, wolfram_number
from .errors import OutOfRangeError
from .invertibility import (
    DEFAULT_WINDOW_CAP,
    DecisionReport,
    Verdict,
    decide_fully_1d,
    decide_purely,
)

__all__ = [
    "PURELY_INVERTIBLE_ECA",
    "FULLY_INVERTIBLE_ECA",
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


@dataclass(frozen=True)
class AtlasReport:
    scheme: str
    entries: tuple[DecisionReport, ...]  # rule n at index n

    @property
    def summary(self) -> tuple[int, ...]:
        return tuple(n for n, e in enumerate(self.entries) if e.verdict is Verdict.INVERTIBLE)

    def to_dict(self, timings: bool = False) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "entries": [
                {
                    "rule": n,
                    "verdict": e.verdict.value,
                    "inverse": wolfram_number(e.inverse) if e.inverse is not None else None,
                    "windows": e.stats.windows,
                    "millis": int(round(e.stats.millis)) if timings else 0,
                }
                for n, e in enumerate(self.entries)
            ],
            "summary": list(self.summary),
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(self.to_dict(timings=timings), indent=2) + "\n"

    def to_csv(self, timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rule", "verdict", "inverse", "millis"])
        for row in self.to_dict(timings=timings)["entries"]:
            writer.writerow([row["rule"], row["verdict"], row["inverse"], row["millis"]])  # None writes as ""
        return buf.getvalue()


def classify_all_eca(scheme: str, *, cap: int = DEFAULT_WINDOW_CAP) -> AtlasReport:
    """Decide every Wolfram rule 0..255 under the given scheme, in rule order."""
    if scheme not in SCHEMES:
        raise OutOfRangeError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    decider = decide_purely if scheme == "purely" else decide_fully_1d
    entries = tuple(decider(eca_from_wolfram(n), window_cap=cap) for n in range(256))
    return AtlasReport(scheme=scheme, entries=entries)


def diff_against_reference(report: AtlasReport) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(missing, extra) relative to the compiled-in reference list."""
    reference = PURELY_INVERTIBLE_ECA if report.scheme == "purely" else FULLY_INVERTIBLE_ECA
    found = set(report.summary)
    missing = tuple(sorted(reference - found))
    extra = tuple(sorted(found - reference))
    return missing, extra
