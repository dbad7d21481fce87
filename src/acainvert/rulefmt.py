"""JSON rule documents.

A rule is stored as::

    {"dimension": 1, "alphabet": 2, "neighborhood": [[-1], [0], [1]],
     "table": [0, 1, ...]}

with the table in mixed-radix order (first listed offset most significant
after canonical sorting).  The shorthand ``{"wolfram": n}`` denotes the
elementary rule ``n``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import Alphabet, LocalRule, Neighborhood, WindowConfig, eca_from_wolfram
from .errors import OutOfDomainError, OutOfRangeError, RuleFormatError

__all__ = [
    "rule_to_dict",
    "rule_from_dict",
    "load_rule",
    "dump_rule",
]

# table entries dump_rule renders at once; bounds its working memory
_WRITE_BLOCK = 1 << 14


def _rule_fields(rule: LocalRule) -> dict[str, Any]:
    return {
        "dimension": rule.neighborhood.dimension,
        "alphabet": rule.alphabet.size,
        "neighborhood": [list(n) for n in rule.neighborhood.offsets],
    }


def rule_to_dict(rule: LocalRule) -> dict[str, Any]:
    return {**_rule_fields(rule), "table": list(rule.table)}


def rule_from_dict(doc: Any) -> LocalRule:
    """The rule of a rule document.  Only the document's shape is checked
    here; its numbers are checked by ``core`` as the rule is built.  Every
    error, of shape or of value, raises :class:`RuleFormatError`."""
    if not isinstance(doc, dict):
        raise RuleFormatError("rule document must be a JSON object")
    try:
        if "wolfram" in doc:
            return eca_from_wolfram(doc["wolfram"])
        for key in ("neighborhood", "table"):
            if not isinstance(doc[key], list):
                raise RuleFormatError(f"{key} must be a list, got {doc[key]!r}")
        neighborhood = Neighborhood(doc["dimension"], tuple(doc["neighborhood"]))
        return LocalRule(Alphabet(doc["alphabet"]), neighborhood, doc["table"])
    except KeyError as exc:
        raise RuleFormatError(f"rule document missing field: {exc}") from exc
    except (ValueError, OutOfDomainError) as exc:
        raise RuleFormatError(str(exc)) from exc


def load_rule(path: str | Path) -> LocalRule:
    """Read a rule document from a UTF-8 JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RuleFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise RuleFormatError(f"{path}: JSON nested too deeply to parse") from exc
    return rule_from_dict(doc)


def write_json(doc: dict[str, Any], key: str, blocks: Iterable[str], write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline through ``write``,
    with the empty top-level list ``doc[key]`` filled from ``blocks``.

    json encodes an indented document item by item in Python, so a long
    list goes through json empty and its items are written in its place.
    Each block is items already rendered at depth 2 (four spaces) and
    joined by ``",\n    "``; no blocks leave the list empty.
    """
    # the only line that starts with exactly two spaces and the key is the
    # top-level key: deeper keys are indented further, and JSON strings hold
    # no raw newline; the tail starts with the list's "]"
    head, field, tail = json.dumps(doc, indent=2).partition(f"\n  {json.dumps(key)}: [")
    write(head + field)
    close = ""
    for block in blocks:
        write(("," if close else "") + "\n    " + block)
        close = "\n  "
    write(close + tail + "\n")


def dump_rule(rule: LocalRule, path: str | Path, extra: dict[str, Any] | None = None) -> None:
    """Write the rule document, plus the fields of ``extra``, as
    ``json.dumps(doc, indent=2)`` and a newline.

    The table goes through ``write_json``, ``_WRITE_BLOCK`` entries at a
    time, each entry looked up in a table of state strings.  That table
    holds the strings of 0 .. max(table) when they number at most a block,
    and otherwise each block's entries are converted one by one, so it is
    never sized by q.  ``extra`` may not replace a rule field.
    """
    import numpy as np

    doc = {**_rule_fields(rule), "table": []}
    if extra:
        clash = sorted(doc.keys() & extra.keys())
        if clash:
            raise OutOfRangeError(f"extra fields {clash} would replace rule fields")
        doc.update(extra)
    array = rule.array
    top = int(array.max()) + 1
    strings = np.array([str(v) for v in range(top)], dtype=object) if top <= _WRITE_BLOCK else None
    blocks = (array[lo : lo + _WRITE_BLOCK] for lo in range(0, len(array), _WRITE_BLOCK))
    items = (strings[block].tolist() if strings is not None else map(str, block.tolist()) for block in blocks)
    with open(path, "w", encoding="utf-8") as f:
        write_json(doc, "table", map(",\n    ".join, items), f.write)


def window_to_dict(window: WindowConfig) -> dict[str, Any]:
    return {"cells": [list(c) for c in window.cells], "states": list(window.states)}

