"""Shared fixtures: atlas runs are expensive, so they are session-scoped."""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np
import pytest

from acainvert import Neighborhood, WindowConfig, cli
from acainvert.atlas import classify_all_eca
from acainvert.core import add_cells

PADDED_NEIGHBORHOOD = Neighborhood.line(-2, -1, 0, 1, 3)


def translate(config: WindowConfig, shift: int) -> WindowConfig:
    """Shift a 1-D window by ``shift``: cell ``i`` moves to ``i + shift``."""
    return WindowConfig(tuple(add_cells(c, (shift,)) for c in config.cells), config.states)


def assert_like_public_window(window: WindowConfig) -> None:
    """``window`` compares, hashes, prints and looks up cells like the same
    window built by the public constructor from its cells in reverse order
    and numpy states, and its states are exact ints."""
    assert all(type(s) is int for s in window.states)
    public = WindowConfig(window.cells[::-1], tuple(np.int64(s) for s in window.states[::-1]))
    assert window == public and public == window
    assert hash(window) == hash(public)
    assert repr(window) == repr(public)
    for cell, state in zip(window.cells, window.states):
        assert cell in window
        assert window[cell] == public[cell] == state
    if window.cells:
        outside = tuple(x + 1 for x in window.cells[-1])
        assert outside not in window and outside not in public


def sha256_of(docs) -> str:
    """Digest of a JSON-serializable value, independent of dict order."""
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@dataclass
class CliResult:
    exit_code: int
    stdout: str


def invoke_cli(*argv: str) -> CliResult:
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(exit_code=code, stdout=buf.getvalue())


@pytest.fixture(scope="session")
def run_cli():
    return invoke_cli


@pytest.fixture(scope="session")
def purely_atlas():
    return classify_all_eca("purely")


@pytest.fixture(scope="session")
def fully_atlas():
    return classify_all_eca("fully")
