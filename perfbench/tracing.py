"""Spans around calls into the program, recorded from outside it.

The program is not edited.  Instead, each traced function is replaced,
in every ``acainvert`` module that binds it, by a wrapper that records a
span.  Callers look these names up in their module's globals at call
time, so calls between modules (``atlas`` calling ``decide_fully_1d``,
``invertibility`` calling ``minimize_neighborhood``) pass through the
wrappers.  Calls a module makes to its own private helpers are not seen.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from acainvert.invertibility import DerivationConflict


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: Any = None
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        # Children run on the caller's thread, one after another, so their
        # summed durations are the part of this interval they cover.
        return self.seconds - self.children_s


def _fully_window_count(q: int, offsets: tuple[int, ...]) -> int:
    """Assignments of the fully test window {0} u N u A u (A+N), |A| = 2q^(2m+1)+1."""
    if not offsets:
        return q
    reach = q ** (2 * max(abs(o) for o in offsets) + 1)
    size = (reach + max(0, max(offsets))) - (-reach + min(0, min(offsets))) + 1
    return q**size


def _check_attrs(args, result):
    rule = args[0]
    return (rule.q, tuple(n[0] for n in rule.neighborhood.offsets), result.stats.windows)


def _derive_attrs(args, result):
    return isinstance(result, DerivationConflict)


def _bar_attrs(args, result):
    return len(result.forward.table) + len(result.backward.table)


def _simulate_attrs(args, result):
    return sum(len(s.active) for s in result.steps)


# (span name, defining module, function, attribute extractor).  Span names
# are "<layer>.<function>"; the layers are the package modules.
TARGETS = (
    ("core.minimize_neighborhood", "acainvert.core", "minimize_neighborhood", None),
    ("core.with_neighborhood", "acainvert.core", "with_neighborhood", None),
    ("invertibility.derive_candidate_inverse", "acainvert.invertibility",
     "derive_candidate_inverse", _derive_attrs),
    ("invertibility.decide", "acainvert.invertibility", "decide_purely", None),
    ("invertibility.decide", "acainvert.invertibility", "decide_fully_1d", None),
    ("invertibility.check_inverse_purely", "acainvert.invertibility",
     "check_inverse_purely", _check_attrs),
    ("invertibility.check_inverse_fully_1d", "acainvert.invertibility",
     "check_inverse_fully_1d", _check_attrs),
    ("atlas.classify_all_eca", "acainvert.atlas", "classify_all_eca", None),
    ("nakamura.build_bar_pair", "acainvert.nakamura", "build_bar_pair", _bar_attrs),
    ("nakamura.verify_theorem1", "acainvert.nakamura", "verify_theorem1", None),
    ("rulefmt.serialize", "acainvert.rulefmt", "dump_rule", None),
    # the benchmark's stand-in for classify-eca's --out/--csv writing
    ("rulefmt.serialize", "workloads", "write_atlas", None),
    ("simulate.simulate", "acainvert.simulate", "simulate", _simulate_attrs),
)


GATE_SPAN = "perfbench.gate"


@contextlib.contextmanager
def patched(module_prefixes: tuple[str, ...], original: Callable, replacement: Callable) -> Iterator[None]:
    """Rebind ``original`` to ``replacement`` wherever the named modules bind it."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(module_prefixes):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr))
    try:
        yield
    finally:
        for module, attr in undo:
            setattr(module, attr, original)


@dataclass
class Tracer:
    """Collects one span per wrapped call; ``op`` tags spans with the current op."""

    spans: list[Span] = field(default_factory=list)
    op: int | None = None
    _stack: threading.local = field(default_factory=threading.local)
    _paused: bool = False

    def _open(self, name: str) -> Span:
        stack = self._stack.__dict__.setdefault("ids", [])
        span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.ids.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.seconds

    def wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Trace nothing inside the block: the benchmark's own checks.

        The block is one span of its own, so that a layer it runs inside
        (the atlas, which calls the op that the checks follow) does not
        count the checks as its self time.
        """
        span = self._open(GATE_SPAN)
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self._close(span)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for name, module, attr, attrs in TARGETS:
                original = getattr(sys.modules[module], attr)
                wrapper = self.wrap(name, original, attrs)
                stack.enter_context(patched(("acainvert", "workloads"), original, wrapper))
            yield

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "self_s": s.self_seconds,
                }) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); counts and times are per op."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        attrs: dict[str, list] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.seconds
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_seconds
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.attrs is not None:  # None when the call raised
                attrs.setdefault(s.name, []).append(s.attrs)

        out: dict[str, tuple[float, str]] = {}

        def ms(name: str, key: str = "ms") -> None:
            seconds = (self_s if key == "self_ms" else total).get(name, 0.0)
            out[f"{name}.{key}"] = (seconds * 1000.0 / ops, "ms/op")

        def count(name: str, key: str, value: float) -> None:
            out[f"{name}.{key}"] = (value / ops, "calls/op")

        def rate(name: str, key: str, value: float) -> None:
            seconds = total.get(name, 0.0)
            out[f"{name}.{key}"] = (value / seconds if seconds > 0 else 0.0, "1/s")

        minimize, widen = "core.minimize_neighborhood", "core.with_neighborhood"
        ms(minimize)
        count(minimize, "calls", calls.get(minimize, 0))
        ms(widen)
        derive = "invertibility.derive_candidate_inverse"
        ms(derive)
        count(derive, "calls", calls.get(derive, 0))
        conflicts = sum(attrs.get(derive, []))
        out[f"{derive}.conflict_ratio"] = (conflicts / calls[derive] if calls.get(derive) else 0.0, "ratio")
        ms("invertibility.decide", "self_ms")
        for name in ("invertibility.check_inverse_fully_1d", "invertibility.check_inverse_purely"):
            windows = sum(a[2] for a in attrs.get(name, []))
            ms(name)
            count(name, "calls", calls.get(name, 0))
            out[f"{name}.windows"] = (windows / ops, "windows/op")
            rate(name, "windows_per_s", windows)
        fully = "invertibility.check_inverse_fully_1d"
        count(fully, "eq2_reached", sum(
            1 for q, offsets, windows in attrs.get(fully, [])
            if windows > _fully_window_count(q, offsets)
        ))
        ms("atlas.classify_all_eca", "self_ms")
        ms("rulefmt.serialize")
        bar = "nakamura.build_bar_pair"
        ms(bar)
        count(bar, "calls", calls.get(bar, 0))
        rate(bar, "table_entries_per_s", sum(attrs.get(bar, [])))
        sim = "simulate.simulate"
        ms(sim)
        rate(sim, "cell_updates_per_s", sum(attrs.get(sim, [])))
        return out
