"""Seeded sandbox runs on a cyclic 1-D lattice.

Cyclic boundaries are a demonstration device only; the decision procedures
work on finite windows and never consult this module.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Any, Sequence

from .core import SCHEMES, LocalRule, _integer
from .errors import LatticeTooSmallError, NotOneDimensionalError, OutOfRangeError, ResourceCapExceededError

__all__ = ["TraceStep", "Trace", "simulate"]

# a trace holds (lattice size + 1) × (steps + 1) entries: a state per cell and a
# record per row; the largest allowed, at size 1, peaks near 135 MB through the
# CLI as JSON or as text (child's ru_maxrss, 524,287 fully steps)
_TRACE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TraceStep:
    active: tuple[int, ...]
    states: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"active": list(self.active), "states": list(self.states)}


@dataclass(frozen=True)
class Trace:
    scheme: str
    seed: int
    p: float | None
    initial: tuple[int, ...]
    steps: tuple[TraceStep, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "p": self.p,
            "initial": list(self.initial),
            "steps": [s.to_dict() for s in self.steps],
        }


def check_trace_size(size: int, steps: int) -> None:
    """Refuse a negative step count, and a trace of ``size`` cells and
    ``steps`` steps that would hold more than ``_TRACE_ENTRIES`` entries,
    before anything is built."""
    # a negative count would make the product below pass
    if steps < 0:
        raise OutOfRangeError(f"step count must be non-negative, got {steps}")
    if (size + 1) * (steps + 1) > _TRACE_ENTRIES:
        raise ResourceCapExceededError(f"a trace of size {size} over {steps} steps exceeds {_TRACE_ENTRIES} entries")


def simulate(
    rule: LocalRule,
    initial: Sequence[int],
    scheme: str,
    steps: int,
    seed: int,
    p: float = 0.5,
) -> Trace:
    """Run ``steps`` asynchronous updates with a deterministic seeded schedule.

    Under the purely asynchronous scheme each cell joins the activation set
    independently with probability ``p``: one ``rng.random()`` per cell, in
    index order, before the step is applied.  Under the fully asynchronous
    scheme exactly one cell fires, drawn by one ``rng.randrange(n)``.  The
    generator is ``random.Random(seed)`` and nothing else draws from it, so
    a seed gives the same trace in every version.

    The read table (the cells each cell reads, wrapped around the lattice)
    is built once per call; each step then indexes the rule table from the
    pre-step states of the active cells' reads.

    Initial states must be integers of the rule's alphabet (bool, float and
    str are refused, not truncated), ``steps`` a non-negative integer and
    ``p`` a real number in [0, 1] (not bool); otherwise
    :class:`OutOfRangeError` is raised.  A trace that would hold more than
    ``_TRACE_ENTRIES`` = 2^20 entries, (len(initial) + 1) × (steps + 1),
    raises :class:`ResourceCapExceededError` before any cell is read.
    """
    if rule.neighborhood.dimension != 1:
        raise NotOneDimensionalError("cyclic simulation handles 1-D rules only")
    if scheme not in SCHEMES:
        raise OutOfRangeError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    # p is serialized as given, so it is checked, not coerced to float
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"activation probability must be a number in [0, 1], got {p!r}")
    steps = _integer(steps, "step count")
    n = len(initial)
    check_trace_size(n, steps)
    offs = [off[0] for off in rule.neighborhood.offsets]
    extent = (max(offs) - min(offs) + 1) if offs else 1
    if n < extent:
        raise LatticeTooSmallError(f"lattice of size {n} cannot host neighborhood extent {extent}")
    table, q = rule.table, rule.q
    start = current = tuple(_integer(s, "initial state") for s in initial)
    for s in start:
        if not 0 <= s < q:
            raise OutOfRangeError(f"initial state {s} outside alphabet of size {q}")
    # reads[i]: the cells cell i reads, in offset order
    reads = [tuple((i + o) % n for o in offs) for i in range(n)]
    rng = random.Random(seed)
    draw, randrange = rng.random, rng.randrange
    cells = range(n)
    purely = scheme == "purely"
    trace = []
    record = trace.append
    for _ in range(steps):
        active = tuple([i for i in cells if draw() < p]) if purely else (randrange(n),)
        after = None
        for i in active:
            index = 0
            for j in reads[i]:
                index = index * q + current[j]
            state = table[index]
            # a step that changes nothing keeps its tuple: most fully steps
            # of random rules are such steps, so the copy is skipped
            if state != current[i]:
                if after is None:
                    after = list(current)
                after[i] = state
        if after is not None:
            current = tuple(after)
        record(TraceStep(active, current))
    return Trace(scheme=scheme, seed=seed, p=p if purely else None,
                 initial=start, steps=tuple(trace))
