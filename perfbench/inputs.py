"""Seeded workload inputs, generated as plain data.

Everything here is a function of the seed alone and uses only the
standard library, so the same seed always gives the same rules, lattices
and schedules.  ``materialize`` turns a spec into the program's own rule
objects; set-up time covers that step.

A rule spec is ``(q, offsets, table)``: alphabet size, sorted 1-D offsets
and the flat table in mixed-radix order (first offset most significant),
the same layout as the rule JSON format.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("eca-fully-atlas", "rule-sample-purely", "bar-pairs", "simulate-traces")

# Offsets of generated rules lie in [-2, 2], so the purely test window
# {0} u N u (N+N) lies in [-4, 4]: at most 3^9 = 19,683 windows, far
# below the default window cap.  Every generated rule is decidable.
OFFSET_RANGE = tuple(range(-2, 3))
ECA_OFFSETS = (-1, 0, 1)

# Strata of the non-elementary rule sample.  Every stratum gets the same
# number of rules, so the mix of sweep sizes and early exits does not
# depend on the seed.  "table" draws a uniform table: binary rules never
# have a derivation conflict, 3-state ones nearly always do.  "permuting"
# (3 states only) permutes the centre value in each neighbour context, so
# derivation succeeds and the purely sweep runs.
SAMPLE_STRATA = tuple(
    (q, arity, family, padded)
    for q in (2, 3)
    for arity in (1, 2, 3, 4)
    for family in (("table",) if q == 2 else ("table", "permuting"))
    for padded in (False, True)
)


def sample_size(stratum: tuple) -> int:
    """Rules drawn from a stratum for rule-sample-purely.

    The 3-state permuting rules of arity 4 have the largest sweeps.  With
    40 of each kind they are about an eighth of the ops, so op_ms.p90 falls
    inside their cluster of op times, not in a gap between two clusters,
    where it would jump with the seed.
    """
    q, arity, family, _ = stratum
    return 40 if (q, arity, family) == (3, 4, "permuting") else 12


# Synchronous inverse pairs for the bar-state construction: six ECA pairs
# and the 3-state shift pair C(x) = x_{-1} + 1, G(x) = x_{+1} - 1 (mod 3).
ECA_PAIRS = ((51, 51), (204, 204), (170, 240), (240, 170), (15, 85), (85, 15))
Q3_PAIR = ((3, (-1,), (1, 2, 0)), (3, (1,), (2, 0, 1)))

# Simulation shape: a fully asynchronous step updates one cell and a purely
# one about half of them, so the fully traces run more steps to make the
# two kinds of op cost about the same.
SIM_PER_STRATUM = 2
SIM_SIZE = 64
SIM_STEPS = {"purely": 120, "fully": 1200}
SIM_P = 0.5


def eca_spec(number: int) -> tuple:
    """The elementary rule with this Wolfram number as a spec."""
    return (2, ECA_OFFSETS, tuple((number >> (7 - i)) & 1 for i in range(8)))


def pad_spec(spec: tuple, offsets: tuple[int, ...]) -> tuple:
    """Re-express a spec over a superset of its offsets (new ones dummy)."""
    q, base, table = spec
    where = [offsets.index(o) for o in base]
    padded = []
    for local in itertools.product(range(q), repeat=len(offsets)):
        index = 0
        for p in where:
            index = index * q + local[p]
        padded.append(table[index])
    return (q, offsets, tuple(padded))


def _draw_rule(rng: random.Random, q: int, arity: int, family: str, padded: bool) -> tuple:
    while True:
        if family == "permuting":
            others = sorted(rng.sample([o for o in OFFSET_RANGE if o != 0], arity - 1))
            offsets = tuple(sorted(others + [0]))
            centre = offsets.index(0)
            table = [0] * q**arity
            for context in itertools.product(range(q), repeat=arity - 1):
                perm = list(range(q))
                rng.shuffle(perm)
                for value in range(q):
                    local = context[:centre] + (value,) + context[centre:]
                    index = 0
                    for s in local:
                        index = index * q + s
                    table[index] = perm[value]
            spec = (q, offsets, tuple(table))
        else:
            offsets = tuple(sorted(rng.sample(OFFSET_RANGE, arity)))
            spec = (q, offsets, tuple(rng.randrange(q) for _ in range(q**arity)))
        if padded:
            extra = rng.choice([o for o in OFFSET_RANGE if o not in offsets])
            spec = pad_spec(spec, tuple(sorted(offsets + (extra,))))
        if not (q == 2 and spec[1] == ECA_OFFSETS):
            return spec


def sample_rules(rng: random.Random, size) -> list[tuple]:
    """Non-elementary rules, ``size(stratum)`` from each stratum, shuffled."""
    rules = [_draw_rule(rng, *stratum) for stratum in SAMPLE_STRATA for _ in range(size(stratum))]
    rng.shuffle(rules)
    return rules


def generate(workload: str, seed: int) -> dict:
    """The plain-data inputs of one workload for one seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    # The atlas workloads decide all 256 elementary rules, which the atlas
    # builds itself; only the non-elementary sample is generated here.
    if workload == "eca-fully-atlas":
        return {}
    if workload == "rule-sample-purely":
        return {"rules": sample_rules(rng, sample_size)}
    if workload == "bar-pairs":
        pairs = [(eca_spec(a), eca_spec(b)) for a, b in ECA_PAIRS] + [Q3_PAIR]
        return {"pairs": pairs}
    if workload == "simulate-traces":
        traces = []
        for spec in sample_rules(rng, lambda stratum: SIM_PER_STRATUM):
            for scheme in ("purely", "fully"):
                initial = tuple(rng.randrange(spec[0]) for _ in range(SIM_SIZE))
                traces.append((spec, scheme, initial, SIM_STEPS[scheme], rng.randrange(1 << 31)))
        return {"traces": traces}
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def materialize(data: dict) -> dict:
    """Turn plain inputs into the program's rule objects."""
    # Imported here, not at module level, so that the set-up probe can time
    # the program's import on its own.
    from acainvert.core import Alphabet, LocalRule, Neighborhood

    def rule(spec):
        q, offsets, table = spec
        return LocalRule(Alphabet(q), Neighborhood.line(*offsets), table)

    out: dict = {}
    if "rules" in data:
        out["rules"] = [rule(spec) for spec in data["rules"]]
    if "pairs" in data:
        out["pairs"] = [(rule(c), rule(g)) for c, g in data["pairs"]]
    if "traces" in data:
        out["traces"] = [(rule(spec), *rest) for spec, *rest in data["traces"]]
    return out
