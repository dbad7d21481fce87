"""Command-line interface.

Exit codes: 0 for a positive verdict (or plain success), 3 for a negative
verdict (not invertible / reference diff non-empty), 2 for usage, format,
or resource-cap errors.  All emitted JSON zeroes wall-clock fields, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import random
import sys
from pathlib import Path

from .atlas import classify_all_eca, diff_against_reference
from .core import SCHEMES, LocalRule, eca_from_wolfram
from .errors import CaError, ResourceCapExceededError
from .invertibility import (
    DEFAULT_WINDOW_CAP,
    Verdict,
    check_inverse_purely,
    decide_fully_1d,
    decide_purely,
    two_predecessor_witness,
)
from .nakamura import build_bar_pair, verify_theorem1  # noqa: F401 (read as cli.verify_theorem1)
from .rulefmt import dump_rule, load_rule, write_json
from .simulate import Trace, check_trace_size, simulate

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_NEGATIVE = 3


def _add_rule_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", metavar="FILE", help="rule file (JSON)")
    group.add_argument("--wolfram", type=int, metavar="N", help="elementary rule number 0..255")


def _window_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        # a cap below 1 refuses every check, so it is a usage error
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return cap


def _add_cap_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=_window_cap, default=DEFAULT_WINDOW_CAP, metavar="K",
                        help="cap on the number of test windows q^|T|, at least 1 (default %(default)s)")


def _load_source(args: argparse.Namespace) -> LocalRule:
    if args.rule is not None:
        return load_rule(args.rule)
    return eca_from_wolfram(args.wolfram)


def _print_json(doc) -> None:
    """Print ``doc`` as ``json.dumps(doc, indent=2)`` would, without ever
    holding its whole text: the encoder's chunks are joined and written
    2^14 at a time, since one write per chunk is slow."""
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := "".join(itertools.islice(chunks, 1 << 14)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _print_trace_json(trace: Trace) -> None:
    """Print ``trace.to_dict()`` as ``json.dumps(..., indent=2)`` would,
    building the dicts of a batch of steps at a time, about 2^12 entries
    (a state per cell and a record per step) whatever the lattice width:
    each batch is dumped as a list, and its items, without the brackets,
    are indented to the depth of ``"steps"`` for ``write_json``."""
    encode = json.JSONEncoder(indent=2).encode
    rows = max(1, (1 << 12) // (len(trace.initial) + 1))
    # "[\n  " + items + "\n]"
    batches = (encode([step.to_dict() for step in trace.steps[start : start + rows]])[4:-2].replace("\n", "\n  ")
               for start in range(0, len(trace.steps), rows))
    write_json(dataclasses.replace(trace, steps=()).to_dict(), "steps", batches, sys.stdout.write)


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.INVERTIBLE:
        return EXIT_OK
    if verdict is Verdict.NOT_INVERTIBLE:
        return EXIT_NEGATIVE
    return EXIT_ERROR


def _cmd_decide(args: argparse.Namespace) -> int:
    rule = _load_source(args)
    decider = decide_purely if args.scheme == "purely" else decide_fully_1d
    report = decider(rule, window_cap=args.cap)
    _print_json(report.to_dict())
    return _verdict_exit(report.verdict)


def _cmd_classify_eca(args: argparse.Namespace) -> int:
    report = classify_all_eca(args.scheme, cap=args.cap)
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    if args.diff:
        if refused := sum(e.verdict is Verdict.RESOURCE_CAP_EXCEEDED for e in report.entries):
            raise ResourceCapExceededError(f"{refused} rules exceed the window cap, so the diff is undecided")
        missing, extra = diff_against_reference(report)
        _print_json({"scheme": args.scheme, "missing": list(missing), "extra": list(extra)})
        return EXIT_OK if not missing and not extra else EXIT_NEGATIVE
    if not args.out and not args.csv:
        print(report.to_json(), end="")
    return EXIT_OK


def _cmd_nakamura(args: argparse.Namespace) -> int:
    forward = load_rule(args.rule)
    backward = load_rule(args.inverse)
    try:
        pair = build_bar_pair(forward, backward)
    except MemoryError as exc:
        raise ResourceCapExceededError(f"bar tables do not fit in memory: {str(exc) or 'MemoryError'}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoding = {"encoding": pair.encoding_doc()}
    dump_rule(pair.forward, out_dir / "bar-forward.json", extra=encoding)
    dump_rule(pair.backward, out_dir / "bar-backward.json", extra=encoding)
    if args.verify:
        # check the pair built above; verify_theorem1 would build it again
        report = check_inverse_purely(pair.forward, pair.backward, cap=args.cap)
        _print_json(report.to_dict())
        return _verdict_exit(report.verdict)
    return EXIT_OK


def _cmd_witness_r2(args: argparse.Namespace) -> int:
    rule = _load_source(args)
    witness = two_predecessor_witness(rule)
    if witness is None:
        print("trivial rule")
    else:
        _print_json(witness.to_dict())
    return EXIT_OK


def _format_states(states, q: int) -> str:
    if q <= 10:
        return "".join(str(s) for s in states)
    return ",".join(str(s) for s in states)


def _cmd_simulate(args: argparse.Namespace) -> int:
    rule = _load_source(args)
    if args.size < 1:
        raise CaError("lattice size must be at least 1")
    check_trace_size(args.size, args.steps)
    init_rng = random.Random(f"{args.seed}:init")
    initial = [init_rng.randrange(rule.q) for _ in range(args.size)]
    trace = simulate(rule, initial, args.scheme, args.steps, args.seed, p=args.p)
    if args.format == "json":
        _print_trace_json(trace)
        return EXIT_OK
    header = f"scheme={trace.scheme} seed={trace.seed}"
    if trace.p is not None:
        header += f" p={trace.p}"
    print(header)
    print(f"t=0 {_format_states(trace.initial, rule.q)}")
    for t, entry in enumerate(trace.steps, start=1):
        active = ",".join(str(a) for a in entry.active)
        print(f"t={t} {_format_states(entry.states, rule.q)} active=[{active}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acainvert",
        description="Invertibility tools for asynchronous cellular automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide invertibility of one rule")
    _add_rule_source(p)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    _add_cap_flag(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("classify-eca", help="classify all 256 elementary rules")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")
    p.add_argument("--csv", metavar="FILE", help="write the CSV report here")
    p.add_argument("--diff", action="store_true",
                   help="print the diff against the built-in reference list; exit 3 when non-empty, "
                   "2 when the cap refuses any rule")
    _add_cap_flag(p)
    p.set_defaults(fn=_cmd_classify_eca)

    p = sub.add_parser("nakamura", help="build the purely asynchronous bar pair from a synchronous inverse pair")
    p.add_argument("--rule", metavar="FILE", required=True, help="forward rule file")
    p.add_argument("--inverse", metavar="FILE", required=True, help="backward rule file")
    p.add_argument("--out-dir", metavar="DIR", required=True)
    p.add_argument("--verify", action="store_true",
                   help="run the purely asynchronous check on the bar pair")
    _add_cap_flag(p)
    p.set_defaults(fn=_cmd_nakamura)

    p = sub.add_parser("witness-r2", help="print two windows with a common single-step successor")
    _add_rule_source(p)
    p.set_defaults(fn=_cmd_witness_r2)

    p = sub.add_parser("simulate", help="run a seeded asynchronous trace on a cyclic lattice")
    _add_rule_source(p)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--steps", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--p", type=float, default=0.5,
                   help="per-cell activation probability (purely scheme only)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
