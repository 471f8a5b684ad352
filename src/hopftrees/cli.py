"""Command-line front end.

Subcommands expose the products, coproducts, and antipodes of the tree and
word algebras (one handler over the registry ``checks.ALGEBRAS``, which the
hopf-axioms suite reads too), the basis generators (Lyndon words, Hall
trees), the Zhao elements, the singular frame series export, and the named
verification suites.  Exit codes: 0 success / all checks pass, 1
computation or check failure, or stdout closed by its reader, 2 usage or
parse error.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import islice
from typing import Iterable

from .algebra import ParseError
from .checks import ALGEBRAS, SUITES, run_suite
from .lyndon_hall import hall_polynomial, hall_set, lyndon_words
from .morphisms import eword_str, pi, zhao_eps, zhao_k
from .singular_frame import frame_series
from .trees import parse_forest


def _max_weight(text: str) -> int:
    """argparse type for --max-weight: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


# The largest --max-weight each generator command runs, by the rule of
# checks.MAX_WEIGHTS: the largest weight whose median of three runs took
# under 60 s and 512 MB peak RSS on a 2-core x86_64 machine (runs in
# CHANGES.md; frame is measured in both formats).
# lyndon and frame print as they generate, so time sets their ceilings:
# lyndon 28 took 58 s and frame 25 44 s (text; 38 s as json), each in
# under 25 MB.
COMMAND_MAX_WEIGHTS: dict[str, int] = {"frame": 25, "lyndon": 28, "hall": 19, "zhao": 12}


def _bounded_weight(args) -> int:
    """args.max_weight, or a ValueError when it is over the command's ceiling."""
    ceiling = COMMAND_MAX_WEIGHTS[args.command]
    if args.max_weight > ceiling:
        raise ValueError(f"{args.command} runs up to --max-weight {ceiling}, "
                         f"got {args.max_weight}")
    return args.max_weight


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first main() call in a process (and
    the first after clear_caches()).  It reads the algebra and suite names
    then, so a registry entry added later is not yet a valid choice."""
    parser = argparse.ArgumentParser(
        prog="hopftrees",
        description="Hopf algebras of rooted trees and words, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary, inputs in (
            ("coproduct", "coproduct of a basis element", {}),
            ("antipode", "antipode of a basis element", {}),
            ("product", "product of two basis elements", {"help": "give exactly twice"})):
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=lambda args: _cmd_operation(args, parser))
        p.add_argument("--algebra", required=True, choices=sorted(ALGEBRAS))
        p.add_argument("--input", required=True, action="append", metavar="EXPR", **inputs)

    p = sub.add_parser("pi", help="linear-extension image of a labeled forest")
    p.set_defaults(func=_cmd_pi)
    p.add_argument("--input", required=True, metavar="FOREST")

    p = sub.add_parser("lyndon", help="Lyndon words up to a weight")
    p.set_defaults(func=_cmd_lyndon)
    p.add_argument("--max-weight", type=_max_weight, required=True)

    p = sub.add_parser("hall", help="Hall trees with decompositions and Lie elements")
    p.set_defaults(func=_cmd_hall)
    p.add_argument("--max-weight", type=_max_weight, required=True)

    p = sub.add_parser("zhao", help="the tree elements k_n and eps_n")
    p.set_defaults(func=_cmd_zhao)
    p.add_argument("--max-weight", type=_max_weight, required=True)

    p = sub.add_parser("frame", help="singular frame series export")
    p.set_defaults(func=_cmd_frame)
    p.add_argument("--max-weight", type=_max_weight, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("check", help="run a verification suite")
    p.set_defaults(func=_cmd_check)
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--max-weight", type=_max_weight, required=True)

    return parser


def _cmd_operation(args, parser: argparse.ArgumentParser) -> int:
    """Apply the algebra's product, coproduct or antipode to the parsed inputs."""
    two = args.command == "product"
    if len(args.input) != (2 if two else 1):
        wanted = "two --input expressions" if two else "one --input expression"
        parser.error(f"{args.command} needs exactly {wanted}")
    alg = ALGEBRAS[args.algebra]
    print(getattr(alg, args.command)(*map(alg.parse, args.input)).format(alg.fmt))
    return 0


def _cmd_pi(args) -> int:
    u = parse_forest(args.input)
    print(pi(u))
    return 0


# Lines per write for the commands that print as they generate.
_LINE_BATCH = 1024


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout as the lines are produced,
    _LINE_BATCH lines per write."""
    lines = iter(lines)
    while batch := list(islice(lines, _LINE_BATCH)):
        sys.stdout.write("\n".join(batch) + "\n")


def _cmd_lyndon(args) -> int:
    _write_lines(map(str, lyndon_words(_bounded_weight(args))))
    return 0


def _cmd_hall(args) -> int:
    for t in hall_set(_bounded_weight(args)):
        if t.std_decomp is None:
            std = "-"
        else:
            t1, t2 = t.std_decomp
            std = f"({t1.foliage}, {t2.foliage})"
        e = hall_polynomial(t).format(eword_str)
        print(f"{t.foliage} | tree={t.tree} | std={std} | E={e}")
    return 0


def _cmd_zhao(args) -> int:
    for n in range(1, _bounded_weight(args) + 1):
        print(f"k{n} = {zhao_k(n)}")
        print(f"eps{n} = {zhao_eps(n)}")
    return 0


def _cmd_frame(args) -> int:
    series = frame_series(_bounded_weight(args))
    if args.format == "json":
        sys.stdout.writelines(series.json_chunks())
        sys.stdout.write("\n")
    else:
        _write_lines(series.iter_lines())
    return 0


def _cmd_check(args) -> int:
    rows = run_suite(args.suite, args.max_weight)
    failed = 0
    info = 0
    for r in rows:
        if r.passed is None:
            status = "INFO"
            info += 1
        elif r.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        print(f"{status:4}  {r.name:40}  {r.detail}")
    asserted = len(rows) - info
    if failed:
        print(f"FAIL: {failed} of {asserted} checks failed ({info} informational)")
        return 1
    print(f"PASS: {asserted} checks passed ({info} informational)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line; callable any number of times in one process."""
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at os.devnull, so the
        # flush at exit writes nowhere, and exit 1 without a traceback, as
        # the Python docs' note on SIGPIPE advises.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
