"""Command-line front end.

Subcommands expose the products, coproducts, and antipodes of the tree and
word algebras, the basis generators (Lyndon words, Hall trees), the Zhao
elements, the singular frame series export, and the named verification
suites.  Exit codes: 0 success / all checks pass, 1 computation or check
failure, 2 usage or parse error.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .algebra import ParseError
from .checks import SUITES, run_suite
from .lyndon_hall import hall_polynomial, hall_set
from .morphisms import (composition_str, eword_str, parse_composition, pi,
                        qsym_antipode, qsym_coproduct, qsym_product, zhao_eps,
                        zhao_k)
from .singular_frame import frame_series
from .tree_hopf import (ck_antipode, ck_coproduct, ck_product, gl_antipode,
                        gl_coproduct, gl_product, planar_diamond,
                        planar_diamond_antipode, planar_diamond_coproduct)
from .trees import parse_forest, parse_tree
from .words import (ADDITIVE, ZERO, deconcat, parse_word, quasi_shuffle,
                    shuffle, word_antipode)


class _Algebra:
    def __init__(self, parse: Callable[[str], object],
                 product: Callable, coproduct: Callable, antipode: Callable,
                 fmt: Callable[[object], str] = str):
        self.parse = parse
        self.product = product
        self.coproduct = coproduct
        self.antipode = antipode
        self.fmt = fmt


ALGEBRAS: dict[str, _Algebra] = {
    "ck": _Algebra(parse_forest, ck_product, ck_coproduct, ck_antipode),
    "gl": _Algebra(parse_tree, gl_product, gl_coproduct, gl_antipode),
    "foissy": _Algebra(lambda s: parse_forest(s, planar=True),
                       ck_product, ck_coproduct, ck_antipode),
    "planar": _Algebra(lambda s: parse_tree(s, planar=True),
                       planar_diamond, planar_diamond_coproduct,
                       planar_diamond_antipode),
    "shuffle": _Algebra(parse_word, shuffle, deconcat,
                        lambda x: word_antipode(x, ZERO)),
    "qshuffle": _Algebra(parse_word,
                         lambda x, y: quasi_shuffle(x, y, ADDITIVE), deconcat,
                         lambda x: word_antipode(x, ADDITIVE)),
    "qsym": _Algebra(parse_composition, qsym_product, qsym_coproduct,
                     qsym_antipode, composition_str),
}


def _max_weight(text: str) -> int:
    """argparse type for --max-weight: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopftrees",
        description="Hopf algebras of rooted trees and words, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_flag(p):
        p.add_argument("--algebra", required=True, choices=sorted(ALGEBRAS))

    p = sub.add_parser("coproduct", help="coproduct of a basis element")
    p.set_defaults(func=_cmd_coproduct)
    algebra_flag(p)
    p.add_argument("--input", required=True, metavar="EXPR")

    p = sub.add_parser("antipode", help="antipode of a basis element")
    p.set_defaults(func=_cmd_antipode)
    algebra_flag(p)
    p.add_argument("--input", required=True, metavar="EXPR")

    p = sub.add_parser("product", help="product of two basis elements")
    p.set_defaults(func=lambda args: _cmd_product(args, parser))
    algebra_flag(p)
    p.add_argument("--input", action="append", required=True, metavar="EXPR",
                   help="give exactly twice")

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


def _cmd_coproduct(args) -> int:
    alg = ALGEBRAS[args.algebra]
    x = alg.parse(args.input)
    print(alg.coproduct(x).format(alg.fmt))
    return 0


def _cmd_antipode(args) -> int:
    alg = ALGEBRAS[args.algebra]
    x = alg.parse(args.input)
    print(alg.antipode(x).format(alg.fmt))
    return 0


def _cmd_product(args, parser: argparse.ArgumentParser) -> int:
    if len(args.input) != 2:
        parser.error("product needs exactly two --input expressions")
    alg = ALGEBRAS[args.algebra]
    x = alg.parse(args.input[0])
    y = alg.parse(args.input[1])
    print(alg.product(x, y).format(alg.fmt))
    return 0


def _cmd_pi(args) -> int:
    u = parse_forest(args.input)
    print(pi(u))
    return 0


def _cmd_lyndon(args) -> int:
    from .lyndon_hall import lyndon_generate
    for w in lyndon_generate(args.max_weight):
        print(w)
    return 0


def _cmd_hall(args) -> int:
    for t in hall_set(args.max_weight):
        if t.std_decomp is None:
            std = "-"
        else:
            t1, t2 = t.std_decomp
            std = f"({t1.foliage}, {t2.foliage})"
        e = hall_polynomial(t).format(eword_str)
        print(f"{t.foliage} | tree={t.tree} | std={std} | E={e}")
    return 0


def _cmd_zhao(args) -> int:
    for n in range(1, args.max_weight + 1):
        print(f"k{n} = {zhao_k(n)}")
        print(f"eps{n} = {zhao_eps(n)}")
    return 0


def _cmd_frame(args) -> int:
    series = frame_series(args.max_weight)
    if args.format == "json":
        print(series.to_json())
    else:
        for line in series.text_lines():
            print(line)
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
