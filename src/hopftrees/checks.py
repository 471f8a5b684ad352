"""Named verification suites over exhaustive basis ranges.

Each suite returns a list of CheckRow results; a row with passed=None is
informational (report-only) and never fails a run.  The suites back the
``check`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import LinComb, lincomb_tensor, splice_at
from .lyndon_hall import hall_axiom_report
from .morphisms import DIAGRAMS, diagram_check, kernel_generators, pi
from .singular_frame import (alphaU, alphaU_word_sum, betaU, frame_coefficient,
                             iterated_integral, prop53_check)
from .tree_hopf import (ck_antipode, ck_gl_pairing, ck_product, coproduct_forest,
                        foissy_antipode, foissy_coproduct, foissy_product,
                        gl_coproduct, gl_product, shuffle_target,
                        universal_cocycle_map)
from .trees import (EMPTY_FOREST, EMPTY_PLANAR_FOREST, bplus,
                    enumerate_forests, enumerate_planar_forests, enumerate_trees,
                    forest, forest_mul, labeled_forests_of_weight,
                    labeled_forests_up_to_weight, labeled_ladder)
from .words import (ADDITIVE, EMPTY_WORD, ZERO, concat, deconcat,
                    quasi_shuffle, shuffle, word, word_antipode,
                    words_up_to_weight)


@dataclass
class CheckRow:
    """One verified statement: passed is None for report-only rows."""

    name: str
    passed: bool | None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.passed is False


# ---------------------------------------------------------------------------
# generic Hopf-axiom machinery

def _coassociative(elements: Iterable, cop: Callable) -> tuple[bool, int]:
    n = 0
    for u in elements:
        d = cop(u)
        if splice_at(d, 0, cop) != splice_at(d, 1, cop):
            return False, n
        n += 1
    return True, n


def _counit_laws(elements: Iterable, cop: Callable, unit_elem) -> tuple[bool, int]:
    n = 0
    for u in elements:
        splits = [(t.parts, c) for t, c in cop(u).items()]
        left = LinComb((b, c) for (a, b), c in splits if a == unit_elem)
        right = LinComb((a, c) for (a, b), c in splits if b == unit_elem)
        if left != LinComb.term(u) or right != LinComb.term(u):
            return False, n
        n += 1
    return True, n


def _antipode_laws(elements: Iterable, cop: Callable, antipode: Callable,
                   product: Callable, unit_elem) -> tuple[bool, int]:
    n = 0
    for u in elements:
        target = LinComb.term(unit_elem) if u == unit_elem else LinComb.zero()
        splits = [(LinComb.term(t.parts[0]), LinComb.term(t.parts[1]), c)
                  for t, c in cop(u).items()]
        left = LinComb.sum((product(antipode(a), b), c) for a, b, c in splits)
        right = LinComb.sum((product(a, antipode(b)), c) for a, b, c in splits)
        if left != target or right != target:
            return False, n
        n += 1
    return True, n


def _hopf_rows(tag: str, elements: Sequence, cop, antipode, product,
               unit_elem) -> list[CheckRow]:
    def detail(ok: bool, n: int) -> str:
        return (f"{len(elements)} elements" if ok
                else f"first failure at element {n}: {elements[n]}")

    ok, n = _coassociative(elements, cop)
    rows = [CheckRow(f"hopf/{tag}-coassoc", ok, detail(ok, n))]
    ok, n = _counit_laws(elements, cop, unit_elem)
    rows.append(CheckRow(f"hopf/{tag}-counit", ok, detail(ok, n)))
    ok, n = _antipode_laws(elements, cop, antipode, product, unit_elem)
    rows.append(CheckRow(f"hopf/{tag}-antipode", ok, detail(ok, n)))
    return rows


def suite_hopf_axioms(ck_vertices: int = 6, labeled_weight: int = 5,
                      word_weight: int = 5, foissy_vertices: int = 5) -> list[CheckRow]:
    """Coassociativity, counit, and antipode convolution laws, exhaustively."""
    rows: list[CheckRow] = []

    unlabeled = [f for n in range(ck_vertices + 1) for f in enumerate_forests(n)]
    rows += _hopf_rows("ck-unlabeled", unlabeled, coproduct_forest,
                       ck_antipode, ck_product, EMPTY_FOREST)

    labeled = labeled_forests_up_to_weight(labeled_weight)
    rows += _hopf_rows("ck-labeled", labeled, coproduct_forest,
                       ck_antipode, ck_product, EMPTY_FOREST)

    ws = words_up_to_weight(word_weight)
    rows += _hopf_rows("shuffle", ws, deconcat,
                       lambda x: word_antipode(x, ZERO), shuffle, EMPTY_WORD)
    rows += _hopf_rows("qshuffle", ws, deconcat,
                       lambda x: word_antipode(x, ADDITIVE),
                       lambda x, y: quasi_shuffle(x, y, ADDITIVE), EMPTY_WORD)

    ordered = [f for n in range(foissy_vertices + 1)
               for f in enumerate_planar_forests(n)]
    rows += _hopf_rows("foissy", ordered, foissy_coproduct,
                       foissy_antipode, foissy_product, EMPTY_PLANAR_FOREST)

    return rows


# ---------------------------------------------------------------------------
# duality of the attachment and cut structures

def _pair_tensor(x, y, d: LinComb) -> Fraction:
    total = Fraction(0)
    for t, c in d.items():
        total += c * ck_gl_pairing(x, t.parts[0]) * ck_gl_pairing(y, t.parts[1])
    return total


def _duality_rows(tag: str, trees_of: Callable[[int], Sequence],
                  forests_of: Callable[[int], Sequence],
                  max_degree: int) -> list[CheckRow]:
    ok_prod = True
    n_prod = 0
    for d in range(max_degree + 1):
        fs = forests_of(d)
        for d1 in range(d + 1):
            for x in trees_of(d1):
                for y in trees_of(d - d1):
                    p = gl_product(x, y)
                    for f in fs:
                        lhs = 0
                        for t, c in p.items():
                            lhs += c * ck_gl_pairing(t, f)
                        rhs = _pair_tensor(x, y, coproduct_forest(f))
                        n_prod += 1
                        if lhs != rhs:
                            ok_prod = False

    ok_cop = True
    n_cop = 0
    for d in range(max_degree + 1):
        for x in trees_of(d):
            dx = gl_coproduct(x)
            for d1 in range(d + 1):
                for u in forests_of(d1):
                    for v in forests_of(d - d1):
                        lhs = 0
                        for t, c in dx.items():
                            lhs += (c * ck_gl_pairing(t.parts[0], u)
                                    * ck_gl_pairing(t.parts[1], v))
                        rhs = ck_gl_pairing(x, forest_mul(u, v))
                        n_cop += 1
                        if lhs != rhs:
                            ok_cop = False

    return [
        CheckRow(f"duality/{tag}-product-vs-coproduct", ok_prod, f"{n_prod} pairings"),
        CheckRow(f"duality/{tag}-coproduct-vs-product", ok_cop, f"{n_cop} pairings"),
    ]


def suite_duality(max_degree: int = 5) -> list[CheckRow]:
    """<x o y, f> = <x (x) y, cut coproduct of f> and the adjoint identity,
    over unlabeled (degree = non-root vertices) and labeled (degree = weight)
    bases."""
    rows = _duality_rows(
        "unlabeled",
        lambda d: enumerate_trees(d + 1),
        lambda d: enumerate_forests(d),
        max_degree)
    rows += _duality_rows(
        "labeled",
        lambda d: [bplus(f) for f in labeled_forests_of_weight(d)],
        lambda d: labeled_forests_of_weight(d),
        max_degree)
    return rows


# ---------------------------------------------------------------------------
# the linear-extension morphism

def suite_pi_kernel(max_weight: int = 5) -> list[CheckRow]:
    rows: list[CheckRow] = []
    forests = labeled_forests_up_to_weight(max_weight)

    ok = True
    n = 0
    for u in forests:
        for a in range(1, max_weight - u.weight + 1):
            if pi(forest(bplus(u, a))) != concat(pi(u), LinComb.term(word(a))):
                ok = False
            n += 1
    rows.append(CheckRow("pi/bplus-law", ok, f"{n} cases"))

    ok = True
    n = 0
    for u in forests:
        if not u.trees or u.weight >= max_weight:
            continue
        for v in labeled_forests_up_to_weight(max_weight - u.weight):
            if not v.trees:
                continue
            if pi(forest_mul(u, v)) != shuffle(pi(u), pi(v)):
                ok = False
            n += 1
    rows.append(CheckRow("pi/product-law", ok, f"{n} pairs"))

    ok = True
    n = 0
    for u in forests:
        lhs = LinComb.sum((lincomb_tensor(pi(t.parts[0]), pi(t.parts[1])), c)
                          for t, c in coproduct_forest(u).items())
        if lhs != pi(u).map_basis(deconcat):
            ok = False
        n += 1
    rows.append(CheckRow("pi/coalgebra-morphism", ok, f"{n} forests"))

    gens = kernel_generators(max_weight)
    ok = all(not pi(g) for g in gens)
    rows.append(CheckRow("pi/kernel-generators", ok, f"{len(gens)} generators"))

    ok = True
    n = 0
    for w in words_up_to_weight(max_weight):
        if not len(w):
            continue
        if pi(forest(labeled_ladder(w))) != LinComb.term(w):
            ok = False
        n += 1
    rows.append(CheckRow("pi/onto-ladders", ok, f"{n} words"))

    target = shuffle_target(range(1, max_weight + 1))
    ok = True
    n = 0
    for u in forests:
        if universal_cocycle_map(target, u) != pi(u):
            ok = False
        n += 1
    rows.append(CheckRow("pi/universal-cocycle-lift", ok, f"{n} forests"))

    return rows


# ---------------------------------------------------------------------------
# commuting diagrams

def suite_diagrams(max_weight: int = 4) -> list[CheckRow]:
    rows: list[CheckRow] = []
    for name, spec in DIAGRAMS.items():
        results = diagram_check(name, max_weight)
        agree = sum(1 for r in results if r.ok)
        detail = f"{agree}/{len(results)} probes agree"
        rows.append(CheckRow(f"diagram/{name}",
                             None if spec.report_only else agree == len(results),
                             detail))
    return rows


def hex_report_lines(max_weight: int) -> list[str]:
    """Probe-by-probe report for the report-only diagrams, golden-file stable."""
    lines = []
    for name in ("hex1", "hex2"):
        for r in diagram_check(name, max_weight):
            status = "agree" if r.ok else "differ"
            lines.append(f"{name} | {r.probe} | {status} | left={r.left} | right={r.right}")
    return lines


# ---------------------------------------------------------------------------
# Hall axioms and the frame identity

def suite_prop53(max_weight: int = 5) -> list[CheckRow]:
    rows: list[CheckRow] = []

    for n in range(1, max_weight + 1):
        rows.append(CheckRow(f"frame/prop53-weight-{n}", prop53_check(n),
                             "word-by-word"))

    beta = betaU()
    ok = True
    n = 0
    for u in labeled_forests_up_to_weight(max_weight):
        if len(u.trees) >= 2:
            if beta(u):
                ok = False
            n += 1
    rows.append(CheckRow("frame/betaU-kills-proper-forests", ok, f"{n} forests"))

    ok = True
    n = 0
    for u in labeled_forests_up_to_weight(max_weight):
        if alphaU(u) != alphaU_word_sum(u):
            ok = False
        n += 1
    rows.append(CheckRow("frame/alphaU-two-routes", ok, f"{n} forests"))

    ok = True
    n = 0
    for w in words_up_to_weight(max_weight):
        if not len(w):
            continue
        if frame_coefficient(w) != iterated_integral(w):
            ok = False
        n += 1
    rows.append(CheckRow("frame/coefficient-vs-integral", ok, f"{n} words"))

    for name, ok in hall_axiom_report(max_weight):
        rows.append(CheckRow(f"hall/axiom-{name}", ok, f"weight <= {max_weight}"))

    return rows


# ---------------------------------------------------------------------------
# suite registry

SUITES: dict[str, Callable[[int], list[CheckRow]]] = {
    "hopf-axioms": lambda n: suite_hopf_axioms(n, n, n, n),
    "duality": suite_duality,
    "pi-kernel": suite_pi_kernel,
    "diagrams": suite_diagrams,
    "prop53": suite_prop53,
}


def run_suite(name: str, max_weight: int) -> list[CheckRow]:
    if name == "all":
        rows: list[CheckRow] = []
        for key in SUITES:
            rows.extend(SUITES[key](max_weight))
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](max_weight)
