"""Named verification suites over exhaustive basis ranges.

Each suite returns a list of CheckRow results; a row with passed=None is
informational (report-only) and never fails a run.  The suites back the
``check`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import LinComb, Tensor, lincomb_tensor, splice_at
from .lyndon_hall import hall_axiom_counterexamples
from .morphisms import DIAGRAMS, diagram_check, kernel_generators, pi
from .singular_frame import (alphaU, alphaU_extension_sum, betaU, frame_coefficient,
                             iterated_integral, prop53_counterexample)
from .tree_hopf import (ck_antipode, ck_gl_dual, ck_product, coproduct_forest,
                        cocycle_lift, gl_coproduct, gl_product, shuffle_target)
from .trees import (EMPTY_FOREST, EMPTY_PLANAR_FOREST, bplus,
                    enumerate_forests, enumerate_planar_forests, enumerate_trees,
                    forest, forest_mul, labeled_forests_of_weight,
                    labeled_forests_up_to_weight, labeled_ladder, sym_order)
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


def _agreement_row(name: str, unit: str, sides: tuple[str, ...],
                   cases: Iterable[tuple]) -> CheckRow:
    """A row over (case, value, value, ...) tuples, one value per side and
    a case mapping names to values: the row passes with the number of
    cases, or stops at the first case whose values differ and names it and
    every side.  Cases are formatted only on failure."""
    n = 0
    for case, *values in cases:
        if any(v != values[0] for v in values[1:]):
            named = ", ".join(f"{k}={v}" for k, v in case.items())
            shown = ", ".join(f"{side} = {v}" for side, v in zip(sides, values))
            return CheckRow(name, False, f"first failure at {unit} {n}: {named}: {shown}")
        n += 1
    return CheckRow(name, True, f"{n} {unit}s")


# ---------------------------------------------------------------------------
# generic Hopf-axiom machinery

def _hopf_rows(tag: str, elements: Sequence, cop, antipode, product,
               unit_elem) -> list[CheckRow]:
    """Coassociativity, the counit laws and the antipode law on each
    element; a failing row names the element and every side."""

    def coassoc():
        for u in elements:
            d = cop(u)
            yield {"u": u}, splice_at(d, 0, cop), splice_at(d, 1, cop)

    def counit():
        for u in elements:
            splits = [(t.parts, c) for t, c in cop(u).items()]
            yield ({"u": u}, LinComb((b, c) for (a, b), c in splits if a == unit_elem),
                   LinComb.term(u), LinComb((a, c) for (a, b), c in splits if b == unit_elem))

    def antipode_law():
        for u in elements:
            splits = [(LinComb.term(t.parts[0]), LinComb.term(t.parts[1]), c)
                      for t, c in cop(u).items()]
            yield ({"u": u}, LinComb.sum((product(antipode(a), b), c) for a, b, c in splits),
                   LinComb.term(unit_elem) if u == unit_elem else LinComb.zero(),
                   LinComb.sum((product(a, antipode(b)), c) for a, b, c in splits))

    return [
        _agreement_row(f"hopf/{tag}-coassoc", "element",
                       ("(cop (x) id) cop u", "(id (x) cop) cop u"), coassoc()),
        _agreement_row(f"hopf/{tag}-counit", "element",
                       ("(eps (x) id) cop u", "u", "(id (x) eps) cop u"), counit()),
        _agreement_row(f"hopf/{tag}-antipode", "element",
                       ("m(S (x) id) cop u", "eps(u) 1", "m(id (x) S) cop u"),
                       antipode_law()),
    ]


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
    rows += _hopf_rows("foissy", ordered, coproduct_forest,
                       ck_antipode, ck_product, EMPTY_PLANAR_FOREST)

    return rows


# ---------------------------------------------------------------------------
# duality of the attachment and cut structures

def _product_vs_coproduct(trees: list, forests: list) -> tuple[int, str | None]:
    """<x o y, f> = <x (x) y, cop f>, each side one coefficient lookup.

    Only B+_a(f), a the root label of y, pairs with f on the left; only
    strip(x) (x) strip(y) pairs with x (x) y on the right.  Returns the
    number of triples that agree before the first failure, and that
    failure (None if every triple agrees).
    """
    n = 0
    for d, fs in enumerate(forests):
        syms = [sym_order(f) for f in fs]
        cops = [coproduct_forest(f) for f in fs]
        grafted: dict = {}
        for d1 in range(d + 1):
            for x in trees[d1]:
                ux, sx = ck_gl_dual(x)
                for y in trees[d - d1]:
                    uy, sy = ck_gl_dual(y)
                    p = gl_product(x, y)
                    key, sxy = Tensor((ux, uy)), sx * sy
                    if y.label not in grafted:
                        grafted[y.label] = [bplus(f, y.label) for f in fs]
                    for f, bf, sf, df in zip(fs, grafted[y.label], syms, cops):
                        a, b = p.coeff(bf), df.coeff(key)
                        if (a or b) and a * sf != b * sxy:
                            return n, (f"x={x}, y={y}, f={f}: <x o y, f> = {a * sf}, "
                                       f"<x (x) y, cop f> = {b * sxy}")
                        n += 1
    return n, None


def _coproduct_vs_product(trees: list, forests: list) -> tuple[int, str | None]:
    """<cop x, u (x) v> = <x, uv>, each side one coefficient lookup.

    Only B+_a(u) (x) B+_a(v), a the root label of x, pairs with u (x) v on
    the left; x pairs only with strip(x) on the right.  Returns as
    _product_vs_coproduct does.
    """
    n = 0
    for d in range(len(forests)):
        pairs = [(u, v, sym_order(u) * sym_order(v), forest_mul(u, v))
                 for d1 in range(d + 1) for u in forests[d1] for v in forests[d - d1]]
        keys: dict = {}
        for x in trees[d]:
            ux, sx = ck_gl_dual(x)
            dx = gl_coproduct(x)
            if x.label not in keys:
                keys[x.label] = [Tensor((bplus(u, x.label), bplus(v, x.label)))
                                 for u, v, _, _ in pairs]
            for (u, v, suv, uv), key in zip(pairs, keys[x.label]):
                a = dx.coeff(key)
                rhs = sx if uv == ux else 0
                if (a or rhs) and a * suv != rhs:
                    return n, (f"x={x}, u={u}, v={v}: <cop x, u (x) v> = {a * suv}, "
                               f"<x, uv> = {rhs}")
                n += 1
    return n, None


def _duality_rows(tag: str, trees_of: Callable[[int], Sequence],
                  forests_of: Callable[[int], Sequence],
                  max_degree: int) -> list[CheckRow]:
    trees = [trees_of(d) for d in range(max_degree + 1)]
    forests = [forests_of(d) for d in range(max_degree + 1)]
    rows = []
    for name, side in (("product-vs-coproduct", _product_vs_coproduct),
                       ("coproduct-vs-product", _coproduct_vs_product)):
        n, failure = side(trees, forests)
        detail = (f"{n} pairings" if failure is None
                  else f"first failure at pairing {n}: {failure}")
        rows.append(CheckRow(f"duality/{tag}-{name}", failure is None, detail))
    return rows


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
    """pi against concatenation, shuffle, deconcatenation, zero, ladder words
    and the cocycle lift.  Each forest's image is computed once, kept for
    this call only, and read by every row; the kernel row applies pi to each
    generator as a whole."""
    forests = labeled_forests_up_to_weight(max_weight)
    images = {u: pi(u) for u in forests}

    def bplus_law():
        for u in forests:
            for a in range(1, max_weight - u.weight + 1):
                yield ({"u": u, "a": a}, images[forest(bplus(u, a))],
                       concat(images[u], LinComb.term(word(a))))

    def product_law():
        for u in forests:
            if not u.trees or u.weight >= max_weight:
                continue
            for v in labeled_forests_up_to_weight(max_weight - u.weight):
                if v.trees:
                    yield ({"u": u, "v": v}, images[forest_mul(u, v)],
                           shuffle(images[u], images[v]))

    def coalgebra_morphism():
        for u in forests:
            lhs = LinComb.sum((lincomb_tensor(images[t.parts[0]], images[t.parts[1]]), c)
                              for t, c in coproduct_forest(u).items())
            yield {"u": u}, lhs, images[u].map_basis(deconcat)

    lift = cocycle_lift(shuffle_target(range(1, max_weight + 1)))
    return [
        _agreement_row("pi/bplus-law", "case", ("pi(B+_a(u))", "pi(u).a"),
                       bplus_law()),
        _agreement_row("pi/product-law", "pair", ("pi(uv)", "pi(u) sh pi(v)"),
                       product_law()),
        _agreement_row("pi/coalgebra-morphism", "forest",
                       ("(pi (x) pi)(cop u)", "deconcat(pi(u))"), coalgebra_morphism()),
        _agreement_row("pi/kernel-generators", "generator", ("pi(g)", "expected"),
                       (({"g": g}, pi(g), LinComb.zero())
                        for g in kernel_generators(max_weight))),
        _agreement_row("pi/onto-ladders", "word", ("pi(ladder(w))", "w"),
                       (({"w": w}, images[forest(labeled_ladder(w))], LinComb.term(w))
                        for w in words_up_to_weight(max_weight) if len(w))),
        _agreement_row("pi/universal-cocycle-lift", "forest",
                       ("cocycle lift", "pi(u)"),
                       (({"u": u}, lift(u), images[u]) for u in forests)),
    ]


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
        failure = prop53_counterexample(n)
        detail = "word-by-word"
        if failure is not None:
            w, series, exponential = failure
            detail = (f"first failure: w={w}: frame series = {series}, "
                      f"exp(Hall representation) = {exponential}")
        rows.append(CheckRow(f"frame/prop53-weight-{n}", failure is None, detail))

    forests = labeled_forests_up_to_weight(max_weight)
    beta = betaU()
    rows.append(_agreement_row(
        "frame/betaU-kills-proper-forests", "forest", ("betaU(u)", "expected"),
        (({"u": u}, beta(u), 0) for u in forests if len(u.trees) >= 2)))

    extension_sum = alphaU_extension_sum()
    rows.append(_agreement_row(
        "frame/alphaU-two-routes", "forest", ("alphaU(u)", "extension sum"),
        (({"u": u}, alphaU(u), extension_sum(u)) for u in forests)))

    rows.append(_agreement_row(
        "frame/coefficient-vs-integral", "word", ("frame coefficient", "iterated integral"),
        (({"w": w}, frame_coefficient(w), iterated_integral(w))
         for w in words_up_to_weight(max_weight) if len(w))))

    for name, failure in hall_axiom_counterexamples(max_weight):
        detail = f"weight <= {max_weight}"
        if failure is not None:
            detail = "first failure: " + ", ".join(f"{k}={v}" for k, v in failure.items())
        rows.append(CheckRow(f"hall/axiom-{name}", failure is None, detail))

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


# The largest --max-weight each suite runs: the largest weight that ran in
# under 60 s and 512 MB peak RSS on a 2-core x86_64 machine (times in
# CHANGES.md).  "all" runs up to the smallest of them.
MAX_WEIGHTS: dict[str, int] = {"hopf-axioms": 8, "duality": 8, "pi-kernel": 8,
                               "diagrams": 9, "prop53": 11}


def run_suite(name: str, max_weight: int) -> list[CheckRow]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    ceiling = min(MAX_WEIGHTS[key] for key in names)
    if max_weight > ceiling:
        raise ValueError(f"suite {name!r} runs up to --max-weight {ceiling}, "
                         f"got {max_weight}")
    return [row for key in names for row in SUITES[key](max_weight)]
