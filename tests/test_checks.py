"""The duality suite against the scan it replaced, the failure reports of
the Hopf-axiom, duality, pi-kernel and prop53 suites (with its Hall-axiom
rows), and the Hopf axioms of every algebra in the registry."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from hopftrees import checks, lyndon_hall, singular_frame
from hopftrees.algebra import LinComb, Tensor
from hopftrees.checks import CheckRow, suite_duality, suite_pi_kernel, suite_prop53
from hopftrees.tree_hopf import (ck_antipode, ck_product, coproduct_forest, gl_coproduct,
                                 gl_product)
from hopftrees.trees import (EMPTY_FOREST, RootedTree, bplus, enumerate_forests,
                             enumerate_planar_forests, enumerate_planar_trees,
                             enumerate_trees, forest, forest_mul,
                             labeled_forests_of_weight, ladder, leaf)
from hopftrees.words import word, words_up_to_weight
from oracles import (ck_gl_pairing, coproduct_vs_product_scan, product_vs_coproduct_scan,
                     splice_at)


# ---------------------------------------------------------------------------
# oracle: every pairing evaluated by scanning both supports


def _pair_tensor(x, y, d: LinComb) -> Fraction:
    total = Fraction(0)
    for t, c in d.items():
        total += c * ck_gl_pairing(x, t.parts[0]) * ck_gl_pairing(y, t.parts[1])
    return total


def _scan_duality_rows(tag, trees_of, forests_of, max_degree):
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


def _scan_suite_duality(max_degree):
    rows = _scan_duality_rows(
        "unlabeled",
        lambda d: enumerate_trees(d + 1),
        lambda d: enumerate_forests(d),
        max_degree)
    rows += _scan_duality_rows(
        "labeled",
        lambda d: [bplus(f) for f in labeled_forests_of_weight(d)],
        lambda d: labeled_forests_of_weight(d),
        max_degree)
    return rows


def test_duality_lookup_matches_the_scan():
    got = suite_duality(3)
    want = _scan_suite_duality(3)
    assert [(r.name, r.passed, r.detail) for r in got] == \
        [(r.name, r.passed, r.detail) for r in want]
    assert all(r.passed for r in got)


# ---------------------------------------------------------------------------
# a broken kernel is caught and named


def test_broken_product_names_the_counterexample(monkeypatch):
    def drop_first_term(x, y):
        p = gl_product(x, y)
        if len(p) < 2:
            return p
        t, c = p.sorted_items()[0]
        return p - LinComb.term(t, c)

    monkeypatch.setattr(checks, "gl_product", drop_first_term)
    rows = {r.name: r for r in suite_duality(2)}
    broken = rows["duality/unlabeled-product-vs-coproduct"]
    assert broken.passed is False
    assert broken.detail == (
        "first failure at pairing 7: x=[[]], y=[[]], f=[] []: "
        "<x o y, f> = 0, <x (x) y, cop f> = 2")
    assert rows["duality/labeled-product-vs-coproduct"].passed is False
    assert rows["duality/unlabeled-coproduct-vs-product"].passed is True
    assert rows["duality/labeled-coproduct-vs-product"].passed is True


def test_broken_coproduct_names_the_counterexample(monkeypatch):
    def drop_first_term(x):
        d = gl_coproduct(x)
        t, c = d.sorted_items()[0]
        return d - LinComb.term(t, c)

    monkeypatch.setattr(checks, "gl_coproduct", drop_first_term)
    rows = {r.name: r for r in suite_duality(1)}
    broken = rows["duality/unlabeled-coproduct-vs-product"]
    assert broken.passed is False
    assert broken.detail == (
        "first failure at pairing 0: x=[], u=I, v=I: "
        "<cop x, u (x) v> = 0, <x, uv> = 1")
    assert rows["duality/unlabeled-product-vs-coproduct"].passed is True


# ---------------------------------------------------------------------------
# the support route reports what the triple scan reports


def _drop_first_product_term(x, y):
    p = gl_product(x, y)
    if len(p) < 2:
        return p
    t, c = p.sorted_items()[0]
    return p - LinComb.term(t, c)


def _drop_first_coproduct_term(x):
    d = gl_coproduct(x)
    t, c = d.sorted_items()[0]
    return d - LinComb.term(t, c)


def _over_a_ladder(label, trees):
    """The tree with this root label over one ladder of every vertex label
    of trees, or None when trees is empty."""
    def labels(t):
        return [t.label] + [a for c in t.children for a in labels(c)]

    below = [a for t in trees for a in labels(t)]
    return RootedTree(label, (ladder(len(below), below),)) if below else None


def _add_a_ladder_product_term(x, y):
    # a term of x o y that is not there: the ladder over all non-root vertices
    p = gl_product(x, y)
    extra = _over_a_ladder(y.label, x.children + y.children)
    return p if extra is None or p.coeff(extra) else p + LinComb.term(extra)


def _add_a_ladder_coproduct_term(x):
    # a split of x that is not there: the ladder over its branches (x) its root
    d = gl_coproduct(x)
    top = _over_a_ladder(x.label, x.children)
    extra = top and Tensor((top, leaf(x.label)))
    return d if extra is None or d.coeff(extra) else d + LinComb.term(extra)


KERNELS = {
    "exact": (gl_product, gl_coproduct),
    "dropped-term": (_drop_first_product_term, _drop_first_coproduct_term),
    "spurious-term": (_add_a_ladder_product_term, _add_a_ladder_coproduct_term),
}


def _duality_bases(labeled, max_degree):
    if labeled:
        return ([[bplus(f) for f in labeled_forests_of_weight(d)] for d in range(max_degree + 1)],
                [labeled_forests_of_weight(d) for d in range(max_degree + 1)])
    return ([enumerate_trees(d + 1) for d in range(max_degree + 1)],
            [enumerate_forests(d) for d in range(max_degree + 1)])


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_the_support_route_reports_what_the_triple_scan_reports(monkeypatch, kernel, labeled):
    product, coproduct = KERNELS[kernel]
    monkeypatch.setattr(checks, "gl_product", product)
    monkeypatch.setattr(checks, "gl_coproduct", coproduct)
    trees, forests = _duality_bases(labeled, 4)
    got = [checks._product_vs_coproduct(trees, forests),
           checks._coproduct_vs_product(trees, forests)]
    assert got == [product_vs_coproduct_scan(trees, forests, product),
                   coproduct_vs_product_scan(trees, forests, coproduct)]
    failures = [failure for _, failure in got]
    if kernel == "exact":
        assert failures == [None, None]
    else:
        assert None not in failures
    if kernel == "spurious-term":
        # the left side is nonzero at a triple whose right side is 0
        assert all(failure.endswith(" = 0") and "> = 0," not in failure
                   for failure in failures)


def test_a_pi_that_drops_a_term_is_named(monkeypatch):
    right = checks.pi

    def drop_first_term(x):
        p = right(x)
        if len(p) < 2:
            return p
        t, c = p.sorted_items()[0]
        return p - LinComb.term(t, c)

    monkeypatch.setattr(checks, "pi", drop_first_term)
    rows = {r.name: r for r in suite_pi_kernel(3)}
    assert rows["pi/product-law"].passed is False
    assert rows["pi/product-law"].detail == (
        "first failure at pair 1: u=f1, v=f2: "
        "pi(uv) = 1*f2.f1, pi(u) sh pi(v) = 1*f1.f2 + 1*f2.f1")
    assert rows["pi/universal-cocycle-lift"].detail == (
        "first failure at forest 6: u=f1 f2: "
        "cocycle lift = 1*f1.f2 + 1*f2.f1, pi(u) = 1*f2.f1")
    assert rows["pi/coalgebra-morphism"].passed is False
    assert rows["pi/bplus-law"] == CheckRow("pi/bplus-law", True, "8 cases")


def test_a_pi_with_an_extra_term_fails_every_pi_row_by_name(monkeypatch):
    right = checks.pi
    monkeypatch.setattr(checks, "pi", lambda x: right(x) + LinComb.term(word(1)))
    rows = {r.name: r for r in suite_pi_kernel(3)}
    assert len(rows) == 6
    assert all(r.passed is False for r in rows.values())
    assert rows["pi/bplus-law"].detail == (
        "first failure at case 0: u=I, a=1: pi(B+_a(u)) = 2*f1, pi(u).a = 1*f1 + 1*f1.f1")
    assert rows["pi/kernel-generators"].detail == (
        "first failure at generator 0: g=1*f1 f1 + -2*f1[f1]: pi(g) = 1*f1, expected = 0")
    assert rows["pi/onto-ladders"].detail == (
        "first failure at word 0: w=f1: pi(ladder(w)) = 2*f1, w = 1*f1")


def test_a_wrong_alphaU_is_named_by_the_two_routes_row(monkeypatch):
    right = singular_frame._alphaU_tree
    monkeypatch.setattr(singular_frame, "_alphaU_tree",
                        lambda t: right(t) + (1 if t.size == 2 else 0))
    rows = {r.name: r for r in suite_prop53(3)}
    assert rows["frame/alphaU-two-routes"] == CheckRow(
        "frame/alphaU-two-routes", False,
        "first failure at forest 4: u=f1[f1]: alphaU(u) = 3/2, extension sum = 1/2")


def test_a_nonzero_betaU_on_a_proper_forest_is_named(monkeypatch):
    right = checks.betaU

    def leaky_beta():
        beta = right()
        return lambda u: beta(u) + (Fraction(1, 7) if u.weight == 3 else 0)

    monkeypatch.setattr(checks, "betaU", leaky_beta)
    rows = {r.name: r for r in suite_prop53(3)}
    assert rows["frame/betaU-kills-proper-forests"] == CheckRow(
        "frame/betaU-kills-proper-forests", False,
        "first failure at forest 1: u=f1 f2: betaU(u) = 1/7, expected = 0")


def test_a_wrong_iterated_integral_is_named(monkeypatch):
    right = checks.iterated_integral
    monkeypatch.setattr(checks, "iterated_integral",
                        lambda w: right(w) * (2 if len(w) == 3 else 1))
    rows = {r.name: r for r in suite_prop53(3)}
    assert rows["frame/coefficient-vs-integral"] == CheckRow(
        "frame/coefficient-vs-integral", False,
        "first failure at word 6: w=f1.f1.f1: frame coefficient = 1/6, iterated integral = 1/3")
    assert rows["frame/alphaU-two-routes"] == CheckRow(
        "frame/alphaU-two-routes", True, "13 forests")


SMALL_FORESTS = [f for n in range(4) for f in enumerate_forests(n)]


def _hopf_rows_by_splicing(tag, elements, cop, antipode, product, unit_elem):
    """The Hopf-axiom rows with each side built as whole LinCombs: splice_at
    for coassociativity, LinComb.sum over the splits for the antipode law
    (the route checks._hopf_rows took before it summed each side in one
    dict)."""

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
        checks._agreement_row(f"hopf/{tag}-coassoc", "element",
                              ("(cop (x) id) cop u", "(id (x) cop) cop u"), coassoc()),
        checks._agreement_row(f"hopf/{tag}-counit", "element",
                              ("(eps (x) id) cop u", "u", "(id (x) eps) cop u"), counit()),
        checks._agreement_row(f"hopf/{tag}-antipode", "element",
                              ("m(S (x) id) cop u", "eps(u) 1", "m(id (x) S) cop u"),
                              antipode_law()),
    ]


def test_a_wrong_antipode_is_named_with_both_sides_and_the_expected_unit():
    args = ("ck", SMALL_FORESTS, coproduct_forest, LinComb.lift, ck_product, EMPTY_FOREST)
    rows = checks._hopf_rows(*args)
    assert rows == _hopf_rows_by_splicing(*args)
    assert rows == [
        CheckRow("hopf/ck-coassoc", True, "8 elements"),
        CheckRow("hopf/ck-counit", True, "8 elements"),
        CheckRow("hopf/ck-antipode", False,
                 "first failure at element 1: u=[]: m(S (x) id) cop u = 2*[], "
                 "eps(u) 1 = 0, m(id (x) S) cop u = 2*[]"),
    ]


def test_a_wrong_coproduct_is_named_with_both_sides():
    def no_unit_on_the_left(u):
        d = coproduct_forest(u)
        return d - LinComb.term(Tensor((EMPTY_FOREST, u))) if u.trees else d

    args = ("ck", SMALL_FORESTS, no_unit_on_the_left, ck_antipode, ck_product, EMPTY_FOREST)
    rows = checks._hopf_rows(*args)
    assert rows == _hopf_rows_by_splicing(*args)
    assert all(r.passed is False for r in rows)
    assert rows[0].detail == (
        "first failure at element 2: u=[] []: "
        "(cop (x) id) cop u = 2*[] (x) I (x) [] + 2*[] (x) [] (x) I + 1*[] [] (x) I (x) I, "
        "(id (x) cop) cop u = 2*[] (x) [] (x) I + 1*[] [] (x) I (x) I")
    assert rows[1].detail == (
        "first failure at element 1: u=[]: (eps (x) id) cop u = 0, u = 1*[], "
        "(id (x) eps) cop u = 1*[]")
    assert rows[2].detail == (
        "first failure at element 1: u=[]: m(S (x) id) cop u = -1*[], eps(u) 1 = 0, "
        "m(id (x) S) cop u = 1*[]")


# each registry entry's basis up to 4 vertices, or words and compositions up
# to weight 4
REGISTRY_BASES = {
    "ck": [f for n in range(5) for f in enumerate_forests(n)],
    "foissy": [f for n in range(5) for f in enumerate_planar_forests(n)],
    "gl": [t for n in range(1, 5) for t in enumerate_trees(n)],
    "planar": [t for n in range(1, 5) for t in enumerate_planar_trees(n)],
    "shuffle": words_up_to_weight(4),
    "qshuffle": words_up_to_weight(4),
    "qsym": words_up_to_weight(4),
}


def _registry_rows(name, alg):
    """The Hopf-axiom rows of one entry, on its basis read back through the
    entry's own printer and parser."""
    basis = [alg.parse(alg.fmt(x)) for x in REGISTRY_BASES[name]]
    assert basis == REGISTRY_BASES[name]
    return checks._hopf_rows(name, basis, alg.coproduct, alg.antipode, alg.product,
                             alg.unit)


def test_every_registry_entry_has_a_basis():
    assert set(REGISTRY_BASES) == set(checks.ALGEBRAS)


@pytest.mark.parametrize("name", sorted(checks.ALGEBRAS))
def test_every_registered_algebra_satisfies_the_hopf_axioms(name):
    rows = _registry_rows(name, checks.ALGEBRAS[name])
    assert [r.name for r in rows] == [f"hopf/{name}-{law}"
                                      for law in ("coassoc", "counit", "antipode")]
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


@pytest.mark.parametrize("name", sorted(checks.ALGEBRAS))
def test_the_rows_equal_the_splicing_route_on_every_registry_basis(name):
    alg = checks.ALGEBRAS[name]
    args = (name, REGISTRY_BASES[name], alg.coproduct, alg.antipode, alg.product, alg.unit)
    assert checks._hopf_rows(*args) == _hopf_rows_by_splicing(*args)


@pytest.mark.parametrize("name", sorted(checks.ALGEBRAS))
def test_the_rows_call_each_kernel_once_per_distinct_argument(name):
    # cop and antipode once per basis element, product once per split and side
    alg, basis = checks.ALGEBRAS[name], REGISTRY_BASES[name]
    cops, antipodes, products = Counter(), Counter(), []

    def cop(u):
        cops[u] += 1
        return alg.coproduct(u)

    def antipode(u):
        antipodes[u] += 1
        return alg.antipode(u)

    def product(a, b):
        products.append((a, b))
        return alg.product(a, b)

    rows = checks._hopf_rows(name, basis, cop, antipode, product, alg.unit)
    assert rows == checks._hopf_rows(name, basis, alg.coproduct, alg.antipode, alg.product,
                                     alg.unit)
    splits = [t.parts for u in basis for t, _ in alg.coproduct(u).items()]
    parts = {x for split in splits for x in split}
    assert set(cops.values()) == set(antipodes.values()) == {1}
    assert set(cops) == set(basis) | parts and set(antipodes) == parts
    assert len(products) == 2 * len(set(splits))


def test_qsym_with_the_shuffle_antipode_fails_only_its_antipode_row():
    wrong = dataclasses.replace(checks.ALGEBRAS["qsym"],
                                antipode=checks.ALGEBRAS["shuffle"].antipode)
    assert [r.passed for r in _registry_rows("qsym", wrong)] == [True, True, False]


def test_a_failing_prop53_row_names_the_word_and_both_coefficients(monkeypatch):
    right = singular_frame._alphaU_tree
    monkeypatch.setattr(singular_frame, "_alphaU_tree",
                        lambda t: right(t) + (1 if t.size == 2 else 0))
    rows = {r.name: r for r in suite_prop53(3)}
    assert rows["frame/prop53-weight-2"] == CheckRow(
        "frame/prop53-weight-2", True, "word-by-word")
    assert rows["frame/prop53-weight-3"] == CheckRow(
        "frame/prop53-weight-3", False,
        "first failure: w=f1.f2: frame series = 1/3, exp(Hall representation) = 4/3")


def test_a_rejected_letter_fails_the_hall_axioms_by_name(monkeypatch):
    right = lyndon_hall.is_hall_tree
    monkeypatch.setattr(lyndon_hall, "is_hall_tree", lambda t: t != leaf(2) and right(t))
    rows = {r.name: r for r in suite_prop53(4)}
    assert rows["hall/axiom-letters"] == CheckRow(
        "hall/axiom-letters", False, "first failure: t=f2")
    assert rows["hall/axiom-closure"] == CheckRow(
        "hall/axiom-closure", False,
        "first failure: t=f2[f1], is_hall_tree(t)=True, decomposition rule=False")
    assert rows["hall/axiom-total-order"] == CheckRow(
        "hall/axiom-total-order", True, "weight <= 4")


def test_pi_kernel_case_counts_at_weight_six():
    rows = suite_pi_kernel(6)
    assert [(r.name, r.passed, r.detail) for r in rows] == [
        ("pi/bplus-law", True, "166 cases"),
        ("pi/product-law", True, "478 pairs"),
        ("pi/coalgebra-morphism", True, "332 forests"),
        ("pi/kernel-generators", True, "272 generators"),
        ("pi/onto-ladders", True, "63 words"),
        ("pi/universal-cocycle-lift", True, "332 forests"),
    ]


def test_one_wrong_pi_image_fails_the_rows_that_read_it(monkeypatch):
    # the rows share one image per forest, yet each compares it with a second
    # route, so a wrong image of f1[f2] (read root first) cannot pass unseen
    right = checks.pi
    wrong = forest(bplus(forest(leaf(2)), 1))
    monkeypatch.setattr(checks, "pi", lambda x: (LinComb.term(word(1, 2)) if x == wrong
                                                 else right(x)))
    rows = {r.name: r for r in suite_pi_kernel(4)}
    assert rows["pi/product-law"] == CheckRow(
        "pi/product-law", False,
        "first failure at pair 6: u=f1, v=f1[f2]: pi(uv) = 1*f1.f2.f1 + 2*f2.f1.f1, "
        "pi(u) sh pi(v) = 2*f1.f1.f2 + 1*f1.f2.f1")
    assert rows["pi/coalgebra-morphism"] == CheckRow(
        "pi/coalgebra-morphism", False,
        "first failure at forest 7: u=f1[f2]: (pi (x) pi)(cop u) = "
        "1*1 (x) f1.f2 + 1*f2 (x) f1 + 1*f1.f2 (x) 1, deconcat(pi(u)) = "
        "1*1 (x) f1.f2 + 1*f1 (x) f2 + 1*f1.f2 (x) 1")
    assert rows["pi/universal-cocycle-lift"].passed is False
    assert "u=f1[f2]" in rows["pi/universal-cocycle-lift"].detail
    assert rows["pi/kernel-generators"].passed is True


def test_the_diagrams_suite_decomposes_each_symmetric_element_once(monkeypatch):
    from collections import Counter

    from hopftrees import clear_caches, morphisms

    def counted_suite():
        # suite_diagrams(6)'s rows, its sym_e_decompose calls per element,
        # and the number of elements solved during it
        calls, decompose = Counter(), morphisms.sym_e_decompose
        before = morphisms._e_decompose.cache_info().misses

        def counted_decompose(x):
            calls[frozenset(x.items())] += 1
            return decompose(x)

        monkeypatch.setattr(morphisms, "sym_e_decompose", counted_decompose)
        rows = checks.suite_diagrams(6)
        monkeypatch.undo()
        return rows, calls, morphisms._e_decompose.cache_info().misses - before

    clear_caches()
    rows, calls, solved = counted_suite()
    assert (sum(calls.values()), len(calls)) == (184, 52)
    assert solved == len(calls) == morphisms._e_decompose.cache_info().currsize
    again, calls_again, solved_again = counted_suite()
    assert (again, calls_again, solved_again) == (rows, calls, 0)
    clear_caches()
    assert counted_suite() == (rows, calls, 52)
