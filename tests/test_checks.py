"""The duality suite against the scan it replaced, and the failure reports
of the Hopf-axiom, duality, pi-kernel and prop53 suites (with its Hall-axiom
rows)."""

from fractions import Fraction

from hopftrees import checks, lyndon_hall, singular_frame
from hopftrees.algebra import LinComb, Tensor
from hopftrees.checks import CheckRow, suite_duality, suite_pi_kernel, suite_prop53
from hopftrees.tree_hopf import (ck_antipode, ck_gl_pairing, ck_product,
                                 coproduct_forest, gl_coproduct, gl_product)
from hopftrees.trees import (EMPTY_FOREST, bplus, enumerate_forests, enumerate_trees,
                             forest, forest_mul, labeled_forests_of_weight, leaf)
from hopftrees.words import word


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


def test_a_wrong_antipode_is_named_with_both_sides_and_the_expected_unit():
    rows = checks._hopf_rows("ck", SMALL_FORESTS, coproduct_forest, LinComb.lift,
                             ck_product, EMPTY_FOREST)
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

    rows = checks._hopf_rows("ck", SMALL_FORESTS, no_unit_on_the_left, ck_antipode,
                             ck_product, EMPTY_FOREST)
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
