"""The duality suite against the scan it replaced, and its failure reports."""

from fractions import Fraction

from hopftrees import checks
from hopftrees.algebra import LinComb
from hopftrees.checks import CheckRow, suite_duality
from hopftrees.tree_hopf import (ck_gl_pairing, coproduct_forest, gl_coproduct,
                                 gl_product)
from hopftrees.trees import (bplus, enumerate_forests, enumerate_trees,
                             forest_mul, labeled_forests_of_weight)


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
