"""Exact scalars: coefficients stay int until a division makes a Fraction.

Every structure constant of the cut, shuffle, quasi-shuffle,
deconcatenation and attachment algebras is an integer, so those kernels
must return int coefficients; rationals enter only through divisions
(frame integrals, beta^U/|sym|, elimination pivots), which yield Fractions.
A float is rejected wherever a coefficient enters.
"""

from fractions import Fraction

import pytest

from hopftrees.algebra import LinComb, as_fraction
from hopftrees.linsolve import exact_rank, span_solver
from hopftrees.singular_frame import alphaU, betaU, frame_coefficient, hall_representation
from hopftrees.tree_hopf import (ck_antipode, ck_product, coproduct_forest, gl_product,
                                 planar_diamond_antipode)
from hopftrees.trees import (enumerate_planar_forests, enumerate_planar_trees, enumerate_trees,
                             labeled_forests_up_to_weight, parse_forest, parse_tree)
from hopftrees.words import (ADDITIVE, ZERO, deconcat, quasi_shuffle, shuffle, word,
                             word_antipode, words_of_weight)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_lincomb_entry_points_reject_floats():
    y = LinComb.term("y", 3)
    with pytest.raises(TypeError):
        LinComb.term("x", 0.5)
    with pytest.raises(TypeError):
        LinComb([("x", 1.0)])
    with pytest.raises(TypeError):
        LinComb.sum([(y, 0.5)])
    with pytest.raises(TypeError):
        y.scale(0.5)


@pytest.mark.parametrize("run", [
    lambda basis, target: exact_rank(basis + [target]),
    lambda basis, target: span_solver(basis)(target),
], ids=["exact_rank", "span_solver"])
@pytest.mark.parametrize("basis, target", [
    ([{"a": 0.5}], {"a": 1}),
    ([{"a": 1}], {"a": 0.5}),
    ([{"a": 1, "b": 0.0}], {"a": 1}),
], ids=["float-in-basis", "float-in-target", "float-zero-in-basis"])
def test_elimination_rejects_float_coefficients(run, basis, target):
    with pytest.raises(TypeError):
        run(basis, target)


def test_as_fraction_keeps_exact_scalars_and_turns_bools_into_ints():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert type(as_fraction(7)) is int
    assert type(as_fraction(True)) is int and as_fraction(True) == 1
    assert type(LinComb.term("x", True).coeff("x")) is int


def _int_coefficients(x: LinComb) -> bool:
    return bool(x) and all(type(c) is int for _, c in x.items())


def _exact_coefficients(values) -> bool:
    return all(type(c) in (int, Fraction) for c in values)


def test_integer_kernels_return_int_coefficients():
    labeled = labeled_forests_up_to_weight(4)
    ordered = [f for n in range(5) for f in enumerate_planar_forests(n)]
    for u in labeled + ordered:
        assert _int_coefficients(coproduct_forest(u)), u
        assert _int_coefficients(ck_antipode(u)), u
    pairs = [(parse_forest("f1[f2] f3"), parse_forest("f2[f1,f1]")),
             (parse_forest("[[],[]]", planar=True), parse_forest("[[[]]] []", planar=True))]
    for u, v in pairs:
        assert _int_coefficients(ck_product(u, v))
    for a, b in [(word(1, 2), word(2, 1, 3)), (word(1, 1), word(1))]:
        assert _int_coefficients(shuffle(a, b))
        assert _int_coefficients(quasi_shuffle(a, b, ADDITIVE))
        assert _int_coefficients(quasi_shuffle(a, b, ZERO))
        assert _int_coefficients(deconcat(a))
        assert _int_coefficients(word_antipode(b, ADDITIVE))
        assert _int_coefficients(word_antipode(b, ZERO))
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for t in trees:
        for s in trees:
            assert _int_coefficients(gl_product(t, s)), (t, s)
    assert _int_coefficients(gl_product(parse_tree("f2[f1]"), parse_tree("f1[f3,f1]")))
    for t in [t for n in range(1, 5) for t in enumerate_planar_trees(n)]:
        assert _int_coefficients(planar_diamond_antipode(t)), t


def test_rational_results_are_int_or_fraction():
    assert _exact_coefficients(frame_coefficient(w) for n in range(1, 7)
                               for w in words_of_weight(n))
    assert _exact_coefficients(c for _, c in hall_representation(6).items())
    beta = betaU()
    forests = labeled_forests_up_to_weight(5)
    assert _exact_coefficients(alphaU(u) for u in forests)
    assert _exact_coefficients(beta(u) for u in forests)
    basis = [{"a": 2, "b": 1}, {"b": 3}, {"c": Fraction(1, 2)}]
    sol = span_solver(basis)({"a": 4, "b": 5, "c": 1})
    assert sol == [2, 1, 2] and _exact_coefficients(sol)
