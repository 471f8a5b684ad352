"""The truncated universal singular frame: exact coefficients, alpha^U and
its logarithm beta^U, and the Hall-polynomial representation."""

import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial, prod
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopftrees import singular_frame, tree_hopf
from hopftrees.algebra import LinComb
from hopftrees.checks import suite_prop53
from hopftrees.linsolve import span_solver
from hopftrees.lyndon_hall import hall_polynomial, hall_set
from hopftrees.morphisms import eword_str
from hopftrees.singular_frame import (
    _JSON_BATCH,
    UnivariatePoly,
    _alphaU_tree,
    _frame_rows,
    alphaU,
    alphaU_extension_sum,
    betaU,
    exp_concat,
    frame_coefficient,
    frame_series,
    hall_representation,
    iterated_integral,
    prop53_check,
    prop53_counterexample,
)
from hopftrees.tree_hopf import char_log
from hopftrees.trees import (
    EMPTY_FOREST,
    bplus,
    extension_count,
    forest,
    labeled_forests_up_to_weight,
    labeled_ladder,
    leaf,
    linear_extensions,
    parse_forest,
    parse_tree,
    subtree_product,
)
from hopftrees.words import EMPTY_WORD, Word, concat, word, words_of_weight
from oracles import character, forest_log


def alphaU_word_sum(u):
    """Sum of frame coefficients over the linear extensions of u: the
    enumerating oracle for alpha^U, which lists every extension word."""
    if u == EMPTY_FOREST:
        return 1
    return sum(frame_coefficient(w) for w in linear_extensions(u))


rationals = st.fractions(max_denominator=6)
small_polys = st.lists(rationals, max_size=5).map(
    lambda cs: UnivariatePoly(tuple(cs)))


# ---------------------------------------------------------------------------
# exact polynomials


def test_poly_drops_trailing_zeros():
    assert UnivariatePoly((1, 0, 0)) == UnivariatePoly((1,))
    assert UnivariatePoly((0,)) == UnivariatePoly(())


def test_poly_const_and_eval():
    p = UnivariatePoly((Fraction(3, 2),))
    assert p.eval(7) == Fraction(3, 2)
    q = UnivariatePoly((1, 2, 3))  # 1 + 2x + 3x^2
    assert q.eval(2) == 17


def test_weighted_integral_of_a_monomial():
    # x^i -> x^(i+k) / (i+k)
    p = UnivariatePoly((0, 0, 1))  # x^2
    got = p.weighted_integral(3)
    assert got == UnivariatePoly((0, 0, 0, 0, 0, Fraction(1, 5)))


@given(small_polys, small_polys, rationals)
def test_poly_product_evaluates_pointwise(p, q, x):
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


@given(small_polys, small_polys, small_polys)
def test_poly_product_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


# ---------------------------------------------------------------------------
# frame coefficients


@pytest.mark.parametrize(
    "letters, value",
    [
        ((1,), Fraction(1)),
        ((2,), Fraction(1, 2)),
        ((1, 1), Fraction(1, 2)),
        ((1, 2), Fraction(1, 3)),
        ((2, 1), Fraction(1, 6)),
        ((1, 1, 1), Fraction(1, 6)),
        ((3, 2, 1), Fraction(1, 90)),
    ],
)
def test_frame_coefficient_spots(letters, value):
    assert frame_coefficient(word(*letters)) == value


def test_frame_coefficient_rejects_the_empty_word():
    with pytest.raises(ValueError, match="nonempty"):
        frame_coefficient(EMPTY_WORD)
    with pytest.raises(ValueError, match="nonempty"):
        iterated_integral(EMPTY_WORD)


def test_iterated_integral_matches_the_partial_sum_formula():
    for n in range(1, 7):
        for w in words_of_weight(n):
            assert iterated_integral(w) == frame_coefficient(w)


# ---------------------------------------------------------------------------
# alpha^U


def test_alphaU_on_the_empty_forest():
    assert alphaU(EMPTY_FOREST) == 1
    assert alphaU_word_sum(EMPTY_FOREST) == 1


def test_alphaU_on_single_vertices():
    for k in range(1, 7):
        assert alphaU(forest(leaf(k))) == Fraction(1, k)


def test_alphaU_on_a_labeled_ladder():
    t = labeled_ladder(word(1, 2))  # f2[f1]
    assert alphaU(forest(t)) == Fraction(1, 3)


def test_alphaU_agrees_with_the_linear_extension_sum():
    for u in labeled_forests_up_to_weight(5):
        assert alphaU(u) == alphaU_word_sum(u)


def test_alphaU_needs_labels():
    with pytest.raises(ValueError, match="labeled"):
        alphaU(forest(leaf()))


def test_alphaU_memo_keeps_rejecting_unlabeled_trees():
    half_labeled = bplus(forest(leaf()), 1)
    assert alphaU(forest(leaf(1))) == 1
    for _ in range(2):
        with pytest.raises(ValueError, match="labeled"):
            alphaU(forest(half_labeled))
        with pytest.raises(ValueError, match="labeled"):
            alphaU(forest(leaf(1), leaf()))


def test_extension_sum_matches_the_word_sum():
    alpha = alphaU_extension_sum()
    for u in labeled_forests_up_to_weight(7):
        assert alpha(u) == alphaU_word_sum(u), u


def test_extension_sum_matches_alphaU():
    alpha = alphaU_extension_sum()
    for u in labeled_forests_up_to_weight(9):
        assert alpha(u) == alphaU(u), u


def test_extension_sum_needs_labels():
    alpha = alphaU_extension_sum()
    assert alpha(forest(leaf(1))) == 1
    for _ in range(2):
        for u in (forest(leaf()), forest(bplus(forest(leaf()), 1)),
                  forest(leaf(1), leaf())):
            with pytest.raises(ValueError, match="labeled"):
                alpha(u)


def _tree_factorial_weight(t):
    """1 over the label weight of the subtree at each vertex, multiplied."""
    value = Fraction(1, t.weight)
    for c in t.children:
        value *= _tree_factorial_weight(c)
    return value


def test_alphaU_is_the_weighted_tree_factorial():
    for u in labeled_forests_up_to_weight(8):
        value = 1
        for t in u.trees:
            value *= _tree_factorial_weight(t)
        assert value == alphaU(u), u


def _alphaU_poly(t):
    """The integral recursion: the polynomial of t is the integral, against
    s^(label-1) ds, of the product of its children's polynomials."""
    if t.label is None:
        raise ValueError("alpha^U needs a fully labeled tree")
    g = UnivariatePoly((1,))
    for c in t.children:
        g = g * _alphaU_poly(c)
    return g.weighted_integral(t.label)


def test_alphaU_matches_the_integral_recursion():
    for u in labeled_forests_up_to_weight(8):
        value = 1
        for t in u.trees:
            value *= _alphaU_poly(t).eval(1)
        assert value == alphaU(u), u


def _subtrees(t):
    yield t
    for c in t.children:
        yield from _subtrees(c)


def test_subtree_product_gives_the_extension_count():
    size = attrgetter("size")
    for u in labeled_forests_up_to_weight(8):
        for t in u.trees:
            assert subtree_product(t, size) == prod(s.size for s in _subtrees(t)), t
        hooks = prod(subtree_product(t, size) for t in u.trees)
        assert extension_count(u) == factorial(u.size) // hooks, u


@pytest.mark.parametrize("text", ["[f1]", "f2[[],f1]"])
def test_alphaU_refuses_an_unlabeled_vertex_above_a_labeled_one(text):
    with pytest.raises(ValueError, match="labeled"):
        alphaU(forest(parse_tree(text)))


# ---------------------------------------------------------------------------
# beta^U


def test_betaU_spot_values():
    beta = betaU()
    assert beta(forest(leaf(1))) == 1
    assert beta(forest(leaf(2))) == Fraction(1, 2)
    assert beta(forest(leaf(1), leaf(1))) == 0
    hall_tree = bplus(forest(leaf(1)), 2)  # f2[f1]
    assert beta(forest(hall_tree)) == Fraction(1, 12)


def test_betaU_vanishes_on_proper_forests():
    beta = betaU()
    for u in labeled_forests_up_to_weight(4):
        if len(u.trees) >= 2:
            assert beta(u) == 0, f"beta^U nonzero on {u}"


def test_integer_betaU_matches_the_fraction_recursion_through_weight_eight():
    fast, oracle = betaU(), char_log(_alphaU_tree)
    for u in labeled_forests_up_to_weight(8):
        assert fast(u) == oracle(u), u


def test_integer_betaU_matches_the_generic_log_through_weight_six():
    fast, generic = betaU(), forest_log(alphaU)
    for u in labeled_forests_up_to_weight(6):
        assert fast(u) == generic(u), u


def test_betaU_values_do_not_depend_on_the_order_of_calls():
    # the heavy forest fills the memo at scale lcm(1..8) = 840 first; each
    # lighter forest has a smaller scale and must not read those entries
    heavy = forest(parse_tree("f2[f1, f3[f1]]"), leaf(1))
    lighter = sorted(labeled_forests_up_to_weight(7), key=attrgetter("weight"), reverse=True)
    oracle, fresh = char_log(_alphaU_tree), betaU()
    for u in [heavy] + lighter:
        assert fresh(u) == oracle(u), u


@pytest.mark.parametrize("text", ["[]", "f1 []", "[f1]", "f2[f1, []]"])
def test_betaU_refuses_a_forest_that_is_not_fully_labeled(text):
    beta = betaU()
    for _ in range(2):
        with pytest.raises(ValueError, match="fully labeled"):
            beta(parse_forest(text))
    assert beta(forest(leaf(2))) == Fraction(1, 2)


def test_betaU_refuses_tree_values_that_its_scale_does_not_clear(monkeypatch):
    right = _alphaU_tree
    monkeypatch.setattr(singular_frame, "_alphaU_tree", lambda t: right(t) / 7)
    with pytest.raises(ValueError, match="not an int at scale 1"):
        betaU()(forest(leaf(1)))


def test_char_log_of_alphaU_matches_the_generic_log():
    fast = char_log(_alphaU_tree)
    generic = forest_log(alphaU)
    for u in labeled_forests_up_to_weight(5):
        assert fast(u) == generic(u), u


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_char_log_of_a_random_character_matches_the_generic_log(seed):
    rng = random.Random(seed)
    trees = {t for u in labeled_forests_up_to_weight(4) for t in u.trees}
    values = {t: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for t in sorted(trees, key=str)}
    fast = char_log(lambda t: values.get(t, 0))
    generic = forest_log(character(values))
    for u in labeled_forests_up_to_weight(4):
        assert fast(u) == generic(u), u


def test_a_wrong_log_weight_fails_the_proper_forest_row(monkeypatch):
    right = tree_hopf._log_weight

    def wrong(n, j):
        return right(n, j) + (1 if (n, j) == (2, 2) else 0)

    name = "frame/betaU-kills-proper-forests"
    assert {r.name: r for r in suite_prop53(2)}[name].passed
    monkeypatch.setattr(tree_hopf, "_log_weight", wrong)
    assert not {r.name: r for r in suite_prop53(2)}[name].passed


# ---------------------------------------------------------------------------
# the series


def test_frame_series_weight_one():
    s = frame_series(1)
    assert json.loads("".join(s.json_chunks()))["terms"] == [
        {"word": [1], "coeff": "1", "v_pow": 1, "z_pow": -1}]
    assert list(s.iter_lines()) == ["1 * e(-1) v^1 z^-1"]


def test_frame_series_weight_two_structure():
    s = frame_series(2)
    assert json.loads("".join(s.json_chunks()))["terms"] == [
        {"word": [1], "coeff": "1", "v_pow": 1, "z_pow": -1},
        {"word": [2], "coeff": "1/2", "v_pow": 2, "z_pow": -1},
        {"word": [1, 1], "coeff": "1/2", "v_pow": 2, "z_pow": -2},
    ]
    assert list(s.iter_lines()) == [
        "1 * e(-1) v^1 z^-1", "1/2 * e(-2) v^2 z^-1", "1/2 * e(-1)e(-1) v^2 z^-2"]


def test_frame_series_term_counts():
    s = frame_series(5)
    terms = json.loads("".join(s.json_chunks()))["terms"]
    assert len(list(s.iter_lines())) == len(terms)
    for n in range(1, 6):
        assert sum(1 for t in terms if t["v_pow"] == n) == 2 ** (n - 1)


def test_frame_series_rejects_weight_zero():
    with pytest.raises(ValueError):
        frame_series(0)


def test_frame_series_json_shape():
    payload = json.loads("".join(frame_series(2).json_chunks()))
    assert payload["max_weight"] == 2
    assert payload["terms"][0] == {
        "word": [1], "coeff": "1", "v_pow": 1, "z_pow": -1}
    assert payload["terms"][2]["coeff"] == "1/2"


def test_frame_series_text_lines():
    lines = list(frame_series(2).iter_lines())
    assert lines[0] == "1 * e(-1) v^1 z^-1"
    assert lines[2] == "1/2 * e(-1)e(-1) v^2 z^-2"


def _word_route(max_weight):
    """The series built term by term from Word and frame_coefficient, as
    (word, coefficient) pairs, with its JSON through json.dumps and its
    text lines through eword_str."""
    terms = [(w, frame_coefficient(w))
             for n in range(1, max_weight + 1) for w in words_of_weight(n)]
    payload = {"max_weight": max_weight,
               "terms": [{"word": list(w.letters), "coeff": str(c),
                          "v_pow": w.weight, "z_pow": -len(w)} for w, c in terms]}
    lines = [f"{c} * {eword_str(w)} v^{w.weight} z^-{len(w)}" for w, c in terms]
    return terms, json.dumps(payload, separators=(",", ":")), lines


@pytest.mark.parametrize("n", range(1, 11))
def test_frame_rows_match_the_word_route(n):
    # the one row source both streams read: each word in series order, as
    # its text from the given per-letter pieces, its weight, its length
    # and 1 over its coefficient
    terms, _, _ = _word_route(n)
    pieces = [f"{a}." for a in range(n + 1)]
    last_pieces = [f"{a}" for a in range(n + 1)]
    assert list(_frame_rows(n, pieces, last_pieces)) == [
        (".".join(map(str, w.letters)), w.weight, len(w), 1 / c) for w, c in terms]


def test_frame_json_peak_memory_stays_within_eight_times_its_length():
    tracemalloc.start()
    try:
        text = "".join(frame_series(14).json_chunks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text), (peak, len(text))


@pytest.mark.parametrize("n", range(1, 15))
def test_frame_streams_match_the_word_route(n):
    _, text, lines = _word_route(n)
    s = frame_series(n)
    chunks = list(s.json_chunks())
    assert "".join(chunks) == text
    assert len(chunks) == 2 + -(-(2 ** n - 1) // _JSON_BATCH)
    assert list(s.iter_lines()) == lines


def _stream_peak(stream) -> int:
    """The tracemalloc peak while stream is consumed and dropped piece by piece."""
    tracemalloc.start()
    try:
        for _ in stream:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [12, 15])
def test_frame_streams_hold_one_batch_at_any_weight(n):
    # about 0.7 MB for json and 0.2-0.4 MB for lines at both weights; at 15,
    # a list of the lines peaks at 3.9 MB, and the json built as one list at 9.2 MB
    s = frame_series(n)
    assert _stream_peak(s.json_chunks()) < 1_500_000
    assert _stream_peak(s.iter_lines()) < 1_500_000


# ---------------------------------------------------------------------------
# the Hall representation


def test_hall_representation_through_weight_three():
    rep = hall_representation(3)
    by_foliage = {t.foliage: c for t, c in rep.items()}
    assert by_foliage == {
        word(1): Fraction(1),
        word(2): Fraction(1, 2),
        word(3): Fraction(1, 3),
        word(2, 1): Fraction(1, 12),
    }


def _truncate(x, max_weight):
    return x.graded_part(lambda w: w.weight, max_weight)


def _log_concat(x, max_weight):
    # log(1 + y) = sum (-1)^(k+1) y^k / k in the concatenation algebra
    y = x - LinComb.term(EMPTY_WORD)
    out = LinComb.zero()
    power = LinComb.term(EMPTY_WORD)
    for k in range(1, max_weight + 1):
        power = _truncate(concat(power, y), max_weight)
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def test_hall_representation_solves_the_frame_logarithm():
    n = 4
    series = LinComb.term(EMPTY_WORD)
    for k in range(1, n + 1):
        for w in words_of_weight(k):
            series = series + LinComb.term(w, frame_coefficient(w))
    target = _log_concat(series, n)
    trees = hall_set(n)
    coords = span_solver([hall_polynomial(t) for t in trees])(target)
    assert coords is not None
    rep = hall_representation(n)
    assert coords == [rep.coeff(t) for t in trees]


def test_exp_concat_small_case():
    got = exp_concat(LinComb.term(word(1)), 3)
    want = (
        LinComb.term(EMPTY_WORD)
        + LinComb.term(word(1))
        + LinComb.term(word(1, 1), Fraction(1, 2))
        + LinComb.term(word(1, 1, 1), Fraction(1, 6))
    )
    assert got == want


def _exp_concat_by_full_products(x, max_weight):
    # the untruncated route: build each full concatenation, then cut by weight
    out = LinComb.term(EMPTY_WORD)
    power = LinComb.term(EMPTY_WORD)
    for k in range(1, max_weight + 1):
        power = _truncate(concat(power, x), max_weight)
        out = out + power.scale(Fraction(1, factorial(k)))
    return out


positive_words = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(Word)


@given(st.lists(st.tuples(positive_words, rationals), max_size=5).map(LinComb),
       st.integers(1, 6))
def test_exp_concat_matches_the_full_product_route(x, max_weight):
    assert exp_concat(x, max_weight) == _exp_concat_by_full_products(x, max_weight)


def test_exp_concat_rejects_constant_terms():
    with pytest.raises(ValueError, match="weight zero"):
        exp_concat(LinComb.term(EMPTY_WORD), 3)


def test_exponential_identity_holds_by_weight():
    assert all(prop53_check(n) for n in range(1, 5))


def _flipped_hall_polynomial(t):
    """E(t) bracketed as [E(t1), E(t2)] in place of [E(t2), E(t1)]: each of
    its len(foliage) - 1 brackets flips sign."""
    return hall_polynomial(t).scale((-1) ** (len(t.foliage) - 1))


def test_flipped_bracket_orientation_fails_at_weight_three():
    rep = LinComb.sum((_flipped_hall_polynomial(t), c)
                      for t, c in hall_representation(3).items())
    exp = exp_concat(rep, 3)
    differ = [w for n in range(1, 4) for w in words_of_weight(n)
              if exp.coeff(w) != frame_coefficient(w)]
    assert differ and all(w.weight == 3 for w in differ)


def test_prop53_counterexample_names_a_word_and_both_coefficients(monkeypatch):
    assert all(prop53_counterexample(n) is None for n in range(1, 5))
    monkeypatch.setattr(singular_frame, "hall_polynomial", _flipped_hall_polynomial)
    assert prop53_counterexample(2) is None
    w, series, exponential = prop53_counterexample(3)
    assert w.weight == 3
    assert series == frame_coefficient(w)
    assert series != exponential
