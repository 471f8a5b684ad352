"""Lyndon words, Hall trees, Hall polynomials, and the PBW basis."""

import hashlib
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopftrees.algebra import LinComb
from hopftrees.linsolve import exact_rank, span_solver
from hopftrees.lyndon_hall import (
    HallForest,
    alpha_key,
    expand_shuffle_monomial,
    foliage_word,
    hall_axiom_counterexamples,
    hall_axiom_report,
    hall_forest,
    hall_forests,
    hall_polynomial,
    hall_set,
    hall_tree_of_lyndon,
    is_hall_tree,
    is_lyndon,
    lyndon_factorize,
    lyndon_generate,
    lyndon_poly_decompose,
    lyndon_words,
    pbw_element,
    shuffle_monomial,
    word_less,
    xi,
)
from hopftrees.lyndon_hall import _standard_split
from hopftrees.morphisms import pi
from hopftrees.trees import Forest, bplus, forest, leaf
from hopftrees.words import (
    Word,
    concat,
    lie_bracket,
    word,
    words_of_weight,
    words_up_to_weight,
)
from oracles import is_lie_polynomial

small_words = st.sampled_from([w for w in words_up_to_weight(5) if w.letters])


def test_letter_order_reverses_the_indices():
    assert word_less(word(2), word(1))
    assert word_less(word(3), word(2))
    assert not word_less(word(1), word(1))
    assert not word_less(word(1), word(2))


def test_word_order_examples():
    assert word_less(word(2, 1), word(1))
    assert word_less(word(1, 1), word(1, 1, 2))
    assert word_less(word(1, 2), word(1, 1))


@given(small_words, small_words)
def test_word_order_is_a_strict_total_order(u, v):
    assert word_less(u, v) == (alpha_key(u) < alpha_key(v))
    assert not (word_less(u, v) and word_less(v, u))
    assert (u == v) == (not word_less(u, v) and not word_less(v, u))


def test_lyndon_words_by_weight():
    assert [w for w in lyndon_generate(2) if w.weight == 2] == [word(2)]
    weight3 = sorted(
        (w for w in lyndon_generate(3) if w.weight == 3), key=alpha_key)
    assert weight3 == [word(3), word(2, 1)]
    weight4 = sorted(
        (w for w in lyndon_generate(4) if w.weight == 4), key=alpha_key)
    assert weight4 == [word(4), word(3, 1), word(2, 1, 1)]


def test_lyndon_counts_per_weight():
    per_weight = [
        sum(1 for w in lyndon_generate(6) if w.weight == n) for n in range(1, 7)
    ]
    assert per_weight == [1, 1, 2, 3, 6, 9]


def _bracket_monomials(max_weight):
    """Every full bracketing of every composition: an independent spanning
    set of the free Lie algebra in each weight."""
    monos = {}
    for n in range(1, max_weight + 1):
        out = [LinComb.term(word(n))]
        for k in range(1, n):
            for x in monos[k]:
                for y in monos[n - k]:
                    out.append(lie_bracket(x, y))
        monos[n] = out
    return monos


def test_lyndon_counts_match_brute_force_free_lie_ranks():
    monos = _bracket_monomials(6)
    for n in range(1, 7):
        rank = exact_rank(monos[n])
        count = sum(1 for w in lyndon_generate(6) if w.weight == n)
        assert rank == count


@given(small_words)
def test_lyndon_factorization(w):
    factors = lyndon_factorize(w)
    assert all(is_lyndon(f) for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert not word_less(a, b)
    total = LinComb.term(Word(()))
    for f in factors:
        total = concat(total, f)
    assert total == LinComb.term(w)


# ---------------------------------------------------------------------------
# greedy oracles for the prenecklace generator and Duval's factorization


def _greedy_factorize(w):
    """Longest Lyndon prefix first, tested letter by letter."""
    factors = []
    rest = w
    while len(rest):
        j = max(j for j in range(1, len(rest) + 1) if is_lyndon(rest[:j]))
        factors.append(rest[:j])
        rest = rest[j:]
    return factors


def _greedy_standard_split(w):
    return min(j for j in range(1, len(w)) if is_lyndon(w[j:]))


@pytest.mark.parametrize("n", range(1, 13))
def test_lyndon_generate_matches_the_filter_over_all_words(n):
    expected = [w for k in range(1, n + 1)
                for w in words_of_weight(k) if is_lyndon(w)]
    expected.sort(key=lambda w: (w.weight, alpha_key(w)))
    assert lyndon_generate(n) == expected


def _sort_all_lyndon(max_weight):
    """The Lyndon words of weight <= max_weight by one prenecklace search
    over every weight at once, then a sort by (weight, alpha): the oracle
    for the stream, which yields them in that order with no sort."""
    out = []
    stack = [((a,), 1, a) for a in range(1, max_weight + 1)]
    while stack:
        letters, p, weight = stack.pop()
        t = len(letters)
        if p == t:
            out.append(Word(letters))
        ref = letters[t - p]
        for b in range(1, min(ref, max_weight - weight) + 1):
            stack.append((letters + (b,), p if b == ref else t + 1, weight + b))
    out.sort(key=lambda w: (w.weight, alpha_key(w)))
    return out


@pytest.mark.parametrize("n", range(1, 17))
def test_lyndon_stream_matches_the_sort_all_oracle(n):
    expected = _sort_all_lyndon(n)
    assert list(lyndon_words(n)) == expected
    assert lyndon_generate(n) == expected


def test_lyndon_stream_digest_matches_the_oracle_at_weight_18():
    def digest(ws):
        return hashlib.sha256("".join(f"{w}\n" for w in ws).encode()).hexdigest()

    assert digest(lyndon_words(18)) == digest(_sort_all_lyndon(18))


@pytest.mark.parametrize("n", [14, 18])
def test_lyndon_stream_holds_no_list(n):
    # under 2 KB at both weights; lyndon_generate peaks at 265 KB at 14
    tracemalloc.start()
    try:
        for _ in lyndon_words(n):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak


@given(st.lists(st.integers(1, 4), min_size=1, max_size=10))
def test_duval_factorization_matches_greedy(letters):
    w = Word(letters)
    assert lyndon_factorize(w) == _greedy_factorize(w)
    if len(w) > 1 and is_lyndon(w):
        assert _standard_split(w) == _greedy_standard_split(w)


def test_standard_split_matches_greedy_on_every_lyndon_word():
    for w in lyndon_generate(10):
        if len(w) > 1:
            assert _standard_split(w) == _greedy_standard_split(w), w


def test_lyndon_suffix_characterization():
    assert is_lyndon(word(2, 1))
    assert not is_lyndon(word(1, 1))
    assert not is_lyndon(word(1, 2))
    assert is_lyndon(word(5))


def test_hall_tree_of_a_two_letter_lyndon_word():
    t = hall_tree_of_lyndon(word(2, 1))
    assert t.tree == bplus(forest(leaf(1)), 2)
    assert t.foliage == word(2, 1)
    assert t.std_decomp is not None
    left, right = t.std_decomp
    assert left.tree == leaf(2) and right.tree == leaf(1)


def test_hall_tree_with_a_repeated_branch():
    t = hall_tree_of_lyndon(word(2, 1, 1))
    assert t.tree == bplus(forest(leaf(1), leaf(1)), 2)
    left, right = t.std_decomp
    assert left.foliage == word(2, 1)
    assert right.foliage == word(1)


def test_foliage_round_trips_through_the_hall_tree():
    for w in lyndon_generate(6):
        t = hall_tree_of_lyndon(w)
        assert t.foliage == w
        assert foliage_word(t.tree) == w
        assert is_hall_tree(t.tree)


def test_hall_set_counts_match_lyndon_counts():
    for n in range(1, 7):
        trees = hall_set(n)
        words = lyndon_generate(n)
        assert len(trees) == len(words)
        assert {t.foliage for t in trees} == set(words)


def test_hall_order_agrees_with_foliage_order():
    # a Hall forest lists its factors in nonincreasing Hall order, the
    # alphabetical order of the foliages read off the trees
    trees = hall_set(5)
    for s in trees:
        assert foliage_word(s.tree) == s.foliage
        for t in trees:
            want = (s, t) if word_less(t.foliage, s.foliage) else (t, s)
            assert hall_forest(s, t).factors == want


def test_hall_axioms_hold_through_weight_five():
    report = hall_axiom_report(5)
    assert report, "empty report"
    for name, ok in report:
        assert ok, f"axiom {name} failed"


def test_hall_axiom_report_reads_the_counterexamples():
    for n in range(1, 8):
        found = hall_axiom_counterexamples(n)
        assert [name for name, _ in found] == [
            "total-order", "letters", "closure", "branch-dominance"]
        assert all(failure is None for _, failure in found)
        assert hall_axiom_report(n) == [(name, True) for name, _ in found]


def test_xi_is_injective_on_small_hall_forests():
    seen = {}
    for n in range(1, 5):
        for u in hall_forests(n):
            image = xi(u)
            assert image not in seen, (u, seen[image])
            seen[image] = u


def _hall_forests_by_backtracking(weight):
    """Hall forests by a backtracking scan of the Hall set in decreasing Hall
    order, which keeps each forest's factors nonincreasing."""
    pool = sorted(hall_set(weight), key=lambda t: alpha_key(t.foliage), reverse=True)
    out = []

    def build(start, remaining, acc):
        if remaining == 0:
            out.append(HallForest(tuple(acc)))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.weight <= remaining:
                acc.append(t)
                build(i, remaining - t.weight, acc)
                acc.pop()

    build(0, weight, [])
    return out


def test_hall_forests_match_the_backtracking_oracle():
    for n in range(0, 11):
        got = hall_forests(n)
        want = _hall_forests_by_backtracking(n)
        assert len(got) == len(want) == max(1, 2 ** (n - 1))
        assert Counter(got) == Counter(want)


def test_xi_of_a_single_tree_is_that_tree():
    for t in hall_set(4):
        assert xi(hall_forest(t)) == t.tree


def test_hall_polynomial_base_cases():
    t = hall_tree_of_lyndon(word(1))
    assert hall_polynomial(t) == LinComb.term(word(1))
    t = hall_tree_of_lyndon(word(2, 1))
    assert hall_polynomial(t) == LinComb.term(word(1, 2)) - LinComb.term(word(2, 1))


def test_hall_polynomial_bracket_orientation_flips_the_sign():
    t = hall_tree_of_lyndon(word(2, 1))
    assert _lie_oracle(t, "lr") == -hall_polynomial(t)


def test_hall_polynomials_are_lie_elements():
    for t in hall_set(5):
        assert is_lie_polynomial(hall_polynomial(t))


def test_biorthogonality_with_the_linear_extension_morphism():
    # <E(t), pi(s)> = |sym(s)| when s == t, else 0, for Hall trees of equal weight
    from hopftrees.trees import sym_order

    for n in range(1, 5):
        trees = [t for t in hall_set(n) if t.weight == n]
        for s in trees:
            for t in trees:
                got = hall_polynomial(t).functional(pi(Forest((s.tree,))).coeff)
                want = sym_order(s.tree) if s.tree == t.tree else 0
                assert got == want


def test_pbw_elements_span_each_weight_exactly():
    for n in range(1, 6):
        forests_n = hall_forests(n)
        assert len(forests_n) == 2 ** (n - 1)
        vectors = [pbw_element(u) for u in forests_n]
        assert exact_rank(vectors) == 2 ** (n - 1)


def test_pbw_element_of_a_forest_multiplies_in_decreasing_order():
    t1 = hall_tree_of_lyndon(word(1))
    t2 = hall_tree_of_lyndon(word(2))
    u = hall_forest(t1, t2)
    got = pbw_element(u)
    # the minimal Hall factor peels off on the left: f2 < f1 here
    assert got == concat(word(2), word(1))


def _lie_oracle(t, bracket):
    """E(t) by the lie_bracket recursion on LinCombs of words: [E(t2), E(t1)]
    for bracket "rl", the flipped [E(t1), E(t2)] for "lr"."""
    if t.std_decomp is None:
        return LinComb.term(t.foliage)
    t1, t2 = t.std_decomp
    p1, p2 = _lie_oracle(t1, bracket), _lie_oracle(t2, bracket)
    return lie_bracket(p2, p1) if bracket == "rl" else lie_bracket(p1, p2)


def _flip_sign(t, bracket):
    """The sign that turns E(t) into its form under bracket: flipping each of
    the len(foliage) - 1 brackets of E(t) flips its sign."""
    return 1 if bracket == "rl" else (-1) ** (len(t.foliage) - 1)


def _assert_words_are_whole(x):
    for w, _ in x.items():
        assert type(w) is Word and w == Word(w.letters) and w.weight == sum(w.letters)


@pytest.mark.parametrize("bracket", ["rl", "lr"])
def test_hall_polynomials_match_the_lie_bracket_recursion_through_weight_eight(bracket):
    for t in hall_set(8):
        got = hall_polynomial(t)
        assert got.scale(_flip_sign(t, bracket)) == _lie_oracle(t, bracket), t
        _assert_words_are_whole(got)


@pytest.mark.parametrize("bracket", ["rl", "lr"])
def test_pbw_elements_match_the_concat_product_through_weight_eight(bracket):
    for n in range(9):
        for u in hall_forests(n):
            want, sign = LinComb.term(Word(())), 1
            for t in reversed(u.factors):
                want = concat(want, _lie_oracle(t, bracket))
                sign *= _flip_sign(t, bracket)
            got = pbw_element(u)
            assert got.scale(sign) == want, u
            _assert_words_are_whole(got)


def _expand(p):
    """The shuffle-algebra element of a polynomial in Lyndon words."""
    return LinComb.sum((expand_shuffle_monomial(m), c) for m, c in p.items())


def test_lyndon_polynomial_decomposition_examples():
    x = LinComb.term(word(1, 2))
    decomp = lyndon_poly_decompose(x)
    assert _expand(decomp) == x
    mono = shuffle_monomial(word(1), word(2))
    assert decomp.coeff(mono) == 1
    assert decomp.coeff(shuffle_monomial(word(2, 1))) == -1

    y = LinComb.term(word(1, 1))
    decomp = lyndon_poly_decompose(y)
    assert _expand(decomp) == y
    from fractions import Fraction

    assert decomp.coeff(shuffle_monomial(word(1), word(1))) == Fraction(1, 2)


@given(st.sampled_from(words_up_to_weight(4)))
def test_lyndon_decomposition_round_trips(w):
    x = LinComb.term(w)
    assert _expand(lyndon_poly_decompose(x)) == x


def test_hall_polynomials_of_one_weight_are_independent():
    for n in range(1, 6):
        polys = [hall_polynomial(t) for t in hall_set(n) if t.weight == n]
        assert exact_rank(polys) == len(polys)
        # and they solve uniquely inside the span
        if polys:
            target = polys[0]
            coords = span_solver(polys)(target)
            assert coords is not None
            assert coords[0] == 1
            assert all(c == 0 for c in coords[1:])
