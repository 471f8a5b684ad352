"""Shuffle and quasi-shuffle words, antipodes, and the Hoffman isomorphism."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopftrees import clear_caches, words
from hopftrees.algebra import LinComb, ParseError, Tensor, recursive_antipode
from hopftrees.words import (
    ADDITIVE,
    EMPTY_WORD,
    MAX_CONTRACTION_LETTERS,
    ZERO,
    Word,
    bracket_letters,
    compositions,
    concat,
    deconcat,
    hoffman_psi,
    hoffman_tau,
    lie_bracket,
    parse_word,
    psi_star,
    quasi_shuffle,
    shuffle,
    tau_star,
    word,
    word_antipode,
    words_of_weight,
    words_up_to_weight,
)
from hopftrees.lyndon_hall import lyndon_generate
from hopftrees.morphisms import pi, qsym_product
from hopftrees.trees import parse_forest
from oracles import dual_delta, is_lie_polynomial, splice_at

small_words = st.sampled_from(words_up_to_weight(4))
pairings = st.sampled_from([ZERO, ADDITIVE])


def lc(*letter_tuples):
    return sum((LinComb.term(word(*ls)) for ls in letter_tuples), LinComb.zero())


def test_word_basics():
    w = word(1, 2)
    assert w.weight == 3
    assert str(w) == "f1.f2"
    assert str(EMPTY_WORD) == "1"


def test_words_of_weight_come_in_sort_key_order():
    for n in range(0, 13):
        ws = words_of_weight(n)
        assert ws == sorted(ws, key=lambda w: w.sort_key())


def test_words_of_weight_counts_compositions():
    for n in range(1, 7):
        assert len(words_of_weight(n)) == 2 ** (n - 1)
        assert len(list(compositions(n))) == 2 ** (n - 1)
    assert len(words_up_to_weight(5)) == 1 + 1 + 2 + 4 + 8 + 16


def test_parse_word_round_trip_and_errors():
    assert parse_word("f1.f2.f1") == word(1, 2, 1)
    assert parse_word("1") == EMPTY_WORD
    with pytest.raises(ParseError, match="letter index must be positive"):
        parse_word("f0")
    with pytest.raises(ParseError):
        parse_word("f1..f2")


def test_shuffle_splits_letters():
    assert shuffle(word(1), word(2)) == lc((1, 2), (2, 1))
    assert shuffle(word(1), word(2, 1)) == lc((1, 2, 1)) + LinComb.term(
        word(2, 1, 1), 2)


def test_quasi_shuffle_merges_letters_additively():
    assert quasi_shuffle(word(1), word(1), ADDITIVE) == LinComb.term(
        word(1, 1), 2) + lc((2,))
    assert quasi_shuffle(word(1), word(1), ZERO) == LinComb.term(word(1, 1), 2)


@given(small_words, pairings)
def test_empty_word_is_the_unit(w, pairing):
    assert quasi_shuffle(w, EMPTY_WORD, pairing) == LinComb.term(w)
    assert quasi_shuffle(EMPTY_WORD, w, pairing) == LinComb.term(w)


@given(small_words, small_words, pairings)
def test_quasi_shuffle_is_commutative(u, v, pairing):
    assert quasi_shuffle(u, v, pairing) == quasi_shuffle(v, u, pairing)


@settings(deadline=None)
@given(small_words, small_words, small_words, pairings)
def test_quasi_shuffle_is_associative(u, v, w, pairing):
    left = quasi_shuffle(quasi_shuffle(u, v, pairing), w, pairing)
    right = quasi_shuffle(u, quasi_shuffle(v, w, pairing), pairing)
    assert left == right


def test_deconcat_lists_prefix_splits():
    got = deconcat(word(1, 2))
    want = (
        LinComb.term(Tensor((EMPTY_WORD, word(1, 2))))
        + LinComb.term(Tensor((word(1), word(2))))
        + LinComb.term(Tensor((word(1, 2), EMPTY_WORD)))
    )
    assert got == want
    assert deconcat(EMPTY_WORD) == LinComb.term(Tensor((EMPTY_WORD, EMPTY_WORD)))


@given(small_words)
def test_deconcat_is_coassociative(w):
    d = deconcat(w)
    assert splice_at(d, 0, deconcat) == splice_at(d, 1, deconcat)


def test_antipode_small_cases():
    assert word_antipode(word(1), ZERO) == LinComb.term(word(1), -1)
    assert word_antipode(word(1), ADDITIVE) == LinComb.term(word(1), -1)
    assert word_antipode(word(1, 2), ZERO) == LinComb.term(word(2, 1))
    assert word_antipode(word(1, 1), ADDITIVE) == lc((1, 1), (2,))


def _antipode_by_recursion(w, pairing):
    """The defining recursion: the antipode law over deconcatenation and the
    quasi-shuffle, solved for S(w)."""
    if w == EMPTY_WORD:
        return LinComb.term(w)
    return recursive_antipode(w, deconcat, lambda x, y: quasi_shuffle(x, y, pairing),
                              lambda v: _antipode_by_recursion(v, pairing), EMPTY_WORD)


@given(small_words, pairings)
def test_antipode_closed_form_matches_recursion(w, pairing):
    assert word_antipode(w, pairing) == _antipode_by_recursion(w, pairing)


def test_contractions_refuse_a_word_over_the_limit_before_enumerating(monkeypatch):
    counted = []

    def one_composition(n):
        # stands in for the 2^(n-1) compositions, so the limit is tested by count
        counted.append(n)
        return iter([(1,) * n])

    monkeypatch.setattr(words, "compositions", one_composition)
    limit = Word((1,) * MAX_CONTRACTION_LETTERS)
    assert MAX_CONTRACTION_LETTERS == 20
    assert word_antipode(limit, ADDITIVE) == LinComb.term(limit)
    assert counted == [20]
    for contract in (lambda w: word_antipode(w, ADDITIVE), hoffman_tau, hoffman_psi):
        with pytest.raises(ValueError, match="a word of 21 letters, with 2\\^20 contractions"):
            contract(LinComb.term(word(1)) + LinComb.term(Word((1,) * 21)))
    assert counted == [20]


def test_zero_bracket_contractions_refuse_no_length():
    w = Word(tuple(range(1, 31)))
    assert word_antipode(w, ZERO) == LinComb.term(Word(w.letters[::-1]))
    assert hoffman_tau(w, ZERO) == LinComb.term(w)


@given(small_words, pairings)
def test_antipode_convolution_law(w, pairing):
    total = LinComb.zero()
    for t, c in deconcat(w).items():
        u, v = t.parts
        total = total + quasi_shuffle(word_antipode(u, pairing), v, pairing).scale(c)
    unit = LinComb.term(EMPTY_WORD) if w == EMPTY_WORD else LinComb.zero()
    assert total == unit


@given(small_words, pairings)
def test_antipode_is_an_involution(w, pairing):
    # both products are commutative, so S has order two
    once = word_antipode(w, pairing)
    twice = LinComb.zero()
    for v, c in once.items():
        twice = twice + word_antipode(v, pairing).scale(c)
    assert twice == LinComb.term(w)


def test_hoffman_tau_contracts_blocks():
    assert hoffman_tau(word(1, 1)) == lc((1, 1)) + LinComb.term(
        word(2), Fraction(1, 2))
    assert hoffman_tau(EMPTY_WORD) == LinComb.term(EMPTY_WORD)


@given(small_words)
def test_hoffman_round_trip(w):
    assert hoffman_psi(hoffman_tau(w)) == LinComb.term(w)
    assert hoffman_tau(hoffman_psi(w)) == LinComb.term(w)


@given(small_words, small_words)
def test_tau_turns_shuffles_into_quasi_shuffles(u, v):
    assert hoffman_tau(shuffle(u, v)) == quasi_shuffle(
        hoffman_tau(u), hoffman_tau(v), ADDITIVE)


def test_dual_delta_examples():
    d = dual_delta(word(2), ADDITIVE)
    assert d.coeff(Tensor((word(1), word(1)))) == 1
    assert d.coeff(Tensor((EMPTY_WORD, word(2)))) == 1
    d0 = dual_delta(word(2), ZERO)
    assert d0.coeff(Tensor((word(1), word(1)))) == 0


@given(small_words, pairings)
def test_dual_delta_is_adjoint_to_the_product(w, pairing):
    d = dual_delta(w, pairing)
    for u in words_up_to_weight(w.weight):
        for v in words_up_to_weight(w.weight - u.weight):
            assert d.coeff(Tensor((u, v))) == quasi_shuffle(u, v, pairing).coeff(w)


def test_tau_star_small_cases():
    assert tau_star(word(1)) == LinComb.term(word(1))
    assert tau_star(word(2)) == lc((2,)) + LinComb.term(word(1, 1), Fraction(1, 2))
    assert psi_star(tau_star(word(3))) == LinComb.term(word(3))


@given(small_words)
def test_dual_hoffman_round_trip(w):
    assert psi_star(tau_star(w)) == LinComb.term(w)
    assert tau_star(psi_star(w)) == LinComb.term(w)


def test_lie_bracket_and_primitivity():
    b = lie_bracket(word(1), word(2))
    assert b == lc((1, 2)) - lc((2, 1))
    assert is_lie_polynomial(b)
    assert not is_lie_polynomial(LinComb.term(word(1, 2)))
    assert is_lie_polynomial(lie_bracket(b, word(1)))


@given(small_words, small_words)
def test_concat_then_counit(u, v):
    # the counit, the coefficient of the empty word, is multiplicative
    w = concat(u, v)
    assert w.coeff(EMPTY_WORD) == (1 if u == EMPTY_WORD and v == EMPTY_WORD else 0)


@given(st.lists(st.integers(1, 40), max_size=8).map(Word))
def test_word_strings_round_trip(w):
    assert parse_word(str(w)) == w


@lru_cache(maxsize=None)
def _qshuffle_by_recursion(w1, w2, pairing):
    """Hoffman's recursion on first letters, one memoized call per suffix
    pair: a.u * b.v = a(u * b.v) + b(a.u * v) + [a,b](u * v)."""
    if not w1.letters:
        return LinComb.term(w2)
    if not w2.letters:
        return LinComb.term(w1)
    a, u = w1.letters[0], w1[1:]
    b, v = w2.letters[0], w2[1:]
    branches = [(a, _qshuffle_by_recursion(u, w2, pairing)),
                (b, _qshuffle_by_recursion(w1, v, pairing))]
    merged = bracket_letters(a, b, pairing)
    if merged is not None:
        branches.append((merged, _qshuffle_by_recursion(u, v, pairing)))
    return LinComb((Word((first,) + t.letters), c)
                   for first, rest in branches for t, c in rest.items())


def test_quasi_shuffle_matches_recursion_up_to_weight_5():
    ws = words_up_to_weight(5)
    for pairing in (ZERO, ADDITIVE):
        for u in ws:
            for v in ws:
                assert quasi_shuffle(u, v, pairing) == _qshuffle_by_recursion(u, v, pairing), (u, v)


random_words = st.lists(st.integers(1, 9), max_size=7).map(Word)


@settings(deadline=None)
@given(random_words, random_words, pairings)
@example(Word((2, 2, 2)), Word((2, 2)), ADDITIVE)
@example(Word((1, 3, 1)), Word((2, 1, 1, 2)), ADDITIVE)
@example(EMPTY_WORD, Word((5, 5, 1)), ZERO)
def test_quasi_shuffle_matches_recursion_on_random_words(u, v, pairing):
    assert quasi_shuffle(u, v, pairing) == _qshuffle_by_recursion(u, v, pairing)


def test_quasi_shuffle_memo_keeps_one_entry_per_product():
    clear_caches()
    quasi_shuffle(word(1, 2, 3, 4, 5, 6), word(6, 1, 5, 2, 4, 3))
    assert words._qshuffle.cache_info().currsize == 1


def _assert_well_formed(w):
    assert type(w.letters) is tuple
    assert w.weight == sum(w.letters)
    assert w == Word(w.letters) and hash(w) == hash(Word(w.letters))


def test_words_from_the_unchecked_constructor_are_well_formed():
    u, v = word(3, 1, 2, 1), word(2, 2, 1)
    outputs = [shuffle(u, v), qsym_product(u, v), word_antipode(u, ZERO),
               word_antipode(u, ADDITIVE), pi(parse_forest("f1[f2,f3] f4 f2[f1]"))]
    found = [w for x in outputs for w, _ in x.items()]
    found += [w for t, _ in deconcat(u).items() for w in t.parts]
    found += words_of_weight(6) + lyndon_generate(7)
    assert len(found) > 100
    for w in found:
        _assert_well_formed(w)


@pytest.mark.parametrize("letter", [0, -2, 1.5, "1"])
def test_word_constructor_refuses_a_bad_letter(letter):
    with pytest.raises(ValueError, match="letters must be positive integers"):
        Word((letter,))


@pytest.mark.parametrize("letter", [True, False])
def test_word_constructor_refuses_a_bool_letter(letter):
    with pytest.raises(ValueError, match=f"letters must be positive integers, got {letter}"):
        Word((letter,))


def _dual_delta_by_scan(w, pairing):
    """delta(w*) read off a quasi-shuffle of every pair of words of
    complementary weight: the oracle for the direct reading."""
    return LinComb((Tensor((u, v)), quasi_shuffle(u, v, pairing).coeff(w))
                   for a in range(w.weight + 1)
                   for u in words_of_weight(a)
                   for v in words_of_weight(w.weight - a))


def test_dual_delta_matches_the_quasi_shuffle_scan_through_weight_seven():
    ws = words_up_to_weight(7)
    assert len(ws) == 128
    for pairing in (ZERO, ADDITIVE):
        for w in ws:
            assert dual_delta(w, pairing) == _dual_delta_by_scan(w, pairing), (w, pairing)


def test_dual_delta_refuses_an_unknown_pairing_on_every_word():
    for w in (EMPTY_WORD, word(2, 1)):
        with pytest.raises(ValueError, match="unknown pairing"):
            dual_delta(w, "nonsense")
    assert dual_delta(LinComb.zero(), "nonsense") == LinComb.zero()
