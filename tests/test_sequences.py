"""Compositions from cut points and the one shuffle table, against the
enumerators they replaced, which are kept here as oracles."""

import ast
import itertools
import tracemalloc
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

from hopftrees import clear_caches, words
from hopftrees.algebra import LinComb
from hopftrees.cli import main
from hopftrees.morphisms import _label_tuples, _words_of_length, m_lambda, partitions
from hopftrees.tree_hopf import planar_diamond
from hopftrees.trees import (PlanarForest, PlanarTree, _by_key, enumerate_planar_forests,
                             enumerate_planar_trees)
from hopftrees.words import (ADDITIVE, EMPTY_WORD, ZERO, Word, _shuffle_table, compositions,
                             compositions_of_length, hoffman_psi, quasi_shuffle,
                             shuffle_term_count, word, word_antipode, words_of_weight)

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"


# ---------------------------------------------------------------------------
# the old routes

def _compositions_by_recursion(n):
    """Every composition of n, built into one list and sorted."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, acc):
        if rest == 0:
            out.append(acc)
            return
        for part in range(1, rest + 1):
            rec(rest - part, acc + (part,))

    rec(n, ())
    return sorted(out, key=lambda c: (len(c), c))


def _label_tuples_by_product(n, max_weight):
    if n > max_weight:
        return []
    return [combo for combo in itertools.product(range(1, max_weight - n + 2), repeat=n)
            if sum(combo) <= max_weight]


def _words_of_length_by_weight_scan(n, max_weight, coeff):
    return LinComb((w, coeff) for k in range(n, max_weight + 1)
                   for w in words_of_weight(k) if len(w) == n)


def _m_lambda_by_permutations(parts):
    parts = tuple(sorted(parts, reverse=True))
    return LinComb((Word(p), 1) for p in set(itertools.permutations(parts)))


@lru_cache(maxsize=None)
def _planar_forests_by_first_tree(n):
    if n == 0:
        return (PlanarForest(()),)
    out = [PlanarForest((t,) + rest.trees)
           for k in range(1, n + 1) for t in enumerate_planar_trees(k)
           for rest in _planar_forests_by_first_tree(n - k)]
    return tuple(sorted(out, key=_by_key))


def _seq_shuffles(a, b):
    """Interleavings of two sequences preserving each one's order."""
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for tail in _seq_shuffles(a[1:], b):
        yield (a[0],) + tail
    for tail in _seq_shuffles(a, b[1:]):
        yield (b[0],) + tail


# ---------------------------------------------------------------------------
# compositions

@pytest.mark.parametrize("n", range(15))
def test_compositions_match_the_sorted_recursion(n):
    assert list(compositions(n)) == _compositions_by_recursion(n)


def test_compositions_of_length_match_the_length_filter():
    for n in range(13):
        every = _compositions_by_recursion(n)
        for k in range(13):
            assert list(compositions_of_length(n, k)) == [c for c in every if len(c) == k], (n, k)


def test_compositions_of_nothing():
    assert list(compositions_of_length(0, 0)) == [()]
    assert list(compositions_of_length(0, 2)) == []
    assert list(compositions_of_length(3, 0)) == []
    assert list(compositions(-1)) == []


def test_first_composition_is_yielded_without_listing_the_rest():
    tracemalloc.start()
    try:
        first = next(compositions(20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (20,)
    assert peak <= 64 * 1024, peak


def test_label_tuples_match_the_product_filter():
    for n in range(7):
        for max_weight in range(9):
            assert sorted(_label_tuples(n, max_weight)) == _label_tuples_by_product(n, max_weight)


def test_words_of_length_match_the_weight_scan():
    for n in range(7):
        for max_weight in range(9):
            assert (_words_of_length(n, max_weight, 3)
                    == _words_of_length_by_weight_scan(n, max_weight, 3)), (n, max_weight)


def test_m_lambda_matches_the_permutation_set():
    for n in range(10):
        for mu in partitions(n):
            assert m_lambda(mu) == _m_lambda_by_permutations(mu), mu
            assert m_lambda(mu[::-1]) == m_lambda(mu)


@pytest.mark.parametrize("parts", [(0,), (2, -1), (1.5,)])
def test_m_lambda_refuses_a_part_that_is_not_a_positive_int(parts):
    with pytest.raises(ValueError, match="letters must be positive integers"):
        m_lambda(parts)


@pytest.mark.parametrize("n", range(8))
def test_planar_forests_match_the_first_tree_recursion(n):
    assert enumerate_planar_forests(n) == _planar_forests_by_first_tree(n)


# ---------------------------------------------------------------------------
# the shuffle table

def test_planar_diamond_matches_the_sequence_shuffles():
    trees = [t for n in range(1, 6) for t in enumerate_planar_trees(n)]
    trees.append(PlanarTree(None, (PlanarTree(None, ()),) * 2 + trees[2].children))
    for t in trees:
        for s in trees:
            expected = LinComb((PlanarTree(None, seq), 1)
                               for seq in _seq_shuffles(t.children, s.children))
            assert planar_diamond(t, s) == expected, (t, s)


def test_shuffle_table_keeps_repeated_items_as_coefficients():
    assert _shuffle_table(("a", "a"), ("a",), ZERO) == {("a", "a", "a"): 3}
    assert _shuffle_table(("a",), ("b",), ZERO) == {("a", "b"): 1, ("b", "a"): 1}
    assert _shuffle_table((), ("b", "c"), ZERO) == {("b", "c"): 1}


def test_term_count_is_the_sum_of_coefficients():
    small = [Word(c) for n in range(6) for c in compositions(n)]
    for pairing in (ZERO, ADDITIVE):
        for u in small:
            for v in small:
                total = sum(c for _, c in quasi_shuffle(u, v, pairing).items())
                assert total == shuffle_term_count(len(u), len(v), pairing), (u, v, pairing)
    assert shuffle_term_count(10, 10, ZERO) == 184_756
    assert shuffle_term_count(8, 8, ADDITIVE) == 265_729


def _table_bound(m, n, pairing):
    """The refusal's bound on the items the table writes over all its cells."""
    return (m + n) * (shuffle_term_count(m + 1, n + 1, pairing) - 1)


def test_table_bound_covers_every_cell():
    for pairing in (ZERO, ADDITIVE):
        for m in range(10):
            for n in range(10):
                cells = sum(shuffle_term_count(p, q, pairing) * (p + q)
                            for p in range(m + 1) for q in range(n + 1))
                assert cells <= _table_bound(m, n, pairing), (m, n, pairing)


def _letters(lo, hi):
    return ".".join(f"f{k}" for k in range(lo, hi))


def _branches(count):
    trees = [t for n in range(1, 5) for t in enumerate_planar_trees(n)]
    return "[" + ",".join(map(str, trees[:count])) + "]"


@pytest.mark.parametrize("algebra, left, right, pairing", [
    ("shuffle", _letters(1, 4), _letters(4, 9), ZERO),
    ("qshuffle", _letters(1, 4), _letters(4, 9), ADDITIVE),
    ("qsym", "M(1,2,3)", "M(4,5,6,7,8)", ADDITIVE),
    ("planar", _branches(3), _branches(5), ZERO),
])
def test_products_run_at_the_limit_and_are_refused_above_it(algebra, left, right, pairing,
                                                           monkeypatch, capsys):
    limit = _table_bound(3, 5, pairing)
    argv = ["product", "--algebra", algebra, "--input", left, "--input", right]
    clear_caches()
    monkeypatch.setattr(words, "MAX_SHUFFLE_ITEMS", limit)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.strip() and err == ""
    clear_caches()
    monkeypatch.setattr(words, "MAX_SHUFFLE_ITEMS", limit - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: a product of 3 and 5 items is refused: its table may write "
                   f"more than the limit of {limit - 1} items\n")


def test_a_long_word_times_a_short_one_is_refused_at_once(capsys):
    long_word = _letters(1, 20_001)
    for right in ("f1", long_word):
        assert main(["product", "--algebra", "qshuffle", "--input", long_word,
                     "--input", right]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: a product of 20000 and ")
        assert err.count("\n") == 1


def test_a_product_by_the_empty_word_needs_no_table():
    w = Word(range(1, 5_001))
    assert quasi_shuffle(w, EMPTY_WORD, ADDITIVE) == LinComb.term(w)
    assert quasi_shuffle(EMPTY_WORD, w, ZERO) == LinComb.term(w)


def test_the_refusal_comes_before_any_row_is_built(monkeypatch):
    monkeypatch.setattr(words, "_accumulate", None)
    with pytest.raises(ValueError, match="a product of 11 and 11 items is refused"):
        _shuffle_table(tuple(range(11)), tuple(range(11, 22)), ZERO)


def test_the_largest_benchmarked_products_are_far_below_the_limit():
    # shuffles of 7 + 7 letters and quasi-shuffles of 6 + 6 letters
    assert comb(14, 7) == 3_432 and shuffle_term_count(6, 6, ADDITIVE) == 8_989
    assert 10 * _table_bound(7, 7, ZERO) < words.MAX_SHUFFLE_ITEMS
    assert 10 * _table_bound(6, 6, ADDITIVE) < words.MAX_SHUFFLE_ITEMS


# ---------------------------------------------------------------------------
# an unknown pairing raises whatever the input

@pytest.mark.parametrize("call", [
    lambda: quasi_shuffle(word(1), EMPTY_WORD, "bogus"),
    lambda: quasi_shuffle(EMPTY_WORD, EMPTY_WORD, "bogus"),
    lambda: word_antipode(word(1), "bogus"),
    lambda: hoffman_psi(EMPTY_WORD, "bogus"),
    lambda: _shuffle_table((), (), "bogus"),
])
def test_an_unknown_pairing_raises_on_every_input(call):
    clear_caches()
    with pytest.raises(ValueError, match="unknown pairing rule 'bogus'"):
        call()


# ---------------------------------------------------------------------------
# the package imports its own modules at module level

def test_no_function_imports_from_the_package():
    local = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{inner.lineno} in {node.name}"
                          for inner in ast.walk(node)
                          if isinstance(inner, ast.ImportFrom) and inner.level > 0]
    assert not local, local
