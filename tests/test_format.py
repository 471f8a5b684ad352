"""Printed expansions: LinComb.format and the word printers agree with the
one-line expressions they replaced, on every basis and printer in use."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from hopftrees.algebra import LinComb, Tensor
from hopftrees.checks import ALGEBRAS
from hopftrees.morphisms import composition_str, eword_str, zword_str
from hopftrees.trees import Forest, PlanarForest, PlanarTree, RootedTree
from hopftrees.words import Word

# small letters and labels, and ones past the end of the printers' table of 64
numbers = st.one_of(st.integers(1, 12), st.integers(60, 70), st.integers(10**6, 10**20))
words = st.lists(numbers, max_size=5).map(Word)


def _trees(cls):
    labels = st.none() | numbers
    return st.recursive(st.builds(cls, labels),
                        lambda kids: st.builds(cls, labels, st.lists(kids, max_size=3)),
                        max_leaves=6)


trees, planar_trees = _trees(RootedTree), _trees(PlanarTree)
forests = st.lists(trees, max_size=3).map(Forest)
planar_forests = st.lists(planar_trees, max_size=3).map(PlanarForest)

# the basis of each algebra in checks.ALGEBRAS
BASES = {"ck": forests, "gl": trees, "foissy": planar_forests, "planar": planar_trees,
         "shuffle": words, "qshuffle": words, "qsym": words}

coefficients = st.integers(-5, 5) | st.fractions(max_denominator=6)


def combinations(basis):
    return st.lists(st.tuples(basis, coefficients), max_size=6).map(LinComb)


def lincombs(basis):
    """Linear combinations over basis, or over its tensors of two or three factors."""
    tensors = st.integers(2, 3).flatmap(
        lambda k: combinations(st.lists(basis, min_size=k, max_size=k).map(Tensor)))
    return combinations(basis) | tensors


def seed_format(x, fmt):
    """The expression LinComb.format used to return for a nonzero x: the oracle."""
    return " + ".join(f"{c}*{fmt(b)}"
                      for b, c in sorted(x.items(), key=lambda kv: kv[0].sort_key()))


def test_every_algebra_has_a_basis_strategy():
    assert set(BASES) == set(ALGEBRAS)


@given(st.data())
def test_format_matches_the_seed_expression_for_every_algebra(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    x = data.draw(lincombs(BASES[name]))
    fmt = ALGEBRAS[name].fmt
    assert x.format(fmt) == (seed_format(x, fmt) if x else "0")


@given(combinations(words),
       st.sampled_from([eword_str, zword_str, composition_str, str]))
def test_format_matches_the_seed_expression_for_the_word_printers(x, fmt):
    assert x.format(fmt) == (seed_format(x, fmt) if x else "0")


def test_the_zero_combination_prints_0():
    assert LinComb().format() == "0" and str(LinComb.term(Word((1,)), Fraction(0))) == "0"


@given(words)
def test_word_printers_match_the_seed_expressions(w):
    k = w.letters
    assert str(w) == ("f" + ".f".join(map(str, k)) if k else "1")
    assert composition_str(w) == "M(" + ",".join(str(p) for p in k) + ")"
    assert eword_str(w) == ("".join(f"e(-{a})" for a in k) if k else "1")
    assert zword_str(w) == (".".join(f"z{a}" for a in k) if k else "1")
