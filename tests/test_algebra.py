"""Linear combinations, tensors, and the antipode recursion."""

from fractions import Fraction
from functools import lru_cache
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from hopftrees.algebra import (
    LinComb,
    ParseError,
    Tensor,
    lincomb_tensor,
    recursive_antipode,
)
from hopftrees.words import word
from oracles import splice_at

rationals = st.fractions(max_denominator=6)
lincombs = st.lists(
    st.tuples(st.sampled_from("abcd"), rationals), max_size=6
).map(LinComb)


def test_term_addition_merges_bases():
    assert (LinComb.term(word(1)) + LinComb.term(word(2))).sorted_items() == [
        (word(1), Fraction(1)),
        (word(2), Fraction(1)),
    ]


def test_rational_coefficients_accumulate():
    x = LinComb.term("x", Fraction(1, 2))
    y = LinComb.term("x", 3).scale(Fraction(1, 3))
    assert (x + y) == LinComb.term("x", Fraction(3, 2))


def test_zero_coefficients_are_dropped():
    x = LinComb.term("x", 2)
    diff = x - x
    assert not diff
    assert diff == LinComb.zero()
    assert len(diff) == 0
    assert str(diff) == "0"


def test_coeff_and_support():
    x = LinComb.term(word(1), 2) - LinComb.term(word(2))
    assert x.coeff(word(1)) == 2
    assert x.coeff(word(9)) == 0
    assert x.support() == [word(1), word(2)]


def test_graded_part_filters_by_degree():
    x = LinComb.term("a") + LinComb.term("bb") + LinComb.term("ccc")
    assert x.graded_part(len, 2) == LinComb.term("a") + LinComb.term("bb")


def test_tensor_is_ordered():
    assert Tensor(("a", "b")) == Tensor(("a", "b"))
    assert Tensor(("a", "b")) != Tensor(("b", "a"))
    assert str(Tensor(("a", "b"))) == "a (x) b"


def test_lincomb_tensor_is_bilinear():
    x = LinComb.term("a", 2) + LinComb.term("b")
    y = LinComb.term("c", Fraction(1, 3))
    prod = lincomb_tensor(x, y)
    assert prod.coeff(Tensor(("a", "c"))) == Fraction(2, 3)
    assert prod.coeff(Tensor(("b", "c"))) == Fraction(1, 3)


def test_splice_at_replaces_one_slot():
    x = LinComb.term(Tensor(("a", "b")))
    dup = lambda s: LinComb.term(Tensor((s, s)))
    assert splice_at(x, 0, dup) == LinComb.term(Tensor(("a", "a", "b")))
    assert splice_at(x, 1, dup) == LinComb.term(Tensor(("a", "b", "b")))


def test_parse_error_carries_offset():
    err = ParseError("unbalanced bracket", 3)
    assert err.offset == 3
    assert str(err) == "unbalanced bracket at offset 3"


@given(lincombs, lincombs, lincombs)
def test_addition_is_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(lincombs, lincombs)
def test_addition_is_commutative(x, y):
    assert x + y == y + x


@given(lincombs, rationals, rationals)
def test_scaling_distributes_over_coefficients(x, a, b):
    assert x.scale(a) + x.scale(b) == x.scale(a + b)


@given(lincombs)
def test_subtracting_self_gives_zero(x):
    assert not (x - x)
    assert x + LinComb.zero() == x


@given(lincombs, lincombs)
def test_map_basis_is_linear(x, y):
    f = lambda b: b * 2
    assert (x + y).map_basis(f) == x.map_basis(f) + y.map_basis(f)


@given(lincombs, lincombs)
def test_bilinear_respects_scaling(x, y):
    f = lambda a, b: a + b
    assert x.scale(2).bilinear(y, f) == x.bilinear(y, f).scale(2)


# ---------------------------------------------------------------------------
# the in-place accumulator against the naive fold of `+`

def _fold(parts):
    total = LinComb.zero()
    for part in parts:
        x, c = part if isinstance(part, tuple) else (part, 1)
        total = total + x.scale(c)
    return total


def _naive_image(image):
    return image if isinstance(image, LinComb) else LinComb.term(image)


parts_lists = st.lists(st.one_of(lincombs, st.tuples(lincombs, rationals)), max_size=6)
images = st.one_of(lincombs, st.sampled_from("abcd"))


@given(parts_lists)
def test_sum_equals_the_fold_of_addition(parts):
    assert LinComb.sum(parts) == _fold(parts)


@given(parts_lists, st.data())
def test_sum_drops_parts_that_cancel(parts, data):
    negated = [(p, -1) if isinstance(p, LinComb) else (p[0], -p[1]) for p in parts]
    mixed = data.draw(st.permutations(parts + negated))
    total = LinComb.sum(mixed)
    assert total == _fold(mixed) == LinComb.zero()
    assert len(total) == 0


@given(lincombs, st.fixed_dictionaries({b: images for b in "abcd"}))
def test_map_basis_equals_the_naive_fold(x, table):
    naive = _fold((_naive_image(table[b]), c) for b, c in x.items())
    assert x.map_basis(table.__getitem__) == naive


@given(lincombs, lincombs, st.fixed_dictionaries({a + b: images for a in "abcd" for b in "abcd"}))
def test_bilinear_equals_the_naive_fold(x, y, table):
    naive = _fold((_naive_image(table[a + b]), c1 * c2)
                  for a, c1 in x.items() for b, c2 in y.items())
    assert x.bilinear(y, lambda a, b: table[a + b]) == naive


def test_recursive_antipode_on_the_binomial_bialgebra():
    # k[x] with x primitive, basis element n standing for x^n: S(x^n) = (-1)^n x^n
    def coproduct(n):
        return LinComb((Tensor((k, n - k)), comb(n, k)) for k in range(n + 1))

    def product(x, m):
        return x.map_basis(lambda k: k + m)

    @lru_cache(maxsize=None)
    def antipode(n):
        return LinComb.term(0) if n == 0 else recursive_antipode(n, coproduct, product, antipode, 0)

    for n in range(8):
        assert antipode(n) == LinComb.term(n, (-1) ** n)
