"""Exact truncations of the universal singular frame.

The frame expands as a series over words in the letters f_k with exact
rational coefficients 1/(k1(k1+k2)...(k1+...+kn)); these coefficients are
simultaneously values of iterated integrals over the ordered simplex, of
the functional alpha^U on labeled forests, and of the exponential of a
tree-supported functional beta^U, whose Hall-polynomial expansion is the
representation checked by prop53_check.

alpha^U is computed by two independent routes: alphaU, as the weighted
tree factorial 1/prod_v w(T_v) (T_v the subtree at v, w its label sum),
and alphaU_extension_sum, which sums the frame coefficients over the
linear extensions of the forest by recursion on the root read last.
The route that lists the extensions one by one is a test oracle.

beta^U = log alpha^U is computed by one route, betaU: tree_hopf.char_log
of alpha^U's tree values, scaled to ints.  The generic convolution
logarithm over the forest coproduct is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from math import lcm, prod
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .algebra import LinComb, Scalar, as_fraction
from .lyndon_hall import hall_polynomial, hall_set
from .tree_hopf import char_log
from .trees import Forest, RootedTree, subtree_product, sym_order
from .words import EMPTY_WORD, Word, words_of_weight


# ---------------------------------------------------------------------------
# exact univariate polynomials

class UnivariatePoly:
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Scalar, ...] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if not self.coeffs or not other.coeffs:
            return UnivariatePoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(tuple(out))

    def weighted_integral(self, k: int) -> "UnivariatePoly":
        """g(x) -> integral of g(s) s^(k-1) ds from 0 to x."""
        out = [0] * (len(self.coeffs) + k)
        for i, a in enumerate(self.coeffs):
            out[i + k] = Fraction(a, i + k)
        return UnivariatePoly(tuple(out))

    def eval(self, x: Scalar) -> Scalar:
        x = as_fraction(x)
        total = 0
        for a in reversed(self.coeffs):
            total = total * x + a
        return total


POLY_ONE = UnivariatePoly((1,))


# ---------------------------------------------------------------------------
# frame coefficients

def frame_coefficient(w: Word) -> Fraction:
    """1 over the product of the partial letter sums."""
    if not len(w):
        raise ValueError("frame coefficient needs a nonempty word")
    total = 0
    denom = 1
    for k in w.letters:
        total += k
        denom *= total
    return Fraction(1, denom)


def iterated_integral(w: Word) -> Fraction:
    """The same coefficient as an integral over the ordered simplex."""
    if not len(w):
        raise ValueError("iterated integral needs a nonempty word")
    g = POLY_ONE
    for k in w.letters:
        g = g.weighted_integral(k)
    return g.eval(1)


# ---------------------------------------------------------------------------
# alpha^U on labeled forests

def _alphaU_tree(t: RootedTree) -> Fraction:
    if not t.is_fully_labeled():
        raise ValueError("alpha^U needs a fully labeled tree")
    return Fraction(1, subtree_product(t, attrgetter("weight")))


def alphaU(u: Forest) -> Scalar:
    """alpha^U as the weighted tree factorial: 1 over the product, over
    the vertices v of u, of the label weight of the subtree at v."""
    return prod(map(_alphaU_tree, u.trees))


def alphaU_extension_sum() -> Callable[[Forest], Scalar]:
    """alpha^U as the sum over linear extensions, summed without listing them.

    An extension word of u ends with the root letter of one of u's trees,
    and the last partial sum of every word of u is weight(u), so with
    A(I) = 1,

        A(u) = (sum over the trees t of u of A(u - t + branches of t)) / weight(u),

    the sum running over tree positions, so that equal trees count once
    each, as linear_extensions counts them.  The memo lives as long as the
    returned callable.
    """
    @cache
    def extension_sum(u: Forest) -> Scalar:
        ts = u.trees
        if not ts:
            return 1
        total = sum(extension_sum(Forest(ts[:i] + ts[i + 1:] + t.children))
                    for i, t in enumerate(ts))
        return Fraction(total, u.weight)

    def alpha(u: Forest) -> Scalar:
        if not u.is_fully_labeled():
            raise ValueError(f"alpha^U needs a fully labeled forest, got {u}")
        return extension_sum(u)

    return alpha


# ---------------------------------------------------------------------------
# beta^U, the logarithm of alpha^U

def betaU() -> Callable[[Forest], Scalar]:
    """The tree-supported logarithm of alpha^U, by char_log over ints.

    On a forest u of weight N put L = lcm(1..N).  Every tree s met in the
    iterated splits of u's trees weighs at most N, so L^|s| alpha^U(s) =
    prod_v L / w(T_v) is an int.  Scaling a tree value by L^|s| respects
    the grading, so it commutes with convolution, and char_log of the
    scaled values is L^n beta^U(u), n = |u|, computed over ints with one
    Fraction per forest.  One char_log is kept per L, as long as the
    returned callable lives, so it needs no weight up front and values do
    not depend on the order of the calls.
    """
    @cache
    def log_scaled(scale: int) -> Callable[[Forest], Scalar]:
        return char_log(cache(partial(_scaled_alphaU_tree, scale)))

    def log_alpha(u: Forest) -> Scalar:
        scale = lcm(*range(1, u.weight + 1))
        value = log_scaled(scale)(u)
        return Fraction(value, scale ** u.size) if value else 0

    return log_alpha


def _scaled_alphaU_tree(scale: int, s: RootedTree) -> int:
    """scale^|s| alpha^U(s), an int when every subtree weight of s divides scale."""
    value = _alphaU_tree(s)
    got, rest = divmod(scale ** s.size * value.numerator, value.denominator)
    if rest:
        raise ValueError(f"alpha^U({s}) = {value} is not an int at scale {scale}")
    return got


# ---------------------------------------------------------------------------
# the series and its Hall representation

# Term objects per json_chunks piece: enough that joining and writing the
# pieces costs little per term, few enough to keep each piece small.
_JSON_BATCH = 1024


@dataclass(frozen=True)
class FrameSeries:
    """The frame series through max_weight.  Its text and JSON are written
    straight from the rows of one depth-first walk over the words, and
    streamed by ``iter_lines`` and ``json_chunks``."""

    max_weight: int

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps(payload, separators=(",", ":")), payload
        holding max_weight and one {word, coeff, v_pow, z_pow} object per
        term, in pieces: the header, then the term objects _JSON_BATCH at a
        time, then the closing brackets.  Only one batch of term texts is
        held at once."""
        yield f'{{"max_weight":{self.max_weight},"terms":['
        letters = range(self.max_weight + 1)
        rows = _frame_rows(self.max_weight, [f"{a}," for a in letters], list(map(str, letters)))
        terms = (f'{{"word":[{text}],"coeff":"{_coeff_text(d)}","v_pow":{n},"z_pow":-{k}}}'
                 for text, n, k, d in rows)
        sep = ""
        while batch := list(islice(terms, _JSON_BATCH)):
            yield sep + ",".join(batch)
            sep = ","
        yield "]}"

    def iter_lines(self) -> Iterator[str]:
        """Each term's text line, in series order, one at a time."""
        pieces = [f"e(-{a})" for a in range(self.max_weight + 1)]
        for text, n, k, d in _frame_rows(self.max_weight, pieces, pieces):
            yield f"{_coeff_text(d)} * {text} v^{n} z^-{k}"


def _frame_rows(max_weight: int, pieces: Sequence[str],
                last_pieces: Sequence[str]) -> Iterator[tuple[str, int, int, int]]:
    """Each word of weight 1..max_weight in series order (weight, then
    length, then lexicographic) as (text, weight, length, product of its
    partial letter sums); the word's coefficient is 1 over that product.
    A word's text is pieces[a] for each letter a but the last, then
    last_pieces[b] for its last letter b.

    For each weight n and length k the prefixes are extended depth first
    from a stack of (text, sum, partial-sum product, letters left), with
    the smallest next letter on top, so the words come out in
    lexicographic order and each prefix's text and product are built once
    for all its extensions.  The last letter is n minus the prefix sum and
    the last partial sum is n, so a prefix with two letters left yields
    its words straight from a loop over the next letter.
    """
    for n in range(1, max_weight + 1):
        yield last_pieces[n], n, 1, n
        for k in range(2, n + 1):
            stack = [("", 0, 1, k)]
            while stack:
                text, total, denom, left = stack.pop()
                if left == 2:
                    denom *= n
                    for a in range(1, n - total):
                        s = total + a
                        yield text + pieces[a] + last_pieces[n - s], n, k, denom * s
                else:
                    for a in range(n - total - left + 1, 0, -1):
                        s = total + a
                        stack.append((text + pieces[a], s, denom * s, left - 1))


def _coeff_text(denominator: int) -> str:
    """str(Fraction(1, denominator)); 1/d is already in lowest terms."""
    return "1" if denominator == 1 else f"1/{denominator}"


def frame_series(max_weight: int) -> FrameSeries:
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    return FrameSeries(max_weight)


def hall_representation(max_weight: int) -> LinComb:
    """Hall-coefficient series of the frame logarithm, weight <= N.

    The coefficient of a Hall tree t is beta^U(t)/|sym(t)|.  The symmetry
    order is forced by the biorthogonality <E(t), pi(s)> = |sym(s)| delta_ts
    of the Hall Lie elements against the linear-extension images: beta^U(s)
    pairs the logarithm of the word series against pi(s), so the raw value
    overcounts each Hall coefficient by exactly |sym(s)|.
    """
    beta = betaU()
    return LinComb((t, Fraction(beta(Forest((t.tree,))), sym_order(t.tree)))
                   for t in hall_set(max_weight))


def _truncate_words(x: LinComb, max_weight: int) -> LinComb:
    return x.graded_part(lambda w: w.weight, max_weight)


def _concat_truncated(x: LinComb, by_weight: list[tuple[Word, Scalar]],
                      max_weight: int) -> LinComb:
    """The weight <= max_weight part of concat(x, y), y given as its terms
    sorted by weight; pairs past the bound are never formed."""

    def terms():
        for u, c in x.items():
            room = max_weight - u.weight
            for v, d in by_weight:
                if v.weight > room:
                    break
                yield u.concat(v), c * d

    return LinComb(terms())


def exp_concat(x: LinComb, max_weight: int) -> LinComb:
    """Exponential in the concatenation algebra, truncated by weight.

    Requires every term of x to have positive weight.
    """
    if any(w.weight == 0 for w, _ in x.items()):
        raise ValueError("exponent must vanish in weight zero")
    by_weight = sorted(_truncate_words(x, max_weight).items(), key=lambda wc: wc[0].weight)
    parts = [LinComb.term(EMPTY_WORD)]
    power = LinComb.term(EMPTY_WORD)
    fact = 1
    for k in range(1, max_weight + 1):
        power = _concat_truncated(power, by_weight, max_weight)
        if not power:
            break
        fact *= k
        parts.append((power, Fraction(1, fact)))
    return LinComb.sum(parts)


def prop53_counterexample(max_weight: int) -> tuple[Word, Scalar, Scalar] | None:
    """The first word, by weight, through the given weight where the frame
    series and the exponential of the Hall representation differ, with the
    series coefficient and the exponential's; None where they agree."""
    rep = LinComb.sum((hall_polynomial(t), c)
                      for t, c in hall_representation(max_weight).items())
    exp = exp_concat(rep, max_weight)
    for n in range(1, max_weight + 1):
        for w in words_of_weight(n):
            series, exponential = frame_coefficient(w), exp.coeff(w)
            if series != exponential:
                return w, series, exponential
    return None


def prop53_check(max_weight: int) -> bool:
    """Word-by-word equality of the frame series with the exponential of
    the Hall representation, through the given weight.

    Exact for every weight with E(t) bracketed as [E(t2), E(t1)]; the
    flipped bracket [E(t1), E(t2)] first fails at weight 3.
    """
    return prop53_counterexample(max_weight) is None
