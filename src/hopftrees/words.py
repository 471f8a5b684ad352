"""Words over the graded alphabet f_1, f_2, ... and their Hopf algebras.

The letter f_k has weight k.  Two bialgebra structures live on the span of
words: the shuffle product (bracket-free) and the quasi-shuffle product for
an additive bracket [f_a, f_b] = f_{a+b}, both with the deconcatenation
coproduct.  The additive quasi-shuffle algebra is QSYM in its monomial
basis, a word f_{i_1}...f_{i_k} standing for M_(i_1,...,i_k).  Both
antipodes are the signed contractions of the reversed word.  The graded
dual carries the concatenation product; its elements reuse the Word type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial, prod
from operator import sub
from typing import Callable, Iterable, Iterator, Literal

from .algebra import (LinComb, ParseError, Scalar, Tensor, _accumulate, _read_positive, _wrap,
                      bilinear_map, linear_map)

Pairing = Literal["zero", "additive"]
ZERO: Pairing = "zero"
ADDITIVE: Pairing = "additive"


class Word:
    """An immutable word of positive integer letters; letter k stands for f_k."""

    __slots__ = ("letters", "weight", "_hash")

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for a in letters:
            if type(a) is not int or a < 1:
                raise ValueError(f"letters must be positive integers, got {a!r}")
        self.letters = letters
        self.weight = sum(letters)
        self._hash = hash(("Word", letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, item) -> "Word":
        if isinstance(item, slice):
            return _word(self.letters[item])
        raise TypeError("words slice into words; use .letters for raw access")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def concat(self, other: "Word") -> "Word":
        return _word(self.letters + other.letters)

    def sort_key(self) -> tuple:
        return (self.weight, len(self.letters), self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "f" + ".f".join(_letter_texts(self.letters))

    def __repr__(self) -> str:
        return f"Word({self.letters!r})"


# The decimal text of every letter below 64, so the word printers join
# table entries; a larger letter is converted when printed.
_LETTER_TEXTS = tuple(str(k) for k in range(64))


def _letter_texts(letters: tuple[int, ...]) -> list[str]:
    """The decimal text of each letter, for printing a word in any notation."""
    try:
        return [_LETTER_TEXTS[k] for k in letters]
    except IndexError:
        return list(map(str, letters))


def _word(letters: tuple[int, ...]) -> Word:
    """A Word on a tuple of letters already known to be positive ints, built
    without Word's per-letter check.  Only for letters taken from validated
    words or tree labels, or sums of such letters."""
    w = Word.__new__(Word)
    w.letters = letters
    w.weight = sum(letters)
    w._hash = hash(("Word", letters))
    return w


EMPTY_WORD = Word(())


def word(*letters: int) -> Word:
    return Word(letters)


def parse_word(text: str) -> Word:
    """Parse ``f1.f2.f1`` (empty word: ``1``); errors carry the byte offset."""
    s = text.strip()
    base = text.index(s) if s else 0
    if s == "1":
        return EMPTY_WORD
    if not s:
        raise ParseError("empty word expression", 0)
    letters = []
    pos = 0
    while True:
        if pos >= len(s) or s[pos] != "f":
            raise ParseError("expected letter 'fK'", base + pos)
        value, pos = _read_positive(s, pos + 1, "letter index", base)
        letters.append(value)
        if pos == len(s):
            return Word(letters)
        if s[pos] != ".":
            raise ParseError("expected '.' between letters", base + pos)
        pos += 1


def words_of_weight(n: int) -> list[Word]:
    """All words of total weight n (compositions of n), in Word.sort_key
    order: shortest first, then lexicographic."""
    return [_word(c) for c in compositions(n)]


def words_up_to_weight(n: int) -> list[Word]:
    out = [EMPTY_WORD]
    for k in range(1, n + 1):
        out.extend(words_of_weight(k))
    return out


def compositions_of_length(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k parts, in lexicographic order.  Each is read
    off its k - 1 cut points in 1..n-1; cut sets in lexicographic order give
    the compositions in lexicographic order."""
    if n == 0 or k == 0:
        if n == k:
            yield ()
        return
    for cuts in combinations(range(1, n), k - 1):
        yield tuple(map(sub, cuts + (n,), (0,) + cuts))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n, shortest first, then lexicographic, one at a time."""
    return chain.from_iterable(compositions_of_length(n, k) for k in range(n + 1))


def bracket_letters(a: int, b: int, pairing: Pairing) -> int | None:
    """The letter [f_a, f_b], or None when the bracket vanishes."""
    if pairing == ZERO:
        return None
    if pairing == ADDITIVE:
        return a + b
    raise ValueError(f"unknown pairing rule {pairing!r}")


def bracket_fold(letters: tuple[int, ...], pairing: Pairing) -> int | None:
    """The letter [a_1, [a_2, [..., a_k]]], or None when it vanishes."""
    if not letters:
        return None
    acc = letters[-1]
    for a in reversed(letters[:-1]):
        nxt = bracket_letters(a, acc, pairing)
        if nxt is None:
            return None
        acc = nxt
    return acc


def _check_pairing(pairing: Pairing) -> None:
    if pairing not in (ZERO, ADDITIVE):
        raise ValueError(f"unknown pairing rule {pairing!r}")


def shuffle_term_count(m: int, n: int, pairing: Pairing) -> int:
    """The number of terms, counted with multiplicity, in the product of
    sequences of m and n items: the C(m+n, m) interleavings under the zero
    bracket, and under the additive one the Delannoy number
    sum_k C(m,k) C(n,k) 2^k, k being the number of merged pairs."""
    if pairing == ZERO:
        return comb(m + n, m)
    return sum(comb(m, k) * comb(n, k) * 2 ** k for k in range(min(m, n) + 1))


# The most items that _shuffle_table may write, counted with multiplicity
# over all its cells, by the bound of _refuse_large_table.
MAX_SHUFFLE_ITEMS = 24_000_000


def _refuse_large_table(m: int, n: int, pairing: Pairing) -> None:
    """Refuse a product of sequences of m and n items whose table may write
    more than MAX_SHUFFLE_ITEMS items.  Cell (p, q) holds the
    shuffle_term_count(p, q) terms of the product of suffixes of lengths p
    and q, of at most p + q items each, and these counts sum over the cells
    to at most shuffle_term_count(m + 1, n + 1) - 1.  So a long sequence
    times a short one is refused too, though it has few terms: filling its
    table takes time cubic in the long one's length.  The binomial
    is bounded first, since it is below the Delannoy number and cheap."""
    for rule in (ZERO, pairing):
        items = (m + n) * (shuffle_term_count(m + 1, n + 1, rule) - 1)
        if items > MAX_SHUFFLE_ITEMS:
            raise ValueError(f"a product of {m} and {n} items is refused: its table may "
                             f"write more than the limit of {MAX_SHUFFLE_ITEMS} items")


def _shuffle_table(u: tuple, v: tuple, pairing: Pairing) -> dict[tuple, int]:
    """u * v on tuples of any items by Hoffman's recursion on first items,
    a.u * b.v = a(u * b.v) + b(a.u * v) + [a,b](u * v), filled in bottom up
    over the suffixes of both tuples.  Row i holds u[i:] * v[j:] for every j
    as a dict items -> coeff, and only rows i and i + 1 are kept.  Only the
    zero bracket applies to items other than letters.  A product by the
    empty tuple is the other factor, with no table."""
    _check_pairing(pairing)
    if not u or not v:
        return {u + v: 1}
    _refuse_large_table(len(u), len(v), pairing)
    n = len(v)
    below = [{v[j:]: 1} for j in range(n + 1)]
    for i in range(len(u) - 1, -1, -1):
        a = u[i]
        row = [None] * n + [{u[i:]: 1}]
        for j in range(n - 1, -1, -1):
            b = v[j]
            data = {(a,) + t: c for t, c in below[j].items()}
            _accumulate(data, (((b,) + t, c) for t, c in row[j + 1].items()))
            merged = bracket_letters(a, b, pairing)
            if merged is not None:
                _accumulate(data, (((merged,) + t, c) for t, c in below[j + 1].items()))
            row[j] = data
        below = row
    return below[0]


def _concat_table(data: dict[tuple, int], x: dict[tuple, int], y: dict[tuple, int],
                  scale: int = 1) -> dict[tuple, int]:
    """Add scale times the concatenation product x y into data and return
    data; x, y and data are sums of tuples of any items, as dicts items ->
    coeff with nonzero coefficients, and so is data afterwards."""
    get = data.get
    for u, a in x.items():
        a *= scale
        for v, b in y.items():
            t = u + v
            old = get(t)
            if old is None:
                data[t] = a * b
            elif acc := old + a * b:
                data[t] = acc
            else:
                del data[t]
    return data


def _word_lincomb(data: dict[tuple[int, ...], Scalar]) -> LinComb:
    """The LinComb owning data's coefficients on the words of its letter
    tuples, each built once; the letters must be as _word requires."""
    return _wrap({_word(t): c for t, c in data.items()})


@lru_cache(maxsize=None)
def _qshuffle(w1: Word, w2: Word, pairing: Pairing) -> LinComb:
    """w1 * w2 on the words' letter tuples, through the shuffle table."""
    return _word_lincomb(_shuffle_table(w1.letters, w2.letters, pairing))


@bilinear_map
def quasi_shuffle(u: Word, v: Word, pairing: Pairing = ADDITIVE) -> LinComb:
    """Quasi-shuffle product; with the zero bracket this is the plain shuffle."""
    return _qshuffle(u, v, pairing)


def shuffle(x: LinComb | Word, y: LinComb | Word) -> LinComb:
    return quasi_shuffle(x, y, ZERO)


@bilinear_map
def concat(u: Word, v: Word) -> Word:
    """Concatenation product (the graded dual of deconcatenation)."""
    return u.concat(v)


def deconcat(w: Word) -> LinComb:
    """Deconcatenation coproduct of a basis word."""
    return LinComb((Tensor((w[:i], w[i:])), 1) for i in range(len(w.letters) + 1))


def compose_word(parts: tuple[int, ...], w: Word, pairing: Pairing) -> Word | None:
    """Contract w along a composition of its length, bracketing each block."""
    if sum(parts) != len(w.letters):
        raise ValueError("composition must refine the word length")
    out = []
    pos = 0
    for p in parts:
        letter = bracket_fold(w.letters[pos:pos + p], pairing)
        if letter is None:
            return None
        out.append(letter)
        pos += p
    return _word(tuple(out))


def _exp_block_weight(p: int) -> Fraction:
    """1/p!, the weight of a block of p letters in Hoffman's exponential."""
    return Fraction(1, factorial(p))


def _log_block_weight(p: int) -> Fraction:
    """(-1)^(p-1)/p, the weight of a block of p letters in Hoffman's logarithm."""
    return Fraction((-1) ** (p - 1), p)


def _sign_block_weight(p: int) -> int:
    """(-1)^p, the weight of a block of p letters in the antipode."""
    return (-1) ** p


# The longest word whose 2^(n-1) contractions are enumerated under the
# additive bracket: 20 ones in qsym took 12 s and 297 MB peak RSS on a
# 2-core x86_64 machine.
MAX_CONTRACTION_LETTERS = 20


def _contractions(x: LinComb | Word, pairing: Pairing,
                  block_weight: Callable[[int], Scalar]) -> LinComb:
    """Contractions of each word along every composition of its length,
    weighted by the product of block_weight over the blocks.  Under the
    zero bracket every block of two or more letters vanishes, so only the
    all-ones composition is enumerated and no length is refused; under any
    other bracket a word longer than MAX_CONTRACTION_LETTERS is refused
    before any is enumerated."""
    _check_pairing(pairing)
    x = LinComb.lift(x)
    n = max((len(w.letters) for w, _ in x.items()), default=0)
    if pairing != ZERO and n > MAX_CONTRACTION_LETTERS:
        raise ValueError(f"a word of {n} letters, with 2^{n - 1} contractions, is refused; "
                         f"the limit is {MAX_CONTRACTION_LETTERS} letters")

    def on_word(w: Word) -> LinComb:
        k = len(w.letters)
        terms = []
        for parts in [(1,) * k] if pairing == ZERO else compositions(k):
            v = compose_word(parts, w, pairing)
            if v is not None:
                terms.append((v, prod(block_weight(p) for p in parts)))
        return LinComb(terms)

    return x.map_basis(on_word)


def word_antipode(x: LinComb | Word, pairing: Pairing) -> LinComb:
    """Antipode of the (quasi-)shuffle Hopf algebra: the contractions of the
    reversed word, a block of p letters weighted (-1)^p (Hoffman 2000,
    Quasi-shuffle products, Thm 3.2); the shuffle keeps one-letter blocks."""
    return _contractions(linear_map(lambda w: _word(w.letters[::-1]))(x),
                         pairing, _sign_block_weight)


def hoffman_tau(x: LinComb | Word, pairing: Pairing = ADDITIVE) -> LinComb:
    """Hoffman's exponential: sum over contractions weighted by 1/(i_1!...i_l!)."""
    return _contractions(x, pairing, _exp_block_weight)


def hoffman_psi(x: LinComb | Word, pairing: Pairing = ADDITIVE) -> LinComb:
    """Hoffman's logarithm: contractions weighted by (-1)^(n-l)/(i_1 ... i_l)."""
    return _contractions(x, pairing, _log_block_weight)


@linear_map
def _letter_morphism(w: Word, block_weight: Callable[[int], Fraction]) -> LinComb:
    """The concatenation morphism sending f_k* to the sum of (a_1...a_n)*
    times block_weight(n) over the compositions (a_1..a_n) of k, the blocks
    whose iterated additive bracket is f_k."""
    total = LinComb.term(EMPTY_WORD)
    for k in w.letters:
        total = concat(total, LinComb((Word(parts), block_weight(len(parts)))
                                      for parts in compositions(k)))
    return total


def tau_star(x: LinComb | Word) -> LinComb:
    """Dual of Hoffman's logarithm, a concatenation algebra morphism.

    On a dual letter: tau*(f_k*) = sum over blocks with bracket f_k of
    (a_1...a_n)*/n!; extended to dual words by concatenation.
    """
    return _letter_morphism(x, _exp_block_weight)


def psi_star(x: LinComb | Word) -> LinComb:
    """Dual of Hoffman's exponential; inverse of tau_star."""
    return _letter_morphism(x, _log_block_weight)


def lie_bracket(x: LinComb | Word, y: LinComb | Word) -> LinComb:
    """Commutator bracket xy - yx in the concatenation algebra."""
    return concat(x, y) - concat(y, x)

