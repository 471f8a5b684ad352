"""Lyndon words on the graded alphabet and the Hall set they induce.

The alphabet is {f_n : n >= 1} ordered by f_n < f_m iff n > m, so f_1 is
the largest letter.  Lyndon words (smaller than every proper suffix) index
a Hall set of labeled rooted trees via the standard factorization; the
Hall trees carry Lie elements E(t) whose decreasing products form a PBW
basis of the concatenation algebra, and the shuffle algebra is free
polynomial on the Lyndon words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .algebra import LinComb
from .trees import Forest, RootedTree, _multisets, forest, graft, leaf
from .words import EMPTY_WORD, Word, _concat_table, _word, _word_lincomb, shuffle, word


# ---------------------------------------------------------------------------
# the total order

def alpha_key(w: Word) -> tuple[int, ...]:
    """Sort key realizing the alphabetical order on words as tuple order."""
    return tuple(-k for k in w.letters)


def word_less(u: Word, v: Word) -> bool:
    return alpha_key(u) < alpha_key(v)


# ---------------------------------------------------------------------------
# Lyndon words

def is_lyndon(w: Word) -> bool:
    """A nonempty word smaller than every proper nontrivial suffix."""
    if len(w) == 0:
        return False
    key = alpha_key(w)
    return all(key < key[i:] for i in range(1, len(w)))


def lyndon_words(max_weight: int) -> Iterator[Word]:
    """Yield the Lyndon words of weight <= max_weight in (weight, alpha) order.

    Extends prenecklaces depth first (Cattell, Ruskey, Sawada, Serra and
    Miers), once per weight n: a prefix a_1..a_t whose longest Lyndon prefix
    has length p takes a next letter b iff b is not smaller than a_(t-p+1)
    in the alphabet order, i.e. b <= a_(t-p+1) as integers.  Equality keeps
    p and a larger letter makes the whole prefix Lyndon (p = t + 1), so
    the completion by the letter n - weight is a Lyndon word of weight n
    iff n - weight < a_(t-p+1), and it is yielded when its prefix is popped.
    The other extensions are pushed with the alphabetically smallest on
    top, so each prefix is popped before its extensions and before its
    larger siblings: the words of weight n come out in alphabetical order
    with no sort and no list of them.  Every prefix of a Lyndon word is a
    prenecklace, so bounding the weight misses nothing.
    """
    for n in range(1, max_weight + 1):
        yield _word((n,))
        stack = [((a,), 1, a) for a in range(1, n)]
        while stack:
            letters, p, weight = stack.pop()
            t = len(letters)
            ref = letters[t - p]
            last = n - weight
            if last < ref:
                yield _word(letters + (last,))
            for b in range(1, min(ref + 1, last)):
                stack.append((letters + (b,), p if b == ref else t + 1, weight + b))


def lyndon_generate(max_weight: int) -> list[Word]:
    """All Lyndon words of weight <= max_weight, sorted by (weight, alpha)."""
    return list(lyndon_words(max_weight))


def _duval(key: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, end) of each factor of the nonincreasing Lyndon factorization
    of a word given by its alpha_key, by Duval's linear-time algorithm."""
    bounds = []
    n = len(key)
    i = 0
    while i < n:
        k, j = i, i + 1
        while j < n and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            bounds.append((i, i + j - k))
            i += j - k
    return bounds


def lyndon_factorize(w: Word) -> list[Word]:
    """The unique nonincreasing factorization into Lyndon words."""
    if len(w) == 0:
        raise ValueError("cannot factorize the empty word")
    return [w[i:j] for i, j in _duval(alpha_key(w))]


# ---------------------------------------------------------------------------
# Hall trees

@dataclass(frozen=True)
class HallTree:
    """A Hall rooted tree with its foliage word and standard decomposition.

    std_decomp is None exactly for single letters; otherwise (t1, t2) with
    tree = t1's tree carrying t2's tree as an extra root branch.
    """

    tree: RootedTree
    foliage: Word
    std_decomp: tuple["HallTree", "HallTree"] | None

    @property
    def weight(self) -> int:
        return self.foliage.weight

    def sort_key(self):
        return (self.weight, alpha_key(self.foliage))

    def __str__(self) -> str:
        return str(self.tree)


def _standard_split(w: Word) -> int:
    """Index of the longest proper Lyndon suffix of a Lyndon word: the last
    factor of the Lyndon factorization of w minus its first letter."""
    return 1 + _duval(alpha_key(w)[1:])[-1][0]


@lru_cache(maxsize=None)
def hall_tree_of_lyndon(w: Word) -> HallTree:
    if not is_lyndon(w):
        raise ValueError(f"not a Lyndon word: {w}")
    if len(w) == 1:
        return HallTree(leaf(w.letters[0]), w, None)
    j = _standard_split(w)
    t1 = hall_tree_of_lyndon(w[:j])
    t2 = hall_tree_of_lyndon(w[j:])
    return HallTree(graft(t1.tree, forest(t2.tree)), w, (t1, t2))


def hall_set(max_weight: int) -> list[HallTree]:
    return [hall_tree_of_lyndon(w) for w in lyndon_generate(max_weight)]


@lru_cache(maxsize=None)
def foliage_word(t: RootedTree) -> Word:
    """Word read off a labeled tree by peeling the minimal root branch.

    On Hall trees this inverts hall_tree_of_lyndon; the recursion itself is
    defined for any fully labeled tree.
    """
    if t.label is None:
        raise ValueError("foliage needs a fully labeled tree")
    if not t.children:
        return word(t.label)
    fols = [foliage_word(c) for c in t.children]
    m = min(range(len(fols)), key=lambda i: alpha_key(fols[i]))
    rest = RootedTree(t.label, t.children[:m] + t.children[m + 1:])
    return foliage_word(rest).concat(fols[m])


def is_hall_tree(t: RootedTree) -> bool:
    """Membership in the Lyndon-induced Hall set."""
    w = foliage_word(t)
    return is_lyndon(w) and hall_tree_of_lyndon(w).tree == t


# ---------------------------------------------------------------------------
# Hall forests

@dataclass(frozen=True)
class HallForest:
    """Factors in nonincreasing Hall order; repeats encode multiplicities."""

    factors: tuple[HallTree, ...]

    def __post_init__(self):
        keys = [alpha_key(t.foliage) for t in self.factors]
        if any(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("Hall forest factors must be nonincreasing")

    @property
    def weight(self) -> int:
        return sum(t.weight for t in self.factors)

    def as_forest(self) -> Forest:
        return Forest(tuple(t.tree for t in self.factors))

    def __str__(self) -> str:
        return str(self.as_forest())


def hall_forest(*factors: HallTree) -> HallForest:
    ordered = sorted(factors, key=lambda t: alpha_key(t.foliage))
    return HallForest(tuple(reversed(ordered)))


def hall_forests(weight: int) -> list[HallForest]:
    """All Hall forests of the given total weight."""
    return [hall_forest(*ts)
            for ts in _multisets(weight, hall_set(weight), lambda t: t.weight)]


def circ_power(t: RootedTree, k: int) -> RootedTree:
    """Right-associated grafting power t o (t o (... o t))."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = t
    for _ in range(k - 1):
        out = graft(t, forest(out))
    return out


def xi(u: HallForest) -> RootedTree:
    """Collapse a Hall forest t1^r1...tm^rm to the single rooted tree
    t1^(o r1) o (t2^(o r2) ... tm^(o rm))."""
    if not u.factors:
        raise ValueError("xi needs a nonempty Hall forest")
    groups = [(t, len(list(copies)))
              for t, copies in itertools.groupby(u.factors)]
    (t1, r1), rest = groups[0], groups[1:]
    v = Forest(tuple(circ_power(t.tree, r) for t, r in rest))
    out = graft(t1.tree, v)
    for _ in range(r1 - 1):
        out = graft(t1.tree, forest(out))
    return out


# ---------------------------------------------------------------------------
# Hall polynomials and the PBW basis

def _hall_letters(t: HallTree) -> dict[tuple[int, ...], int]:
    """E(t) as a dict from letter tuples to coefficients: [x, y] = xy - yx
    is formed on tuples, so no Word is built for an intermediate term."""
    if t.std_decomp is None:
        return {t.foliage.letters: 1}
    t1, t2 = t.std_decomp
    x, y = _hall_letters(t2), _hall_letters(t1)
    return _concat_table(_concat_table({}, x, y), y, x, -1)


def hall_polynomial(t: HallTree) -> LinComb:
    """The Lie element E(t) over single-letter generators, as words.

    E(leaf f_k) is the letter k; for the standard decomposition (t1, t2),
    E(t) = [E(t2), E(t1)].  The flipped bracket [E(t1), E(t2)] changes the
    sign of each bracket, and it does not match the singular frame
    identity.
    """
    return _word_lincomb(_hall_letters(t))


def pbw_element(u: HallForest) -> LinComb:
    """E(u): the concatenation product of E(t) with smallest factor first."""
    out = {(): 1}
    for t in reversed(u.factors):
        out = _concat_table({}, out, _hall_letters(t))
    return _word_lincomb(out)


# ---------------------------------------------------------------------------
# Definition-10 style axioms for the generated family

def hall_axiom_counterexamples(max_weight: int) -> list[tuple[str, dict | None]]:
    """Check the four Hall set axioms on everything of weight <= max_weight.

    Each axiom comes with its first counterexample, or None when it holds:
    a mapping from names to the offending trees and, for closure, to both
    sides of the membership test.  The closure axiom is read with the
    standard decomposition: a candidate B+_a(u) with branches t1 >= ... >=
    tm from the Hall set belongs to the set iff dropping one copy of the
    minimal branch leaves a Hall tree t1' with tm > t1'.
    """
    members = hall_set(max_weight)

    def total_order():
        seen: dict[tuple, HallTree] = {}
        for t in members:
            s = seen.setdefault(alpha_key(t.foliage), t)
            if s is not t:
                return {"s": s.tree, "t": t.tree}
        return None

    def letters():
        for a in range(1, max_weight + 1):
            if not is_hall_tree(leaf(a)):
                return {"t": leaf(a)}
        return None

    def closure():
        for a in range(1, max_weight):
            pool = hall_set(max_weight - a)
            for total in range(1, max_weight - a + 1):
                for branches in _multisets(total, pool, lambda t: t.weight):
                    trees = tuple(t.tree for t in branches)
                    cand = RootedTree(a, trees)
                    t_min = min(branches, key=lambda t: alpha_key(t.foliage))
                    rest = list(trees)
                    rest.remove(t_min.tree)
                    peeled = RootedTree(a, tuple(rest))
                    cond = (is_hall_tree(peeled)
                            and word_less(foliage_word(peeled), t_min.foliage))
                    member = is_hall_tree(cand)
                    if member != cond:
                        return {"t": cand, "is_hall_tree(t)": member,
                                "decomposition rule": cond}
        return None

    def dominance():
        for t in members:
            for c in t.tree.children:
                if not word_less(t.foliage, foliage_word(c)):
                    return {"t": t.tree, "branch": c}
        return None

    return [
        ("total-order", total_order()),
        ("letters", letters()),
        ("closure", closure()),
        ("branch-dominance", dominance()),
    ]


def hall_axiom_report(max_weight: int) -> list[tuple[str, bool]]:
    """Each Hall set axiom with whether it holds to weight max_weight."""
    return [(name, failure is None)
            for name, failure in hall_axiom_counterexamples(max_weight)]


# ---------------------------------------------------------------------------
# the shuffle algebra is free polynomial on Lyndon words

@dataclass(frozen=True)
class ShuffleMonomial:
    """A commutative monomial in Lyndon generators of the shuffle algebra."""

    factors: tuple[Word, ...]

    def sort_key(self):
        return (sum(w.weight for w in self.factors), len(self.factors),
                tuple(alpha_key(w) for w in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        groups = [(w, len(list(c))) for w, c in itertools.groupby(self.factors)]
        return " sh ".join(f"({w})^{r}" if r > 1 else f"({w})"
                           for w, r in groups)


def shuffle_monomial(*factors: Word) -> ShuffleMonomial:
    return ShuffleMonomial(tuple(sorted(factors, key=alpha_key)))


def expand_shuffle_monomial(m: ShuffleMonomial) -> LinComb:
    out = LinComb.term(EMPTY_WORD)
    for w in m.factors:
        out = shuffle(out, w)
    return out


def lyndon_poly_decompose(x: LinComb) -> LinComb:
    """Write a shuffle-algebra element as a polynomial in Lyndon words.

    Within each weight class the shuffle of the Lyndon factors of w equals
    (prod of multiplicity factorials) * w plus alphabetically smaller words,
    so eliminating the largest remaining word terminates.
    """
    terms = []
    by_weight: dict[int, list] = {}
    for w, c in x.items():
        by_weight.setdefault(w.weight, []).append((w, c))
    for weight in sorted(by_weight):
        rem = LinComb(by_weight[weight])
        if weight == 0:
            # the constant term is a polynomial in zero generators
            terms.append((shuffle_monomial(), rem.coeff(EMPTY_WORD)))
            continue
        while rem:
            w = max(rem.support(), key=alpha_key)
            factors = lyndon_factorize(w)
            denom = 1
            for _, copies in itertools.groupby(factors, key=alpha_key):
                denom *= factorial(len(list(copies)))
            m = shuffle_monomial(*factors)
            coeff = Fraction(rem.coeff(w), denom)
            terms.append((m, coeff))
            rem = LinComb.sum([rem, (expand_shuffle_monomial(m), -coeff)])
    return LinComb(terms)

