"""Second routes, independent of the package's own, for the identities that
the tests check two ways: the cut coproduct by admissible cuts, the
attachment coproduct by subsets of root branches, the convolution logarithm
by convolution powers, Lie elements by primitivity, the Hopf-axiom sides as
whole LinCombs (``splice_at``), the GL/CK duality as a pairing of basis
elements (``ck_gl_pairing``) and as a scan of every triple with its
position (``product_vs_coproduct_scan``, ``coproduct_vs_product_scan``),
the coproduct of the concatenation dual read off each word
(``dual_delta``), and pi's words listed one linear extension at a time
(``linear_extensions``)."""

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import prod

from hopftrees.algebra import LinComb, Tensor, linear_map
from hopftrees.morphisms import MAX_LINEAR_EXTENSIONS
from hopftrees.tree_hopf import ck_gl_dual, coproduct_forest
from hopftrees.trees import (EMPTY_FOREST, Forest, RootedTree, _by_key, bplus,
                             extension_count, forest_mul, sym_order)
from hopftrees.words import ADDITIVE, EMPTY_WORD, ZERO, Word, _word


def _cuts(t):
    """(pruned trees, trunk) for every admissible cut of t, the empty cut
    included: each child is cut off, or kept with a cut of its own."""
    per_child = [[((c,), None), *_cuts(c)] for c in t.children]
    for combo in itertools.product(*per_child):
        yield (tuple(p for ps, _ in combo for p in ps),
               RootedTree(t.label, [r for _, r in combo if r is not None]))


def admissible_cuts(t):
    """(pruned forest, trunk) for each nonempty set of edges of t that meets
    every path from the root at most once."""
    return [(Forest(pruned), trunk) for pruned, trunk in _cuts(t) if pruned]


def cut_coproduct_tree(t):
    """The coproduct of one tree: t (x) 1 + 1 (x) t + P (x) R over its
    admissible cuts."""
    whole = Forest((t,))
    pairs = [(whole, EMPTY_FOREST), (EMPTY_FOREST, whole)]
    pairs += [(pruned, Forest((trunk,))) for pruned, trunk in admissible_cuts(t)]
    return LinComb((Tensor(pair), 1) for pair in pairs)


def gl_coproduct_by_masks(t):
    """The attachment coproduct of one tree: each of the 2^k subsets of its
    k root branches goes left and the rest right, equal terms merged."""
    k = len(t.children)
    return LinComb(
        (Tensor((RootedTree(t.label, [c for i, c in enumerate(t.children) if mask >> i & 1]),
                 RootedTree(t.label, [c for i, c in enumerate(t.children) if not mask >> i & 1]))),
         1)
        for mask in range(1 << k))


def forest_log(a):
    """log a = sum_k (-1)^(k+1)/k (a - e)^(*k), each power convolved over
    coproduct_forest; a must send the empty forest to 1."""

    def reduced(u):
        return a(u) - (u == EMPTY_FOREST)

    @cache
    def power(k, u):
        if k == 1:
            return reduced(u)
        return sum(c * value * power(k - 1, t.parts[1])
                   for t, c in coproduct_forest(u).items() if (value := reduced(t.parts[0])))

    return lambda u: sum(Fraction((-1) ** (k + 1), k) * power(k, u)
                         for k in range(1, u.size + 1))


def character(tree_values):
    """The multiplicative functional on forests with these tree values, 0 elsewhere."""
    return lambda u: prod(tree_values.get(t, 0) for t in u.trees)


def is_lie_polynomial(x):
    """Whether x is primitive under the coproduct dual to the shuffle, which
    holds exactly for Lie elements (Friedrichs' criterion)."""
    expected = LinComb((Tensor(parts), c) for w, c in x.items()
                       for parts in ((w, EMPTY_WORD), (EMPTY_WORD, w)))
    return dual_delta(x, ZERO) == expected


def splice_at(x, index, f):
    """Apply a linear map to one tensor slot of x, splicing Tensor-valued
    images in place."""
    return LinComb(
        (Tensor(t.parts[:index] + (s.parts if isinstance(s, Tensor) else (s,))
                + t.parts[index + 1:]), c * c2)
        for t, c in x.items() for s, c2 in LinComb.lift(f(t.parts[index])).items())


def ck_gl_pairing(t, v):
    """<B+(u), v> = |sym(u)| if u == v else 0, u the branch forest of t
    (0 on a labeled root)."""
    u, s = ck_gl_dual(t)
    return s if u == v else 0


def product_vs_coproduct_scan(trees, forests, product):
    """<x o y, f> = <x (x) y, cop f> at every (x, y, f), o being product,
    each side one coefficient lookup: only B+_a(f), a the root label of y,
    pairs with f on the left, and only strip(x) (x) strip(y) with x (x) y on
    the right.  Returns the number of triples that agree before the first
    failure, and that failure (None if every triple agrees)."""
    n = 0
    for d, fs in enumerate(forests):
        syms = [sym_order(f) for f in fs]
        cops = [coproduct_forest(f) for f in fs]
        for d1 in range(d + 1):
            for x in trees[d1]:
                ux, sx = ck_gl_dual(x)
                for y in trees[d - d1]:
                    uy, sy = ck_gl_dual(y)
                    p = product(x, y)
                    key, sxy = Tensor((ux, uy)), sx * sy
                    for f, sf, df in zip(fs, syms, cops):
                        a, b = p.coeff(bplus(f, y.label)), df.coeff(key)
                        if (a or b) and a * sf != b * sxy:
                            return n, (f"x={x}, y={y}, f={f}: <x o y, f> = {a * sf}, "
                                       f"<x (x) y, cop f> = {b * sxy}")
                        n += 1
    return n, None


def coproduct_vs_product_scan(trees, forests, coproduct):
    """<cop x, u (x) v> = <x, uv> at every (x, u, v), cop being coproduct,
    each side one coefficient lookup: only B+_a(u) (x) B+_a(v), a the root
    label of x, pairs with u (x) v on the left, and x only with strip(x) on
    the right.  Returns as product_vs_coproduct_scan does."""
    n = 0
    for d in range(len(forests)):
        pairs = [(u, v, sym_order(u) * sym_order(v), forest_mul(u, v))
                 for d1 in range(d + 1) for u in forests[d1] for v in forests[d - d1]]
        for x in trees[d]:
            ux, sx = ck_gl_dual(x)
            dx = coproduct(x)
            for u, v, suv, uv in pairs:
                a = dx.coeff(Tensor((bplus(u, x.label), bplus(v, x.label))))
                rhs = sx if uv == ux else 0
                if (a or rhs) and a * suv != rhs:
                    return n, (f"x={x}, u={u}, v={v}: <cop x, u (x) v> = {a * suv}, "
                               f"<x, uv> = {rhs}")
                n += 1
    return n, None


@linear_map
def dual_delta(w, pairing):
    """Coproduct on the concatenation dual: delta(w*) = sum (u*v, w*) u* (x) v*.

    Read off w: the coefficient of w in u * v counts the ways to deal each
    letter of w to u or to v, or, under the additive bracket only, to split
    a letter f_k as f_a to u and f_(k-a) to v with 0 < a < k.  Equal pairs
    (u, v) merge after every letter.
    """
    if pairing not in (ZERO, ADDITIVE):
        raise ValueError(f"unknown pairing rule {pairing!r}")
    splits = {((), ()): 1}
    for k in w.letters:
        grown = {}
        for (u, v), c in splits.items():
            keys = [(u + (k,), v), (u, v + (k,))]
            if pairing == ADDITIVE:
                keys += [(u + (a,), v + (k - a,)) for a in range(1, k)]
            for key in keys:
                grown[key] = grown.get(key, 0) + c
        splits = grown
    return LinComb((Tensor((Word(u), Word(v))), c) for (u, v), c in splits.items())


@lru_cache(maxsize=None)
def _extensions_increasing(trees: tuple[RootedTree, ...]) -> tuple[tuple[int, ...], ...]:
    """Vertex labels in increasing poset order (roots first), all extensions."""
    if not trees:
        return ((),)
    out = []
    for i, t in enumerate(trees):
        rest = trees[:i] + trees[i + 1:] + t.children
        for tail in _extensions_increasing(tuple(sorted(rest, key=_by_key))):
            out.append((t.label,) + tail)
    return tuple(out)


def linear_extensions(u: Forest) -> tuple[Word, ...]:
    """Words of the total orders extending u's vertex order, greatest first.

    Every vertex precedes its parent, so each tree's root letter comes last.
    Extensions are counted with multiplicity: equal trees contribute equal
    words once per choice.
    """
    if not u.is_fully_labeled():
        raise ValueError(f"linear extensions need a fully labeled forest, got {u}")
    if extension_count(u) > MAX_LINEAR_EXTENSIONS:
        raise ValueError(f"a forest of {u.size} vertices with more than "
                         f"{MAX_LINEAR_EXTENSIONS:,} linear extensions is refused")
    return tuple(_word(seq[::-1]) for seq in _extensions_increasing(u.trees))
