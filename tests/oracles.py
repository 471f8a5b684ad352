"""Second routes, independent of the package's own, for the identities that
the tests check two ways: the cut coproduct by admissible cuts, the
attachment coproduct by subsets of root branches, the convolution logarithm
by convolution powers, and Lie elements by primitivity."""

import itertools
from fractions import Fraction
from functools import cache
from math import prod

from hopftrees.algebra import LinComb, Tensor
from hopftrees.tree_hopf import coproduct_forest
from hopftrees.trees import EMPTY_FOREST, Forest, RootedTree
from hopftrees.words import EMPTY_WORD, ZERO, dual_delta


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
