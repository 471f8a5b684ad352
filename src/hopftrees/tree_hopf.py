"""Hopf algebra structures on forests of rooted trees.

Four structures are implemented:

* the commutative cut coproduct algebra on forests (selector ``ck``), fixed
  by its 1-cocycle identity Delta B+_a = B+_a (x) 1 + (id (x) B+_a) Delta
  and extended multiplicatively: ``_split_product`` alone multiplies split
  tables out, for the trees of a forest and the branches of a tree;
* its graded dual with the vertex-attachment product (selector ``gl``),
  whose basis trees pair with forests by stripping the root;
* the ordered-forest variant with the concatenation product (selector
  ``foissy``), under the same identity: ``ck_product``,
  ``coproduct_forest`` and ``ck_antipode`` on ``PlanarForest`` values.
  One cut core (tree splits, forest coproduct, product and antipode)
  serves ordered and unordered forests, reading the forest type off its
  argument, and its coproduct and antipode return a basis argument's
  memoized LinComb itself;
* the root-branch shuffle product with deconcatenation of branches on
  planar trees (selector ``planar``).

The cut antipode, memoized per forest, is S(t) = -sum S(P) R over the
splits of a tree that keep a trunk R, (anti)multiplicative over halves of a
longer forest.  The attachment antipode is ``algebra.recursive_antipode``
over the branch splits of an unlabeled root; the branch-shuffle antipode is
in closed form.

The convolution logarithm of a character is computed per tree, through
the same splits; the universal lift runs through a graded bialgebra
equipped with one Hochschild 1-cocycle per label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, lcm, prod
from typing import Callable, Iterable, Mapping

from .algebra import (LinComb, Scalar, Tensor, _accumulate, _wrap, as_fraction,
                      bilinear_map, lincomb_tensor, linear_map, recursive_antipode)
from .trees import (Forest, PlanarForest, PlanarTree, RootedTree, _multiplicities,
                    forest_mul, leaf, strip_root, sym_order)
from .words import EMPTY_WORD, ZERO, Word, _shuffle_table, deconcat, shuffle


# ---------------------------------------------------------------------------
# cut coproduct algebra on forests, unordered (commutative) or ordered

@bilinear_map
def ck_product(u: Forest | PlanarForest, v: Forest | PlanarForest) -> Forest | PlanarForest:
    return forest_mul(u, v)


# The most vertices, summed over the terms being built, that one table or
# sum of the cut core or of the attachment coproduct may hold: a split table
# row, the sum for one tree's antipode and the product S(b) S(a) of a
# forest's halves are refused as they grow or before they are multiplied,
# and a gl coproduct before any term is built.  The memo keeps every table
# below the refused one, so the budget is set on the heaviest shape per
# vertex, a labeled star under a stem, by the median of three CLI runs
# against 60 s and 512 MB peak RSS on a 2-core x86_64 machine: at 2.4 M,
# [[f1,...,f17]] reached 515 MB (runs in CHANGES.md).
MAX_TERM_VERTICES = 2_300_000


def _refuse_over(limit: int, what: str, terms: int, vertices: int) -> None:
    """Raise ValueError, naming `what`, if terms of so many vertices pass limit."""
    if terms * vertices > limit:
        raise ValueError(f"{what} of {terms} terms of {vertices} vertices is refused; "
                         f"the limit is {limit} vertices in all")


def _split_product(trees: Iterable[RootedTree | PlanarTree],
                   forest: type) -> dict[tuple[Forest, Forest], int]:
    """The splits of the forest of the given trees: the product of their
    split tables, multiplied out in one dict keyed by (pruned, trunks)
    forest pairs.  Keys are forests, sorted when unordered, so equal partial
    terms merge after every tree (k copies of a tree keep polynomially many
    keys).  Every key holds the vertices multiplied in so far, and a table
    past MAX_TERM_VERTICES of them is refused after the row that passes it."""
    unit = forest(())
    splits: dict[tuple[Forest, Forest], int] = {(unit, unit): 1}
    size = 0
    for t in trees:
        size += t.size
        grown: dict[tuple[Forest, Forest], int] = {}
        for (pruned, trunks), m in splits.items():
            for p, r, mult in _tree_splits(t):
                key = (forest_mul(pruned, p),
                       trunks if r is None else forest(trunks.trees + (r,)))
                grown[key] = grown.get(key, 0) + m * mult
            _refuse_over(MAX_TERM_VERTICES, "a split table", len(grown), size)
        splits = grown
    return splits


@lru_cache(maxsize=None)
def _tree_splits(t: RootedTree | PlanarTree) -> tuple[tuple[Forest, RootedTree | None, int], ...]:
    """Splits of one tree into (pruned forest, trunk or None), with counts,
    by the 1-cocycle identity: the splits of B+_a(u) are (B+_a(u), None),
    the whole tree pruned, and (P, B+_a(R)) for each split (P, R) of the
    branch forest u.  These are the trivial terms plus every admissible
    cut, and on labeled forests the vertex bipartitions whose right part is
    closed under taking parents.  Planar trees split into ordered pruned
    forests and planar trunks, in branch order."""
    tree = type(t)
    return ((tree.forest_class((t,)), None, 1),) + tuple(
        (pruned, tree(t.label, trunks.trees), m)
        for (pruned, trunks), m in _split_product(t.children, tree.forest_class).items())


@lru_cache(maxsize=None)
def coproduct_forest(u: Forest | PlanarForest) -> LinComb:
    """Coproduct of a basis forest, as a sum of Forest (x) Forest tensors
    (PlanarForest tensors for an ordered forest): its split table, each
    tensor built once per distinct term."""
    return _wrap({Tensor(key): m for key, m in _split_product(u.trees, type(u)).items()})


@lru_cache(maxsize=None)
def _antipode_forest(u: Forest | PlanarForest) -> LinComb:
    """S(u) for a basis forest, memoized per forest: S(t) = -sum m S(P) R
    over the splits (P, R, m) of a single tree that keep a trunk R, and
    S(ab) = S(b) S(a) on a forest of k > 1 trees split into halves a and b,
    so the depth grows as log k.  Every term holds the vertices of u; a sum
    is refused after the split that takes it past MAX_TERM_VERTICES of them,
    and a product of halves before it is multiplied out."""
    forest = type(u)
    if len(u.trees) > 1:
        h = len(u.trees) // 2
        back = _antipode_forest(forest(u.trees[h:]))
        front = _antipode_forest(forest(u.trees[:h]))
        _refuse_over(MAX_TERM_VERTICES, "an antipode product", len(back) * len(front), u.size)
        return back.bilinear(front, forest_mul)
    if not u.trees:
        return LinComb.term(u)
    data: dict[Forest | PlanarForest, int] = {}
    for pruned, trunk, m in _tree_splits(u.trees[0]):
        if trunk is not None:
            r = forest((trunk,))
            _accumulate(data, ((forest_mul(x, r), c) for x, c in _antipode_forest(pruned).items()),
                        -m)
            _refuse_over(MAX_TERM_VERTICES, "an antipode", len(data), u.size)
    return _wrap(data)


@linear_map
def ck_antipode(u: Forest | PlanarForest) -> LinComb:
    """Antipode: S(t) = -t - sum S(pruned) * trunk, extended to forests by
    S(t_1 ... t_k) = S(t_k) ... S(t_1), an antihomomorphism on ordered
    forests and the multiplicative extension on unordered ones; refused
    past MAX_TERM_VERTICES while it is built."""
    return _antipode_forest(u)


# ---------------------------------------------------------------------------
# the graded dual: vertex attachment product on trees

def _addresses(t: RootedTree) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in _addresses(c))
    return out


def _attach(t: RootedTree, grafts: Mapping[tuple[int, ...], tuple[RootedTree, ...]]) -> RootedTree:
    new_children = []
    for i, c in enumerate(t.children):
        sub = {p[1:]: ts for p, ts in grafts.items() if p and p[0] == i}
        new_children.append(_attach(c, sub) if sub else c)
    return RootedTree(t.label, tuple(new_children) + tuple(grafts.get((), ())))


def _attachments(t: RootedTree, s: RootedTree) -> Iterable[RootedTree]:
    """s with each branch of t attached at a vertex, over all assignments."""
    for assignment in itertools.product(_addresses(s), repeat=len(t.children)):
        grafts: dict[tuple[int, ...], tuple[RootedTree, ...]] = {}
        for branch, spot in zip(t.children, assignment):
            grafts[spot] = grafts.get(spot, ()) + (branch,)
        yield _attach(s, grafts)


@bilinear_map
def gl_product(t: RootedTree, s: RootedTree) -> LinComb:
    """Sum over all ways to attach each branch of the left tree at a vertex
    of the right tree.  The left tree's root label is dropped without a
    check (``f1`` times ``f2[f3]`` is ``f2[f3]``), though the antipode
    refuses a labeled root."""
    return LinComb((r, 1) for r in _attachments(t, s))


GL_UNIT_TREE = leaf()


def gl_unit() -> LinComb:
    return LinComb.term(GL_UNIT_TREE)


@linear_map
def gl_coproduct(t: RootedTree) -> LinComb:
    """Split the branch multiset of the root: j of the m copies of each
    distinct branch go left and the rest right, with coefficient the
    product of the C(m, j).  A root whose prod (m + 1) terms of |t| + 1
    vertices would pass MAX_TERM_VERTICES is refused before any is built."""
    groups = _multiplicities(t.children)
    _refuse_over(MAX_TERM_VERTICES, "a coproduct", prod(m + 1 for _, m in groups), t.size + 1)
    terms = []
    for js in itertools.product(*(range(m + 1) for _, m in groups)):
        left = tuple(b for (b, _), j in zip(groups, js) for _ in range(j))
        right = tuple(b for (b, m), j in zip(groups, js) for _ in range(m - j))
        terms.append((Tensor((RootedTree(t.label, left), RootedTree(t.label, right))),
                      prod(comb(m, j) for (_, m), j in zip(groups, js))))
    return LinComb(terms)


@lru_cache(maxsize=None)
def _gl_antipode_tree(t: RootedTree) -> LinComb:
    if t.label is not None:
        # a labeled root is group-like here and has no polynomial inverse
        raise ValueError(f"attachment antipode needs an unlabeled root, got {t}")
    if t == GL_UNIT_TREE:
        return gl_unit()
    return recursive_antipode(t, gl_coproduct, gl_product, _gl_antipode_tree, GL_UNIT_TREE)


@linear_map
def gl_antipode(t: RootedTree) -> LinComb:
    """Antipode of the attachment Hopf algebra: S(t) = -t - sum S(t_S) o t_Sc
    over proper branch subsets."""
    return _gl_antipode_tree(t)


def ck_gl_dual(t: RootedTree) -> tuple[Forest, int]:
    """The one forest that t pairs with, and the value there.

    The pairing is diagonal, <B+(u), v> = |sym(u)| if u == v else 0, so
    t = B+(u) pairs only with its branch forest u, with value |sym(u)|.
    The attachment basis trees have an unlabeled root, so a tree with a
    labeled root pairs with nothing: its value is 0.
    """
    u = strip_root(t)
    return u, 0 if t.label is not None else sym_order(u)


# ---------------------------------------------------------------------------
# planar trees: root-branch shuffle and branch deconcatenation

# The most vertices, summed over its terms, that a product of two planar
# trees may have: each of its distinct branch shuffles is one tree over
# all |t| + |s| - 2 branch vertices and a new root.  Just under it, 9 + 9
# distinct ladder branches of 14-31 vertices (48,620 terms of 406
# vertices, 41 MB printed) took 17-19 s and 141 MB peak RSS on a 2-core
# x86_64 machine, as long as the heaviest table under MAX_SHUFFLE_ITEMS.
MAX_PLANAR_PRODUCT_VERTICES = 20_000_000


@bilinear_map
def planar_diamond(t: PlanarTree, s: PlanarTree) -> LinComb:
    """Shuffle the root-branch sequences of the two trees under an unlabeled
    root.  Both root labels are dropped without a check (``f1`` times
    ``f2`` is ``[]``), though the antipode refuses a labeled root.  The
    table shuffles int indices, equal branches sharing one, so that its
    cells hash ints rather than trees.  A pair of trees whose terms would
    hold more than MAX_PLANAR_PRODUCT_VERTICES vertices in all is refused
    once the table is filled, before any term is built."""
    index = {b: i for i, b in enumerate(dict.fromkeys(t.children + s.children))}
    branches = tuple(index)
    table = _shuffle_table(tuple(map(index.__getitem__, t.children)),
                           tuple(map(index.__getitem__, s.children)), ZERO)
    _refuse_over(MAX_PLANAR_PRODUCT_VERTICES, "a product", len(table), t.size + s.size - 1)
    return LinComb((PlanarTree(None, tuple(map(branches.__getitem__, seq))), c)
                   for seq, c in table.items())


@linear_map
def planar_diamond_coproduct(t: PlanarTree) -> LinComb:
    """Deconcatenate the root-branch sequence."""
    return LinComb(
        (Tensor((PlanarTree(t.label, t.children[:k]), PlanarTree(t.label, t.children[k:]))), 1)
        for k in range(len(t.children) + 1))


@linear_map
def planar_diamond_antipode(t: PlanarTree) -> LinComb:
    """Antipode for the branch shuffle, in closed form: a tree with k root
    branches goes to (-1)^k times the tree with its branch sequence reversed."""
    if t.label is not None:
        raise ValueError(f"branch-shuffle antipode needs an unlabeled root, got {t}")
    return LinComb.term(PlanarTree(None, t.children[::-1]), (-1) ** len(t.children))


# ---------------------------------------------------------------------------
# the convolution logarithm of a character

def _log_weight(n: int, j: int) -> Fraction:
    """(-1)^(j+1) C(n, j) / j, the weight of a^(*j) in log a on n vertices."""
    return Fraction((-1) ** (j + 1) * comb(n, j), j)


def char_log(tree_value: Callable[[RootedTree], Scalar]) -> Callable[[Forest], Scalar]:
    """Convolution logarithm of the character with the given tree values.

    Every convolution power a^(*j) of a character is again a character, so
    expanding (a - e)^(*k) binomially in log a = sum (-1)^(k+1)/k (a - e)^(*k)
    and summing over k by the hockey-stick identity gives, on a forest u
    with n vertices,

        log a(u) = sum_{j=1..n} (-1)^(j+1) C(n, j)/j prod_{t in u} a^(*j)(t),

    with a^(*j)(t) the sum of m a(P) a^(*(j-1))(R) over the splits (P, R, m)
    of t (a^(*0) is 1 on a pruned-away trunk).  The weights w(n, j) are
    read through _log_weight and put over their least common denominator
    D, so the sum runs over the ints D w(n, j), and over ints throughout
    when the tree values are ints: one Fraction per forest, none where the
    sum is 0.  Values and weights are memoized per call.
    """
    @cache
    def weighted_splits(t: RootedTree) -> list[tuple[Scalar, RootedTree | None]]:
        # the splits (P, R, m) of t as (m a(P), R), zero weights dropped
        out = []
        for pruned, trunk, mult in _tree_splits(t):
            weight = mult
            for s in pruned.trees:
                weight *= as_fraction(tree_value(s))
            if weight:
                out.append((weight, trunk))
        return out

    @cache
    def power(j: int, t: RootedTree) -> Scalar:
        total = 0
        for weight, trunk in weighted_splits(t):
            if trunk is None:
                total += weight
            elif j > 1:
                total += weight * power(j - 1, trunk)
        return total

    @cache
    def log_row(n: int) -> tuple[int, list[int]]:
        # D and the ints D w(n, j), j = 1..n
        weights = [_log_weight(n, j) for j in range(1, n + 1)]
        d = lcm(*(w.denominator for w in weights))
        return d, [w.numerator * (d // w.denominator) for w in weights]

    def log_a(u: Forest) -> Scalar:
        d, row = log_row(u.size)
        total = 0
        for j, term in enumerate(row, 1):
            for t in u.trees:
                term *= power(j, t)
            total += term
        return Fraction(total, d) if total else 0

    return log_a


# ---------------------------------------------------------------------------
# the universal lift through a bialgebra with one cocycle per label

@dataclass
class CocycleTarget:
    """A bialgebra target: unit element, product, basis-level coproduct and
    one linear endomap per label expected to satisfy the cocycle law
    coproduct(L(x)) = L(x) (x) unit + (id (x) L)(coproduct(x))."""

    unit: LinComb
    product: Callable[[LinComb, LinComb], LinComb]
    coproduct: Callable[[object], LinComb]
    cocycles: Mapping[int | None, Callable[[LinComb], LinComb]]


class CocycleLawError(ValueError):
    pass


def _coproduct_lc(target: CocycleTarget, x: LinComb) -> LinComb:
    return x.map_basis(target.coproduct)


def _check_cocycle(target: CocycleTarget, label: int | None, x: LinComb, probe: object) -> None:
    L = target.cocycles[label]
    lhs = _coproduct_lc(target, L(x))
    rhs = LinComb.sum([lincomb_tensor(L(x), target.unit)]
                      + [(lincomb_tensor(LinComb.term(t.parts[0]), L(LinComb.term(t.parts[1]))), c)
                         for t, c in _coproduct_lc(target, x).items()])
    if lhs != rhs:
        raise CocycleLawError(
            f"cocycle law fails for label {label!r} at probe element {probe}")


def cocycle_lift(target: CocycleTarget) -> Callable[[LinComb | Forest], LinComb]:
    """The unique algebra morphism from forests sending B+_a to the a-cocycle.

    The returned callable keeps the image of every tree and forest it has
    built, so each intermediate image is built, and its cocycle law verified,
    once per lift.  The memo lives as long as the callable.
    """
    @cache
    def on_tree(t: RootedTree) -> LinComb:
        inner = on_forest(strip_root(t))
        if t.label not in target.cocycles:
            raise KeyError(f"no cocycle for label {t.label!r} (tree {t})")
        _check_cocycle(target, t.label, inner, strip_root(t))
        return target.cocycles[t.label](inner)

    @cache
    def on_forest(u: Forest) -> LinComb:
        total = target.unit
        for t in u.trees:
            total = target.product(total, on_tree(t))
        return total

    return linear_map(on_forest)


def universal_cocycle_map(target: CocycleTarget, x: LinComb | Forest) -> LinComb:
    """The image of x under a fresh cocycle_lift(target)."""
    return cocycle_lift(target)(x)


def shuffle_target(labels: Iterable[int]) -> CocycleTarget:
    """Words with shuffle/deconcatenation and L_a(w) = w.a: the lift is pi."""
    def make(a: int):
        return lambda x: x.map_basis(lambda w: Word(w.letters + (a,)))

    return CocycleTarget(
        unit=LinComb.term(EMPTY_WORD),
        product=shuffle,
        coproduct=deconcat,
        cocycles={a: make(a) for a in labels},
    )
