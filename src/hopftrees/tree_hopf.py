"""Hopf algebra structures on forests of rooted trees.

Four structures are implemented:

* the commutative cut coproduct algebra on forests (selector ``ck``), where
  the coproduct of a tree sums pruned-forest (x) trunk over admissible cuts
  and extends multiplicatively; on labeled forests the same sum is the one
  over vertex bipartitions whose right part is closed under taking parents;
* its graded dual with the vertex-attachment product (selector ``gl``),
  whose basis trees pair with forests by stripping the root;
* the ordered-forest variant of the cut coproduct with the concatenation
  product (selector ``foissy``); one cut core (tree splits, forest
  coproduct, product and antipode) serves ordered and unordered forests,
  reading the forest type off its argument;
* the root-branch shuffle product with deconcatenation of branches on
  planar trees (selector ``planar``).

Every antipode here is ``algebra.recursive_antipode`` fed with the
structure's own coproduct and product.  The cut antipode is memoized per
forest: it recurses over the splits of a single tree, and splits a longer
forest into halves, (anti)multiplicatively;
the attachment and branch-shuffle antipodes recurse on the branch splits of
an unlabeled root.

Functionals on forests come in two flavours (characters, multiplicative;
infinitesimal characters, Leibniz) with convolution exponentials, plus the
universal lift through a graded bialgebra equipped with one Hochschild
1-cocycle per label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Mapping

from .algebra import (LinComb, Scalar, Tensor, as_fraction, functional_convolve,
                      lincomb_tensor, recursive_antipode)
from .trees import (EMPTY_FOREST, EMPTY_PLANAR_FOREST, Forest, PlanarForest,
                    PlanarTree, RootedTree, forest_mul, leaf, strip_root,
                    sym_order)


# ---------------------------------------------------------------------------
# cut coproduct algebra on forests, unordered (commutative) or ordered

def ck_product(x: LinComb | Forest | PlanarForest, y: LinComb | Forest | PlanarForest) -> LinComb:
    return LinComb.lift(x).bilinear(LinComb.lift(y), forest_mul)


@lru_cache(maxsize=None)
def _tree_splits(t: RootedTree | PlanarTree) -> tuple[tuple[Forest, RootedTree | None, int], ...]:
    """Splits of one tree into (pruned forest, trunk or None), with counts.

    A split either prunes the whole tree (trunk None) or keeps the root and
    splits each branch independently; this enumerates the trivial terms plus
    all admissible cuts in one pass, and the bipartition form on labeled
    forests is the multiplicative extension of the same sum.  Planar trees
    split into ordered pruned forests and planar trunks, in branch order.
    """
    tree = type(t)
    forest = tree.forest_class
    acc: dict[tuple[Forest, RootedTree | None], int] = {}
    acc[(forest((t,)), None)] = 1
    per_child = []
    for c in t.children:
        options: dict[tuple[Forest, RootedTree | None], int] = {}
        for pruned, trunk, mult in _tree_splits(c):
            key = (pruned, trunk)
            options[key] = options.get(key, 0) + mult
        per_child.append(list(options.items()))
    for combo in itertools.product(*per_child):
        pruned_trees: tuple = ()
        kept = []
        mult = 1
        for (p, trunk), m in combo:
            pruned_trees += p.trees
            if trunk is not None:
                kept.append(trunk)
            mult *= m
        key = (forest(pruned_trees), tree(t.label, kept))
        acc[key] = acc.get(key, 0) + mult
    return tuple((p, r, m) for (p, r), m in acc.items())


def _tree_coproduct(t: RootedTree | PlanarTree) -> LinComb:
    """Coproduct of one tree, pruned forest (x) trunk as a one-tree forest
    (the unit forest when the whole tree is pruned)."""
    forest = type(t).forest_class
    unit = forest(())
    return LinComb((Tensor((pruned, unit if trunk is None else forest((trunk,)))), mult)
                   for pruned, trunk, mult in _tree_splits(t))


@lru_cache(maxsize=None)
def coproduct_forest(u: Forest | PlanarForest) -> LinComb:
    """Coproduct of a basis forest, as a sum of Forest (x) Forest tensors
    (PlanarForest tensors for an ordered forest)."""
    unit = type(u)(())
    total = LinComb.term(Tensor((unit, unit)))
    for t in u.trees:
        total = total.bilinear(_tree_coproduct(t), lambda a, b: Tensor(
            (forest_mul(a.parts[0], b.parts[0]), forest_mul(a.parts[1], b.parts[1]))))
    return total


def ck_coproduct(x: LinComb | Forest | PlanarForest) -> LinComb:
    return LinComb.lift(x).map_basis(coproduct_forest)


def ck_counit(x: LinComb | Forest | PlanarForest) -> Scalar:
    """The coefficient of the empty forest, unordered or ordered."""
    x = LinComb.lift(x)
    return x.coeff(EMPTY_FOREST) + x.coeff(EMPTY_PLANAR_FOREST)


@lru_cache(maxsize=None)
def _antipode_forest(u: Forest | PlanarForest) -> LinComb:
    """S(u) for a basis forest, memoized per forest: the recursion over the
    splits of a single tree, and S(ab) = S(b) S(a) on a forest of k > 1
    trees split into halves a and b, so the depth grows as log k."""
    forest = type(u)
    if len(u.trees) > 1:
        h = len(u.trees) // 2
        return ck_product(_antipode_forest(forest(u.trees[h:])),
                          _antipode_forest(forest(u.trees[:h])))
    if not u.trees:
        return LinComb.term(u)
    return recursive_antipode(u.trees[0], _tree_coproduct, ck_product, _antipode_forest,
                              forest(()))


def ck_antipode(x: LinComb | Forest | PlanarForest) -> LinComb:
    """Antipode: S(t) = -t - sum S(pruned) * trunk, extended to forests by
    S(t_1 ... t_k) = S(t_k) ... S(t_1), an antihomomorphism on ordered
    forests and the multiplicative extension on unordered ones."""
    return LinComb.lift(x).map_basis(_antipode_forest)


def cut_coproduct_tree(t: RootedTree) -> LinComb:
    """Coproduct of a single tree assembled directly from admissible cuts.

    Independent of the split recursion; used to cross-check it.
    """
    from .trees import admissible_cuts
    tensors = [Tensor((Forest((t,)), EMPTY_FOREST)), Tensor((EMPTY_FOREST, Forest((t,))))]
    tensors += (Tensor((cut.pruned, Forest((cut.trunk,)))) for cut in admissible_cuts(t))
    return LinComb((x, 1) for x in tensors)


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


def gl_product(x: LinComb | RootedTree, y: LinComb | RootedTree) -> LinComb:
    """Sum over all ways to attach each branch of the left tree at a vertex
    of the right tree."""
    return LinComb.lift(x).bilinear(LinComb.lift(y),
                                    lambda t, s: LinComb((r, 1) for r in _attachments(t, s)))


GL_UNIT_TREE = leaf()


def gl_unit() -> LinComb:
    return LinComb.term(GL_UNIT_TREE)


def gl_coproduct(x: LinComb | RootedTree) -> LinComb:
    """Split the branch multiset of the root in all 2^k ways."""

    def on_tree(t: RootedTree) -> LinComb:
        k = len(t.children)
        terms = []
        for mask in range(1 << k):
            left = tuple(c for i, c in enumerate(t.children) if mask >> i & 1)
            right = tuple(c for i, c in enumerate(t.children) if not mask >> i & 1)
            terms.append((Tensor((RootedTree(t.label, left), RootedTree(t.label, right))), 1))
        return LinComb(terms)

    return LinComb.lift(x).map_basis(on_tree)


def gl_counit(x: LinComb | RootedTree) -> Scalar:
    return LinComb.lift(x).coeff(GL_UNIT_TREE)


@lru_cache(maxsize=None)
def _gl_antipode_tree(t: RootedTree) -> LinComb:
    if t.label is not None:
        # a labeled root is group-like here and has no polynomial inverse
        raise ValueError(f"attachment antipode needs an unlabeled root, got {t}")
    if t == GL_UNIT_TREE:
        return gl_unit()
    return recursive_antipode(t, gl_coproduct, gl_product, _gl_antipode_tree, GL_UNIT_TREE)


def gl_antipode(x: LinComb | RootedTree) -> LinComb:
    """Antipode of the attachment Hopf algebra: S(t) = -t - sum S(t_S) o t_Sc
    over proper branch subsets."""
    return LinComb.lift(x).map_basis(_gl_antipode_tree)


def ck_gl_dual(t: RootedTree) -> tuple[Forest, int]:
    """The one forest that t pairs with, and the value there.

    The pairing is diagonal, <B+(u), v> = |sym(u)| if u == v else 0, so
    t = B+(u) pairs only with its branch forest u, with value |sym(u)|.
    The attachment basis trees have an unlabeled root, so a tree with a
    labeled root pairs with nothing: its value is 0.
    """
    u = strip_root(t)
    return u, 0 if t.label is not None else sym_order(u)


def ck_gl_pairing(t: RootedTree, v: Forest) -> int:
    """<B+(u), v> = |sym(u)| if u == v else 0, u the branch forest of t
    (0 on a labeled root)."""
    u, s = ck_gl_dual(t)
    return s if u == v else 0


def pair_gl_ck(x: LinComb | RootedTree, y: LinComb | Forest) -> Scalar:
    """<x, y>, one coefficient lookup in y per tree of x."""
    y = LinComb.lift(y)
    total = 0
    for t, c in LinComb.lift(x).items():
        u, s = ck_gl_dual(t)
        cy = y.coeff(u)
        if cy:
            total += c * cy * s
    return total


# ---------------------------------------------------------------------------
# planar trees: root-branch shuffle and branch deconcatenation

def _seq_shuffles(a: tuple, b: tuple):
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


def planar_diamond(x: LinComb | PlanarTree, y: LinComb | PlanarTree) -> LinComb:
    """Shuffle the root-branch sequences of the two trees."""

    def on_pair(t: PlanarTree, s: PlanarTree) -> LinComb:
        return LinComb((PlanarTree(None, seq), 1) for seq in _seq_shuffles(t.children, s.children))

    return LinComb.lift(x).bilinear(LinComb.lift(y), on_pair)


def planar_diamond_coproduct(x: LinComb | PlanarTree) -> LinComb:
    """Deconcatenate the root-branch sequence."""

    def on_tree(t: PlanarTree) -> LinComb:
        return LinComb(
            (Tensor((PlanarTree(t.label, t.children[:k]), PlanarTree(t.label, t.children[k:]))), 1)
            for k in range(len(t.children) + 1))

    return LinComb.lift(x).map_basis(on_tree)


@lru_cache(maxsize=None)
def _diamond_antipode_tree(t: PlanarTree) -> LinComb:
    if t.label is not None:
        raise ValueError(f"branch-shuffle antipode needs an unlabeled root, got {t}")
    if not t.children:
        return LinComb.term(t)
    return recursive_antipode(t, planar_diamond_coproduct, planar_diamond,
                              _diamond_antipode_tree, PlanarTree(None, ()))


def planar_diamond_antipode(x: LinComb | PlanarTree) -> LinComb:
    """Antipode for the branch shuffle: reverses the branch sequence up to
    the sign (-1)^(number of branches); computed by the defining recursion."""
    return LinComb.lift(x).map_basis(_diamond_antipode_tree)


# ---------------------------------------------------------------------------
# ordered forests: the cut coproduct algebra above, without commutativity

def foissy_product(x: LinComb | PlanarForest, y: LinComb | PlanarForest) -> LinComb:
    return ck_product(x, y)


def foissy_coproduct(x: LinComb | PlanarForest) -> LinComb:
    return ck_coproduct(x)


def foissy_counit(x: LinComb | PlanarForest) -> Scalar:
    return ck_counit(x)


def foissy_antipode(x: LinComb | PlanarForest) -> LinComb:
    """Antipode on ordered forests; an algebra antihomomorphism."""
    return ck_antipode(x)


# ---------------------------------------------------------------------------
# characters

class Character:
    """A multiplicative functional, determined by its values on trees."""

    def __init__(self, tree_values: Mapping[RootedTree, Scalar]):
        self.tree_values = {t: as_fraction(v) for t, v in tree_values.items()}

    def __call__(self, u: Forest) -> Scalar:
        total = 1
        for t in u.trees:
            total *= self.tree_values.get(t, 0)
        return total


class InfinitesimalCharacter:
    """A Leibniz functional: vanishes on the unit and on proper products."""

    def __init__(self, tree_values: Mapping[RootedTree, Scalar]):
        self.tree_values = {t: as_fraction(v) for t, v in tree_values.items()}

    def __call__(self, u: Forest) -> Scalar:
        if len(u.trees) != 1:
            return 0
        return self.tree_values.get(u.trees[0], 0)


def convolution_unit(u: Forest) -> int:
    return 1 if u == EMPTY_FOREST else 0


def char_convolution(f: Callable[[Forest], Scalar],
                     g: Callable[[Forest], Scalar]) -> Callable[[Forest], Scalar]:
    return functional_convolve(f, g, coproduct_forest)


def convolution_powers(a: Callable[[Forest], Scalar]) -> Callable[[int, Forest], Scalar]:
    """k, u -> a^(*k)(u) by a^(*k) = a * a^(*(k-1)) over the cut coproduct,
    memoized per call; a^(*0) is the convolution unit."""
    cache: dict[tuple[int, Forest], Scalar] = {}

    def power(k: int, u: Forest) -> Scalar:
        if k == 0:
            return convolution_unit(u)
        if k == 1:
            return as_fraction(a(u))
        key = (k, u)
        if key not in cache:
            total = 0
            for t, c in coproduct_forest(u).items():
                left, right = t.parts
                av = as_fraction(a(left))
                if av:
                    total += c * av * power(k - 1, right)
            cache[key] = total
        return cache[key]

    return power


def char_exp(g: Callable[[Forest], Scalar]) -> Callable[[Forest], Scalar]:
    """Convolution exponential of a functional g that kills the unit.

    Since g kills the unit, g^(*k)(u) vanishes for k > |u| and the sum is
    finite in each degree.  For an infinitesimal character g the result is
    a character.
    """
    if as_fraction(g(EMPTY_FOREST)):
        raise ValueError("convolution exponential needs g(I) = 0")
    power = convolution_powers(g)

    def exp_g(u: Forest) -> Scalar:
        total = convolution_unit(u)
        fact = 1
        for k in range(1, u.size + 1):
            fact *= k
            total += Fraction(power(k, u), fact)
        return total

    return exp_g


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
    of t (a^(*0) is 1 on a pruned-away trunk).  Values are memoized per call.
    """
    splits: dict[RootedTree, list[tuple[Scalar, RootedTree | None]]] = {}
    powers: dict[tuple[int, RootedTree], Scalar] = {}

    def weighted_splits(t: RootedTree) -> list[tuple[Scalar, RootedTree | None]]:
        # the splits (P, R, m) of t as (m a(P), R), zero weights dropped
        got = splits.get(t)
        if got is None:
            got = []
            for pruned, trunk, mult in _tree_splits(t):
                weight = mult
                for s in pruned.trees:
                    weight *= as_fraction(tree_value(s))
                if weight:
                    got.append((weight, trunk))
            splits[t] = got
        return got

    def power(j: int, t: RootedTree) -> Scalar:
        key = (j, t)
        got = powers.get(key)
        if got is None:
            got = 0
            for weight, trunk in weighted_splits(t):
                if trunk is None:
                    got += weight
                elif j > 1:
                    got += weight * power(j - 1, trunk)
            powers[key] = got
        return got

    def log_a(u: Forest) -> Scalar:
        total = 0
        n = u.size
        for j in range(1, n + 1):
            term = _log_weight(n, j)
            for t in u.trees:
                term *= power(j, t)
            total += term
        return total

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
    verify: bool = True


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
    built, so each intermediate image is built, and its cocycle law verified
    (unless the target opts out), once per lift.  The memo lives as long as
    the callable.
    """
    images: dict[RootedTree | Forest, LinComb] = {}

    def on_tree(t: RootedTree) -> LinComb:
        if t not in images:
            inner = on_forest(strip_root(t))
            if t.label not in target.cocycles:
                raise KeyError(f"no cocycle for label {t.label!r} (tree {t})")
            if target.verify:
                _check_cocycle(target, t.label, inner, strip_root(t))
            images[t] = target.cocycles[t.label](inner)
        return images[t]

    def on_forest(u: Forest) -> LinComb:
        if u not in images:
            total = target.unit
            for t in u.trees:
                total = target.product(total, on_tree(t))
            images[u] = total
        return images[u]

    return lambda x: LinComb.lift(x).map_basis(on_forest)


def universal_cocycle_map(target: CocycleTarget, x: LinComb | Forest) -> LinComb:
    """The image of x under a fresh cocycle_lift(target)."""
    return cocycle_lift(target)(x)


def ck_target(labels: Iterable[int | None] = (None,), verify: bool = True) -> CocycleTarget:
    """Forests with the cut coproduct and L_a = B+_a; the lift is the identity."""
    from .trees import bplus

    def make(a):
        return lambda x: x.map_basis(lambda u: Forest((bplus(u, a),)))

    return CocycleTarget(
        unit=LinComb.term(EMPTY_FOREST),
        product=ck_product,
        coproduct=coproduct_forest,
        cocycles={a: make(a) for a in labels},
        verify=verify,
    )


def shuffle_target(labels: Iterable[int], verify: bool = True) -> CocycleTarget:
    """Words with shuffle/deconcatenation and L_a(w) = w.a: the lift is pi."""
    from .words import EMPTY_WORD, Word, deconcat, shuffle

    def make(a: int):
        return lambda x: x.map_basis(lambda w: Word(w.letters + (a,)))

    return CocycleTarget(
        unit=LinComb.term(EMPTY_WORD),
        product=shuffle,
        coproduct=deconcat,
        cocycles={a: make(a) for a in labels},
        verify=verify,
    )
