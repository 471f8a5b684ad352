"""Rooted trees and forests, plain and planar, labeled or not.

One tree class and one forest class hold construction, equality, hashing,
ordering and printing; the plain classes (RootedTree, Forest) sort their
children and trees by a canonical key, so equal trees are structurally
identical and forests are multisets, while the planar classes
(PlanarTree, PlanarForest) keep the given order.  A plain and a planar
value of the same shape are never equal.  Labels are positive
integers (vertex labeled k stands for the letter f_k and has weight k);
unlabeled vertices have label None and weight 0.

Text grammar: ``[]`` is an unlabeled vertex, children go comma-separated in
brackets (``[[],[]]`` is the cherry), a label prefixes the bracket as in
``f2[f1]``, and a labeled leaf may drop its brackets. Forests are space
separated; the empty forest prints as ``I``.  Trees nested deeper than
``MAX_PARSE_DEPTH`` vertices are refused with a ParseError.  Planar trees
also have a balanced-bracket form over ``<``/``>`` in which the root is
implicit; there the same limit counts bracket levels below the root.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .algebra import ParseError
from .words import Word


# The canonical order of trees and forests, for sorting.
_by_key = attrgetter("_key")


class _Tree:
    """A labeled root over a tuple of children; the shared body of
    RootedTree and PlanarTree, which differ only in class attributes:
    whether the given child order is kept, the repr tag, and the forest
    class that holds their trees. Immutable."""

    __slots__ = ("label", "children", "size", "weight", "_key", "_hash")

    def __init__(self, label: int | None = None, children: Iterable[_Tree] = ()):
        if label is not None and (not isinstance(label, int) or label < 1):
            raise ValueError(f"labels must be positive integers, got {label!r}")
        cls = type(self)
        kids = tuple(children) if cls._ordered else tuple(sorted(children, key=_by_key))
        for t in kids:
            if not isinstance(t, cls):
                raise TypeError(f"children must be {cls.__name__} instances")
        self.label = label
        self.children = kids
        self.size = 1 + sum(t.size for t in kids)
        self.weight = (label or 0) + sum(t.weight for t in kids)
        self._key = (self.size, label or 0, tuple(t._key for t in kids))
        self._hash = hash((cls.__name__, label, kids))

    def sort_key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._hash == other._hash
                and self.label == other.label and self.children == other.children)

    def __hash__(self) -> int:
        return self._hash

    def is_fully_labeled(self) -> bool:
        return self.label is not None and all(c.is_fully_labeled() for c in self.children)

    def is_unlabeled(self) -> bool:
        return self.label is None and all(c.is_unlabeled() for c in self.children)

    def __str__(self) -> str:
        prefix = f"f{self.label}" if self.label is not None else ""
        if not self.children:
            return prefix if prefix else "[]"
        return prefix + "[" + ",".join(str(c) for c in self.children) + "]"

    def __repr__(self) -> str:
        return f"<{self._tag} {self}>"


class _Forest:
    """A tuple of trees; the shared body of Forest and PlanarForest, which
    differ only in whether the given order is kept and in the repr tag.
    The unit forest is empty."""

    __slots__ = ("trees", "size", "weight", "_key", "_hash")

    def __init__(self, trees: Iterable[_Tree] = ()):
        cls = type(self)
        ts = tuple(trees) if cls._ordered else tuple(sorted(trees, key=_by_key))
        self.trees = ts
        self.size = sum(t.size for t in ts)
        self.weight = sum(t.weight for t in ts)
        self._key = (self.size, tuple(t._key for t in ts))
        self._hash = hash((cls.__name__, ts))

    def sort_key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (other.__class__ is self.__class__ and self._hash == other._hash
                and self.trees == other.trees)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.trees)

    def is_fully_labeled(self) -> bool:
        return all(t.is_fully_labeled() for t in self.trees)

    def is_unlabeled(self) -> bool:
        return all(t.is_unlabeled() for t in self.trees)

    def __str__(self) -> str:
        if not self.trees:
            return "I"
        return " ".join(str(t) for t in self.trees)

    def __repr__(self) -> str:
        return f"<{self._tag} {self}>"


class Forest(_Forest):
    """A multiset of rooted trees, stored sorted. The unit forest is empty."""

    __slots__ = ()
    _ordered = False
    _tag = "forest"


class PlanarForest(_Forest):
    """An ordered forest of planar trees (a word in planar trees)."""

    __slots__ = ()
    _ordered = True
    _tag = "planar forest"


class RootedTree(_Tree):
    """A rooted tree with canonically sorted children. Immutable."""

    __slots__ = ()
    _ordered = False
    _tag = "tree"
    forest_class = Forest


class PlanarTree(_Tree):
    """A rooted tree whose children are ordered left to right. Immutable."""

    __slots__ = ()
    _ordered = True
    _tag = "planar"
    forest_class = PlanarForest


EMPTY_FOREST = Forest(())


def leaf(label: int | None = None, tree_class: type[_Tree] = RootedTree) -> _Tree:
    return tree_class(label, ())


def forest(*trees: RootedTree) -> Forest:
    return Forest(trees)


def forest_mul(u: Forest | PlanarForest, v: Forest | PlanarForest) -> Forest | PlanarForest:
    """The product of forests: disjoint union, commutative on Forest values,
    and concatenation on ordered forests.  Forests are immutable, so a
    product with the empty forest is the other factor itself."""
    if not u.trees:
        return v
    if not v.trees:
        return u
    return type(u)(u.trees + v.trees)


def bplus(u: Forest | PlanarForest, label: int | None = None,
          tree_class: type[_Tree] = RootedTree) -> _Tree:
    """Graft all trees of u onto a fresh root."""
    return tree_class(label, u.trees)


def strip_root(t: RootedTree) -> Forest:
    """Inverse of bplus: drop the root, keep its branches."""
    return Forest(t.children)


def graft(t: RootedTree, u: Forest) -> RootedTree:
    """Attach the roots of u as extra branches of t's root (t o u)."""
    return RootedTree(t.label, t.children + u.trees)


def canonicalize(t: RootedTree | PlanarTree) -> RootedTree:
    """Rebuild a tree bottom-up as a RootedTree, which sorts children."""
    return RootedTree(t.label, tuple(canonicalize(c) for c in t.children))


def ladder(n: int, labels: Sequence[int] | None = None,
           tree_class: type[_Tree] = RootedTree) -> _Tree:
    """The n-vertex ladder; labels, if given, run deepest vertex first."""
    if n < 1:
        raise ValueError("ladders need at least one vertex")
    if labels is not None and len(labels) != n:
        raise ValueError("need one label per vertex")
    t = leaf(labels[0] if labels else None, tree_class)
    for i in range(1, n):
        t = tree_class(labels[i] if labels else None, (t,))
    return t


def labeled_ladder(w: Word) -> RootedTree:
    """The ladder whose only linear extension reads w (deepest letter first)."""
    return ladder(len(w.letters), w.letters)


# ---------------------------------------------------------------------------
# symmetry and permutation counts


def sym_order(x: RootedTree | Forest) -> int:
    """Order of the automorphism group (label-preserving)."""
    trees = x.children if isinstance(x, RootedTree) else x.trees
    out = 1
    for t, mult in _multiplicities(trees):
        out *= factorial(mult) * sym_order(t) ** mult
    return out


def per_count(x: RootedTree | Forest) -> int:
    """Number of vertex permutations respecting the forest structure:
    per(B+_a(u)) = per(u) and per(prod t_j^(i_j)) = prod i_j! per(t_j)^(i_j),
    the recursion of sym_order."""
    return sym_order(x)


def _multiplicities(trees: Sequence[RootedTree]) -> list[tuple[RootedTree, int]]:
    out: list[tuple[RootedTree, int]] = []
    for t in trees:
        if out and out[-1][0] == t:
            out[-1] = (t, out[-1][1] + 1)
        else:
            out.append((t, 1))
    return out


# ---------------------------------------------------------------------------
# admissible cuts

from dataclasses import dataclass


@dataclass(frozen=True)
class Cut:
    """A non-trivial admissible cut: the cut edges (as root paths to the
    child vertex), the pruned forest and the trunk containing the root."""

    edges: tuple[tuple[int, ...], ...]
    pruned: Forest
    trunk: RootedTree


def admissible_cuts(t: RootedTree) -> tuple[Cut, ...]:
    """All non-empty edge subsets meeting each root path at most once."""
    configs = _cut_configs(t)
    out = []
    for edges, pruned, trunk in configs:
        if edges:
            out.append(Cut(tuple(sorted(edges)), Forest(pruned), trunk))
    return tuple(out)


def _cut_configs(t: RootedTree) -> list[tuple[tuple, tuple, RootedTree]]:
    """All admissible configurations of t, including the empty cut."""
    per_child = []
    for i, c in enumerate(t.children):
        options = [(((i,),), (c,), None)]  # cut the edge above c
        for edges, pruned, trunk in _cut_configs(c):
            shifted = tuple((i,) + e for e in edges)
            options.append((shifted, pruned, trunk))
        per_child.append(options)
    out = []
    for combo in itertools.product(*per_child):
        edges: tuple = ()
        pruned: tuple = ()
        kept = []
        for e, p, trunk in combo:
            edges += e
            pruned += p
            if trunk is not None:
                kept.append(trunk)
        out.append((edges, pruned, RootedTree(t.label, kept)))
    return out


# ---------------------------------------------------------------------------
# linear extensions

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


# The most linear extensions linear_extensions lists; larger forests are
# refused before enumerating (f1 ... f8 has 40,320; nine leaves 362,880).
MAX_LINEAR_EXTENSIONS = 1_000_000


def extension_count(u: Forest) -> int:
    """The number of linear extensions of u, by the hook-length formula for
    forests: size! over the product of all subtree sizes (Knuth, TAOCP
    vol. 3, 5.1.4, ex. 20)."""
    def hooks(t: RootedTree) -> int:
        return t.size * prod(map(hooks, t.children))
    return factorial(u.size) // prod(map(hooks, u.trees))


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
    return tuple(Word(seq[::-1]) for seq in _extensions_increasing(u.trees))


# ---------------------------------------------------------------------------
# enumeration

def _grafted(forests: Iterable, tree_class: type[_Tree]) -> tuple[_Tree, ...]:
    """Each forest grafted onto a fresh unlabeled root, canonical order."""
    return tuple(sorted((tree_class(None, f.trees) for f in forests), key=_by_key))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[RootedTree, ...]:
    """All unlabeled rooted trees with n vertices, canonical order."""
    return _grafted(enumerate_forests(n - 1), RootedTree) if n >= 1 else ()


@lru_cache(maxsize=None)
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All unlabeled forests with n vertices total, canonical order."""
    out = [Forest(ts) for ts in _multisets(n, _trees_upto_key(n), lambda t: t.size)]
    return tuple(sorted(out, key=_by_key))


def _trees_upto_key(n: int) -> list[RootedTree]:
    pool: list[RootedTree] = []
    for k in range(1, n + 1):
        pool.extend(enumerate_trees(k))
    return sorted(pool, key=_by_key)


def _multisets(total: int, pool: list, size_of) -> Iterator[tuple]:
    """Multisets of distinct pool items with given total size, each once.

    Items are taken in order of size (stably, so in pool order within one
    size), and a level stops scanning at the first item larger than what
    remains.
    """
    items = sorted(pool, key=size_of)
    sizes = [size_of(t) for t in items]

    def rec(rest: int, start: int) -> Iterator[tuple]:
        if rest == 0:
            yield ()
            return
        for i in range(start, len(items)):
            if sizes[i] > rest:
                break
            for tail in rec(rest - sizes[i], i):
                yield (items[i],) + tail
    return rec(total, 0)


@lru_cache(maxsize=None)
def labeled_trees_of_weight(w: int) -> tuple[RootedTree, ...]:
    """All fully labeled rooted trees of total label weight w."""
    if w < 1:
        return ()
    out = []
    for root in range(1, w + 1):
        for f in labeled_forests_of_weight(w - root):
            out.append(bplus(f, root))
    return tuple(sorted(out, key=_by_key))


@lru_cache(maxsize=None)
def labeled_forests_of_weight(w: int) -> tuple[Forest, ...]:
    if w == 0:
        return (EMPTY_FOREST,)
    pool: list[RootedTree] = []
    for k in range(1, w + 1):
        pool.extend(labeled_trees_of_weight(k))
    pool.sort(key=_by_key)
    out = [Forest(ts) for ts in _multisets(w, pool, lambda t: t.weight)]
    return tuple(sorted(out, key=_by_key))


def labeled_forests_up_to_weight(w: int) -> list[Forest]:
    out: list[Forest] = []
    for k in range(0, w + 1):
        out.extend(labeled_forests_of_weight(k))
    return out


# ---------------------------------------------------------------------------
# planar trees

EMPTY_PLANAR_FOREST = PlanarForest(())


def pleaf(label: int | None = None) -> PlanarTree:
    return leaf(label, PlanarTree)


def pbplus(u: PlanarForest, label: int | None = None) -> PlanarTree:
    return bplus(u, label, PlanarTree)


def planar_concat(u: PlanarForest, v: PlanarForest) -> PlanarForest:
    return forest_mul(u, v)


def planar_ladder(n: int) -> PlanarTree:
    """The n-vertex planar ladder; n < 1 gives a single vertex."""
    return ladder(max(n, 1), None, PlanarTree)


def forget_order(t: PlanarTree) -> RootedTree:
    return canonicalize(t)


def forget_order_forest(u: PlanarForest) -> Forest:
    return Forest(forget_order(t) for t in u.trees)


def planar_variants(t: RootedTree) -> tuple[PlanarTree, ...]:
    """All distinct planar trees that flatten to t under forget_order."""
    child_variants = [planar_variants(c) for c in t.children]
    seen = set()
    for choice in itertools.product(*child_variants):
        for perm in itertools.permutations(choice):
            seen.add(PlanarTree(t.label, perm))
    return tuple(sorted(seen, key=_by_key))


@lru_cache(maxsize=None)
def enumerate_planar_trees(n: int) -> tuple[PlanarTree, ...]:
    return _grafted(enumerate_planar_forests(n - 1), PlanarTree) if n >= 1 else ()


@lru_cache(maxsize=None)
def enumerate_planar_forests(n: int) -> tuple[PlanarForest, ...]:
    """Ordered forests of planar trees with n vertices total."""
    if n == 0:
        return (EMPTY_PLANAR_FOREST,)
    out = []
    for k in range(1, n + 1):
        for t in enumerate_planar_trees(k):
            for rest in enumerate_planar_forests(n - k):
                out.append(PlanarForest((t,) + rest.trees))
    return tuple(sorted(out, key=_by_key))


# ---------------------------------------------------------------------------
# balanced bracket representation (planar, unlabeled; the root is implicit)

def bbr_print(t: PlanarTree) -> str:
    return "".join("<" + bbr_print(c) + ">" for c in t.children)


def bbr_parse(text: str) -> PlanarTree:
    """Parse a balanced string over <> into a planar tree.

    Brackets nested deeper than ``MAX_PARSE_DEPTH`` levels below the
    implicit root are refused with a ParseError.
    """
    children, pos = _bbr_children(text, 0)
    if pos != len(text):
        raise ParseError("unbalanced string", pos)
    return PlanarTree(None, children)


def _bbr_children(s: str, pos: int, depth: int = 1) -> tuple[tuple[PlanarTree, ...], int]:
    children = []
    while pos < len(s) and s[pos] == "<":
        if depth > MAX_PARSE_DEPTH:
            raise ParseError(f"tree nested deeper than {MAX_PARSE_DEPTH} levels", pos)
        inner, pos = _bbr_children(s, pos + 1, depth + 1)
        if pos >= len(s) or s[pos] != ">":
            raise ParseError("unbalanced string", len(s) if pos >= len(s) else pos)
        children.append(PlanarTree(None, inner))
        pos += 1
    return tuple(children), pos


# ---------------------------------------------------------------------------
# tree grammar parsing

# Deepest tree the parser accepts, counted in vertices along a root path.
# The kernels and printers recurse once or more per level, so deeper input
# would overflow the interpreter's recursion limit after parsing.
MAX_PARSE_DEPTH = 200


def parse_forest(text: str, planar: bool = False) -> Forest | PlanarForest:
    """Parse a space-separated forest; ``I`` is the empty forest."""
    s = text
    pos = _skip_ws(s, 0)
    if pos < len(s) and s[pos] == "I":
        tail = _skip_ws(s, pos + 1)
        if tail != len(s):
            raise ParseError("unexpected input after empty forest", tail)
        return EMPTY_PLANAR_FOREST if planar else EMPTY_FOREST
    trees = []
    while pos < len(s):
        t, pos = _parse_tree_at(s, pos, planar)
        trees.append(t)
        pos = _skip_ws(s, pos)
    if not trees:
        raise ParseError("empty forest expression (write 'I' for the unit)", pos)
    return PlanarForest(trees) if planar else Forest(trees)


def parse_tree(text: str, planar: bool = False) -> RootedTree | PlanarTree:
    s = text
    pos = _skip_ws(s, 0)
    t, pos = _parse_tree_at(s, pos, planar)
    pos = _skip_ws(s, pos)
    if pos != len(s):
        raise ParseError("unexpected input after tree", pos)
    return t


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos] == " ":
        pos += 1
    return pos


def _parse_tree_at(s: str, pos: int, planar: bool, depth: int = 1):
    if depth > MAX_PARSE_DEPTH:
        raise ParseError(f"tree nested deeper than {MAX_PARSE_DEPTH} levels", pos)
    label = None
    if pos < len(s) and s[pos] == "f":
        pos += 1
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected digits after 'f'", pos)
        label = int(s[start:pos])
        if label < 1:
            raise ParseError("labels must be positive", start)
    children: list = []
    if pos < len(s) and s[pos] == "[":
        pos += 1
        pos = _skip_ws(s, pos)
        if pos < len(s) and s[pos] == "]":
            pos += 1
        else:
            while True:
                child, pos = _parse_tree_at(s, pos, planar, depth + 1)
                children.append(child)
                pos = _skip_ws(s, pos)
                if pos < len(s) and s[pos] == ",":
                    pos = _skip_ws(s, pos + 1)
                    continue
                if pos < len(s) and s[pos] == "]":
                    pos += 1
                    break
                raise ParseError("unbalanced bracket", pos)
    elif label is None:
        raise ParseError("expected a tree", pos)
    cls = PlanarTree if planar else RootedTree
    return cls(label, children), pos
