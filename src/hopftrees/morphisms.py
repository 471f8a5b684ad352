"""Morphisms linking the tree Hopf algebras, word algebras, and
(quasi-)symmetric functions.

Contents: the linear-extension morphism pi and its kernel generators, the
quasi-symmetric monomial basis with its quasi-shuffle product, the four
ladder-tree square maps alpha_1..alpha_4 with their duals, Zhao's
homomorphism and its dual, the truncated lifts rho/beta/Z_u/F, and a
data-driven commuting-diagram checker.

Encoding conventions: NSYM words in the z_n generators, enveloping
algebra words in the e_{-n} generators and the compositions indexing the
monomial basis M_I of QSYM are all stored as Word values over positive
integers; only formatting (``zword_str``, ``eword_str``,
``composition_str``) and the choice of maps distinguish them.  QSYM is the
quasi-shuffle algebra of words under the additive bracket, so its product,
coproduct, counit and antipode are those of ``words``.  SYM lives inside
QSYM as combinations of monomial basis elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Mapping

from .algebra import LinComb, ParseError, Scalar, Tensor, as_fraction
from .linsolve import span_solver
from .trees import (EMPTY_FOREST, Forest, PlanarForest, PlanarTree,
                    RootedTree, bplus, forest, graft, ladder,
                    labeled_ladder, leaf, linear_extensions,
                    enumerate_trees, planar_ladder,
                    planar_variants, forget_order_forest, sym_order)
from .tree_hopf import gl_product, gl_unit
from .words import (ADDITIVE, EMPTY_WORD, Word, deconcat, quasi_shuffle, word,
                    word_antipode, word_counit, words_of_weight)


# ---------------------------------------------------------------------------
# the linear-extension morphism pi

def pi(x: LinComb | Forest) -> LinComb:
    """Sum of the words read along all linear extensions of the forest.

    pi keeps no memo.  Memoizing the images of the eight large forests of
    one perfbench requests pass took 10.7 MB (tracemalloc), and with every
    sub-forest's image, as a recursion on the root read last keeps them,
    21-29 MB, against that workload's 73 MB peak RSS.  A caller that reads
    one image many times keeps it itself, as checks.suite_pi_kernel does
    for one suite call.
    """

    def on_forest(u: Forest) -> LinComb:
        return LinComb((w, 1) for w in linear_extensions(u))

    return LinComb.lift(x).map_basis(on_forest)


def alpha_of(x: LinComb | Forest,
             coeffs: Mapping[Word, Scalar] | Callable[[Word], Scalar]) -> Scalar:
    """Evaluate a word-indexed coefficient family on a labeled forest."""
    if callable(coeffs):
        lookup = coeffs
    else:
        lookup = lambda w: coeffs[w]
    return pi(x).functional(lambda w: as_fraction(lookup(w)))


def circ(t: RootedTree, u: Forest | RootedTree) -> Forest:
    """t o u: graft the forest's roots onto the root of t, as a forest."""
    v = u if isinstance(u, Forest) else Forest((u,))
    return Forest((graft(t, v),))


def kernel_generators(max_weight: int) -> list[LinComb]:
    """Generators of ker(pi) up to the given weight.

    Three families over labeled trees: the symmetrized-grafting relation
    for m = 2, 3, the one-level nested relation s o t o z + s o z o t
    - s o (tz), and the cyclic relation s o (tz) + z o (ts) + t o (sz)
    - tzs.  They overlap; all are emitted.
    """
    from .trees import labeled_forests_up_to_weight

    out: list[LinComb] = []
    forests = labeled_forests_up_to_weight(max_weight)

    for u in forests:
        ts = u.trees
        if len(ts) in (2, 3):
            out.append(LinComb([(u, 1)] + [(circ(t, Forest(ts[:i] + ts[i + 1:])), -1)
                                           for i, t in enumerate(ts)]))

    pairs = [u.trees for u in forests if len(u.trees) == 2]
    singles = [u.trees[0] for u in forests if len(u.trees) == 1]
    for s in singles:
        for t, z in pairs:
            if s.weight + t.weight + z.weight > max_weight:
                continue
            gen = (LinComb.term(circ(s, Forest(circ(t, z).trees)))
                   + LinComb.term(circ(s, Forest(circ(z, t).trees)))
                   - LinComb.term(circ(s, Forest((t, z)))))
            out.append(gen)

    for u in forests:
        if len(u.trees) != 3:
            continue
        ts = u.trees
        out.append(LinComb([(u, -1)] + [(circ(t, Forest(ts[:i] + ts[i + 1:])), 1)
                                        for i, t in enumerate(ts)]))

    return out


# ---------------------------------------------------------------------------
# quasi-symmetric functions: monomial basis indexed by compositions

# the composition (i_1, ..., i_k) is the word f_{i_1} ... f_{i_k}
Composition = Word
EMPTY_COMPOSITION = EMPTY_WORD
composition = word


def composition_str(x: Word | Tensor) -> str:
    """``M(2,1)`` for the word f2.f1 (unit: ``M()``), slotwise on a tensor."""
    if isinstance(x, Tensor):
        return " (x) ".join(composition_str(p) for p in x.parts)
    return "M(" + ",".join(str(p) for p in x.letters) + ")"


def parse_composition(text: str) -> Word:
    """Parse ``M(1,2)`` (unit: ``M()``) into its word; errors carry the byte offset."""
    s = text.strip()
    base = text.index(s) if s else 0
    if not s.startswith("M("):
        raise ParseError("expected 'M('", base)
    pos = 2
    parts = []
    if pos < len(s) and s[pos] == ")":
        pos += 1
    else:
        while True:
            start = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if start == pos:
                raise ParseError("expected digits", base + pos)
            value = int(s[start:pos])
            if value < 1:
                raise ParseError("parts must be positive", base + start)
            parts.append(value)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                continue
            if pos < len(s) and s[pos] == ")":
                pos += 1
                break
            raise ParseError("expected ',' or ')'", base + pos)
    if pos != len(s):
        raise ParseError("unexpected input after composition", base + pos)
    return Word(parts)


def qsym_product(x: LinComb | Word, y: LinComb | Word) -> LinComb:
    """Quasi-shuffle of compositions with additive part merging."""
    return quasi_shuffle(x, y, ADDITIVE)


def qsym_coproduct(x: LinComb | Word) -> LinComb:
    """Deconcatenation of compositions."""
    return LinComb.lift(x).map_basis(deconcat)


qsym_counit = word_counit


def qsym_antipode(x: LinComb | Word) -> LinComb:
    """The antipode of the additive quasi-shuffle algebra."""
    return word_antipode(x, ADDITIVE)


def Aplus(x: LinComb | Word) -> LinComb:
    """Append a part 1: M_I -> M_{I.(1)}."""
    return LinComb.lift(x).map_basis(lambda c: Word(c.letters + (1,)))


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as nonincreasing tuples."""
    if n == 0:
        return [()]
    out = []

    def build(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            build(remaining - p, p, acc)
            acc.pop()

    build(n, n, [])
    return out


def m_lambda(parts: Iterable[int]) -> LinComb:
    """The symmetric monomial m_lambda = sum of M_I over orderings of lambda."""
    parts = tuple(sorted(parts, reverse=True))
    orderings = set(itertools.permutations(parts))
    return LinComb((Word(p), 1) for p in orderings)


def e_basis(n: int) -> LinComb:
    """The elementary symmetric function e_n = M_(1,...,1)."""
    return LinComb.term(Word((1,) * n))


@lru_cache(maxsize=None)
def _e_solver(n: int) -> tuple[list[tuple[int, ...]], Callable[[LinComb], list[Scalar] | None]]:
    """The partitions mu of n, and coordinates in the e_mu basis of weight
    n; the basis is eliminated once per weight."""
    mus = partitions(n)
    products = []
    for mu in mus:
        prod = LinComb.term(EMPTY_COMPOSITION)
        for p in mu:
            prod = qsym_product(prod, e_basis(p))
        products.append(prod)
    return mus, span_solver(products)


def sym_e_decompose(x: LinComb) -> list[tuple[tuple[int, ...], Scalar]]:
    """Write a symmetric element of QSYM in the elementary basis.

    Solved exactly per weight class; raises if some graded piece lies
    outside the span (i.e. the input is not symmetric).
    """
    out: list[tuple[tuple[int, ...], Scalar]] = []
    by_weight: dict[int, list] = {}
    for c, v in x.items():
        by_weight.setdefault(c.weight, []).append((c, v))
    for n in sorted(by_weight):
        target = LinComb(by_weight[n])
        if n == 0:
            out.append(((), target.coeff(EMPTY_COMPOSITION)))
            continue
        mus, solve = _e_solver(n)
        sol = solve(target)
        if sol is None:
            raise ValueError(f"not a symmetric element: {target}")
        out.extend((mu, c) for mu, c in zip(mus, sol) if c)
    return out


# ---------------------------------------------------------------------------
# formatting for generator words

def zword_str(w: Word) -> str:
    if not w.letters:
        return "1"
    return ".".join(f"z{k}" for k in w.letters)


def eword_str(w: Word) -> str:
    if not w.letters:
        return "1"
    return "".join(f"e(-{k})" for k in w.letters)


# ---------------------------------------------------------------------------
# the four square maps and their duals

def alpha1(x: LinComb | Word) -> LinComb:
    """NSYM -> ordered forests: z_n to the planar ladder, words to
    concatenations."""

    def on_word(w: Word) -> PlanarForest:
        return PlanarForest(tuple(planar_ladder(n) for n in w.letters))

    return LinComb.lift(x).map_basis(on_word)


def alpha2(x: LinComb | PlanarForest) -> LinComb:
    """Forget planar order."""
    return LinComb.lift(x).map_basis(forget_order_forest)


def alpha3(x: LinComb | Word) -> LinComb:
    """NSYM -> SYM (inside QSYM): z_n to e_n, extended multiplicatively."""

    def on_word(w: Word) -> LinComb:
        out = LinComb.term(EMPTY_COMPOSITION)
        for n in w.letters:
            out = qsym_product(out, e_basis(n))
        return out

    return LinComb.lift(x).map_basis(on_word)


def alpha4(x: LinComb | Word) -> LinComb:
    """SYM -> forests: e_n to the unlabeled ladder l_n."""
    return LinComb((Forest(tuple(ladder(p) for p in mu)), c)
                   for mu, c in sym_e_decompose(LinComb.lift(x)))


def _ladder_branch_sizes(t: PlanarTree | RootedTree) -> tuple[int, ...] | None:
    """Branch sizes if t is unlabeled with every root branch a ladder."""
    if t.label is not None:
        return None
    sizes = []
    for c in t.children:
        n = 1
        node = c
        while node.children:
            if len(node.children) != 1 or node.label is not None:
                return None
            node = node.children[0]
            n += 1
        if node.label is not None:
            return None
        sizes.append(n)
    return tuple(sizes)


def alpha1_star(x: LinComb | PlanarTree) -> LinComb:
    """Planar trees -> QSYM: the comb tree t_I goes to M_I, others to 0."""

    def on_tree(t: PlanarTree) -> LinComb:
        sizes = _ladder_branch_sizes(t)
        if sizes is None:
            return LinComb.zero()
        return LinComb.term(Word(sizes))

    return LinComb.lift(x).map_basis(on_tree)


def alpha2_star(x: LinComb | RootedTree) -> LinComb:
    """Trees -> planar trees: |sym(t)| times the sum of planar variants."""

    def on_tree(t: RootedTree) -> LinComb:
        return LinComb((s, sym_order(t)) for s in planar_variants(t))

    return LinComb.lift(x).map_basis(on_tree)


def alpha4_star(x: LinComb | RootedTree) -> LinComb:
    """Trees -> SYM: t_J (all branches ladders) to |sym(t_J)| m_J, else 0."""

    def on_tree(t: RootedTree) -> LinComb:
        sizes = _ladder_branch_sizes(t)
        if sizes is None:
            return LinComb.zero()
        return sym_order(t) * m_lambda(sizes)

    return LinComb.lift(x).map_basis(on_tree)


# ---------------------------------------------------------------------------
# Zhao's homomorphism and its dual

@lru_cache(maxsize=None)
def zhao_k(n: int) -> LinComb:
    """k_n: the sum of all trees on n+1 vertices weighted by 1/|sym|."""
    return LinComb((t, Fraction(1, sym_order(t))) for t in enumerate_trees(n + 1))


@lru_cache(maxsize=None)
def zhao_eps(n: int) -> LinComb:
    if n == 0:
        return gl_unit()
    return LinComb.sum((gl_product(zhao_k(i), zhao_eps(n - i)), (-1) ** (i + 1))
                       for i in range(1, n + 1))


def zhao_Z(x: LinComb | Word) -> LinComb:
    """NSYM -> trees with the attachment product, z_n to eps_n."""

    def on_word(w: Word) -> LinComb:
        out = gl_unit()
        for n in w.letters:
            out = gl_product(out, zhao_eps(n))
        return out

    return LinComb.lift(x).map_basis(on_word)


def zhao_Zstar(x: LinComb | Forest) -> LinComb:
    """Forests -> QSYM: the unique algebra morphism with Z*(B+(u)) = A+(Z*(u))."""

    def on_tree(t: RootedTree) -> LinComb:
        return Aplus(on_forest(Forest(t.children)))

    def on_forest(u: Forest) -> LinComb:
        out = LinComb.term(EMPTY_COMPOSITION)
        for t in u.trees:
            out = qsym_product(out, on_tree(t))
        return out

    return LinComb.lift(x).map_basis(on_forest)


def Z_u(x: LinComb | Word) -> LinComb:
    """Words -> QSYM through the unlabeled ladder of the word's length."""
    return LinComb.lift(x).map_basis(
        lambda w: zhao_Zstar(Forest((ladder(len(w)),)) if len(w) else EMPTY_FOREST))


# ---------------------------------------------------------------------------
# labelings and the truncated lifts

def _relabel(t: RootedTree | PlanarTree, labels: Iterator[int]) -> RootedTree | PlanarTree:
    """t with its vertices labeled from labels, root first, in the tree's own class."""
    a = next(labels)
    return type(t)(a, tuple(_relabel(c, labels) for c in t.children))


def _label_tuples(n: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    if n > max_weight:
        return
    for combo in itertools.product(range(1, max_weight - n + 2), repeat=n):
        if sum(combo) <= max_weight:
            yield combo


def forest_labelings(u: Forest, max_weight: int) -> list[Forest]:
    """Distinct labeled forests over the shape u with weight <= max_weight."""
    seen: set[Forest] = set()
    for combo in _label_tuples(u.size, max_weight):
        it = iter(combo)
        seen.add(Forest(tuple(_relabel(t, it) for t in u.trees)))
    return sorted(seen, key=lambda v: v.sort_key())


def planar_slot_labelings(u: PlanarForest, max_weight: int) -> list[Forest]:
    """Labeled forests from all vertex-slot assignments, with repetition.

    Slots are distinguishable, so coinciding labeled forests appear once
    per assignment; planar order is forgotten in the result.
    """
    out = []
    for combo in _label_tuples(u.size, max_weight):
        it = iter(combo)
        labeled = PlanarForest(tuple(_relabel(t, it) for t in u.trees))
        out.append(forget_order_forest(labeled))
    return out


def rho(x: LinComb | Forest, max_weight: int) -> LinComb:
    """Unlabeled forests -> words: sum of pi over distinct labelings of
    weight <= max_weight."""

    def on_forest(u: Forest) -> LinComb:
        return LinComb.sum(pi(v) for v in forest_labelings(u, max_weight))

    return LinComb.lift(x).map_basis(on_forest)


def rho_star(x: LinComb | Word) -> LinComb:
    """Enveloping algebra words -> trees: e_{-n} to the ladder l_n,
    extended along the attachment product."""

    def on_word(w: Word) -> LinComb:
        out = gl_unit()
        for n in w.letters:
            out = gl_product(out, LinComb.term(ladder(n)))
        return out

    return LinComb.lift(x).map_basis(on_word)


def F(x: LinComb | Word) -> LinComb:
    """Words -> labeled trees: w to the element whose branch forest is the
    labeled ladder of w (ladders are symmetry-free, so no normalization)."""

    def on_word(w: Word) -> RootedTree:
        if not len(w):
            return leaf()
        return bplus(forest(labeled_ladder(w)))

    return LinComb.lift(x).map_basis(on_word)


def F_star(x: LinComb | Forest) -> LinComb:
    """Labeled forests -> dual words; coefficientwise this is pi."""
    return pi(x)


def beta1(x: LinComb | Word) -> LinComb:
    return alpha1(x)


def beta2(x: LinComb | PlanarForest, max_weight: int) -> LinComb:
    """Ordered forests -> words: sum of pi over slot-wise labelings."""

    def on_forest(u: PlanarForest) -> LinComb:
        return LinComb.sum(pi(v) for v in planar_slot_labelings(u, max_weight))

    return LinComb.lift(x).map_basis(on_forest)


def beta4(x: LinComb | Word, max_weight: int) -> LinComb:
    """SYM -> words: e_n to the sum of all length-n words of weight <= N.

    beta4 is multiplicative into the shuffle algebra, so e_mu goes to the
    shuffle of the letter sums for the parts of mu, truncated at weight N.
    A word of length n = |mu| arises in that shuffle once for each way of
    choosing which of its positions come from which factor, so e_mu goes
    to the multinomial C(n; mu) times the sum of all length-n words of
    weight <= N.
    """

    def e_image(mu: tuple[int, ...]) -> LinComb:
        n = sum(mu)
        multinomial = factorial(n) // prod(factorial(p) for p in mu)
        return LinComb((w, multinomial) for k in range(n, max_weight + 1)
                       for w in words_of_weight(k) if len(w) == n)

    return LinComb.sum((e_image(mu), c) for mu, c in sym_e_decompose(LinComb.lift(x)))


def beta2_star(n: int) -> LinComb:
    """e_{-n} -> planar trees, through the unlabeled ladder."""
    return alpha2_star(ladder(n))


def beta4_star(n: int) -> LinComb:
    """e_{-n} -> SYM, through the unlabeled ladder."""
    return alpha4_star(ladder(n))


# ---------------------------------------------------------------------------
# diagram checking

@dataclass
class DiagramRow:
    probe: str
    ok: bool
    left: str
    right: str


@dataclass
class DiagramSpec:
    name: str
    description: str
    probes: Callable[[int], list[tuple[str, LinComb]]]
    left: Callable[[LinComb, int], LinComb]
    right: Callable[[LinComb, int], LinComb]
    fmt: Callable[[LinComb], str] = field(default=str)
    report_only: bool = False


def _word_probes(max_weight: int, fmt: Callable[[Word], str]) -> list[tuple[str, LinComb]]:
    """Every word of weight 1..max_weight, named by fmt."""
    return [(fmt(w), LinComb.term(w))
            for n in range(1, max_weight + 1) for w in words_of_weight(n)]


def _gl_tree_probes(max_weight: int) -> list[tuple[str, LinComb]]:
    out = []
    for n in range(1, max_weight + 1):
        for t in enumerate_trees(n):
            out.append((str(t), LinComb.term(t)))
    return out


def _eletter_probes(max_weight: int) -> list[tuple[str, LinComb]]:
    return [(eword_str(word(n)), LinComb.term(word(n)))
            for n in range(1, max_weight + 1)]


def _mlambda_probes(max_weight: int) -> list[tuple[str, LinComb]]:
    out = []
    for n in range(1, max_weight + 1):
        for mu in partitions(n):
            name = "m(" + ",".join(str(p) for p in mu) + ")"
            out.append((name, m_lambda(mu)))
    return out


def _fmt_qsym(x: LinComb) -> str:
    return x.format(composition_str)


DIAGRAMS: dict[str, DiagramSpec] = {
    "thm5": DiagramSpec(
        name="thm5",
        description="ladder square: forests from NSYM two ways",
        probes=lambda n: _word_probes(n, zword_str),
        left=lambda x, n: alpha2(alpha1(x)),
        right=lambda x, n: alpha4(alpha3(x)),
    ),
    "thm5-dual": DiagramSpec(
        name="thm5-dual",
        description="dual ladder square: QSYM from trees two ways",
        probes=_gl_tree_probes,
        left=lambda x, n: alpha4_star(x),
        right=lambda x, n: alpha1_star(alpha2_star(x)),
        fmt=_fmt_qsym,
    ),
    "propdiag": DiagramSpec(
        name="propdiag",
        description="truncated lift square: words from NSYM two ways",
        probes=lambda n: _word_probes(n, zword_str),
        left=lambda x, n: beta2(beta1(x), n),
        right=lambda x, n: beta4(alpha3(x), n),
    ),
    "propdiag-dual": DiagramSpec(
        name="propdiag-dual",
        description="dual lift square on generators: QSYM from e-letters",
        probes=_eletter_probes,
        left=lambda x, n: x.map_basis(_beta4_star_word),
        right=lambda x, n: alpha1_star(x.map_basis(_beta2_star_word)),
        fmt=_fmt_qsym,
    ),
    "hex1": DiagramSpec(
        name="hex1",
        description="hexagon through the words: rho after alpha4 vs beta4",
        probes=_mlambda_probes,
        left=lambda x, n: rho(alpha4(x), n),
        right=lambda x, n: beta4(x, n),
        report_only=True,
    ),
    "hex2": DiagramSpec(
        name="hex2",
        description="dual hexagon: alpha4* after rho* vs multiplicative beta4*",
        probes=lambda n: _word_probes(n, eword_str),
        left=lambda x, n: alpha4_star(rho_star(x)),
        right=lambda x, n: x.map_basis(_beta4_star_word),
        fmt=_fmt_qsym,
        report_only=True,
    ),
}


def _beta4_star_word(w: Word) -> LinComb:
    out = LinComb.term(EMPTY_COMPOSITION)
    for n in w.letters:
        out = qsym_product(out, beta4_star(n))
    return out


def _beta2_star_word(w: Word) -> LinComb:
    if len(w) != 1:
        raise ValueError("dual lift probes are single letters")
    return beta2_star(w.letters[0])


def diagram_check(name: str, max_weight: int) -> list[DiagramRow]:
    spec = DIAGRAMS[name]
    rows = []
    for label, x in spec.probes(max_weight):
        lhs = spec.left(x, max_weight)
        rhs = spec.right(x, max_weight)
        rows.append(DiagramRow(label, lhs == rhs, spec.fmt(lhs), spec.fmt(rhs)))
    return rows
