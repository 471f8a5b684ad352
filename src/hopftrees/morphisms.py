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

from itertools import chain
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .algebra import LinComb, ParseError, Scalar, Tensor, _read_positive, linear_map
from .linsolve import span_solver
from .trees import (EMPTY_FOREST, Forest, PlanarForest, PlanarTree,
                    RootedTree, _by_key, _multisets, bplus, extension_count, forest,
                    graft, ladder, labeled_forests_up_to_weight, labeled_ladder, leaf,
                    enumerate_trees, planar_ladder, planar_variants, forget_order_forest,
                    sym_order)
from .tree_hopf import gl_product, gl_unit
from .words import (ADDITIVE, EMPTY_WORD, Word, _letter_texts, _word_lincomb,
                    compositions_of_length, quasi_shuffle, word, word_antipode, words_of_weight)


# ---------------------------------------------------------------------------
# the linear-extension morphism pi

# The most linear extensions pi sums over, counted before summing (f1 ... f8
# has 40,320; nine leaves 362,880).  Kept so that pi refuses exactly what it
# refused when it listed every extension; bounding the recursion's own cost
# instead would change what pi refuses, and is a separate decision.
MAX_LINEAR_EXTENSIONS = 1_000_000


def pi(x: LinComb | Forest) -> LinComb:
    """Sum of the words read along all linear extensions of each forest.

    Every vertex precedes its parent, so a word of u ends with the root
    letter of one of u's trees t_i, and pi(u) is the sum over tree
    positions i of pi(u - t_i + branches of t_i).label(t_i): equal trees
    count once each.  The recursion sums letter tuples with int counts,
    keyed by sorted tuples of trees, in a memo shared by the terms of x
    for this call only, and builds each distinct Word once.
    """
    @cache
    def letter_counts(trees: tuple[RootedTree, ...]) -> dict[tuple[int, ...], int]:
        if not trees:
            return {(): 1}
        out: dict[tuple[int, ...], int] = {}
        for i, t in enumerate(trees):
            rest = tuple(sorted(trees[:i] + trees[i + 1:] + t.children, key=_by_key))
            for letters, count in letter_counts(rest).items():
                key = letters + (t.label,)
                out[key] = out.get(key, 0) + count
        return out

    def on_forest(u: Forest) -> LinComb:
        if not u.is_fully_labeled():
            raise ValueError(f"linear extensions need a fully labeled forest, got {u}")
        if extension_count(u) > MAX_LINEAR_EXTENSIONS:
            raise ValueError(f"a forest of {u.size} vertices with more than "
                             f"{MAX_LINEAR_EXTENSIONS:,} linear extensions is refused")
        return _word_lincomb(letter_counts(u.trees))

    return linear_map(on_forest)(x)


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
composition = word


def composition_str(x: Word | Tensor) -> str:
    """``M(2,1)`` for the word f2.f1 (unit: ``M()``), slotwise on a tensor."""
    if isinstance(x, Tensor):
        return " (x) ".join(composition_str(p) for p in x.parts)
    return "M(" + ",".join(_letter_texts(x.letters)) + ")"


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
            value, pos = _read_positive(s, pos, "parts", base)
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


def qsym_antipode(x: LinComb | Word) -> LinComb:
    """The antipode of the additive quasi-shuffle algebra."""
    return word_antipode(x, ADDITIVE)


@linear_map
def Aplus(c: Word) -> Word:
    """Append a part 1: M_I -> M_{I.(1)}."""
    return Word(c.letters + (1,))


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as nonincreasing tuples, in reverse lexicographic
    order: (4), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)."""
    return sorted((mu[::-1] for mu in _multisets(n, range(1, n + 1), lambda p: p)),
                  reverse=True)


def m_lambda(parts: Iterable[int]) -> LinComb:
    """The symmetric monomial m_lambda = sum of M_I over orderings of lambda:
    the compositions of |lambda| into len(lambda) parts whose sorted parts
    are lambda.  Word checks that every part is a positive int."""
    lam = sorted(Word(parts).letters, reverse=True)
    return LinComb((Word(c), 1) for c in compositions_of_length(sum(lam), len(lam))
                   if sorted(c, reverse=True) == lam)


def e_basis(n: int) -> LinComb:
    """The elementary symmetric function e_n = M_(1,...,1)."""
    return LinComb.term(Word((1,) * n))


@lru_cache(maxsize=None)
def _e_solver(n: int) -> tuple[list[tuple[int, ...]], Callable[[LinComb], list[Scalar] | None]]:
    """The partitions mu of n, and coordinates in the e_mu basis of weight
    n; the basis is eliminated once per weight."""
    mus = partitions(n)
    return mus, span_solver([alpha3(Word(mu)) for mu in mus])


def sym_e_decompose(x: LinComb) -> list[tuple[tuple[int, ...], Scalar]]:
    """Write a symmetric element of QSYM in the elementary basis.

    Solved exactly per weight class; raises if some graded piece lies
    outside the span (i.e. the input is not symmetric).  Each element is
    solved once until clear_caches(), through _e_decompose.
    """
    return list(_e_decompose(frozenset(x.items())))


@lru_cache(maxsize=None)
def _e_decompose(terms: frozenset[tuple[Word, Scalar]]) -> tuple[tuple[tuple[int, ...], Scalar], ...]:
    out: list[tuple[tuple[int, ...], Scalar]] = []
    by_weight: dict[int, list] = {}
    for c, v in terms:
        by_weight.setdefault(c.weight, []).append((c, v))
    for n in sorted(by_weight):
        target = LinComb(by_weight[n])
        if n == 0:
            out.append(((), target.coeff(EMPTY_WORD)))
            continue
        mus, solve = _e_solver(n)
        sol = solve(target)
        if sol is None:
            raise ValueError(f"not a symmetric element: {target}")
        out.extend((mu, c) for mu, c in zip(mus, sol) if c)
    return tuple(out)


# ---------------------------------------------------------------------------
# formatting for generator words

def zword_str(w: Word) -> str:
    if not w.letters:
        return "1"
    return "z" + ".z".join(_letter_texts(w.letters))


def eword_str(w: Word) -> str:
    return _eword_text(w.letters)


def _eword_text(letters: tuple[int, ...]) -> str:
    """``e(-2)e(-1)`` for the letters (2, 1); ``1`` for none."""
    if not letters:
        return "1"
    return "e(-" + ")e(-".join(_letter_texts(letters)) + ")"


# ---------------------------------------------------------------------------
# the four square maps and their duals

@linear_map
def alpha1(w: Word) -> PlanarForest:
    """NSYM -> ordered forests: z_n to the planar ladder, words to
    concatenations."""
    return PlanarForest(tuple(planar_ladder(n) for n in w.letters))


@linear_map
def alpha2(u: PlanarForest) -> Forest:
    """Forget planar order."""
    return forget_order_forest(u)


@linear_map
def alpha3(w: Word) -> LinComb:
    """NSYM -> SYM (inside QSYM): z_n to e_n, extended multiplicatively."""
    out = LinComb.term(EMPTY_WORD)
    for n in w.letters:
        out = qsym_product(out, e_basis(n))
    return out


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


@linear_map
def alpha1_star(t: PlanarTree) -> LinComb:
    """Planar trees -> QSYM: the comb tree t_I goes to M_I, others to 0."""
    sizes = _ladder_branch_sizes(t)
    return LinComb.zero() if sizes is None else LinComb.term(Word(sizes))


@linear_map
def alpha2_star(t: RootedTree) -> LinComb:
    """Trees -> planar trees: |sym(t)| times the sum of planar variants."""
    return LinComb((s, sym_order(t)) for s in planar_variants(t))


@linear_map
def alpha4_star(t: RootedTree) -> LinComb:
    """Trees -> SYM: t_J (all branches ladders) to |sym(t_J)| m_J, else 0."""
    sizes = _ladder_branch_sizes(t)
    return LinComb.zero() if sizes is None else sym_order(t) * m_lambda(sizes)


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


@linear_map
def zhao_Z(w: Word) -> LinComb:
    """NSYM -> trees with the attachment product, z_n to eps_n."""
    out = gl_unit()
    for n in w.letters:
        out = gl_product(out, zhao_eps(n))
    return out


@linear_map
def zhao_Zstar(u: Forest) -> LinComb:
    """Forests -> QSYM: the unique algebra morphism with Z*(B+(u)) = A+(Z*(u))."""
    out = LinComb.term(EMPTY_WORD)
    for t in u.trees:
        out = qsym_product(out, Aplus(zhao_Zstar(Forest(t.children))))
    return out


@linear_map
def Z_u(w: Word) -> LinComb:
    """Words -> QSYM through the unlabeled ladder of the word's length."""
    return zhao_Zstar(Forest((ladder(len(w)),)) if len(w) else EMPTY_FOREST)


# ---------------------------------------------------------------------------
# labelings and the truncated lifts

def _relabel(t: RootedTree | PlanarTree, labels: Iterator[int]) -> RootedTree | PlanarTree:
    """t with its vertices labeled from labels, root first, in the tree's own class."""
    a = next(labels)
    return type(t)(a, tuple(_relabel(c, labels) for c in t.children))


def _label_tuples(n: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    """The tuples of n positive labels with sum <= max_weight, weight by weight."""
    return chain.from_iterable(compositions_of_length(k, n) for k in range(n, max_weight + 1))


def forest_labelings(u: Forest, max_weight: int) -> list[Forest]:
    """Distinct labeled forests over the shape u with weight <= max_weight."""
    seen: set[Forest] = set()
    for combo in _label_tuples(u.size, max_weight):
        it = iter(combo)
        seen.add(Forest(tuple(_relabel(t, it) for t in u.trees)))
    return sorted(seen, key=lambda v: v.sort_key())


@linear_map
def rho(u: Forest, max_weight: int) -> LinComb:
    """Unlabeled forests -> words: sum of pi over distinct labelings of
    weight <= max_weight."""
    return pi(LinComb((v, 1) for v in forest_labelings(u, max_weight)))


@linear_map
def rho_star(w: Word) -> LinComb:
    """Enveloping algebra words -> trees: e_{-n} to the ladder l_n,
    extended along the attachment product."""
    out = gl_unit()
    for n in w.letters:
        out = gl_product(out, LinComb.term(ladder(n)))
    return out


@linear_map
def F(w: Word) -> RootedTree:
    """Words -> labeled trees: w to the element whose branch forest is the
    labeled ladder of w (ladders are symmetry-free, so no normalization)."""
    return bplus(forest(labeled_ladder(w))) if len(w) else leaf()


@linear_map
def beta2(u: PlanarForest, max_weight: int) -> LinComb:
    """Ordered forests -> words: sum of pi over slot-wise labelings of
    weight <= max_weight, with repetition (planar order is forgotten).

    Fix one linear extension of u: reading the labels along it maps the
    slot labelings bijectively onto the words of length |u| and weight
    <= N.  pi counts vertex orders with multiplicity, so u goes to its
    number of linear extensions (hook-length formula) times the sum of
    all those words.
    """
    return _words_of_length(u.size, max_weight, extension_count(u))


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
        return _words_of_length(n, max_weight, factorial(n) // prod(factorial(p) for p in mu))

    return LinComb.sum((e_image(mu), c) for mu, c in sym_e_decompose(LinComb.lift(x)))


def _words_of_length(n: int, max_weight: int, coeff: int) -> LinComb:
    """coeff times the sum of all words of length n and weight <= max_weight."""
    return LinComb((Word(c), coeff) for c in _label_tuples(n, max_weight))


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
        probes=lambda n: _word_probes(n, zword_str),
        left=lambda x, n: alpha2(alpha1(x)),
        right=lambda x, n: alpha4(alpha3(x)),
    ),
    "thm5-dual": DiagramSpec(
        probes=_gl_tree_probes,
        left=lambda x, n: alpha4_star(x),
        right=lambda x, n: alpha1_star(alpha2_star(x)),
        fmt=_fmt_qsym,
    ),
    "propdiag": DiagramSpec(
        probes=lambda n: _word_probes(n, zword_str),
        left=lambda x, n: beta2(alpha1(x), n),
        right=lambda x, n: beta4(alpha3(x), n),
    ),
    "propdiag-dual": DiagramSpec(
        probes=_eletter_probes,
        left=lambda x, n: x.map_basis(_beta4_star_word),
        right=lambda x, n: alpha1_star(x.map_basis(_beta2_star_word)),
        fmt=_fmt_qsym,
    ),
    "hex1": DiagramSpec(
        probes=_mlambda_probes,
        left=lambda x, n: rho(alpha4(x), n),
        right=lambda x, n: beta4(x, n),
        report_only=True,
    ),
    "hex2": DiagramSpec(
        probes=lambda n: _word_probes(n, eword_str),
        left=lambda x, n: alpha4_star(rho_star(x)),
        right=lambda x, n: x.map_basis(_beta4_star_word),
        fmt=_fmt_qsym,
        report_only=True,
    ),
}


def _beta4_star_word(w: Word) -> LinComb:
    out = LinComb.term(EMPTY_WORD)
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


def diagram_checks(max_weight: int) -> dict[str, list[DiagramRow]]:
    """diagram_check on every diagram, in DIAGRAMS order.  Routes that
    decompose the same symmetric element (thm5 and propdiag on alpha3 of a
    probe, the two sides of hex1) share one decomposition through
    sym_e_decompose's memo."""
    return {name: diagram_check(name, max_weight) for name in DIAGRAMS}
