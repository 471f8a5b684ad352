"""The linear-extension morphism, QSYM, the Zhao homomorphism, and the
commuting-square checks between the tree and word Hopf algebras."""

import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftrees.algebra import LinComb, ParseError, Tensor
from hopftrees.linsolve import span_solver
from hopftrees.morphisms import _label_tuples, _relabel
from hopftrees.morphisms import (
    DIAGRAMS,
    Aplus,
    F,
    Z_u,
    alpha1,
    alpha2,
    alpha2_star,
    alpha3,
    alpha4,
    alpha4_star,
    beta2,
    beta2_star,
    beta4,
    circ,
    composition,
    composition_str,
    diagram_check,
    e_basis,
    eword_str,
    forest_labelings,
    kernel_generators,
    m_lambda,
    parse_composition,
    partitions,
    pi,
    qsym_antipode,
    qsym_product,
    rho,
    rho_star,
    sym_e_decompose,
    zhao_Z,
    zhao_Zstar,
    zhao_eps,
    zhao_k,
    zword_str,
)
from hopftrees.trees import (
    EMPTY_FOREST,
    EMPTY_PLANAR_FOREST,
    Forest,
    PlanarForest,
    PlanarTree,
    bplus,
    enumerate_forests,
    enumerate_planar_forests,
    forest,
    forget_order_forest,
    labeled_forests_up_to_weight,
    labeled_ladder,
    ladder,
    leaf,
    parse_forest,
    planar_ladder,
    pleaf,
)
from hopftrees.words import EMPTY_WORD, Word, concat, deconcat, shuffle, word, words_of_weight
from oracles import linear_extensions, splice_at

L2 = ladder(2)
L3 = ladder(3)
CHERRY = bplus(forest(leaf(), leaf()))

labeled_forests = st.sampled_from(labeled_forests_up_to_weight(4))


def all_compositions(max_weight):
    from hopftrees.words import compositions as comps

    out = [EMPTY_WORD]
    for n in range(1, max_weight + 1):
        out.extend(composition(*p) for p in comps(n))
    return out


compositions_small = st.sampled_from(all_compositions(4))


# ---------------------------------------------------------------------------
# pi


def test_pi_of_the_empty_forest_is_the_empty_word():
    assert pi(EMPTY_FOREST) == LinComb.term(EMPTY_WORD)


def test_pi_of_a_ladder_is_its_word():
    t = labeled_ladder(word(1, 2, 1))
    assert pi(forest(t)) == LinComb.term(word(1, 2, 1))


def test_pi_of_a_cherry_shuffles_the_branches():
    t = bplus(forest(leaf(1), leaf(2)), 3)
    assert pi(forest(t)) == LinComb.term(word(1, 2, 3)) + LinComb.term(word(2, 1, 3))


@given(labeled_forests, st.integers(min_value=1, max_value=3))
def test_pi_is_a_cocycle_morphism(u, a):
    assert pi(forest(bplus(u, a))) == concat(pi(u), word(a))


@settings(deadline=None)
@given(labeled_forests, labeled_forests)
def test_pi_is_a_product_morphism(u, v):
    from hopftrees.words import shuffle

    lhs = pi(Forest(u.trees + v.trees))
    rhs = LinComb.zero()
    for wu, cu in pi(u).items():
        for wv, cv in pi(v).items():
            rhs = rhs + shuffle(wu, wv).scale(cu * cv)
    assert lhs == rhs


def test_alpha_evaluation():
    # a word-indexed family is evaluated on a forest through pi
    assert pi(forest(leaf(2))).functional({word(2): 5}.__getitem__) == 5
    t = bplus(forest(leaf(1), leaf(2)), 3)
    table = {word(1, 2, 3): 1, word(2, 1, 3): 2}
    assert pi(forest(t)).functional(table.__getitem__) == 3


def test_kernel_generators_are_annihilated():
    gens = kernel_generators(5)
    assert gens
    for g in gens:
        assert pi(g) == LinComb.zero()


def test_first_kernel_family_hand_expansion():
    # two single vertices: t o u + u o t - t.u maps to ab + ba - (a sh b) = 0
    a, b = leaf(1), leaf(2)
    x = (
        LinComb.term(circ(a, b))
        + LinComb.term(circ(b, a))
        - LinComb.term(forest(a, b))
    )
    assert pi(x) == LinComb.zero()


def _listed(u):
    """pi(u) summed from the oracle's list of extension words."""
    return LinComb((w, 1) for w in linear_extensions(u))


# the four large pi shapes of the perfbench requests catalog, on letters 1..8
LARGE_PI_SHAPES = ("f1[f2,f3] f4 f5[f6] f7 f8", "f1[f2,f3,f4,f5,f6,f7,f8]",
                   "f1[f2] f3[f4] f5 f6 f7[f8]", "f1[f2,f3] f4[f5,f6] f7 f8")


def test_pi_sums_the_listed_extension_words():
    cases = labeled_forests_up_to_weight(7) + [parse_forest(s) for s in LARGE_PI_SHAPES]
    for u in cases:
        assert pi(u) == _listed(u), u


def test_pi_merges_equal_words_without_listing_them():
    nine = forest(*[leaf(1)] * 9)
    start = time.perf_counter()
    got = pi(nine)
    assert time.perf_counter() - start < 0.5
    assert got == LinComb.term(word(*[1] * 9), 362880)


def test_rho_is_pi_of_each_labeling():
    for n in range(5):
        for u in enumerate_forests(n):
            want = LinComb.sum(_listed(v) for v in forest_labelings(u, 6))
            assert rho(u, 6) == want, u


def test_pi_reads_a_deep_ladder():
    # run in a fresh process, whose stack starts as shallow as the CLI's:
    # pi recurses once per vertex removed, as the extension lister did
    code = ("from hopftrees import LinComb, pi\n"
            "from hopftrees.trees import forest, labeled_ladder\n"
            "from hopftrees.words import Word\n"
            "w = Word((1, 2) * 240)\n"
            "assert pi(forest(labeled_ladder(w))) == LinComb.term(w)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# quasi-symmetric functions


def test_qsym_product_base_cases():
    m1 = composition(1)
    assert qsym_product(m1, m1) == LinComb.term(
        composition(1, 1), 2) + LinComb.term(composition(2))
    got = qsym_product(composition(2), m1)
    want = (
        LinComb.term(composition(2, 1))
        + LinComb.term(composition(1, 2))
        + LinComb.term(composition(3))
    )
    assert got == want


@given(compositions_small)
def test_qsym_unit(c):
    assert qsym_product(EMPTY_WORD, c) == LinComb.term(c)


@given(compositions_small, compositions_small)
def test_qsym_product_is_commutative(c, d):
    assert qsym_product(c, d) == qsym_product(d, c)


def test_qsym_coproduct_deconcatenates():
    got = deconcat(composition(2, 1))
    want = (
        LinComb.term(Tensor((EMPTY_WORD, composition(2, 1))))
        + LinComb.term(Tensor((composition(2), composition(1))))
        + LinComb.term(Tensor((composition(2, 1), EMPTY_WORD)))
    )
    assert got == want


@given(compositions_small)
def test_qsym_coassociativity(c):
    d = deconcat(c)
    assert splice_at(d, 0, deconcat) == splice_at(d, 1, deconcat)


@given(compositions_small)
def test_qsym_antipode_convolution_law(c):
    total = LinComb.zero()
    for t, coeff in deconcat(c).items():
        a, b = t.parts
        total = total + qsym_product(qsym_antipode(a), LinComb.term(b)).scale(coeff)
    want = (
        LinComb.term(EMPTY_WORD) if c == EMPTY_WORD else LinComb.zero()
    )
    assert total == want


def test_parse_composition():
    assert parse_composition("M(2,1)") == composition(2, 1)
    assert parse_composition("M()") == EMPTY_WORD
    with pytest.raises(ParseError):
        parse_composition("M(0)")
    with pytest.raises(ParseError):
        parse_composition("M(1,)")
    with pytest.raises(ParseError):
        parse_composition("N(1)")


def test_aplus_tracks_grafting_under_Zstar():
    got = Aplus(qsym_product(composition(1), composition(1)))
    assert got == zhao_Zstar(forest(CHERRY))


def test_m_lambda_and_e_basis():
    assert m_lambda((2,)) == LinComb.term(composition(2))
    assert m_lambda((1, 1)) == LinComb.term(composition(1, 1))
    assert m_lambda((2, 1)) == LinComb.term(composition(2, 1)) + LinComb.term(
        composition(1, 2))
    assert e_basis(1) == LinComb.term(composition(1))
    assert e_basis(2) == LinComb.term(composition(1, 1))


def test_partitions_counts():
    assert [len(partitions(n)) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def _partitions_by_recursion(n):
    """Partitions of n as nonincreasing tuples, largest first part first."""
    if n == 0:
        return [()]
    out = []

    def build(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            build(remaining - p, p, acc)
            acc.pop()

    build(n, n, [])
    return out


def test_partitions_match_the_recursion_in_order():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(0, 16):
        assert partitions(n) == _partitions_by_recursion(n), n


def test_sym_e_decomposition_round_trips():
    x = m_lambda((2, 1))
    decomp = sym_e_decompose(x)
    total = LinComb.zero()
    for parts, c in decomp:
        prod = LinComb.term(EMPTY_WORD)
        for k in parts:
            prod = qsym_product(prod, e_basis(k))
        total = total + prod.scale(c)
    assert total == x


def test_sym_e_decompose_matches_a_fresh_solve_on_every_basis_element():
    for n in range(1, 9):
        products = []
        for mu in partitions(n):
            prod = LinComb.term(EMPTY_WORD)
            for p in mu:
                prod = qsym_product(prod, e_basis(p))
            products.append(prod)
        solve = span_solver(products)
        for x in [m_lambda(lam) for lam in partitions(n)] + products:
            sol = solve(x)
            assert sym_e_decompose(x) == [(mu, c) for mu, c in zip(partitions(n), sol) if c]


def test_sym_e_decompose_rejects_a_non_symmetric_element():
    with pytest.raises(ValueError, match="not a symmetric element"):
        sym_e_decompose(LinComb.term(composition(1, 2)))
    with pytest.raises(ValueError, match="not a symmetric element"):
        sym_e_decompose(m_lambda((2, 1)) + LinComb.term(composition(1, 2)))


# ---------------------------------------------------------------------------
# Zhao's homomorphism


def test_zhao_k_values():
    assert zhao_k(1) == LinComb.term(L2)
    assert zhao_k(2) == LinComb.term(L3) + LinComb.term(CHERRY, Fraction(1, 2))


def test_zhao_eps_values():
    assert zhao_eps(1) == LinComb.term(L2)
    assert zhao_eps(2) == LinComb.term(CHERRY, Fraction(1, 2))


def test_zhao_Zstar_values():
    assert zhao_Zstar(EMPTY_FOREST) == LinComb.term(EMPTY_WORD)
    assert zhao_Zstar(forest(L2)) == LinComb.term(composition(1, 1))
    got = zhao_Zstar(forest(CHERRY))
    want = LinComb.term(composition(1, 1, 1), 2) + LinComb.term(composition(2, 1))
    assert got == want


def test_zhao_Zstar_is_multiplicative():
    a = forest(L2)
    b = forest(leaf())
    lhs = zhao_Zstar(Forest(a.trees + b.trees))
    rhs = qsym_product(zhao_Zstar(a), zhao_Zstar(b))
    assert lhs == rhs


def test_Z_u_depends_only_on_length():
    assert Z_u(word(2, 1)) == LinComb.term(composition(1, 1))
    assert Z_u(word(1, 1)) == Z_u(word(3, 2))
    assert Z_u(word(4)) == LinComb.term(composition(1))


def test_zhao_Z_drops_degree_like_its_dual():
    assert zhao_Z(word(1)) != LinComb.zero()


# ---------------------------------------------------------------------------
# the maps between the five Hopf algebras


def test_generator_chase_through_both_squares():
    for n in range(1, 5):
        zn = word(n)
        via_planar = alpha2(alpha1(zn))
        via_qsym = alpha4(alpha3(zn))
        assert via_planar == LinComb.term(forest(ladder(n)))
        assert via_qsym == via_planar


def test_alpha2_star_counts_planar_orderings():
    got = alpha2_star(CHERRY)
    assert len(got) == 1
    ((p, c),) = got.sorted_items()
    assert c == 2


def test_alpha4_star_values():
    assert alpha4_star(L3) == m_lambda((2,))
    assert alpha4_star(CHERRY) == m_lambda((1, 1)).scale(2)


def test_rho_sums_all_labelings():
    got = rho(forest(leaf()), 3)
    assert got == LinComb.term(word(1)) + LinComb.term(word(2)) + LinComb.term(
        word(3))


def test_rho_star_sends_letters_to_ladders():
    assert rho_star(word(2)) == LinComb.term(L2)
    assert rho_star(word(3)) == LinComb.term(L3)


def test_F_grafts_the_labeled_ladder_under_a_fresh_root():
    t = labeled_ladder(word(1, 2))
    assert F(word(1, 2)) == LinComb.term(bplus(forest(t)))
    assert pi(forest(t)) == LinComb.term(word(1, 2))


def test_beta_values():
    assert beta4(composition(1, 1), 2) == LinComb.term(word(1, 1))
    assert beta2_star(2).sorted_items()[0][1] == 1
    assert len(alpha1(word(2))) == 1


def _beta4_by_shuffles(x: LinComb, max_weight: int) -> LinComb:
    """beta4 by its definition: e_mu to the product of the letter sums for
    the parts of mu in the shuffle algebra, truncated at each step."""

    def letter_sum(n: int) -> LinComb:
        return LinComb((w, 1) for k in range(n, max_weight + 1)
                       for w in words_of_weight(k) if len(w) == n)

    def e_image(mu):
        out = LinComb.term(EMPTY_WORD)
        for p in mu:
            out = shuffle(out, letter_sum(p)).graded_part(lambda w: w.weight, max_weight)
        return out

    return LinComb.sum((e_image(mu), c) for mu, c in sym_e_decompose(x))


def test_beta4_closed_form_matches_the_shuffle_route():
    for n in range(1, 8):
        for mu in partitions(n):
            e_mu = LinComb.term(EMPTY_WORD)
            for p in mu:
                e_mu = qsym_product(e_mu, e_basis(p))
            for x in (m_lambda(mu), e_mu):
                for max_weight in sorted({n - 1, n, 7}):
                    assert beta4(x, max_weight) == _beta4_by_shuffles(x, max_weight), (mu, max_weight)
    assert not beta4(e_basis(3), 2)
    assert beta4(m_lambda((2, 1)) + LinComb.term(EMPTY_WORD), 3) == \
        _beta4_by_shuffles(m_lambda((2, 1)) + LinComb.term(EMPTY_WORD), 3)


def _planar_slot_labelings(u, max_weight):
    """Labeled forests from all vertex-slot assignments of weight <= max_weight,
    with repetition; planar order is forgotten in the result."""
    out = []
    for combo in _label_tuples(u.size, max_weight):
        it = iter(combo)
        out.append(forget_order_forest(PlanarForest(tuple(_relabel(t, it) for t in u.trees))))
    return out


def test_beta2_closed_form_matches_the_slot_labeling_route():
    for n in range(0, 7):
        for u in enumerate_planar_forests(n):
            for max_weight in range(0, 8):
                want = LinComb.sum(pi(v) for v in _planar_slot_labelings(u, max_weight))
                assert beta2(u, max_weight) == want, (str(u), max_weight)
    assert beta2(EMPTY_PLANAR_FOREST, 0) == LinComb.term(EMPTY_WORD)
    assert not beta2(PlanarForest((planar_ladder(3),)), 2)
    cherry = PlanarForest((bplus(PlanarForest((pleaf(), pleaf())), None, PlanarTree),))
    cherry_sum = beta2(LinComb.term(cherry), 3)
    assert cherry_sum == LinComb.term(word(1, 1, 1), 2)


def test_word_formatters():
    assert zword_str(word(2, 1)) == "z2.z1"
    assert eword_str(word(2, 1)) == "e(-2)e(-1)"
    assert eword_str(EMPTY_WORD) == "1"


# ---------------------------------------------------------------------------
# diagram checks


def test_known_diagrams_exist():
    assert set(DIAGRAMS) == {
        "thm5", "thm5-dual", "propdiag", "propdiag-dual", "hex1", "hex2"}


@pytest.mark.parametrize("name", ["thm5", "thm5-dual", "propdiag", "propdiag-dual"])
def test_asserted_diagrams_commute(name):
    rows = diagram_check(name, 4)
    assert rows
    for row in rows:
        assert row.ok, f"{name} differs at probe {row.probe}"


def test_hexagons_run_in_report_mode():
    assert DIAGRAMS["hex1"].report_only
    assert DIAGRAMS["hex2"].report_only
    rows = diagram_check("hex1", 3)
    assert any(not row.ok for row in rows)  # the mismatch is genuine, not a bug


def test_unknown_diagram_is_an_error():
    with pytest.raises(KeyError):
        diagram_check("pentagon", 3)


# ---------------------------------------------------------------------------
# compositions are words printed as M(...)


@given(st.lists(st.integers(1, 40), max_size=8).map(Word))
def test_composition_strings_round_trip(w):
    assert parse_composition(composition_str(w)) == w


def test_composition_printing():
    assert composition_str(EMPTY_WORD) == "M()"
    assert composition_str(composition(2, 1)) == "M(2,1)"
    assert composition_str(Tensor((EMPTY_WORD, composition(3)))) == "M() (x) M(3)"
    assert composition(2, 1) == word(2, 1)
