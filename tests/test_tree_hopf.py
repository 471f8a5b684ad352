"""Cut, attachment, and planar Hopf structures on trees."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftrees import checks, clear_caches, tree_hopf
from hopftrees.algebra import LinComb, Tensor, lincomb_tensor, recursive_antipode
from hopftrees.tree_hopf import (
    GL_UNIT_TREE,
    CocycleLawError,
    CocycleTarget,
    ck_antipode,
    ck_product,
    cocycle_lift,
    coproduct_forest,
    gl_antipode,
    gl_coproduct,
    gl_product,
    gl_unit,
    planar_diamond,
    planar_diamond_antipode,
    planar_diamond_coproduct,
    shuffle_target,
    universal_cocycle_map,
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
    enumerate_planar_trees,
    enumerate_trees,
    forest,
    forest_mul,
    forget_order_forest,
    labeled_forests_up_to_weight,
    labeled_trees_of_weight,
    ladder,
    leaf,
    parse_tree,
    planar_ladder,
    pleaf,
    strip_root,
)
from hopftrees.words import EMPTY_WORD, ZERO, _shuffle_table, deconcat
from hopftrees.morphisms import pi
from oracles import ck_gl_pairing, cut_coproduct_tree, gl_coproduct_by_masks, splice_at

L2 = ladder(2)
L3 = ladder(3)
CHERRY = bplus(forest(leaf(), leaf()))

small_forests = st.sampled_from([u for n in range(5) for u in enumerate_forests(n)])
small_trees = st.sampled_from([t for n in range(1, 6) for t in enumerate_trees(n)])
small_planar_trees = st.sampled_from(
    [t for n in range(1, 5) for t in enumerate_planar_trees(n)])
small_planar_forests = st.sampled_from(
    [u for n in range(5) for u in enumerate_planar_forests(n)])


def tf(u, c=1):
    return LinComb.term(u, c)


def ptree(text):
    return parse_tree(text, planar=True)


# ---------------------------------------------------------------------------
# cut coproduct


def test_cut_coproduct_of_the_ladder():
    got = coproduct_forest(forest(L2))
    want = (
        tf(Tensor((forest(L2), EMPTY_FOREST)))
        + tf(Tensor((EMPTY_FOREST, forest(L2))))
        + tf(Tensor((forest(leaf()), forest(leaf()))))
    )
    assert got == want


def test_cut_coproduct_of_the_cherry():
    got = coproduct_forest(forest(CHERRY))
    want = (
        tf(Tensor((forest(CHERRY), EMPTY_FOREST)))
        + tf(Tensor((EMPTY_FOREST, forest(CHERRY))))
        + tf(Tensor((forest(leaf()), forest(L2))), 2)
        + tf(Tensor((forest(leaf(), leaf()), forest(leaf()))))
    )
    assert got == want


@given(small_trees)
def test_coproduct_matches_the_cut_enumeration(t):
    # two independent routes: recursive splits vs explicit admissible cuts
    assert coproduct_forest(forest(t)) == cut_coproduct_tree(t)


def test_cut_enumeration_route_on_labeled_trees():
    for u in labeled_forests_up_to_weight(4):
        for t in u.trees:
            assert coproduct_forest(forest(t)) == cut_coproduct_tree(t)


@given(small_forests)
def test_cut_coproduct_is_coassociative(u):
    d = coproduct_forest(u)
    assert splice_at(d, 0, coproduct_forest) == splice_at(d, 1, coproduct_forest)


@given(small_forests, small_forests)
def test_cut_coproduct_is_an_algebra_morphism(u, v):
    left = _cop_of(ck_product(u, v))
    pairwise = coproduct_forest(u).bilinear(
        coproduct_forest(v),
        lambda s, t: Tensor(
            (Forest(s.parts[0].trees + t.parts[0].trees),
             Forest(s.parts[1].trees + t.parts[1].trees))),
    )
    assert left == pairwise


def _tree_coproduct(t):
    """Coproduct of one tree, pruned forest (x) trunk as a one-tree forest
    (the unit forest when the whole tree is pruned)."""
    forest = type(t).forest_class
    unit = forest(())
    return LinComb((Tensor((pruned, unit if trunk is None else forest((trunk,)))), mult)
                   for pruned, trunk, mult in tree_hopf._tree_splits(t))


def _coproduct_by_bilinear_fold(u):
    """The coproduct of a forest as the product of its trees' coproducts,
    folded in one tree at a time through bilinear (the route coproduct_forest
    took before it multiplied the split tables out in one dict)."""
    unit = type(u)(())
    total = LinComb.term(Tensor((unit, unit)))
    for t in u.trees:
        total = total.bilinear(_tree_coproduct(t), lambda a, b: Tensor(
            (forest_mul(a.parts[0], b.parts[0]), forest_mul(a.parts[1], b.parts[1]))))
    return total


def test_coproduct_matches_the_bilinear_fold():
    clear_caches()
    forests = ([u for n in range(6) for u in enumerate_forests(n)]
               + [u for n in range(6) for u in enumerate_planar_forests(n)]
               + labeled_forests_up_to_weight(4))
    for u in forests:
        got, want = coproduct_forest(u), _coproduct_by_bilinear_fold(u)
        assert got == want, u
        assert all(type(c) is int for _, c in got.items()), u


def test_coproduct_of_many_equal_trees_merges_its_partial_terms():
    # Unmerged, the partial terms of 20 copies of [[]] would number in the
    # millions, one per ordering of each pruned and trunk multiset.
    clear_caches()
    cherry_ish = parse_tree("[[],[[]]]")
    for u in (Forest([parse_tree("[[]]")] * 20),
              Forest([parse_tree("[[]]"), cherry_ish] * 6)):
        start = time.perf_counter()
        got = coproduct_forest(u)
        assert time.perf_counter() - start < 2.0, u
        assert got == _coproduct_by_bilinear_fold(u), u
    assert len(coproduct_forest(Forest([parse_tree("[[]]")] * 20))) == 231


def test_a_memoized_result_is_unchanged_by_the_sums_it_enters():
    clear_caches()
    u = forest(CHERRY, leaf())
    memoized = [coproduct_forest(u), ck_antipode(u), coproduct_forest(forest(leaf()))]
    before = [dict(x.items()) for x in memoized]
    for x in memoized:
        LinComb.sum([x, x, (x, -1), (x, Fraction(1, 2))])
        _ = x + x, x - x, x + LinComb.zero(), -x, x.scale(3), x.combine(x, -1)
        x.map_basis(lambda b: b)
    ck_product(memoized[1], memoized[1])
    memoized[1].map_basis(coproduct_forest)
    ck_antipode(LinComb.term(u, -2) + tf(forest(leaf())))
    checks._hopf_rows("ck", [u, forest(leaf())], coproduct_forest, ck_antipode, ck_product,
                      EMPTY_FOREST)
    assert [dict(x.items()) for x in memoized] == before
    assert memoized[0] is coproduct_forest(u) and memoized[1] is ck_antipode(u)


def _cop_of(x):
    total = LinComb.zero()
    for u, c in x.items():
        total = total + coproduct_forest(u).scale(c)
    return total


def test_antipode_of_the_ladder():
    assert ck_antipode(forest(L2)) == tf(forest(L2), -1) + tf(forest(leaf(), leaf()))


def test_antipode_of_the_cherry():
    want = (
        tf(forest(CHERRY), -1)
        + tf(forest(leaf(), L2), 2)
        + tf(forest(leaf(), leaf(), leaf()), -1)
    )
    assert ck_antipode(forest(CHERRY)) == want


@given(small_forests)
def test_antipode_convolution_law(u):
    total = LinComb.zero()
    for t, c in coproduct_forest(u).items():
        a, b = t.parts
        total = total + ck_antipode(a).map_basis(
            lambda p: Forest(p.trees + b.trees)).scale(c)
    want = tf(EMPTY_FOREST) if u == EMPTY_FOREST else LinComb.zero()
    assert total == want


# ---------------------------------------------------------------------------
# attachment product and coproduct


def test_attachment_product_of_two_ladders():
    got = gl_product(L2, L2)
    assert got == tf(CHERRY) + tf(L3)


def test_attachment_product_with_two_branches():
    got = gl_product(bplus(forest(leaf(), leaf())), bplus(forest(leaf())))
    want = (
        tf(bplus(forest(leaf(), leaf(), leaf())))
        + tf(bplus(forest(L2, leaf())), 2)
        + tf(bplus(forest(CHERRY)))
    )
    assert got == want


@given(small_trees)
def test_attachment_unit(t):
    assert gl_product(t, GL_UNIT_TREE) == tf(t)
    assert gl_product(GL_UNIT_TREE, t) == tf(t)
    assert gl_unit() == tf(GL_UNIT_TREE)


@settings(deadline=None)
@given(small_trees, small_trees, small_trees)
def test_attachment_product_is_associative(a, b, c):
    left = _gl_mul(gl_product(a, b), tf(c))
    right = _gl_mul(tf(a), gl_product(b, c))
    assert left == right


def _gl_mul(x, y):
    total = LinComb.zero()
    for s, c1 in x.items():
        for t, c2 in y.items():
            total = total + gl_product(s, t).scale(c1 * c2)
    return total


def test_branch_coproduct_of_small_trees():
    got = gl_coproduct(L2)
    assert got == tf(Tensor((L2, GL_UNIT_TREE))) + tf(Tensor((GL_UNIT_TREE, L2)))
    got = gl_coproduct(CHERRY)
    want = (
        tf(Tensor((CHERRY, GL_UNIT_TREE)))
        + tf(Tensor((L2, L2)), 2)
        + tf(Tensor((GL_UNIT_TREE, CHERRY)))
    )
    assert got == want


@given(small_trees)
def test_branch_coproduct_is_cocommutative_and_coassociative(t):
    d = gl_coproduct(t)
    flipped = LinComb(
        (Tensor((ten.parts[1], ten.parts[0])), c) for ten, c in d.items())
    assert d == flipped
    assert splice_at(d, 0, gl_coproduct) == splice_at(d, 1, gl_coproduct)


def test_branch_coproduct_matches_the_subsets_of_branches():
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    trees += [t for w in range(1, 8) for t in labeled_trees_of_weight(w)]
    for t in trees:
        assert gl_coproduct(t) == gl_coproduct_by_masks(t), t


def test_gl_antipode_of_the_cherry():
    got = gl_antipode(CHERRY)
    assert got == tf(CHERRY) + tf(L3, 2)


def test_gl_antipode_rejects_labeled_roots():
    with pytest.raises(ValueError, match="unlabeled root"):
        gl_antipode(leaf(2))


@given(small_trees)
def test_gl_antipode_convolution_law(t):
    total = LinComb.zero()
    for ten, c in gl_coproduct(t).items():
        a, b = ten.parts
        total = total + _gl_mul(gl_antipode(a), tf(b)).scale(c)
    want = gl_unit() if t == GL_UNIT_TREE else LinComb.zero()
    assert total == want


# ---------------------------------------------------------------------------
# GL/CK duality


def test_pairing_normalization():
    assert ck_gl_pairing(bplus(forest(leaf(), leaf())), forest(leaf(), leaf())) == 2
    assert ck_gl_pairing(L2, forest(leaf())) == 1
    assert ck_gl_pairing(L2, forest(L2)) == 0


def test_pairing_adjunction_fixes_the_normalization():
    lhs = _pair(gl_product(L2, L2), tf(forest(leaf(), leaf())))
    rhs = _pair_tensor(
        lincomb_tensor(tf(L2), tf(L2)), coproduct_forest(forest(leaf(), leaf())))
    assert lhs == rhs == 2


def _pair(x, y):
    """<x, y>, the basis pairing extended over both sums."""
    return sum(c1 * c2 * ck_gl_pairing(t, v) for t, c1 in x.items() for v, c2 in y.items())


def _pair_tensor(x, d):
    total = Fraction(0)
    for s, c1 in x.items():
        for t, c2 in d.items():
            total += (
                c1 * c2
                * ck_gl_pairing(s.parts[0], t.parts[0])
                * ck_gl_pairing(s.parts[1], t.parts[1])
            )
    return total


def test_labeled_roots_pair_with_nothing():
    # the attachment basis trees have an unlabeled root
    for t in (leaf(1), leaf(3), bplus(forest(leaf()), 2), bplus(forest(leaf(1), leaf(2)), 1)):
        u = strip_root(t)
        assert ck_gl_pairing(t, u) == 0
    assert ck_gl_pairing(leaf(), EMPTY_FOREST) == 1
    assert ck_gl_pairing(bplus(forest(leaf(1))), forest(leaf(1))) == 1


@given(small_trees, small_trees, small_forests)
def test_product_coproduct_adjunction(x, y, f):
    assert _pair(gl_product(x, y), tf(f)) == _pair_tensor(
        lincomb_tensor(tf(x), tf(y)), coproduct_forest(f))


@given(small_trees, small_forests, small_forests)
def test_coproduct_product_adjunction(x, u, v):
    lhs = _pair_tensor(gl_coproduct(x), lincomb_tensor(tf(u), tf(v)))
    rhs = _pair(tf(x), tf(Forest(u.trees + v.trees)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# planar diamond product


def test_diamond_shuffles_root_branches():
    a = ptree("[[]]")
    b = ptree("[[[]]]")
    got = planar_diamond(a, b)
    assert got == tf(ptree("[[],[[]]]")) + tf(ptree("[[[]],[]]"))


def _diamond_on_branches(t, s):
    """The branch shuffle with the root branches themselves as table items."""
    return LinComb((PlanarTree(None, seq), c)
                   for seq, c in _shuffle_table(t.children, s.children, ZERO).items())


def test_diamond_by_branch_indices_matches_the_branch_table():
    trees = [t for n in range(1, 6) for t in enumerate_planar_trees(n)]
    for a, b in itertools.product(trees, repeat=2):
        assert planar_diamond(a, b) == _diamond_on_branches(a, b), (a, b)
    repeated = ptree("[[],[],[[]]]")
    assert planar_diamond(repeated, repeated) == _diamond_on_branches(repeated, repeated)


def test_diamond_coproduct_deconcatenates_branches():
    t = ptree("[[],[]]")
    got = planar_diamond_coproduct(t)
    one = ptree("[[]]")
    want = (
        tf(Tensor((t, pleaf())))
        + tf(Tensor((one, one)))
        + tf(Tensor((pleaf(), t)))
    )
    assert got == want


@given(small_planar_trees, small_planar_trees, small_planar_trees)
def test_diamond_is_associative(a, b, c):
    left = LinComb.zero()
    for t, coeff in planar_diamond(a, b).items():
        left = left + planar_diamond(t, c).scale(coeff)
    right = LinComb.zero()
    for t, coeff in planar_diamond(b, c).items():
        right = right + planar_diamond(a, t).scale(coeff)
    assert left == right


def test_diamond_antipode_reverses_branches_with_a_sign():
    t = ptree("[[],[[]]]")
    got = planar_diamond_antipode(t)
    assert got == tf(ptree("[[[]],[]]"))
    assert planar_diamond_antipode(ptree("[[]]")) == tf(ptree("[[]]"), -1)


@given(small_planar_trees)
def test_diamond_antipode_convolution_law(t):
    total = LinComb.zero()
    for ten, c in planar_diamond_coproduct(t).items():
        a, b = ten.parts
        for s, c2 in planar_diamond_antipode(a).items():
            total = total + planar_diamond(s, b).scale(c * c2)
    want = tf(pleaf()) if t == pleaf() else LinComb.zero()
    assert total == want


def _diamond_antipode_by_recursion(t):
    """The defining recursion: the antipode law over branch deconcatenation
    and the branch shuffle, solved for S(t)."""
    if not t.children:
        return LinComb.term(t)
    return recursive_antipode(t, planar_diamond_coproduct, planar_diamond,
                              _diamond_antipode_by_recursion, pleaf())


def test_diamond_antipode_closed_form_matches_recursion():
    trees = [t for n in range(1, 7) for t in enumerate_planar_trees(n)]
    trees.append(ptree("[f1,[f2],f3,[[],[]]]"))
    for t in trees:
        assert planar_diamond_antipode(t) == _diamond_antipode_by_recursion(t), t
    with pytest.raises(ValueError, match="branch-shuffle antipode needs an unlabeled root"):
        planar_diamond_antipode(ptree("f1[[]]"))


# ---------------------------------------------------------------------------
# ordered forests


def test_foissy_coproduct_keeps_branch_order():
    p = bplus(forest_mul(PlanarForest((pleaf(),)), PlanarForest((pleaf(),))), None, PlanarTree)
    got = coproduct_forest(PlanarForest((p,)))
    pl2 = bplus(PlanarForest((pleaf(),)), None, PlanarTree)
    want = (
        tf(Tensor((PlanarForest((p,)), EMPTY_PLANAR_FOREST)))
        + tf(Tensor((EMPTY_PLANAR_FOREST, PlanarForest((p,)))))
        + tf(Tensor((PlanarForest((pleaf(),)), PlanarForest((pl2,)))), 2)
        + tf(Tensor((PlanarForest((pleaf(), pleaf())), PlanarForest((pleaf(),)))))
    )
    assert got == want


def test_foissy_single_vertex():
    v = PlanarForest((pleaf(),))
    got = coproduct_forest(v)
    assert got == tf(Tensor((v, EMPTY_PLANAR_FOREST))) + tf(
        Tensor((EMPTY_PLANAR_FOREST, v)))


@given(small_planar_forests)
def test_foissy_coproduct_is_coassociative(u):
    d = coproduct_forest(u)
    assert splice_at(d, 0, coproduct_forest) == splice_at(d, 1, coproduct_forest)


@given(small_planar_forests)
def test_foissy_antipode_convolution_law(u):
    total = LinComb.zero()
    for ten, c in coproduct_forest(u).items():
        a, b = ten.parts
        for s, c2 in ck_antipode(a).items():
            total = total + ck_product(s, b).scale(c * c2)
    want = tf(EMPTY_PLANAR_FOREST) if u == EMPTY_PLANAR_FOREST else LinComb.zero()
    assert total == want


@given(small_planar_forests, small_planar_forests)
def test_foissy_product_concatenates(u, v):
    got = ck_product(u, v)
    assert got == tf(forest_mul(u, v))


def test_forgetting_order_maps_the_ordered_structure_onto_the_unordered_one():
    def forget_tensor(t):
        return Tensor(tuple(forget_order_forest(p) for p in t.parts))

    for n in range(6):
        for u in enumerate_planar_forests(n):
            v = forget_order_forest(u)
            assert coproduct_forest(u).map_basis(forget_tensor) == coproduct_forest(v)
            assert ck_antipode(u).map_basis(forget_order_forest) == ck_antipode(v)


# ---------------------------------------------------------------------------
# the universal lift through a one-cocycle

def ck_target(labels=(None,)):
    """Forests with the cut coproduct and L_a = B+_a; the lift is the identity."""
    def make(a):
        return lambda x: x.map_basis(lambda u: Forest((bplus(u, a),)))

    return CocycleTarget(unit=LinComb.term(EMPTY_FOREST), product=ck_product,
                         coproduct=coproduct_forest, cocycles={a: make(a) for a in labels})


def test_lift_into_forests_is_the_identity():
    target = ck_target()
    for n in range(5):
        for u in enumerate_forests(n):
            assert universal_cocycle_map(target, u) == tf(u)


def test_lift_into_words_is_the_extension_morphism():
    target = shuffle_target(range(1, 5))
    for u in labeled_forests_up_to_weight(4):
        assert universal_cocycle_map(target, u) == pi(u)


def test_lift_unit():
    assert universal_cocycle_map(ck_target(), EMPTY_FOREST) == tf(EMPTY_FOREST)


def test_lift_rejects_a_broken_cocycle():
    from hopftrees.words import Word, deconcat, shuffle

    def prepend(a):
        return lambda x: x.map_basis(lambda w: Word((a,) + w.letters))

    broken = CocycleTarget(
        unit=LinComb.term(EMPTY_WORD),
        product=shuffle,
        coproduct=deconcat,
        cocycles={1: prepend(1), 2: prepend(2)},
    )
    # prepending coincides with appending on powers of one letter, so the
    # probe needs two distinct labels to expose the broken law
    with pytest.raises(CocycleLawError, match="cocycle law fails"):
        universal_cocycle_map(broken, forest(bplus(forest(leaf(1)), 2)))


def _counted(target):
    """target with each cocycle wrapped to count its calls."""
    calls = []

    def wrap(L):
        return lambda x: calls.append(x) or L(x)

    target.cocycles = {a: wrap(L) for a, L in target.cocycles.items()}
    return target, calls


def test_one_lift_builds_and_verifies_each_tree_once():
    forests = labeled_forests_up_to_weight(5)
    trees = {t for u in forests for t in u.trees}

    # a verification applies the cocycle twice to the branch image x and
    # once to the right factor of each term of cop(x); the build once more
    target, calls = _counted(shuffle_target(range(1, 6)))
    lift = cocycle_lift(target)
    for u in forests:
        assert lift(u) == pi(u)
    assert len(calls) == sum(3 + len(pi(strip_root(t)).map_basis(deconcat)) for t in trees)


def test_a_broken_cocycle_raises_through_the_lift_every_time():
    from hopftrees.words import Word, shuffle

    def prepend(a):
        return lambda x: x.map_basis(lambda w: Word((a,) + w.letters))

    lift = cocycle_lift(CocycleTarget(
        unit=LinComb.term(EMPTY_WORD), product=shuffle, coproduct=deconcat,
        cocycles={1: prepend(1), 2: prepend(2)}))
    assert lift(forest(leaf(1), leaf(2))) == pi(forest(leaf(1), leaf(2)))
    for _ in range(2):
        with pytest.raises(CocycleLawError, match="cocycle law fails for label 2"):
            lift(forest(leaf(1), bplus(forest(leaf(1)), 2)))


def test_one_lift_agrees_with_a_fresh_lift_per_forest():
    forests = labeled_forests_up_to_weight(4)
    for target in (shuffle_target(range(1, 5)), ck_target(range(1, 5))):
        lift = cocycle_lift(target)
        for u in forests:
            assert lift(u) == universal_cocycle_map(target, u), u
        assert lift(LinComb.sum(LinComb.term(u) for u in forests)) == LinComb.sum(
            universal_cocycle_map(target, u) for u in forests)


def test_lift_reports_missing_labels():
    with pytest.raises(KeyError, match="no cocycle for label"):
        universal_cocycle_map(shuffle_target((1,)), forest(leaf(2)))


# ---------------------------------------------------------------------------
# the per-forest antipode memo against closed forms


def _edge_cuts(t):
    """(kept tree through the root, detached trees, cut count) over every
    subset of the edges of t."""
    out = []
    per_child = [_edge_cuts(c) for c in t.children]
    for combo in itertools.product(*[[(opt, cut) for opt in opts for cut in (False, True)]
                                     for opts in per_child]):
        kept, detached, cuts = [], [], 0
        for (child, rest, k), cut in combo:
            detached += rest
            cuts += k
            if cut:
                detached.append(child)
                cuts += 1
            else:
                kept.append(child)
        out.append((type(t)(t.label, kept), detached, cuts))
    return out


def _all_edge_cuts_antipode(u):
    """S(F) = sum over edge sets C of (-1)^(|C| + #trees(F)) F_C."""
    terms = [((), 0)]
    for t in u.trees:
        terms = [(pieces + (kept,) + tuple(detached), cuts + k)
                 for pieces, cuts in terms for kept, detached, k in _edge_cuts(t)]
    return LinComb((Forest(pieces), (-1) ** (cuts + len(u.trees))) for pieces, cuts in terms)


def test_ck_product_refuses_an_empty_forest_of_the_other_class():
    with pytest.raises(TypeError, match="cannot multiply a Forest by a PlanarForest"):
        ck_product(EMPTY_FOREST, PlanarForest((pleaf(2),)))
    with pytest.raises(TypeError, match="cannot multiply a PlanarForest by a Forest"):
        ck_product(LinComb.term(EMPTY_FOREST) + LinComb.term(EMPTY_PLANAR_FOREST),
                   forest(leaf(1)))


def test_antipode_matches_the_all_edge_cuts_formula():
    clear_caches()
    unlabeled = [f for n in range(8) for f in enumerate_forests(n)]
    for u in unlabeled + labeled_forests_up_to_weight(5):
        assert ck_antipode(u) == _all_edge_cuts_antipode(u), u


def test_ordered_forest_antipode_reverses_the_trees():
    for n in range(7):
        for u in enumerate_planar_forests(n):
            want = LinComb.term(EMPTY_PLANAR_FOREST)
            for t in u.trees:
                want = ck_product(ck_antipode(PlanarForest((t,))), want)
            assert ck_antipode(u) == want, u


def test_antipodes_are_refused_by_the_vertex_budget(monkeypatch):
    monkeypatch.setattr(tree_hopf, "MAX_TERM_VERTICES", 66)
    clear_caches()
    assert len(ck_antipode(forest(ladder(6)))) == 11  # 11 terms of 6 vertices
    assert len(ck_antipode(PlanarForest((planar_ladder(4),)))) == 8
    for x in (forest(ladder(7)), LinComb.term(forest(ladder(7))) + tf(EMPTY_FOREST),
              PlanarForest((planar_ladder(5),))):
        with pytest.raises(ValueError, match=r"^an antipode of \d+ terms of [57] vertices is "
                                             r"refused; the limit is 66 vertices in all$"):
            ck_antipode(x)
    # each half fits, their product of 3 x 5 terms of 7 vertices does not
    with pytest.raises(ValueError, match="^an antipode product of 15 terms of 7 vertices"):
        ck_antipode(forest(ladder(3), ladder(4)))
    # 11 terms of 12 vertices, refused before any term is built
    with pytest.raises(ValueError, match="^a coproduct of 11 terms of 12 vertices"):
        gl_coproduct(bplus(Forest([leaf()] * 10)))
    clear_caches()


def test_antipode_of_a_wide_forest_does_not_recurse_per_tree():
    assert ck_antipode(Forest([leaf()] * 3000)) == tf(Forest([leaf()] * 3000))
