"""Rooted trees and forests: canonical forms, enumeration, cuts, parsing."""

import itertools
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopftrees.algebra import ParseError
from hopftrees.trees import (
    EMPTY_FOREST,
    EMPTY_PLANAR_FOREST,
    MAX_PARSE_DEPTH,
    Forest,
    PlanarForest,
    PlanarTree,
    RootedTree,
    admissible_cuts,
    bbr_parse,
    bbr_print,
    bplus,
    canonicalize,
    enumerate_forests,
    enumerate_planar_forests,
    enumerate_planar_trees,
    enumerate_trees,
    forest,
    forest_mul,
    forget_order,
    graft,
    labeled_forests_of_weight,
    labeled_forests_up_to_weight,
    labeled_ladder,
    labeled_trees_of_weight,
    ladder,
    pbplus,
    planar_concat,
    leaf,
    MAX_LINEAR_EXTENSIONS,
    extension_count,
    linear_extensions,
    parse_forest,
    parse_tree,
    per_count,
    planar_ladder,
    planar_variants,
    pleaf,
    strip_root,
    sym_order,
)
from hopftrees.trees import _multisets, _trees_upto_key
from hopftrees.words import word

CHERRY = bplus(forest(leaf(), leaf()))

unlabeled_trees = st.sampled_from(
    [t for n in range(1, 6) for t in enumerate_trees(n)])
unlabeled_forests = st.sampled_from(
    [u for n in range(5) for u in enumerate_forests(n)])
labeled_forests = st.sampled_from(labeled_forests_up_to_weight(4))


def test_children_are_unordered():
    a = RootedTree(None, (ladder(2), leaf()))
    b = RootedTree(None, (leaf(), ladder(2)))
    assert a == b
    assert hash(a) == hash(b)


def test_rooted_tree_counts_through_six_vertices():
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_four_vertex_trees_are_pairwise_distinct():
    trees = enumerate_trees(4)
    assert len(set(trees)) == len(trees) == 4


def test_forest_counts_match_trees_via_bplus():
    # B+ is a bijection from n-vertex forests to (n+1)-vertex trees
    for n in range(6):
        forests = enumerate_forests(n)
        assert len(forests) == len(enumerate_trees(n + 1))
        assert sorted((bplus(u) for u in forests), key=RootedTree.sort_key) == sorted(
            enumerate_trees(n + 1), key=RootedTree.sort_key)


def test_bplus_of_empty_forest_is_the_single_vertex():
    assert bplus(EMPTY_FOREST) == leaf()
    assert bplus(forest(leaf(), leaf())) == CHERRY


def test_bplus_carries_the_label():
    t = bplus(forest(leaf(1)), 2)
    assert t.label == 2
    assert t.size == 2
    assert str(t) == "f2[f1]"


@given(unlabeled_trees)
def test_strip_root_inverts_bplus(t):
    assert bplus(strip_root(t)) == RootedTree(None, t.children)
    assert strip_root(bplus(forest(t))) == forest(t)


@given(unlabeled_trees, unlabeled_forests, unlabeled_forests)
def test_grafting_is_a_monoid_action(t, u, v):
    assert graft(t, EMPTY_FOREST) == t
    assert graft(graft(t, u), v) == graft(t, forest_mul(u, v))


def test_forest_mul_returns_the_other_factor_of_an_empty_forest():
    u = forest(CHERRY, leaf(2))
    assert forest_mul(u, EMPTY_FOREST) is u
    assert forest_mul(EMPTY_FOREST, u) is u
    v = PlanarForest((pleaf(), pleaf(1)))
    assert forest_mul(EMPTY_PLANAR_FOREST, v) is v
    assert forest_mul(v, EMPTY_PLANAR_FOREST) is v
    assert forest_mul(v, v).trees == v.trees + v.trees


@given(unlabeled_trees)
def test_canonicalize_is_idempotent(t):
    assert canonicalize(t) == t


def test_symmetry_orders():
    assert sym_order(leaf()) == 1
    assert sym_order(CHERRY) == 2
    assert sym_order(bplus(forest(leaf(), leaf(), leaf()))) == 6
    assert sym_order(ladder(3)) == 1
    # labels break the symmetry
    assert sym_order(bplus(forest(leaf(1), leaf(2)), 1)) == 1
    assert sym_order(bplus(forest(leaf(1), leaf(1)), 2)) == 2


def test_per_counts():
    assert per_count(EMPTY_FOREST) == 1
    assert per_count(forest(leaf(1), leaf(1))) == 2
    assert per_count(forest(leaf(), leaf(), leaf())) == 6


def _per_by_own_recursion(x) -> int:
    """per(B+_a(u)) = per(u), per(prod t_j^(i_j)) = prod i_j! per(t_j)^(i_j),
    as per_count computed it before it read sym_order."""
    if isinstance(x, RootedTree):
        return _per_by_own_recursion(Forest(x.children))
    out = 1
    for t, mult in itertools.groupby(x.trees):
        mult = len(list(mult))
        out *= factorial(mult) * _per_by_own_recursion(t) ** mult
    return out


def test_per_count_matches_its_recursion():
    forests = [u for n in range(8) for u in enumerate_forests(n)]
    forests += labeled_forests_up_to_weight(6)
    for u in forests:
        assert per_count(u) == _per_by_own_recursion(u), u
        for t in u.trees:
            assert per_count(t) == _per_by_own_recursion(t), t


@given(unlabeled_forests)
def test_per_is_invariant_under_bplus(u):
    assert per_count(forest(bplus(u))) == per_count(u)


def test_admissible_cuts_of_the_ladder():
    cuts = admissible_cuts(ladder(2))
    assert len(cuts) == 1
    assert cuts[0].pruned == forest(leaf())
    assert cuts[0].trunk == leaf()


def test_admissible_cuts_of_the_cherry():
    cuts = admissible_cuts(CHERRY)
    key = lambda pair: (pair[0].sort_key(), pair[1].sort_key())
    pairs = sorted(((c.pruned, c.trunk) for c in cuts), key=key)
    assert pairs == sorted(
        [
            (forest(leaf()), ladder(2)),
            (forest(leaf()), ladder(2)),
            (forest(leaf(), leaf()), leaf()),
        ],
        key=key,
    )


def test_linear_extensions_of_a_ladder_is_its_word():
    t = labeled_ladder(word(1, 2))
    assert t.label == 2 and t.children[0].label == 1
    assert linear_extensions(forest(t)) == (word(1, 2),)


def test_linear_extensions_of_a_cherry():
    t = bplus(forest(leaf(1), leaf(2)), 3)
    got = sorted(linear_extensions(forest(t)), key=lambda w: w.letters)
    assert got == [word(1, 2, 3), word(2, 1, 3)]


def test_linear_extensions_count_equal_branches_with_multiplicity():
    t = bplus(forest(leaf(1), leaf(1)), 2)
    assert linear_extensions(forest(t)) == (word(1, 1, 2), word(1, 1, 2))


def test_linear_extensions_need_labels():
    with pytest.raises(ValueError):
        linear_extensions(forest(leaf()))


def test_extension_count_is_the_number_listed():
    for u in labeled_forests_up_to_weight(7):
        assert extension_count(u) == len(linear_extensions(u)), u


def test_nine_leaves_are_within_the_extension_limit():
    # counted only: listing 9! words takes seconds
    nine = forest(*[leaf(1)] * 9)
    assert extension_count(nine) == factorial(9) <= MAX_LINEAR_EXTENSIONS
    assert extension_count(forest(*[leaf(1)] * 10)) > MAX_LINEAR_EXTENSIONS


def test_too_many_linear_extensions_are_refused_before_listing():
    eleven = forest(*(leaf(k) for k in range(1, 12)))
    assert extension_count(eleven) == factorial(11)
    with pytest.raises(ValueError, match="more than 1,000,000 linear extensions"):
        linear_extensions(eleven)


def _labeled_count_oracle(max_weight):
    """Independent count recurrence: a tree is a root label plus a branch
    forest, and forests are the Euler transform of trees."""
    trees = {0: 0}
    forests = {0: 1}
    for n in range(1, max_weight + 1):
        trees[n] = sum(forests[n - k] for k in range(1, n + 1))
        c = {
            k: sum(d * trees[d] for d in range(1, k + 1) if k % d == 0)
            for k in range(1, n + 1)
        }
        forests[n] = (
            sum(c[k] * forests[n - k] for k in range(1, n + 1))
        ) // n
    return trees, forests


def test_labeled_enumeration_matches_the_count_recurrence():
    trees, forests = _labeled_count_oracle(5)
    for n in range(1, 6):
        assert len(labeled_trees_of_weight(n)) == trees[n]
        assert len(labeled_forests_of_weight(n)) == forests[n]


def _multisets_full_scan(total, pool, size_of):
    """Multisets from a sorted pool by scanning the whole pool at every level."""
    def rec(rest, start):
        if rest == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            s = size_of(pool[i])
            if s <= rest:
                for tail in rec(rest - s, i):
                    yield (pool[i],) + tail
    return rec(total, 0)


def _forests(tuples):
    out = [Forest(ts) for ts in tuples]
    return sorted(out, key=lambda f: f._key)


def test_multisets_match_the_full_scan():
    for n in range(9):
        pool = _trees_upto_key(n)
        size = lambda t: t.size
        assert _forests(_multisets(n, pool, size)) == _forests(_multisets_full_scan(n, pool, size))
        assert list(enumerate_forests(n)) == _forests(_multisets_full_scan(n, pool, size))
    for w in range(1, 9):
        pool = sorted((t for k in range(1, w + 1) for t in labeled_trees_of_weight(k)),
                      key=lambda t: t._key)
        weight = lambda t: t.weight
        expected = _forests(_multisets_full_scan(w, pool, weight))
        assert _forests(_multisets(w, pool, weight)) == expected
        assert list(labeled_forests_of_weight(w)) == expected


def test_labeled_weight_one():
    assert labeled_trees_of_weight(1) == (leaf(1),)


def test_labeled_forests_up_to_weight_is_cumulative():
    up_to = labeled_forests_up_to_weight(3)
    flat = [EMPTY_FOREST]
    for n in range(1, 4):
        flat.extend(labeled_forests_of_weight(n))
    assert sorted(up_to, key=Forest.sort_key) == sorted(flat, key=Forest.sort_key)


def test_parse_tree_with_labels():
    assert parse_tree("f2[f1]") == bplus(forest(leaf(1)), 2)
    assert parse_tree("[]") == leaf()
    assert parse_forest("I") == EMPTY_FOREST


def test_parse_reports_unbalanced_bracket_offset():
    with pytest.raises(ParseError) as err:
        parse_forest("[[]")
    assert err.value.offset == 3
    assert "unbalanced bracket" in str(err.value)


@pytest.mark.parametrize(
    "text,offset",
    [("f", 1), ("f0", 1), ("[]]", 2), ("f2[", 3), ("", 0)],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_forest(text)
    assert err.value.offset == offset


@given(unlabeled_forests)
def test_unlabeled_forest_strings_round_trip(u):
    assert parse_forest(str(u)) == u


@given(labeled_forests)
def test_labeled_forest_strings_round_trip(u):
    assert parse_forest(str(u)) == u


def test_bbr_base_cases():
    assert bbr_parse("") == pleaf()
    two = bbr_parse("<>")
    assert forget_order(two) == ladder(2)
    assert forget_order(bbr_parse("<><>")) == CHERRY


def test_bbr_round_trip():
    for n in range(1, 6):
        for t in enumerate_planar_trees(n):
            assert bbr_parse(bbr_print(t)) == t


def test_planar_tree_counts_are_catalan():
    assert [len(enumerate_planar_trees(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_planar_variants_forget_back():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            variants = planar_variants(t)
            assert len(set(variants)) == len(variants)
            for p in variants:
                assert forget_order(p) == t


def test_planar_variant_counts_partition_catalan():
    # each planar tree orders exactly one unlabeled tree
    for n in range(1, 6):
        total = sum(len(planar_variants(t)) for t in enumerate_trees(n))
        assert total == len(enumerate_planar_trees(n))


def test_planar_variants_of_symmetric_trees_collapse():
    assert len(planar_variants(CHERRY)) == 1
    assert len(planar_variants(bplus(forest(ladder(2), leaf())))) == 2


def test_bbr_refuses_deep_nesting():
    with pytest.raises(ParseError, match="nested deeper than"):
        bbr_parse("<" * 3000 + ">" * 3000)


def test_bbr_round_trips_at_the_depth_limit():
    text = "<" * MAX_PARSE_DEPTH + ">" * MAX_PARSE_DEPTH
    assert bbr_print(bbr_parse(text)) == text


# ---------------------------------------------------------------------------
# printing and parsing are inverse on arbitrary trees and forests

_no_label = st.none()
_label = st.integers(1, 12)
_any_label = st.one_of(st.none(), _label)


def _random_trees(cls, labels):
    return st.recursive(
        st.builds(cls, labels, st.just(())),
        lambda kids: st.builds(cls, labels, st.lists(kids, max_size=3)),
        max_leaves=10)


@given(_random_trees(RootedTree, _no_label))
def test_unlabeled_tree_strings_round_trip(t):
    assert parse_tree(str(t)) == t


@given(_random_trees(RootedTree, _label))
def test_labeled_tree_strings_round_trip(t):
    assert parse_tree(str(t)) == t


@given(_random_trees(RootedTree, _any_label))
def test_partly_labeled_tree_strings_round_trip(t):
    assert parse_tree(str(t)) == t


@given(st.lists(_random_trees(RootedTree, _any_label), max_size=4).map(Forest))
def test_random_forest_strings_round_trip(u):
    assert parse_forest(str(u)) == u


@given(_random_trees(PlanarTree, _any_label))
def test_planar_tree_strings_round_trip(t):
    assert parse_tree(str(t), planar=True) == t


@given(st.lists(_random_trees(PlanarTree, _any_label), max_size=4).map(PlanarForest))
def test_planar_forest_strings_round_trip(u):
    assert parse_forest(str(u), planar=True) == u


# ---------------------------------------------------------------------------
# the shared tree and forest classes, plain and planar


def test_plain_and_planar_values_of_one_shape_are_unequal():
    for n in range(1, 5):
        for t in enumerate_planar_trees(n):
            plain = forget_order(t)
            assert plain != t and t != plain
            assert Forest((plain,)) != PlanarForest((t,))
            assert PlanarForest((t,)) != Forest((plain,))
    assert EMPTY_FOREST != EMPTY_PLANAR_FOREST
    assert len({leaf(), pleaf(), EMPTY_FOREST, EMPTY_PLANAR_FOREST}) == 4


def test_mixed_children_are_refused_with_the_class_name():
    with pytest.raises(TypeError, match="^children must be RootedTree instances$"):
        RootedTree(None, (leaf(), pleaf()))
    with pytest.raises(TypeError, match="^children must be PlanarTree instances$"):
        PlanarTree(None, (pleaf(), leaf()))
    with pytest.raises(ValueError, match="labels must be positive integers, got 0"):
        PlanarTree(0)


def test_reprs_name_the_class():
    cherry = parse_tree("f1[f2,[]]", planar=True)
    assert repr(parse_tree("f1[f2,[]]")) == "<tree f1[[],f2]>"
    assert repr(cherry) == "<planar f1[f2,[]]>"
    assert repr(forest(leaf(2), leaf())) == "<forest [] f2>"
    assert repr(PlanarForest((pleaf(2), pleaf()))) == "<planar forest f2 []>"
    assert repr(EMPTY_FOREST) == "<forest I>"
    assert repr(EMPTY_PLANAR_FOREST) == "<planar forest I>"


def test_planar_values_keep_the_given_order_and_plain_ones_sort():
    big, small = planar_ladder(3), pleaf()
    assert PlanarForest((big, small)).trees == (big, small)
    assert PlanarForest((small, big)).trees == (small, big)
    assert PlanarTree(None, (big, small)).children == (big, small)
    assert PlanarTree(None, (big, small)) != PlanarTree(None, (small, big))
    plain = (ladder(3), leaf())
    assert Forest(plain).trees == Forest(plain[::-1]).trees == (leaf(), ladder(3))
    assert RootedTree(None, plain).children == (leaf(), ladder(3))


def test_tree_and_forest_instances_have_no_dict():
    for x in (leaf(1), CHERRY, pleaf(), planar_ladder(2), EMPTY_FOREST,
              forest(leaf()), EMPTY_PLANAR_FOREST, PlanarForest((pleaf(),))):
        assert not hasattr(x, "__dict__"), type(x)
        with pytest.raises(AttributeError):
            x.extra = 1


def test_forest_class_of_each_tree_class():
    assert RootedTree.forest_class is Forest
    assert PlanarTree.forest_class is PlanarForest


def test_planar_builders_are_the_plain_ones_on_planar_trees():
    assert pleaf(2) == PlanarTree(2, ())
    assert pbplus(PlanarForest((pleaf(1), pleaf())), 3) == PlanarTree(3, (pleaf(1), pleaf()))
    assert planar_ladder(3) == PlanarTree(None, (PlanarTree(None, (pleaf(),)),))
    assert forget_order(planar_ladder(4)) == ladder(4)
    assert planar_ladder(0) == planar_ladder(1) == pleaf()
    u, v = PlanarForest((pleaf(1),)), PlanarForest((pleaf(), pleaf(2)))
    assert planar_concat(u, v) == forest_mul(u, v) == PlanarForest(u.trees + v.trees)
    assert planar_concat(u, EMPTY_PLANAR_FOREST) is u
    for n in range(6):
        want = sorted((PlanarTree(None, f.trees) for f in enumerate_planar_forests(n - 1)),
                      key=lambda t: t.sort_key()) if n else []
        assert list(enumerate_planar_trees(n)) == want
        assert all(type(t) is RootedTree for t in enumerate_trees(n))
