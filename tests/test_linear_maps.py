"""The contract of every map written on basis elements and extended by
algebra.linear_map or algebra.bilinear_map.

Each public decorated map is found by walking the package's modules, and
each must have samples in MAPS, so that a new decorated map is tested on
purpose.  For each, a basis element and its one-term LinComb give equal
results, and a two-term combination maps termwise.  The memoized images
returned without a copy stay unchanged after they enter sums, products and
the Hopf rows.
"""

import importlib
import pkgutil
from fractions import Fraction

import hopftrees
from hopftrees import checks
from hopftrees.algebra import LinComb, bilinear_map, lincomb_tensor, linear_map
from hopftrees.morphisms import pi
from hopftrees.tree_hopf import (ck_product, cocycle_lift, coproduct_forest, gl_antipode,
                                 gl_product, shuffle_target)
from hopftrees.trees import EMPTY_FOREST, Forest, enumerate_trees, parse_forest, parse_tree
from hopftrees.words import ZERO, word
from oracles import splice_at

LINEAR = linear_map(lambda b: b).__code__
BILINEAR = bilinear_map(lambda a, b: a).__code__


def forests(*texts, planar=False):
    return tuple(parse_forest(s, planar=planar) for s in texts)


def trees(*texts, planar=False):
    return tuple(parse_tree(s, planar=planar) for s in texts)


def words(*letter_tuples):
    return tuple(word(*ls) for ls in letter_tuples)


# "module.name" -> (two basis samples, extra arguments) for a linear map, and
# (two samples of each factor, extra arguments) for a bilinear one
MAPS = {
    "tree_hopf.ck_product": ((forests("f1", "[[]] f2"), forests("I", "[] f1[f2]")), ()),
    "tree_hopf.ck_antipode": (forests("f1[f2,f3]", "[[]] [[],[]]"), ()),
    "tree_hopf.gl_product": ((trees("[[],[]]", "[[[]]]"), trees("[[]]", "[]")), ()),
    "tree_hopf.gl_coproduct": (trees("[[],[[]]]", "f1[f2]"), ()),
    "tree_hopf.gl_antipode": (trees("[[],[]]", "[[[]],[]]"), ()),
    "tree_hopf.planar_diamond": ((trees("[[],[[]]]", "[[]]", planar=True),
                                  trees("[[[]]]", "[[],[]]", planar=True)), ()),
    "tree_hopf.planar_diamond_coproduct": (trees("[[],[[]],[]]", "f1[f2]", planar=True), ()),
    "tree_hopf.planar_diamond_antipode": (trees("[[],[[]]]", "[[[]],[]]", planar=True), ()),
    "words.quasi_shuffle": ((words((1, 2), (3,)), words((2,), (1, 1))), (ZERO,)),
    "words.concat": ((words((1, 2), ()), words((2,), (1, 1))), ()),
    "morphisms.Aplus": (words((), (2, 1)), ()),
    "morphisms.alpha1": (words((2,), (1, 3)), ()),
    "morphisms.alpha2": (forests("[[]] []", "[[],[[]]]", planar=True), ()),
    "morphisms.alpha3": (words((2, 1), (3,)), ()),
    "morphisms.alpha1_star": (trees("[[[]],[]]", "[[[],[]]]", planar=True), ()),
    "morphisms.alpha2_star": (trees("[[],[[]]]", "[[],[]]"), ()),
    "morphisms.alpha4_star": (trees("[[[]],[]]", "[[[],[]]]"), ()),
    "morphisms.zhao_Z": (words((1, 2), (2,)), ()),
    "morphisms.zhao_Zstar": (forests("[[],[]] []", "[[[]]]"), ()),
    "morphisms.Z_u": (words((), (1, 2)), ()),
    "morphisms.rho": (forests("[[]]", "[] []"), (4,)),
    "morphisms.rho_star": (words((1, 2), (3,)), ()),
    "morphisms.F": (words((), (2, 1)), ()),
    "morphisms.beta2": (forests("[[]] []", "[[],[]]", planar=True), (4,)),
}


def decorated_maps():
    """'module.name' -> (map, 'linear' or 'bilinear') for each public
    decorated map of the package."""
    out = {}
    for info in pkgutil.iter_modules(hopftrees.__path__):
        module = importlib.import_module(f"hopftrees.{info.name}")
        for name, obj in vars(module).items():
            code = getattr(obj, "__code__", None)
            if (not name.startswith("_") and code in (LINEAR, BILINEAR)
                    and obj.__module__ == module.__name__):
                out[f"{info.name}.{name}"] = (obj, "linear" if code is LINEAR else "bilinear")
    return out


def check_linear(f, samples, args):
    b1, b2 = samples
    for b in samples:
        assert f(b, *args) == f(LinComb.term(b), *args)
    x = LinComb([(b1, 2), (b2, Fraction(-1, 3))])
    assert f(x, *args) == LinComb.sum([(f(b1, *args), 2), (f(b2, *args), Fraction(-1, 3))])
    assert f(LinComb.zero(), *args) == LinComb.zero()


def check_bilinear(f, samples, args):
    (x1, x2), (y1, y2) = samples
    for a in (x1, x2):
        for b in (y1, y2):
            want = f(a, b, *args)
            assert want == f(LinComb.term(a), b, *args) == f(a, LinComb.term(b), *args)
    x = LinComb([(x1, 2), (x2, Fraction(-1, 3))])
    y = LinComb([(y1, 1), (y2, 5)])
    assert f(x, y, *args) == LinComb.sum(
        (f(a, b, *args), ca * cb) for a, ca in x.items() for b, cb in y.items())


def test_every_decorated_public_map_keeps_the_lifting_contract():
    found = decorated_maps()
    assert set(found) == set(MAPS)
    for name, (f, kind) in found.items():
        samples, args = MAPS[name]
        (check_linear if kind == "linear" else check_bilinear)(f, samples, args)


def test_the_cocycle_lift_keeps_the_lifting_contract_and_its_memo():
    lift = cocycle_lift(shuffle_target(range(1, 4)))
    samples = forests("f1[f2] f3", "f2[f1,f3]")
    check_linear(lift, samples, ())
    assert lift(samples[0]) is lift(samples[0])


def test_pi_keeps_the_lifting_contract():
    check_linear(pi, forests("f1[f2] f3", "f2[f1,f1]"), ())


def snapshot(x):
    return dict(x.items())


def test_memoized_images_are_shared_and_stay_unchanged():
    tree = parse_tree("[[],[[]]]")
    u = parse_forest("f1[f2,f3] [[]]")
    s, d = gl_antipode(tree), coproduct_forest(u)
    assert s is gl_antipode(tree) and d is coproduct_forest(u)
    before = (snapshot(s), snapshot(d))

    s + s, s - s, -s, s.scale(3), 2 * s, s.combine(s, -1)
    LinComb.sum([s, (s, 2), d])
    gl_product(s, s), gl_product(s, tree), gl_antipode(s)
    d + d, d.scale(-1), splice_at(d, 0, coproduct_forest), lincomb_tensor(d, d)
    LinComb([(u, 1), (parse_forest("[]"), 2)]).map_basis(coproduct_forest)
    ck_product(LinComb.term(u), LinComb.term(u))
    assert all(row.passed for row in checks.suite_hopf_axioms(4, 4, 3, 4))
    for name, elements in (("ck", [u, Forest(u.trees[:1]), EMPTY_FOREST]),
                           ("gl", [t for n in range(1, 5) for t in enumerate_trees(n)])):
        alg = checks.ALGEBRAS[name]
        rows = checks._hopf_rows(name, elements, alg.coproduct, alg.antipode, alg.product,
                                 alg.unit)
        assert all(row.passed for row in rows)

    assert gl_antipode(tree) is s and coproduct_forest(u) is d
    assert (snapshot(s), snapshot(d)) == before
