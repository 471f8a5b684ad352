"""clear_caches reaches every memo in the package and changes no output, and
the intern table makes equal trees and forests one object.

Every memo is a functools cache: a process-wide one is a module-level
``lru_cache``, which clear_caches finds through its module attribute, and
one that lives as long as a returned callable is a closure decorated with
``cache``.  The lint below keeps other memo forms out of ``src/hopftrees``:
``global`` state, ``cached_property``, an ``lru_cache`` on a nested def,
``cache`` on a module-level def, and module dicts named ``*_CACHE`` other
than the intern table, which clear_caches empties by name.
"""

import ast
import contextlib
import copy
import io
import pickle
import textwrap
from pathlib import Path

import pytest

import hopftrees
from hopftrees import cli, trees
from hopftrees.checks import run_suite
from hopftrees.trees import (Forest, PlanarForest, PlanarTree, RootedTree, canonicalize,
                             leaf, parse_forest, parse_tree, pleaf)

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"


def _lru_cached_functions():
    """(module name, function name) of every function decorated with lru_cache."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(d) for d in node.decorator_list):
                found.append((path.stem, node.name))
    return found


def _memo_lint(tree: ast.Module, module: str) -> list[str]:
    """The memo forms other than the two functools ones, in one module."""
    top = set(map(id, tree.body))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            hits.append(f"global {', '.join(node.names)}")
        elif isinstance(node, ast.FunctionDef):
            nested = id(node) not in top
            for d in map(ast.unparse, node.decorator_list):
                if "cached_property" in d:
                    hits.append(f"cached_property {node.name}")
                elif nested and "lru_cache" in d:
                    hits.append(f"lru_cache on nested {node.name}")
                elif not nested and d in ("cache", "functools.cache"):
                    hits.append(f"cache on module-level {node.name}")
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        hits.extend(t.id for t in targets if isinstance(t, ast.Name)
                    and t.id.endswith("_CACHE") and (module, t.id) != ("trees", "_INTERN_CACHE"))
    return hits


def test_memo_lint_flags_each_other_memo_form():
    code = textwrap.dedent("""\
        from functools import cache, cached_property, lru_cache
        _FOLIAGE_CACHE: dict = {}
        _INTERN_CACHE = {}
        _LIMIT = 3
        @lru_cache(maxsize=None)
        def a(x):
            return x
        @cache
        def b(x):
            return x
        def c():
            global _hook
            @cache
            def d(x):
                return x
            @lru_cache(maxsize=None)
            def e(x):
                return x
            return d, e
        class F:
            @functools.cached_property
            def g(self):
                return 1
        """)
    assert sorted(_memo_lint(ast.parse(code), "words")) == [
        "_FOLIAGE_CACHE", "_INTERN_CACHE", "cache on module-level b", "cached_property g",
        "global _hook", "lru_cache on nested e"]
    assert "_INTERN_CACHE" not in _memo_lint(ast.parse(code), "trees")


def test_every_memo_in_the_library_is_a_functools_cache():
    hits = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
            for hit in _memo_lint(ast.parse(path.read_text(), str(path)), path.stem)]
    assert SRC.is_dir() and not hits, (
        "memoize with a module-level lru_cache, or a closure's cache:\n" + "\n".join(hits))


def _check_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_clear_caches_empties_every_lru_cache_and_the_foliage_cache():
    names = _lru_cached_functions()
    assert {("tree_hopf", "_antipode_forest"), ("morphisms", "_e_solver"),
            ("lyndon_hall", "foliage_word"), ("morphisms", "_e_decompose")} <= set(names)
    run_suite("all", 4)
    modules = {m: getattr(hopftrees, m) for m, _ in names}
    assert any(getattr(modules[m], f).cache_info().currsize for m, f in names)
    hopftrees.clear_caches()
    assert {(m, f): getattr(modules[m], f).cache_info().currsize for m, f in names} == {
        key: 0 for key in names}


def test_output_is_the_same_after_clearing():
    argv = ["check", "--suite", "hopf-axioms", "--max-weight", "4"]
    before = _check_stdout(argv)
    hopftrees.clear_caches()
    assert _check_stdout(argv) == before


def test_clear_caches_empties_the_intern_table():
    parse_forest("f1 [[]] f2[f3]")
    assert trees._INTERN_CACHE
    hopftrees.clear_caches()
    assert not trees._INTERN_CACHE


def test_equal_trees_and_forests_are_one_object():
    assert parse_tree("[[],[]]") is parse_tree("[[],[]]")
    a, b = parse_tree("f2[f1]"), parse_tree("[[]]")
    assert Forest((a, b)) is Forest((b, a))
    assert PlanarForest((pleaf(1), pleaf(2))) is not PlanarForest((pleaf(2), pleaf(1)))


def test_values_built_before_clearing_equal_those_built_after():
    tree, planar_forest = parse_tree("f1[f2,[f3]]"), parse_forest("f1[[]] f2", planar=True)
    hopftrees.clear_caches()
    new_tree, new_planar_forest = parse_tree("f1[f2,[f3]]"), parse_forest("f1[[]] f2", planar=True)
    assert new_tree is not tree and new_planar_forest is not planar_forest
    assert (new_tree, hash(new_tree)) == (tree, hash(tree))
    assert (new_planar_forest, hash(new_planar_forest)) == (planar_forest, hash(planar_forest))
    assert Forest((leaf(), new_tree)) == Forest((tree, leaf()))


def test_plain_and_planar_trees_of_one_shape_stay_unequal():
    plain, planar = parse_tree("[[],[[]]]"), parse_tree("[[],[[]]]", planar=True)
    assert plain != planar and canonicalize(planar) is plain
    assert Forest((plain,)) != PlanarForest((planar,))
    assert leaf() != pleaf() and Forest(()) != PlanarForest(())


def test_bad_labels_and_children_still_raise_once_an_equal_value_is_interned():
    RootedTree(1, (leaf(),))
    with pytest.raises(ValueError, match="positive integers"):
        RootedTree(0, (leaf(),))
    with pytest.raises(ValueError, match="positive integers"):
        RootedTree(True, (leaf(),))
    with pytest.raises(TypeError, match="RootedTree instances"):
        RootedTree(1, (pleaf(),))
    with pytest.raises(TypeError, match="PlanarTree instances"):
        PlanarTree(1, (leaf(),))


@pytest.mark.parametrize("text, planar", [
    ("f1[f2,f3]", False), ("f1[f2,f3]", True), ("f3 [[]] f1[f2]", False), ("f1[f2] [[]]", True)])
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copies_and_pickles_return_the_interned_object(text, planar, duplicate):
    x = (parse_forest if " " in text else parse_tree)(text, planar=planar)
    assert duplicate(x) is x
    assert str(leaf()) == "[]" and leaf().children == ()
    assert str(x) == text
