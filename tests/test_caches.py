"""clear_caches reaches every memo in the package and changes no output."""

import ast
import contextlib
import io
from pathlib import Path

import hopftrees
from hopftrees import cli, lyndon_hall
from hopftrees.checks import run_suite

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


def _check_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_clear_caches_empties_every_lru_cache_and_the_foliage_cache():
    names = _lru_cached_functions()
    assert ("tree_hopf", "_antipode_forest") in names
    assert ("morphisms", "_e_solver") in names
    run_suite("all", 4)
    modules = {m: getattr(hopftrees, m) for m, _ in names}
    assert any(getattr(modules[m], f).cache_info().currsize for m, f in names)
    assert lyndon_hall._FOLIAGE_CACHE
    hopftrees.clear_caches()
    assert {(m, f): getattr(modules[m], f).cache_info().currsize for m, f in names} == {
        key: 0 for key in names}
    assert not lyndon_hall._FOLIAGE_CACHE


def test_output_is_the_same_after_clearing():
    argv = ["check", "--suite", "hopf-axioms", "--max-weight", "4"]
    before = _check_stdout(argv)
    hopftrees.clear_caches()
    assert _check_stdout(argv) == before
