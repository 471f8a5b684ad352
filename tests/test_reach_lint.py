"""Every public name of ``src/hopftrees`` is reached from an entry point.

The roots are the code that runs when the package is used: the top-level
statements of each ``src/hopftrees`` module other than imports (they run on
import, and they hold ``__main__``'s call of ``cli.main``, ``checks.ALGEBRAS``
and ``checks.SUITES``), every file under ``scripts/`` and ``perfbench/``, and
``tests/test_acceptance.py``.  A top-level ``def`` or ``class`` is reached
when a reached body names it, as a bare name or as an attribute; names are
matched across modules, so the scan can only over-reach.  ``ALLOWED`` holds
the names kept as API with no caller (the paper structures and the package's
cache reset); they are roots too, and the README lists each one with its
reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopftrees"
ENTRY_FILES = [*sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]

ALLOWED = frozenset({"xi", "F", "Z_u", "zhao_Z", "lyndon_poly_decompose", "ShuffleMonomial",
                     "shuffle_monomial", "expand_shuffle_monomial", "clear_caches"})


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def unreached(modules: list[ast.Module], entries: list[ast.Module],
              kept: frozenset[str] = frozenset()) -> list[str]:
    """The public top-level defs and classes of ``modules`` that no entry
    file, no top-level statement of ``modules`` and no name in ``kept``
    reaches, sorted."""
    defs: dict[str, list[ast.AST]] = {}
    todo = set(kept)
    for module in modules:
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= _names(node)
    for entry in entries:
        todo |= _names(entry)
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            todo |= _names(node)
    return sorted(name for name in defs if name not in reached and not name.startswith("_"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_detector_follows_bodies_from_top_level_statements_and_entries():
    lib = ast.parse("from .x import dead\n"
                    "TABLE = {'k': used}\n"
                    "def used():\n    return helper()\n"
                    "def helper():\n    return _inner()\n"
                    "def _inner():\n    return deep\n"
                    "def deep():\n    pass\n"
                    "def dead():\n    return orphan()\n"
                    "def orphan():\n    pass\n"
                    "class Called:\n    def method(self):\n        return via_method()\n"
                    "def via_method():\n    pass\n"
                    "class Unused:\n    pass\n"
                    "def _private():\n    pass\n")
    entry = ast.parse("import lib\nlib.Called().method()\n")
    assert unreached([lib], [entry]) == ["Unused", "dead", "orphan"]
    assert unreached([lib], [entry], frozenset({"dead"})) == ["Unused"]


def test_every_public_library_name_is_reached_or_kept_as_api():
    modules = [_parse(path) for path in sorted(SRC.glob("*.py"))]
    hits = unreached(modules, [_parse(p) for p in ENTRY_FILES], ALLOWED)
    assert SRC.is_dir() and not hits, (
        "no command, suite, script, perfbench job or acceptance test reaches these; "
        "delete them, move them to the tests that use them, or list them as API in "
        "the README and in ALLOWED:\n" + "\n".join(hits))


def test_allowlist_names_exist_and_match_the_readme_list():
    defined = {node.name for path in SRC.glob("*.py") for node in _parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    readme = (ROOT / "README.md").read_text()
    kept = readme.split("Names kept as API with no caller in the package", 1)[1]
    kept = kept.split("\n\n")[1]
    listed = {line.split("`")[1] for line in kept.splitlines() if line.startswith("- `")}
    assert ALLOWED <= defined
    assert listed == ALLOWED
