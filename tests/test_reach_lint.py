"""Every public name of ``src/hopftrees`` is reached from an entry point.

The roots are the code that runs when the package is used: the top-level
statements of each ``src/hopftrees`` module other than imports (they run on
import, and they hold ``__main__``'s call of ``cli.main``, ``checks.ALGEBRAS``
and ``checks.SUITES``), every file under ``scripts/`` and ``perfbench/``, and
``tests/test_acceptance.py``.  A top-level ``def`` or ``class`` is reached
when a reached body names it, as a bare name or as an attribute, and so is
a public method of a reached class when a reached body other than the
method's own names it.  The string constants of the entry files count as
names, since perfbench's tracer wraps ``LinComb`` methods by name.  Names
are matched across modules and classes, so the scan can only over-reach.
``ALLOWED`` holds the names kept as API with no caller (the paper
structures and the package's cache reset); they are roots too, and the
README lists each one with its reason.
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


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """The names and attribute names under node, and with strings its
    string constants too."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _units(module: ast.Module) -> list[tuple[str, str, str | None, list[ast.AST]]]:
    """(label, name, owning class, parts walked when reached) for each top-level
    def and class of module and each public method of its classes.  A class's
    parts are its body but its public methods, which are units of their own."""
    units = []
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            units.append((node.name, node.name, None, [node]))
        elif isinstance(node, ast.ClassDef):
            own = [*node.decorator_list, *node.bases, *node.keywords]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    units.append((f"{node.name}.{item.name}", item.name, node.name, [item]))
                else:
                    own.append(item)
            units.append((node.name, node.name, None, own))
    return units


def unreached(modules: list[ast.Module], entries: list[ast.Module],
              kept: frozenset[str] = frozenset()) -> list[str]:
    """The public top-level defs and classes of ``modules``, and the public
    methods (as ``Class.method``) of their reached classes, that no entry
    file, no top-level statement of ``modules`` and no name in ``kept``
    reaches, sorted.  A method is reached when a reached body other than
    its own names it; an entry file reaches the names its string constants
    spell too, as a tracer that wraps methods by name does."""
    units = [unit for module in modules for unit in _units(module)]
    seen = set(kept)
    for module in modules:
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                seen |= _names(node)
    for entry in entries:
        seen |= _names(entry, strings=True)
    reached: set[int] = set()
    reached_labels: set[str] = set()
    grew = True
    while grew:
        grew = False
        for i, (label, name, owner, parts) in enumerate(units):
            if i not in reached and name in seen and (owner is None or owner in reached_labels):
                reached.add(i)
                reached_labels.add(label)
                for part in parts:
                    seen |= _names(part)
                grew = True
    return sorted({label for i, (label, name, owner, _) in enumerate(units)
                   if i not in reached and not name.startswith("_")
                   and (owner is None or owner in reached_labels)})


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


def test_detector_follows_public_methods_of_reached_classes():
    lib = ast.parse("NOTE = 'unused'\n"
                    "class Reached:\n"
                    "    def used(self):\n        return self.helper()\n"
                    "    def helper(self):\n        pass\n"
                    "    def recursive(self):\n        return self.recursive()\n"
                    "    def by_name(self):\n        pass\n"
                    "    def unused(self):\n        pass\n"
                    "    def _private(self):\n        return via_private()\n"
                    "def via_private():\n    pass\n"
                    "class Idle:\n    def method(self):\n        pass\n")
    entry = ast.parse("import lib\nlib.Reached().used()\nWRAPPED = ('by_name',)\n")
    assert unreached([lib], [entry]) == ["Idle", "Reached.recursive", "Reached.unused"]


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
