"""Every name a test module imports at top level is read in that module.

A top-level ``import`` or ``from ... import`` binds names (``import a.b``
binds ``a``); a name that no expression of the module reads is unused, and
a library name removed from ``src/hopftrees`` could linger there unnoticed.
``from __future__`` imports are directives, not bindings, and are skipped.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """The top-level imported names that the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_detector_flags_unread_imports_only():
    code = ("from __future__ import annotations\n"
            "import os.path\nimport sys\nimport json as j\n"
            "from a import b, c as d, e\n"
            "def f():\n    import g\n    return os.sep, b, e()\n"
            "class K(sys.X):\n    pass\n")
    assert _unused_imports(ast.parse(code)) == ["j", "d"]


def test_no_unused_imports_in_the_tests():
    hits = [f"{path.name}: {name}" for path in sorted(TESTS.glob("*.py"))
            for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert TESTS.is_dir() and not hits, "unused imports:\n" + "\n".join(hits)
