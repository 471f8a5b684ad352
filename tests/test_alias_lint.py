"""Each operation of ``src/hopftrees`` has one public name.

A public, undecorated top-level ``def`` whose body (after an optional
docstring) is a single ``return g(p1, ..., pk)`` that passes its own
parameters unchanged and in order, or a public top-level ``name =
other_name``, is a second name for ``g`` or ``other_name``: callers should
name the function that does the work.  ``__init__.py`` re-exports names
and is not scanned.  ``composition`` is kept because the acceptance tests
import it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"

ALLOWED = {"composition"}


def _is_forwarding_def(node: ast.AST) -> bool:
    if not isinstance(node, ast.FunctionDef) or node.decorator_list:
        return False
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call) or call.keywords:
        return False
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    if node.args.vararg or node.args.kwonlyargs or node.args.kwarg:
        return False
    return ([a.id if isinstance(a, ast.Name) else None for a in call.args] == params)


def _aliases(tree: ast.Module) -> list[str]:
    """The public top-level names that only forward to another name."""
    found = []
    for node in tree.body:
        if _is_forwarding_def(node):
            found.append(node.name)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Name)):
            found.append(node.targets[0].id)
    return [name for name in found if not name.startswith("_")]


def test_detector_flags_forwarding_defs_and_name_bindings_only():
    code = ('def a(x, y):\n    """doc"""\n    return g(x, y)\n'
            "def b(x):\n    return m.g(x)\n"
            "c = d\n"
            "def _e(x):\n    return g(x)\n"
            "_f = d\n"
            "@dec\ndef h(x):\n    return g(x)\n"
            "def k(x, y):\n    return g(y, x)\n"
            "def n(x):\n    return g(x, 1)\n"
            "def p(x):\n    return g(x.letters)\n"
            "def q(x):\n    y = x\n    return g(y)\n"
            "def r(x, *, z):\n    return g(x)\n"
            "def s(x):\n    return g(x, key=1)\n"
            "t = 1\n"
            "u = d.e\n")
    assert _aliases(ast.parse(code)) == ["a", "b", "c"]


def test_no_second_names_in_the_library():
    hits = [f"{path.name}: {name}"
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for name in _aliases(ast.parse(path.read_text(), str(path)))
            if name not in ALLOWED]
    assert SRC.is_dir() and not hits, (
        "call the function that does the work instead of a second name for it:\n"
        + "\n".join(hits))
