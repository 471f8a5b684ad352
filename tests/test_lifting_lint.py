"""Maps written on basis elements are lifted only by algebra.linear_map and
algebra.bilinear_map.

A hand-written lift outside ``algebra.py`` (``LinComb.lift(x).map_basis(f)``,
``LinComb.lift(x).bilinear(LinComb.lift(y), f)``, or a conditional
expression on ``isinstance(x, LinComb)``) is a second copy of the one
lifting rule.  This test keeps those patterns out of the other modules.
The refusal scan of ``words._contractions`` branches on a statement, not an
expression, and is not matched.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"


def _is_lift_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "lift" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "LinComb")


def _is_lincomb_test(node: ast.AST) -> bool:
    """isinstance(..., LinComb), possibly under a `not`."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "LinComb")


def _hand_lifts(tree: ast.AST) -> list[int]:
    """Lines of hand-written lifts: ``LinComb.lift(...).map_basis(``,
    ``.bilinear(LinComb.lift(`` and ``... if isinstance(x, LinComb) else ...``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "map_basis" and _is_lift_call(node.func.value):
                found.add(node.lineno)
            if node.func.attr == "bilinear" and node.args and _is_lift_call(node.args[0]):
                found.add(node.lineno)
        elif isinstance(node, ast.IfExp) and _is_lincomb_test(node.test):
            found.add(node.lineno)
    return sorted(found)


def test_detector_flags_hand_written_lifts_only():
    code = ("a = LinComb.lift(x).map_basis(f)\n"
            "b = x.bilinear(LinComb.lift(y), g)\n"
            "c = x.map_basis(f) if isinstance(x, LinComb) else f(x)\n"
            "d = f(x) if not isinstance(x, LinComb) else x.map_basis(f)\n"
            "e = LinComb.lift(x).coeff(u)\n"
            "g = x.map_basis(f)\n"
            "if not isinstance(x, LinComb):\n"
            "    h = f(x)\n"
            "k = 1 if isinstance(x, Word) else 2\n")
    assert _hand_lifts(ast.parse(code)) == [1, 2, 3, 4]


def test_no_hand_written_lifts_outside_algebra():
    hits = [f"{path.name}:{line}"
            for path in sorted(SRC.glob("*.py")) if path.name != "algebra.py"
            for line in _hand_lifts(ast.parse(path.read_text(), str(path)))]
    assert SRC.is_dir() and not hits, (
        "decorate the basis-level def with algebra.linear_map or bilinear_map:\n"
        + "\n".join(hits))
