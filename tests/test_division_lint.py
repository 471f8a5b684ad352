"""Every division in the package source has a Fraction on its left.

Coefficients are ints until a division needs a Fraction, and ``int / int``
in Python is a float, which the exact-scalar guard would reject far from
where it was made (or, worse, a float that slips past it).  So each ``/``
in ``src/hopftrees`` must divide a ``Fraction(...)`` call; ``Fraction(a, b)``
itself is not a division and needs no rule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"


def _is_fraction_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def _bare_divisions(tree: ast.AST) -> list[ast.AST]:
    """``a / b`` and ``a /= b`` whose left operand is not a Fraction(...) call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not _is_fraction_call(node.left):
                found.append(node)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append(node)
    return sorted(found, key=lambda n: n.lineno)


def test_detector_flags_divisions_without_a_fraction_on_the_left():
    code = ("a = 1 / n\n"
            "b = Fraction(1) / n\n"
            "c = Fraction(x, y)\n"
            "d = f(x) / Fraction(2)\n"
            "e = x // 2\n"
            "g /= 3\n")
    assert [n.lineno for n in _bare_divisions(ast.parse(code))] == [1, 4, 6]


def test_every_division_has_a_fraction_on_the_left():
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(SRC.glob("*.py"))
            for node in _bare_divisions(ast.parse(path.read_text(), str(path)))]
    assert SRC.is_dir() and not hits, "divide a Fraction(...), never an int:\n" + "\n".join(hits)
