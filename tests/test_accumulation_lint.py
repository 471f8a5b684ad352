"""Sums of many LinComb terms go through LinComb.sum or LinComb(terms).

``total = total + x`` inside a loop copies the whole running sum on every
step, so a sum of n terms costs O(n^2) dict copies.  This test keeps that
pattern out of the package source.  Scalar accumulators use ``+=``, and a
Horner step such as ``total = total * x + a`` does not match.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"


def _loop_self_sums(tree: ast.AST) -> list[ast.Assign]:
    """Assignments ``name = name + ...`` / ``name = name - ...`` inside a loop."""
    found = {}
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, (ast.Add, ast.Sub))
                    and isinstance(node.value.left, ast.Name)
                    and node.value.left.id == node.targets[0].id):
                found[node.lineno] = node
    return [found[k] for k in sorted(found)]


def test_detector_flags_loop_sums_only():
    code = ("for b in bs:\n"
            "    total = total + f(b)\n"
            "    acc = acc * x + a\n"
            "    while rem:\n"
            "        rem = rem - g(rem)\n"
            "out = out + y\n")
    assert [n.lineno for n in _loop_self_sums(ast.parse(code))] == [2, 5]


def test_no_running_sums_in_loops():
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(SRC.glob("*.py"))
            for node in _loop_self_sums(ast.parse(path.read_text(), str(path)))]
    assert SRC.is_dir() and not hits, "use LinComb.sum or LinComb(terms):\n" + "\n".join(hits)
