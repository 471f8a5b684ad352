"""Only listed functions build words through the unchecked words._word.

``Word(letters)`` checks that every letter is a positive int; ``_word``
skips that check and is meant only for letters taken from validated words
or tree labels, or sums of such letters.  This test names every function
that may refer to ``_word``, so a new call site has to be added here on
purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopftrees"

ALLOWED = {
    ("words.py", "Word.__getitem__"),
    ("words.py", "Word.concat"),
    ("words.py", "words_of_weight"),
    ("words.py", "_word_lincomb"),
    ("words.py", "compose_word"),
    ("words.py", "word_antipode"),
    ("lyndon_hall.py", "lyndon_words"),
}


def _word_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each read of the name _word, and of each
    import that binds it under another name."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id == "_word" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, scope))
        elif isinstance(node, ast.Attribute) and node.attr == "_word":
            found.append((node.lineno, scope))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "_word" and alias.asname not in (None, "_word"):
                    found.append((node.lineno, f"import as {alias.asname}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_detector_names_the_enclosing_function():
    code = ("class W:\n"
            "    def cut(self):\n"
            "        return _word(self.letters[1:])\n"
            "def f(ws):\n"
            "    return list(map(_word, ws))\n"
            "def g(w):\n"
            "    return words._word(w)\n"
            "from .words import _word as mk\n"
            "_word = None\n")
    assert _word_uses(ast.parse(code)) == [(3, "W.cut"), (5, "f"), (7, "g"), (8, "import as mk")]


def test_only_listed_functions_use_the_unchecked_word_constructor():
    uses = {(path.name, scope, line)
            for path in sorted(SRC.glob("*.py"))
            for line, scope in _word_uses(ast.parse(path.read_text(), str(path)))}
    stray = sorted(u for u in uses if u[:2] not in ALLOWED)
    assert SRC.is_dir() and not stray, "build these words with Word(...):\n" + "\n".join(
        f"{name}:{line}: {scope}" for name, scope, line in stray)
    assert {u[:2] for u in uses} == ALLOWED
