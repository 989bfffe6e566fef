"""Every module-level function and class under src/icflow is reached.

A definition counts as reached when some code in src/ names it (as a bare
name or an attribute) outside its own body, or when the acceptance suite
imports it. Strings, docstrings included, do not count, and neither does an
import that nothing then uses.
"""
import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icflow"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_definition_is_reached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    accepted = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in accepted:
                continue
            if used[node.name] > _references(node)[node.name]:
                continue
            dead.append(f"{path.relative_to(SRC)}: {node.name}")
    assert not dead, "unreached definitions:\n" + "\n".join(dead)
