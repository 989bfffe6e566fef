"""Every module-level function and class, and every method, under src/icflow
is reached.

A module-level definition counts as reached when some code in src/ names it
(as a bare name or an attribute) outside its own body, or when the acceptance
suite imports it. A method other than a dunder counts as reached when its
name appears as an attribute in src/ outside its own body, or anywhere in the
acceptance suite. Strings, docstrings included, do not count, and neither
does an import that nothing then uses.
"""
import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icflow"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(node, attributes_only=False) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_reached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    used, attributes = Counter(), Counter()
    for tree in trees.values():
        used.update(_references(tree))
        attributes.update(_references(tree, attributes_only=True))
    acceptance = ast.parse(ACCEPTANCE.read_text())
    accepted = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    accepted_attributes = _references(acceptance, attributes_only=True)
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
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or _is_dunder(node.name):
                    continue
                if accepted_attributes[node.name]:
                    continue
                own = _references(node, attributes_only=True)[node.name]
                if attributes[node.name] > own:
                    continue
                dead.append(f"{path.relative_to(SRC)}: {cls.name}.{node.name}")
    assert not dead, "unreached definitions:\n" + "\n".join(dead)
