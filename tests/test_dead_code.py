"""Every function and class defined in src/nilmix is named somewhere else.

A name counts as used when it appears, outside its own definition, as an
identifier, an attribute, an imported name or a string constant (such as an
``__all__`` entry) in src/, tests/ or demos/.  Dunder methods are called
implicitly and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_definition_is_named_elsewhere():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "nilmix" not in path.parents:
            continue
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFS) or name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == _mentions(node)[name]:    # named only inside itself
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)
