"""Every function, class and module-level name (a constant, say) defined in
src/nilmix is named somewhere else.

A name counts as used when it appears, outside its own definition, as an
identifier, an attribute, an imported name or a string constant (such as an
``__all__`` entry).  A method counts only as an attribute, so neither a
local variable nor a string of the same name (a config key, say) hides an
uncalled method.  Public
names may be used from src/, tests/ or demos/; a private ``_name`` only from
src/ or demos/, since a helper that only tests call belongs in the tests.
Dunder names are used implicitly and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNS = (ast.Assign, ast.AnnAssign)


def _definitions(tree: ast.Module) -> list:
    """(node, name) of each function, class and method of a module, and of
    each name that a module-level assignment binds (node the assignment)."""
    defs = [(node, node.name) for node in ast.walk(tree) if isinstance(node, DEFS)]
    for node in tree.body:
        if isinstance(node, ASSIGNS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(node, name.id) for t in targets for name in ast.walk(t)
                     if isinstance(name, ast.Name)]
    return defs


def _mentions(tree: ast.AST, method: bool) -> Counter:
    """Names mentioned in tree; for a method only attributes count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif method:
            continue
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_definition_is_named_elsewhere():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    # (method, private) -> mentions in the folders that may use such a name
    total = {(method, private): sum((_mentions(tree, method) for path, tree in trees.items()
                                     if not private or ROOT / "tests" not in path.parents),
                                    Counter())
             for method in (False, True) for private in (False, True)}
    unused = []
    for path, tree in trees.items():
        if ROOT / "src" / "nilmix" not in path.parents:
            continue
        methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, DEFS[:2])}
        for node, name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            method = node in methods
            # named only inside itself
            if total[method, name.startswith("_")][name] == _mentions(node, method)[name]:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)
