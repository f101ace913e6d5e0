"""No memo in src/nilmix is keyed on a callable.

`functools.lru_cache` and `functools.cache` key a callable argument on its
identity, not on what it computes: a function closing over state that
changes between calls would get the first call's results back, and the
memo keeps every such function, and all it holds, alive.  So no function
decorated with either may take a parameter annotated `Callable`, directly
or through a module-level alias (such as `fracsolve.Profile`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMOS = {"lru_cache", "cache"}


def _names(node: ast.AST) -> set:
    """Identifiers and attribute names in node."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_memo(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in MEMOS


def _callable_aliases(tree: ast.Module) -> set:
    """Module-level names bound to a type that mentions Callable."""
    aliases = {"Callable"}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "Callable" in _names(node.value):
            aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return aliases


def test_no_memo_takes_a_callable():
    keyed = []
    for path in sorted((ROOT / "src" / "nilmix").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = _callable_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not any(map(_is_memo, node.decorator_list)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            keyed += [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({p.arg})"
                      for p in params if p.annotation and _names(p.annotation) & aliases]
    assert not keyed, "memoized on a callable's identity:\n" + "\n".join(keyed)
