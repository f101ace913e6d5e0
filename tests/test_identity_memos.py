"""No memo in src/nilmix is keyed on an object's identity.

`functools.lru_cache` and `functools.cache` key an argument on its hash.  A
callable, and a nilmix class that keeps `object.__hash__` (such as
`FourierObservable` or `NilpotentAlgebra`), hashes by identity, not by what
it computes or holds: an equal copy misses the memo, a function closing over
state that changes between calls would get the first call's results back,
and the memo keeps the object, and all it holds, alive.  So no function
decorated with either may take a parameter annotated `Callable`, directly
or through a module-level alias (such as `fracsolve.Profile`), or annotated
with such a class.
"""

import ast
import sys
from pathlib import Path

import nilmix.cli  # noqa: F401  (imports every module)

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


def _identity_hashed() -> set:
    """Names of the classes defined in nilmix that hash by object.__hash__."""
    return {name for modname, mod in list(sys.modules.items())
            if modname == "nilmix" or modname.startswith("nilmix.")
            for name, cls in vars(mod).items()
            if isinstance(cls, type) and cls.__module__ == modname
            and cls.__hash__ is object.__hash__}


def _memo_params():
    """(module tree, location, names in the annotation) of each annotated
    parameter of a memoized function in src/nilmix."""
    for path in sorted((ROOT / "src" / "nilmix").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not any(map(_is_memo, node.decorator_list)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            for p in params:
                if p.annotation:
                    yield (tree, f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({p.arg})",
                           _names(p.annotation))


def test_no_memo_takes_a_callable():
    keyed = [where for tree, where, names in _memo_params() if names & _callable_aliases(tree)]
    assert not keyed, "memoized on a callable's identity:\n" + "\n".join(keyed)


def test_no_memo_takes_an_identity_hashed_object():
    classes = _identity_hashed()
    assert {"FourierObservable", "NilpotentAlgebra"} <= classes
    keyed = [where for _, where, names in _memo_params() if names & classes]
    assert not keyed, "memoized on an object's identity:\n" + "\n".join(keyed)
