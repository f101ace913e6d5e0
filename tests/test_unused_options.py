"""Every optional parameter of a function defined in src/nilmix is passed.

A parameter with a default that no call ever sets is a constant in
disguise.  A call counts when it names the function (``f(...)`` or
``x.f(...)``) and passes the parameter by keyword, by position, through
``*args`` or through ``**kwargs``; calls are read in src/, tests/, demos/
and perfbench/.  A constructor's calls name its class, and a method's
positions are offset by ``self`` (or ``cls``).  Calls are matched by name
alone, so two functions of one name share their calls.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _optional(fn: ast.FunctionDef) -> list:
    """(position or None, name) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _passes(call: ast.Call, position, name: str) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def test_every_optional_parameter_is_passed():
    calls = defaultdict(list)
    sources = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            sources[path] = tree
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _called_name(node):
                    calls[_called_name(node)].append(node)

    unpassed = []
    for path, tree in sources.items():
        if ROOT / "src" / "nilmix" not in path.parents:
            continue
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, FUNCS)}
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCS):
                continue
            cls = owner.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            shift = 1 if cls is not None and not static else 0
            names = [fn.name] + ([cls.name] if cls is not None and fn.name == "__init__" else [])
            for position, name in _optional(fn):
                at = None if position is None else position - shift
                if not any(_passes(c, at, name) for n in names for c in calls[n]):
                    unpassed.append(f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({name})")
    assert not unpassed, "optional parameters no call passes:\n" + "\n".join(unpassed)
