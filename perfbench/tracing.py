"""Outside-in tracing: wrap nilmix's public functions and record spans.

Nothing in nilmix changes.  ``install`` replaces every public function (the
names in each module's ``__all__``, plus ``cli.main``) and the whole-object
methods of ``FourierObservable`` with wrappers that record a span: name,
start, end, parent span, operation id, the escaping exception's name and a
few counters read off the arguments or the return value.  A from-import
binds the function object at import time, so the wrapper is written into
every ``nilmix.*`` namespace that holds the same object; a function-local
import resolves at call time and finds the wrapper in the defining module.

Spans stay in memory and are written out when the pass ends.
``layer_metrics`` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "exactlin", "nilalg", "dioph", "fracsolve", "correlate", "fourier",
          "rates")
# per-mode accessors of FourierObservable stay unwrapped: they run once per
# Fourier mode and a span each would swamp the measurement
_PER_MODE = {"items", "frequencies"}

# span fields; PROBE holds the speed-probe seconds taken while this span
# was the innermost one (see child.Sampler)
NAME, START, END, PARENT, OP, ERROR, ATTRS, PROBE = range(8)


class Recorder:
    """In-memory span list; ``op`` names the operation now running."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None

    def wrap(self, name: str, fn, attrs=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    rec.stack[-1] if rec.stack else -1, rec.op, None, None, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                if attrs is not None:
                    span[ATTRS] = attrs(args, kwargs, None, exc)
                raise
            finally:
                rec.stack.pop()
            span[END] = time.perf_counter()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result, None)
            return result

        return traced


# ---------------------------------------------------------------------------
# Counters read at the layer boundary
# ---------------------------------------------------------------------------

def _lyapunov_attrs(args, kwargs, result, exc):
    requested = args[1] if len(args) > 1 else kwargs.get("precision_bits", 128)
    if exc is not None:
        return {"escalated": type(exc).__name__ == "PrecisionError"}
    return {"escalated": result.precision_bits > requested}


def _certificate_attrs(args, kwargs, result, exc):
    return {"points": result.points_scanned} if exc is None else None


def _density_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"lattice_points": result.total_points, "bad_points": result.bad_points}


def _modes_in(args, kwargs, result, exc):
    n = 0
    for a in list(args) + list(kwargs.values()):
        items = a if isinstance(a, (list, tuple)) else [a]
        n += sum(len(x.coeffs) for x in items if hasattr(x, "coeffs") and hasattr(x, "dim"))
    return {"modes_in": n}


def _solve_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"modes_solved": sum(len(d.phi.coeffs) for d in result.per_direction)}


_ATTRS = {
    "exactlin.lyapunov_data": _lyapunov_attrs,
    "dioph.diophantine_certificate": _certificate_attrs,
    "rates.density_estimate": _density_attrs,
    "fracsolve.solve_fractional": _solve_attrs,
}


def install(rec: Recorder):
    """Wrap the public functions of every layer; returns an undo function."""
    import nilmix.cli  # noqa: F401  (imports every layer)

    modules = {layer: sys.modules[f"nilmix.{layer}"] for layer in LAYERS}
    wrapped: dict = {}          # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
        for n in names:
            obj = getattr(mod, n)
            if isinstance(obj, type) or not callable(obj):
                continue
            qual = f"{layer}.{n}"
            attrs = _ATTRS.get(qual) or (_modes_in if layer == "correlate" else None)
            wrapped[id(obj)] = (obj, rec.wrap(qual, obj, attrs))

    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "nilmix" and not modname.startswith("nilmix."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, hit[1])

    cls = modules["fourier"].FourierObservable
    for n, raw in list(vars(cls).items()):
        if n.startswith("_") or n in _PER_MODE:
            continue
        qual = f"fourier.FourierObservable.{n}"
        if isinstance(raw, staticmethod):
            repl = staticmethod(rec.wrap(qual, raw.__func__))
        elif callable(raw):
            repl = rec.wrap(qual, raw)
        else:
            continue
        undo.append((cls, n, raw))
        setattr(cls, n, repl)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list, scale=None) -> dict:
    """Per-layer self times and counters of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums its spans' self times.  Probe time
    is taken out of every span that contains it.  A failure is an exception
    that leaves the layer (its span's parent is another layer).  ``scale``
    maps an operation id to the factor that turns its measured seconds into
    reference seconds (see run.py).
    """
    probed = [s[PROBE] for s in spans]
    for i in range(len(spans) - 1, -1, -1):     # children come after parents
        if spans[i][PARENT] >= 0:
            probed[spans[i][PARENT]] += probed[i]
    net = [s[END] - s[START] - p for s, p in zip(spans, probed)]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += net[i]
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.failures"] = 0
    calls: dict = {}
    self_by_name: dict = {}
    points = cert_time = 0.0
    counters = {"exactlin.lyapunov_data.escalated": 0, "dioph.certificates": 0,
                "rates.lattice_points": 0, "rates.bad_points": 0,
                "correlate.modes_in": 0, "fracsolve.modes_solved": 0}
    for i, s in enumerate(spans):
        name, layer = s[NAME], _layer(s[NAME])
        factor = scale.get(s[OP], 1.0) if scale else 1.0
        self_t = (net[i] - child[i]) * factor
        out[f"{layer}.self_s"] += self_t
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_t
        outer = s[PARENT] < 0 or _layer(spans[s[PARENT]][NAME]) != layer
        if s[ERROR] is not None and outer:
            out[f"{layer}.failures"] += 1
        attrs = s[ATTRS] or {}
        if name == "exactlin.lyapunov_data":
            counters["exactlin.lyapunov_data.escalated"] += int(attrs.get("escalated", False))
        elif name == "dioph.diophantine_certificate" and s[ERROR] is None:
            counters["dioph.certificates"] += 1
            points += attrs["points"]
            cert_time += net[i] * factor
        elif name == "rates.density_estimate" and s[ERROR] is None:
            counters["rates.lattice_points"] += attrs["lattice_points"]
            counters["rates.bad_points"] += attrs["bad_points"]
        elif name == "fracsolve.solve_fractional" and s[ERROR] is None:
            counters["fracsolve.modes_solved"] += attrs["modes_solved"]
        if layer == "correlate" and outer:
            counters["correlate.modes_in"] += attrs.get("modes_in", 0)
    out.update(counters)
    for name in ("exactlin.factor_over_q", "exactlin.char_poly", "exactlin.lyapunov_data",
                 "nilalg.classify", "nilalg.lyapunov_functionals"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("exactlin.factor_over_q", "nilalg.find_regular_element",
                 "rates.density_estimate"):
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    out["dioph.points_scanned"] = int(points)
    out["dioph.points_per_s"] = points / cert_time if cert_time > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
