"""Command-line front end.

    nilmix <command> --config <path> [--out <dir>] [--seed <u64>]

Commands: analyze, rates, certify, solve, threshold, correlate, density,
counterexample.  Configs are JSON with a schema validated up front
(unknown fields are rejected); every run writes report.json plus
command-specific CSV tables.  Certified spectra start at
exactlin.START_PRECISION_BITS (report.json's precision_bits) and raise
their own precision as needed.  Exit codes: 0 ok, 1 computation error,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .catalog import System, get_system
from .correlate import (
    DEFAULT_BUDGET,
    CorrelationSeries,
    correlation2,
    correlation_n,
    counterexample_maxgap,
    decay_fit,
    no_uniform_bound_demo,
)
from .dioph import diophantine_certificate, certify_structural_subspaces
from .exactlin import START_PRECISION_BITS, RationalMatrix, lyapunov_data
from .fourier import FourierObservable, _is_number
from .fracsolve import _check_solve, solve_fractional, threshold_sweep
from .nilalg import (
    NilpotentAlgebra,
    check_commuting,
    classify,
    find_regular_element,
)
from .rates import (
    density_estimate,
    holder_rate,
    order2_envelope,
    rho_chi,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")


def _number(cfg: dict, key: str, default, kind=float):
    """cfg[key], or default when absent, cast to kind (int or float); a list
    default asks for a list of such numbers.  Bools, strings, non-finite
    numbers and fractional values of an int field raise ConfigError."""
    value = cfg.get(key, default)
    many = isinstance(default, list)
    items = value if many and isinstance(value, list) else [value]

    if many != isinstance(value, list) or \
            not all(_is_number(x, integral=kind is int) for x in items):
        noun = "integer" if kind is int else "finite number"
        raise ConfigError(f"bad {key!r} {value!r}: must be "
                          + (f"a list of {noun}s" if many else f"one {noun}"))
    out = [kind(x) for x in items]
    return out if many else out[0]


def _vectors(cfg: dict, key: str, kind=float) -> list:
    """cfg[key] as a nonempty list of number lists, each entry checked and
    cast by _number's rules."""
    value = cfg.get(key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"bad {key!r} {value!r}: must be a nonempty list of lists")
    return [_number({key: v}, key, [], kind) for v in value]


# entries of the dim^4 arrays that an inline system's tensor checks build
# (252 MB peak at dim 60): a larger dim is refused before its algebra
_DIM4_LIMIT = 1 << 24


def _load_system(cfg: dict) -> System:
    entry = cfg.get("system")
    if entry is None:
        raise ConfigError("config needs a 'system' entry")
    if isinstance(entry, str):
        try:
            return get_system(entry)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    if not isinstance(entry, dict):
        raise ConfigError("'system' must be a catalog name or an inline object")
    _check_keys(entry, {"name", "dim", "layers", "brackets", "generators"}, "system")
    dim = entry.get("dim")
    gens = entry.get("generators")
    # dim is an index bound, typed as layers and bracket indices are: never a bool
    if type(dim) is not int or not isinstance(gens, list) or not gens:
        raise ConfigError("inline system needs integer 'dim' and nonempty 'generators'")
    # the shape before the algebra, whose dense dim^3 check is costly at a large dim
    if not all(isinstance(g, list) and len(g) == dim
               and all(isinstance(row, list) and len(row) == dim for row in g) for g in gens):
        raise ConfigError(f"generators must be {dim}x{dim} matrices")
    if dim ** 4 > _DIM4_LIMIT:
        raise MemoryError(f"inline system of dim {dim} is too large to check: dim^4 = "
                          f"{dim ** 4} tensor entries exceed the limit {_DIM4_LIMIT}")
    layers = entry.get("layers", [dim])
    if not isinstance(layers, list) or not all(type(x) is int for x in layers):
        raise ConfigError(f"bad 'layers' {layers!r}: must be a list of integers")
    brackets = entry.get("brackets", [])
    if not isinstance(brackets, list):
        raise ConfigError(f"bad 'brackets' {brackets!r}: must be a list")
    entries = {}
    for item in brackets:
        if not isinstance(item, dict):
            raise ConfigError(f"bad brackets entry {item!r}: must be an object")
        _check_keys(item, {"i", "j", "k", "value"}, "brackets entry")
        idx = [item.get(c) for c in "ijk"]
        if not all(type(x) is int and 0 <= x < dim for x in idx):
            raise ConfigError(f"bad brackets entry {item}: 'i', 'j', 'k' must be "
                              f"integers in [0, {dim})")
        try:
            entries.setdefault((idx[0], idx[1]), {})[idx[2]] = Fraction(str(item["value"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad brackets entry {item}: {e!r}")
    algebra = NilpotentAlgebra.from_sparse(dim, layers, entries)
    if not algebra.diagnostics.ok:
        raise ConfigError(f"inline algebra invalid: {algebra.diagnostics.failures()}")
    try:
        mats = tuple(RationalMatrix(g) for g in gens)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad generator: {e}")
    # RationalMatrix also reads strings and bools
    bad = [x for g in gens for row in g for x in row if not _is_number(x, integral=True)]
    if bad:
        raise ConfigError(f"bad generator entry {bad[0]!r}: must be an integer")
    system = System(entry.get("name", "inline"), algebra, mats, "inline system")
    if system.generator_failures:
        raise ConfigError(f"generators are not lattice automorphisms: {system.generator_failures}")
    try:
        check_commuting(mats)
    except ValueError as e:
        raise ConfigError(str(e))
    return system


_OBSERVABLE_MEMO = 8      # distinct observable file texts kept parsed


@functools.lru_cache(maxsize=_OBSERVABLE_MEMO)
def _parsed_observable(text: str) -> FourierObservable:
    """The observable of one file's text, parsed and checked once per process
    (observables are immutable, so the calls that name one file share it)."""
    return FourierObservable.from_json_dict(json.loads(text))


def _load_observable(cfg, key: str) -> FourierObservable:
    data = cfg.get(key)
    if data is None:
        raise ConfigError(f"config needs an observable under '{key}'")
    try:
        if not isinstance(data, str):
            return FourierObservable.from_json_dict(data)
        with open(data, encoding="utf-8") as fh:
            text = fh.read()
        return _parsed_observable(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read observable under '{key}': {e}")
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad observable under '{key}': {e}")


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    data = text.encode()
    try:                # a file that already holds the bytes is kept: a rename can flush
        with open(path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return
    except OSError:
        pass
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-nilmix-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.umask(mask := os.umask(0))   # mkstemp makes 0600: give the mode open() would
            os.fchmod(fd, 0o666 & ~mask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows: list):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_series(outdir: str, name: str, series: CorrelationSeries) -> list:
    """Write a correlation series to the CSV table name in outdir and return
    its report entries."""
    _write_csv(os.path.join(outdir, name), ["times", "gap", "maxgap", "re", "im", "abs"],
               [[";".join(",".join(map(str, t)) for t in e.times), e.gap, e.max_gap,
                 e.value.real, e.value.imag, abs(e.value)] for e in series.entries])
    return [{"times": [list(t) for t in e.times], "re": e.value.real,
             "im": e.value.imag, "gap": e.gap, "max_gap": e.max_gap}
            for e in series.entries]


def _jsonable(x):
    if isinstance(x, (bool, int, str, float)) or x is None:
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if hasattr(x, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(x).items()}
    return str(x)


def _emit_report(outdir: str, command: str, cfg: dict, payload: dict,
                 seed: Optional[int]):
    report = {
        "command": command,
        "version": __version__,
        "precision_bits": START_PRECISION_BITS,
        "seed": seed,
        "config": cfg,
        "result": _jsonable(payload),
    }
    _atomic_write(os.path.join(outdir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_analyze(cfg, outdir, seed):
    _check_keys(cfg, {"system"}, "analyze config")
    system = _load_system(cfg)
    diag = system.algebra.diagnostics
    if not diag.ok or system.generator_failures:
        raise ValueError(f"invalid system: {diag.failures() + system.generator_failures}")
    cls = classify(system.algebra, system.matrix)
    out = {"algebra_checks": {k: v[0] for k, v in diag.checks.items()},
           "central_series_dims": [len(b) for b in diag.series],
           "ergodic": cls.ergodic, "type": cls.type_name, "root_of_unity_core": cls.n_z2}
    header = ["exponent", "error", "multiplicity"]
    rows = [[b.exponent, b.exponent_err, b.multiplicity]
            for b in lyapunov_data(system.matrix).blocks]
    out["exponents"] = [dict(zip(header, row)) for row in rows]
    if len(system.generators) > 1:
        reg = find_regular_element(list(system.generators))
        out["regular_element"] = {"z": reg.z, "margin": reg.certificate_margin}
    _write_csv(os.path.join(outdir, "exponents.csv"), header, rows)
    return out


def _cmd_rates(cfg, outdir, seed):
    _check_keys(cfg, {"system", "s", "r", "eps"}, "rates config")
    system = _load_system(cfg)
    s = _number(cfg, "s", 0.5)
    r = _number(cfg, "r", 1.0)
    eps = _number(cfg, "eps", 0.01)
    for key, value in (("s", s), ("r", r), ("eps", eps)):
        if value <= 0:
            raise ConfigError(f"bad {key!r} {value}: must be positive")
    rep = rho_chi(system.algebra, system.matrix)
    env = order2_envelope(system.algebra, system.matrix, r, eps)
    gamma = holder_rate(system.algebra, system.matrix, s)
    per_layer, s_of_r = rep.sobolev_orders(r)
    out = {"rho": rep.rho, "chi": rep.chi, "delta": rep.delta, "rho0": rep.rho0,
           "s0": rep.s0, "gamma": gamma, "s": s,
           "sobolev_orders": {"per_layer": per_layer, "max": s_of_r, "r": r},
           "envelope": {"rate1": env.rate1, "rate2": env.rate2, "r": r, "eps": eps}}
    _write_csv(os.path.join(outdir, "rates.csv"),
               ["quantity", "value"],
               [["rho", rep.rho], ["chi", rep.chi], ["delta", rep.delta],
                ["rho0", rep.rho0], ["gamma", gamma],
                ["envelope_rate1", env.rate1],
                ["envelope_rate2", env.rate2]])
    return out


def _cmd_certify(cfg, outdir, seed):
    _check_keys(cfg, {"system", "radius", "directions", "dim_ambient"}, "certify config")
    radius = _number(cfg, "radius", 1000.0)
    if radius < 1:
        raise ConfigError(f"bad 'radius' {radius}: must be >= 1")
    out = {"radius": radius}
    if "directions" in cfg:
        dims = _number(cfg, "dim_ambient", None, int)
        _vectors(cfg, "directions")   # checked only: integer entries select an exact certificate
        try:
            cert = diophantine_certificate(cfg["directions"], dims, radius)
        except ValueError as e:
            raise ConfigError(str(e))
        out["certificate"] = {"c_emp": cert.c_emp, "argmin": cert.argmin,
                              "passed": cert.passed, "points": cert.points_scanned}
        rows = [["explicit", cert.c_emp, str(cert.argmin), cert.passed]]
    else:
        system = _load_system(cfg)
        report = certify_structural_subspaces(system.matrix, radius, system.algebra)
        out["subspaces"] = {
            name: {"c_emp": c.c_emp, "argmin": c.argmin, "passed": c.passed}
            for name, c in report.items()}
        out["all_passed"] = all(c.passed for c in report.values())
        rows = [[name, c.c_emp, str(c.argmin), c.passed] for name, c in report.items()]
    _write_csv(os.path.join(outdir, "certificates.csv"),
               ["subspace", "c_emp", "argmin", "passed"], rows)
    return out


def _cmd_solve(cfg, outdir, seed):
    _check_keys(cfg, {"system", "observable", "directions", "r", "mode", "radius"},
                "solve config")
    r = _number(cfg, "r", 0.5)
    mode = cfg.get("mode", "modulus")
    f = _load_observable(cfg, "observable")
    radius = _number(cfg, "radius", max(8.0, f.support_radius() + 1))
    if radius < 1:
        raise ConfigError(f"bad 'radius' {radius}: must be >= 1")
    if "directions" in cfg:
        directions = [tuple(v) for v in _vectors(cfg, "directions")]
    else:
        system = _load_system(cfg)
        if system.matrix.dim != f.dim:
            raise ConfigError(f"observable has dim {f.dim}, the system {system.matrix.dim}")
        split = lyapunov_data(system.matrix)
        w = split.w_plus()
        directions = [tuple(float(x) for x in row) for row in w]
    try:
        _check_solve(f, directions, r, mode)
    except ValueError as e:
        raise ConfigError(str(e))
    cert = diophantine_certificate(directions, f.dim, radius)
    sol = solve_fractional(f, directions, r, mode=mode, certificate=cert)
    out = {
        "order": r, "mode": mode, "residual": sol.residual,
        "reconstruction_ok": sol.reconstruction_ok(f),
        "dropped_mean": sol.dropped_mean,
        "norms": [{"direction": list(d.direction), "norm": d.norm,
                   "norm_small": d.norm_small,
                   "predicted_small_bound": d.predicted_small_bound}
                  for d in sol.per_direction],
        "certificate_c_emp": cert.c_emp,
    }
    # the bytes csv.writer would write: no field needs quoting
    rows = [f"{d.index},{' '.join(map(str, z))},{re!r},{im!r}\n" for d in sol.per_direction
            for z, re, im in zip(d.phi.freqs.tolist(), d.phi.re.tolist(), d.phi.im.tolist())]
    _atomic_write(os.path.join(outdir, "solution.csv"),
                  "direction_index,frequency,re,im\n" + "".join(rows))
    return out


def _bump(x: np.ndarray) -> np.ndarray:
    """exp(-1 / (1 - x^2)) on |x| < 1, else 0, with libm's exp
    (numpy's differs from it in the last bit for some doubles)."""
    t = -1.0 / np.maximum(1e-12, 1 - x * x)
    e = np.fromiter(map(math.exp, t.ravel().tolist()), np.float64, t.size)
    return np.where(np.abs(x) < 1, e.reshape(t.shape), 0.0)


_PROFILES = {"one": lambda x: 1.0, "square": lambda x: x * x, "bump": _bump}


def _cmd_threshold(cfg, outdir, seed):
    _check_keys(cfg, {"profile", "profile_csv", "orders", "cutoffs"}, "threshold config")
    if not all(isinstance(cfg.get(key, ""), str) for key in ("profile", "profile_csv")):
        raise ConfigError("'profile' and 'profile_csv' must be strings")   # open() reads int fds
    orders = _number(cfg, "orders", [0.25, 0.5, 0.75])
    cutoffs = _number(cfg, "cutoffs", [1e-2, 1e-4, 1e-6])
    if not all(r > 0 for r in orders):
        raise ConfigError(f"bad 'orders' {orders}: every order must be positive")
    if not all(0 < h < 1 for h in cutoffs):
        raise ConfigError(f"bad 'cutoffs' {cutoffs}: every cutoff must lie in (0, 1)")
    if "profile_csv" in cfg:
        try:
            with open(cfg["profile_csv"], encoding="utf-8") as fh:
                profile = [(float(a), float(b)) for a, b in csv.reader(fh)]
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read profile_csv: {e}")
        if len(profile) < 2 or not all(math.isfinite(x) for row in profile for x in row):
            raise ConfigError("profile_csv needs at least two rows of finite numbers")
    else:
        name = cfg.get("profile", "one")
        if name not in _PROFILES:
            raise ConfigError(f"unknown profile {name!r}; use one of {sorted(_PROFILES)}"
                              " or provide profile_csv")
        profile = _PROFILES[name]
    sweeps = threshold_sweep(profile, orders, cutoffs)
    header = ["r", "h", "value", "verdict"]
    rows = [[r, h, reports[i].value, reports[i].verdict]
            for i, r in enumerate(orders) for h, reports in zip(cutoffs, sweeps)]
    _write_csv(os.path.join(outdir, "threshold.csv"), header, rows)
    return {"runs": [dict(zip(header, row)) for row in rows]}


def _cmd_correlate(cfg, outdir, seed):
    _check_keys(cfg, {"system", "observables", "times", "powers", "fit_rate",
                      "budget"}, "correlate config")
    system = _load_system(cfg)
    budget = _number(cfg, "budget", DEFAULT_BUDGET, int)
    if budget < 1:
        raise ConfigError(f"bad 'budget' {budget}: must be a positive integer")
    obs_list = cfg.get("observables")
    if not isinstance(obs_list, list) or not obs_list:
        raise ConfigError("'observables' must be a nonempty list")
    observables = [_load_observable({"o": o}, "o") for o in obs_list]
    series = CorrelationSeries()
    if "powers" in cfg:
        if len(observables) != 2:
            raise ConfigError("'powers' mode needs exactly two observables")
        for p in _number(cfg, "powers", [], int):
            v = correlation2(observables[0], observables[1], system.matrix, p)
            series.append(((0,) * len(system.generators),
                           tuple([p] + [0] * (len(system.generators) - 1))),
                          complex(v))
    else:
        tuples = cfg.get("times")
        if not isinstance(tuples, list) or not tuples:
            raise ConfigError("need 'times' (list of time tuples) or 'powers'")
        tuples = [[tuple(t) for t in _vectors({"times": tup}, "times", int)] for tup in tuples]
        if any(len(tup) != len(observables) for tup in tuples):
            raise ConfigError("each time tuple needs one time per observable")
        for tup in tuples:
            v = correlation_n(observables, list(system.generators), tup, budget)
            series.append(tuple(tup), complex(v))
    out = {"budget": budget}
    if "fit_rate" in cfg:
        fit = decay_fit(series, _number(cfg, "fit_rate", None))
        out["fit"] = {"C": fit.c_fit, "slope": fit.slope, "r_squared": fit.r_squared,
                      "rate": fit.rate, "envelope_satisfied": fit.envelope_satisfied}
    out["entries"] = _write_series(outdir, "correlations.csv", series)
    return out


def _cmd_density(cfg, outdir, seed):
    _check_keys(cfg, {"system", "n", "radius", "eps", "samples"}, "density config")
    system = _load_system(cfg)
    n = _number(cfg, "n", 2, int)
    radius = _number(cfg, "radius", 100.0)
    eps = _number(cfg, "eps", 0.05)
    # accepted and checked for the configs that carry it; delta(eps) is in
    # closed form and samples nothing
    samples = _number(cfg, "samples", 1_000_000, int)
    for key, value, low in (("n", n, 2), ("radius", radius, 0), ("eps", eps, 0),
                            ("samples", samples, 1)):
        if value < low:
            raise ConfigError(f"bad {key!r} {value}: must be >= {low}")
    rep = density_estimate(list(system.generators), n, radius, eps)
    header = ["n", "radius", "good_fraction", "bad_points", "total_points", "eps", "delta",
              "thick_fraction"]          # csv writes None as an empty field
    _write_csv(os.path.join(outdir, "density.csv"), header, [[vars(rep)[k] for k in header]])
    return vars(rep)


def _cmd_counterexample(cfg, outdir, seed):
    _check_keys(cfg, {"system", "kind", "n", "powers", "observable", "observable2"},
                "counterexample config")
    kind = cfg.get("kind", "max-gap")
    powers = _number(cfg, "powers", list(range(1, 41)), int)
    if kind == "max-gap":
        system = _load_system(cfg if "system" in cfg else {"system": "catmap"})
        from .fourier import real_cosine
        f1 = (_load_observable(cfg, "observable") if "observable" in cfg
              else real_cosine(system.matrix.dim, (1,) + (0,) * (system.matrix.dim - 1)))
        f2 = _load_observable(cfg, "observable2") if "observable2" in cfg else f1
        n = _number(cfg, "n", 2, int)
        if n < 2:
            raise ConfigError(f"bad 'n' {n}: the max-gap construction needs n >= 2")
        series = counterexample_maxgap(f1, f2, n, system.matrix, powers)
    elif kind == "no-uniform-bound":
        system = _load_system(cfg if "system" in cfg else {"system": "product-t2xt2"})
        g = (_load_observable(cfg, "observable") if "observable" in cfg
             else FourierObservable(2, {(1, 0): 1.0}))
        series = no_uniform_bound_demo(list(system.generators), g, powers)
    else:
        raise ConfigError(f"unknown counterexample kind {kind!r}")
    return {"meta": _jsonable(series.meta),
            "entries": _write_series(outdir, "counterexample.csv", series)}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "rates": _cmd_rates,
    "certify": _cmd_certify,
    "solve": _cmd_solve,
    "threshold": _cmd_threshold,
    "correlate": _cmd_correlate,
    "density": _cmd_density,
    "counterexample": _cmd_counterexample,
}


# built once per process: parse_args keeps no state from call to call
_PARSER = argparse.ArgumentParser(
    prog="nilmix",
    description="spectral data, Diophantine certificates, small-divisor "
                "solvers and exact correlations for lattice automorphisms")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                     help="seed recorded in report.json, in [0, 2^64)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 1 << 64:
        _PARSER.error(f"argument --seed: {args.seed} is not in [0, 2^64)")

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        payload = _COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation failure: structured, nonzero
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1

    _emit_report(args.out, args.command, cfg, payload, args.seed)
    print(json.dumps({"command": args.command, "out": args.out, "ok": True}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
