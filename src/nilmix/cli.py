"""Command-line front end.

    nilmix <command> --config <path> [--out <dir>] [--precision <bits>] [--seed <u64>]

Commands: analyze, rates, certify, solve, threshold, correlate, density,
counterexample.  Configs are JSON with a schema validated up front
(unknown fields are rejected); every run writes report.json plus
command-specific CSV tables.  Exit codes: 0 ok, 1 computation error,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
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
from .catalog import get_system
from .correlate import (
    CorrelationSeries,
    correlation2,
    correlation_n,
    counterexample_maxgap,
    decay_fit,
    no_uniform_bound_demo,
)
from .dioph import diophantine_certificate, certify_structural_subspaces
from .exactlin import RationalMatrix, lyapunov_data
from .fourier import FourierObservable
from .fracsolve import schrodinger_threshold, solve_fractional
from .nilalg import (
    NilpotentAlgebra,
    central_series,
    check_commuting,
    classify,
    find_regular_element,
    validate_algebra,
    validate_automorphism,
)
from .rates import (
    DEFAULT_DENSITY_SEED,
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

    def ok(x) -> bool:
        return (type(x) in (int, float) and math.isfinite(x)
                and (kind is float or float(x).is_integer()))

    if many != isinstance(value, list) or not all(map(ok, items)):
        noun = "integer" if kind is int else "finite number"
        raise ConfigError(f"bad {key!r} {value!r}: must be "
                          + (f"a list of {noun}s" if many else f"one {noun}"))
    out = [kind(x) for x in items]
    return out if many else out[0]


def _load_system(cfg: dict):
    entry = cfg.get("system")
    if entry is None:
        raise ConfigError("config needs a 'system' entry")
    if isinstance(entry, str):
        return get_system(entry)
    if not isinstance(entry, dict):
        raise ConfigError("'system' must be a catalog name or an inline object")
    _check_keys(entry, {"name", "dim", "layers", "brackets", "generators"}, "system")
    dim = entry.get("dim")
    gens = entry.get("generators")
    if not isinstance(dim, int) or not isinstance(gens, list) or not gens:
        raise ConfigError("inline system needs integer 'dim' and nonempty 'generators'")
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
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad brackets entry {item}: {e!r}")
    algebra = NilpotentAlgebra.from_sparse(dim, layers, entries)
    diag = validate_algebra(algebra)
    if not diag.ok:
        raise ConfigError(f"inline algebra invalid: {diag.failures()}")
    try:
        mats = tuple(RationalMatrix(g) for g in gens)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad generator: {e}")
    if any(g.dim != dim for g in mats):
        raise ConfigError(f"generators must be {dim}x{dim} matrices")
    failures = [f for g in mats for f in validate_automorphism(algebra, g).failures()]
    if failures:
        raise ConfigError(f"generators are not lattice automorphisms: {failures}")
    try:
        check_commuting(mats)
    except ValueError as e:
        raise ConfigError(str(e))
    from .catalog import System
    return System(entry.get("name", "inline"), algebra, mats, "inline system")


def _load_observable(cfg, key: str) -> FourierObservable:
    data = cfg.get(key)
    if data is None:
        raise ConfigError(f"config needs an observable under '{key}'")
    if isinstance(data, str):
        try:
            with open(data) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read observable under '{key}': {e}")
    try:
        return FourierObservable.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad observable under '{key}': {e}")


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-nilmix-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows: list):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
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
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
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
                 precision: int, seed: Optional[int]):
    report = {
        "command": command,
        "version": __version__,
        "precision_bits": precision,
        "seed": seed,
        "config": cfg,
        "result": _jsonable(payload),
    }
    _atomic_write(os.path.join(outdir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_analyze(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system"}, "analyze config")
    system = _load_system(cfg)
    out = {}
    diag = validate_algebra(system.algebra)
    out["algebra_checks"] = {k: v[0] for k, v in diag.checks.items()}
    out["central_series_dims"] = [len(b) for b in central_series(system.algebra)]
    cls = classify(system.algebra, system.matrix, precision)
    out["ergodic"] = cls.ergodic
    out["type"] = cls.type_name
    out["root_of_unity_core"] = cls.n_z2
    header = ["exponent", "error", "multiplicity"]
    rows = [[b.exponent, b.exponent_err, b.multiplicity]
            for b in lyapunov_data(system.matrix, precision).blocks]
    out["exponents"] = [dict(zip(header, row)) for row in rows]
    if len(system.generators) > 1:
        reg = find_regular_element(system.algebra, list(system.generators), precision)
        out["regular_element"] = {"z": reg.z, "margin": reg.certificate_margin}
    _write_csv(os.path.join(outdir, "exponents.csv"), header, rows)
    return out


def _cmd_rates(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system", "s", "r", "eps"}, "rates config")
    system = _load_system(cfg)
    s = _number(cfg, "s", 0.5)
    r = _number(cfg, "r", 1.0)
    eps = _number(cfg, "eps", 0.01)
    rep = rho_chi(system.algebra, system.matrix, precision)
    env = order2_envelope(system.algebra, system.matrix, r, eps, precision)
    gamma = holder_rate(system.algebra, system.matrix, s, precision)
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
                ["envelope_rate2", env.rate2 if env.rate2 is not None else ""]])
    return out


def _cmd_certify(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system", "radius", "directions", "dim_ambient"}, "certify config")
    radius = _number(cfg, "radius", 1000.0)
    rows = []
    out = {"radius": radius}
    if "directions" in cfg:
        dims = _number(cfg, "dim_ambient", None, int)
        cert = diophantine_certificate(cfg["directions"], dims, radius)
        out["certificate"] = {"c_emp": cert.c_emp, "argmin": cert.argmin,
                              "passed": cert.passed, "points": cert.points_scanned}
        rows.append(["explicit", cert.c_emp, str(cert.argmin), cert.passed])
    else:
        system = _load_system(cfg)
        report = certify_structural_subspaces(system.matrix, radius, system.algebra, precision)
        out["subspaces"] = {
            name: {"c_emp": c.c_emp, "argmin": c.argmin, "passed": c.passed}
            for name, c in report.items()}
        out["all_passed"] = all(c.passed for c in report.values())
        rows = [[name, c.c_emp, str(c.argmin), c.passed] for name, c in report.items()]
    _write_csv(os.path.join(outdir, "certificates.csv"),
               ["subspace", "c_emp", "argmin", "passed"], rows)
    return out


def _cmd_solve(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system", "observable", "directions", "r", "mode", "radius"},
                "solve config")
    r = _number(cfg, "r", 0.5)
    mode = cfg.get("mode", "modulus")
    f = _load_observable(cfg, "observable")
    if "directions" in cfg:
        directions = [tuple(float(x) for x in v) for v in cfg["directions"]]
    else:
        system = _load_system(cfg)
        split = lyapunov_data(system.matrix, precision)
        w = split.w_plus()
        directions = [tuple(float(x) for x in row) for row in w]
    cert = diophantine_certificate(directions, f.dim,
                                   _number(cfg, "radius", max(8.0, f.support_radius() + 1)))
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
    rows = []
    for d in sol.per_direction:
        for z, c in d.phi.items():
            rows.append([d.index, " ".join(map(str, z)), c.real, c.imag])
    _write_csv(os.path.join(outdir, "solution.csv"),
               ["direction_index", "frequency", "re", "im"], rows)
    return out


def _cmd_threshold(cfg, outdir, precision, seed):
    _check_keys(cfg, {"profile", "profile_csv", "orders", "cutoffs"}, "threshold config")
    orders = _number(cfg, "orders", [0.25, 0.5, 0.75])
    cutoffs = _number(cfg, "cutoffs", [1e-2, 1e-4, 1e-6])
    if "profile_csv" in cfg:
        try:
            with open(cfg["profile_csv"]) as fh:
                profile = [(float(a), float(b)) for a, b in csv.reader(fh)]
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read profile_csv: {e}")
        if len(profile) < 2 or not all(math.isfinite(x) for row in profile for x in row):
            raise ConfigError("profile_csv needs at least two rows of finite numbers")
    else:
        name = cfg.get("profile", "one")
        profiles = {"one": lambda x: 1.0, "square": lambda x: x * x,
                    "bump": lambda x: math.exp(-1.0 / max(1e-12, 1 - x * x))
                    if abs(x) < 1 else 0.0}
        if name not in profiles:
            raise ConfigError(f"unknown profile {name!r}; use one of {sorted(profiles)}"
                              " or provide profile_csv")
        profile = profiles[name]
    rows = []
    out = {"runs": []}
    for r in orders:
        for h in cutoffs:
            rep = schrodinger_threshold(profile, r, h)
            out["runs"].append({"r": r, "h": h, "value": rep.value,
                                "verdict": rep.verdict})
            rows.append([r, h, rep.value, rep.verdict])
    _write_csv(os.path.join(outdir, "threshold.csv"),
               ["r", "h", "value", "verdict"], rows)
    return out


def _cmd_correlate(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system", "observables", "times", "powers", "fit_rate",
                      "budget"}, "correlate config")
    system = _load_system(cfg)
    budget = _number(cfg, "budget", 10_000_000, int)
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
        for tup in tuples:
            if len(tup) != len(observables):
                raise ConfigError("each time tuple needs one time per observable")
            v = correlation_n(observables, list(system.generators),
                              [tuple(t) for t in tup], budget)
            series.append(tuple(tuple(t) for t in tup), complex(v))
    out = {"budget": budget}
    if "fit_rate" in cfg:
        fit = decay_fit(series, _number(cfg, "fit_rate", None))
        out["fit"] = {"C": fit.c_fit, "slope": fit.slope, "r_squared": fit.r_squared,
                      "rate": fit.rate, "envelope_satisfied": fit.envelope_satisfied}
    out["entries"] = _write_series(outdir, "correlations.csv", series)
    return out


def _cmd_density(cfg, outdir, precision, seed):
    _check_keys(cfg, {"system", "n", "radius", "eps", "samples"}, "density config")
    system = _load_system(cfg)
    n = _number(cfg, "n", 2, int)
    radius = _number(cfg, "radius", 100.0)
    eps = _number(cfg, "eps", 0.05)
    samples = _number(cfg, "samples", 1_000_000, int)
    rep = density_estimate(list(system.generators), n, radius, eps, samples,
                           seed if seed is not None else DEFAULT_DENSITY_SEED,
                           precision)
    out = vars(rep).copy()
    _write_csv(os.path.join(outdir, "density.csv"),
               ["n", "radius", "good_fraction", "bad_points", "total_points",
                "eps", "delta", "thick_fraction"],
               [[rep.n, rep.radius, rep.good_fraction, rep.bad_points,
                 rep.total_points, rep.eps, rep.delta,
                 rep.thick_fraction if rep.thick_fraction is not None else ""]])
    return out


def _cmd_counterexample(cfg, outdir, precision, seed):
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
        series = counterexample_maxgap(f1, f2, _number(cfg, "n", 2, int),
                                       system.matrix, powers)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilmix",
        description="spectral data, Diophantine certificates, small-divisor "
                    "solvers and exact correlations for lattice automorphisms")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--precision", type=int, default=128,
                        help="working precision in bits for certified spectra")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="seed for sampled estimators")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        payload = _COMMANDS[args.command](cfg, args.out, args.precision, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation failure: structured, nonzero
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1

    _emit_report(args.out, args.command, cfg, payload, args.precision, args.seed)
    print(json.dumps({"command": args.command, "out": args.out, "ok": True}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
