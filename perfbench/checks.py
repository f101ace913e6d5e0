"""Output checks: each operation's report.json against facts that hold for
any seed.

The checks recompute what they can independently of nilmix (NumPy
eigenvalues, brute-force lattice scans in Python integers, direct
correlation sums), and otherwise test invariants: exponents of a
unimodular matrix sum to zero, a time tuple and its shift correlate alike,
counts are consistent.  A check raises ``CheckFailure``; the caller counts
it against the operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# analyze / rates
# ---------------------------------------------------------------------------

def _log_moduli(matrix) -> list:
    eig = np.linalg.eigvals(np.array(matrix, dtype=float))
    return sorted(math.log(abs(complex(x))) for x in eig)


def check_analyze(result: dict, op, files: dict):
    _require(all(result["algebra_checks"].values()), "algebra checks failed")
    _require(result["ergodic"] == op.expect["ergodic"],
             f"ergodic={result['ergodic']}, expected {op.expect['ergodic']}")
    blocks = result["exponents"]
    exps = [b["exponent"] for b in blocks]
    _require(exps == sorted(exps), "exponents are not ascending")
    total = sum(b["exponent"] * b["multiplicity"] for b in blocks)
    scale = 1.0 + sum(abs(b["exponent"]) * b["multiplicity"] for b in blocks)
    _require(abs(total) <= 1e-9 * scale, f"exponent sum {total:.3e} is not 0")
    expanded = sorted(e for b in blocks for e in [b["exponent"]] * b["multiplicity"])
    reference = _log_moduli(op.expect["matrix"])
    _require(len(expanded) == len(reference), "multiplicities do not add up to the dimension")
    worst = max(abs(a - b) for a, b in zip(expanded, reference))
    _require(worst <= 1e-6, f"exponents differ from numpy eigenvalues by {worst:.2e}")
    if op.expect["regular"]:
        reg = result.get("regular_element")
        _require(reg is not None and reg["margin"] > 0, "no regular element certified")


def check_rates(result: dict, op, files: dict):
    nonzero = [abs(e) for e in _log_moduli(op.expect["matrix"]) if abs(e) > 1e-8]
    chi = min(nonzero)
    _require(_close(result["chi"], chi, 1e-7), f"chi {result['chi']} != {chi}")
    rho, s = result["rho"], result["s"]
    _require(rho > 0, "rho is not positive")
    rho0 = min(result["chi"] / 2.0, rho / 4.0)
    _require(_close(result["rho0"], rho0, 1e-12), "rho0 != min(chi/2, rho/4)")
    gamma = min(s * rho0 / (4.0 * result["s0"]), rho0 / 2.0)
    _require(_close(result["gamma"], gamma, 1e-12), "gamma does not match its formula")
    env = result["envelope"]
    _require(_close(env["rate1"], (result["chi"] - env["eps"]) * env["r"], 1e-12),
             "envelope rate1 != (chi - eps) r")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_certify_structural(result: dict, op, files: dict):
    subs = result["subspaces"]
    for name in ("block_max", "block_min", "w_plus", "w_minus"):
        _require(name in subs, f"subspace {name} missing")
    for name, cert in subs.items():
        _require(cert["passed"] and cert["c_emp"] > 0, f"subspace {name} not certified")
    _require(result["all_passed"] is True, "all_passed is not true on an ergodic input")


def _ball(dim: int, r2: int):
    """Nonzero lattice points with first nonzero coordinate positive."""
    def rec(prefix, nsq):
        if len(prefix) == dim:
            if nsq and next(x for x in prefix if x) > 0:
                yield tuple(prefix), nsq
            return
        rest = math.isqrt(r2 - nsq)
        for x in range(-rest, rest + 1):
            yield from rec(prefix + [x], nsq + x * x)
    yield from rec([], 0)


def exact_minimum(vec: list, dim: int, radius: float):
    """Brute-force minimum of (|m|^2)^d (m.v)^2 over the ball, ties broken
    lexicographically; returns (value, argmin, points)."""
    best, count = None, 0
    for m, nsq in _ball(dim, int(radius) ** 2):
        count += 1
        s = abs(sum(a * b for a, b in zip(m, vec)))
        key = (nsq ** dim * s * s, m)
        if best is None or key < best:
            best = key
    return best[0], best[1], count


def check_certify_exact(result: dict, op, files: dict):
    cert = result["certificate"]
    fsq, arg, count = exact_minimum(op.config["directions"][0], op.config["dim_ambient"],
                                    op.config["radius"])
    _require(tuple(cert["argmin"]) == arg, f"argmin {cert['argmin']} != {list(arg)}")
    _require(cert["c_emp"] == math.sqrt(float(Fraction(fsq))),
             f"c_emp {cert['c_emp']} != {math.sqrt(fsq)}")
    _require(cert["passed"] == (fsq > 0), "passed flag disagrees with the minimum")
    _require(cert["points"] == count, f"points {cert['points']} != {count}")


def float_minimum(slope: float, radius: float):
    """Minimum of |m|^2 |m1 + m2 slope| over the 2-d ball, in float64."""
    b = int(radius)
    a = np.arange(-b, b + 1, dtype=np.float64)
    m1, m2 = np.meshgrid(a, a, indexing="ij")
    nsq = m1 * m1 + m2 * m2
    keep = (nsq > 0) & (nsq <= radius * radius) & ((m1 > 0) | ((m1 == 0) & (m2 > 0)))
    f = nsq[keep] * np.abs(m1[keep] + m2[keep] * slope)
    i = int(np.argmin(f))
    return float(f[i]), (int(m1[keep][i]), int(m2[keep][i]))


def check_certify_quadratic(result: dict, op, files: dict):
    cert = result["certificate"]
    value, arg = float_minimum(op.config["directions"][0][1], 60.0)
    _require(cert["passed"], "quadratic irrational direction not certified")
    _require(_close(cert["c_emp"], value, 1e-9),
             f"c_emp {cert['c_emp']} != small-ball minimum {value}")
    _require(tuple(cert["argmin"]) == arg, f"argmin {cert['argmin']} != {list(arg)}")
    if op.expect.get("golden"):
        _require(0.60 <= cert["c_emp"] <= 0.63, "golden constant outside [0.60, 0.63]")


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def ball_count(dim: int, r2: int) -> int:
    """Number of integer points with |x|^2 <= r2 (dim >= 2): the counts of
    the first dim - 1 coordinates by squared norm, convolved from 1-d
    counts, times the number of last coordinates that still fit."""
    b = math.isqrt(r2)
    one = np.zeros(r2 + 1, dtype=np.int64)
    for x in range(-b, b + 1):
        one[x * x] += 1
    head = one
    for _ in range(dim - 2):
        head = np.convolve(head, one)[: r2 + 1]
    last = np.array([2 * math.isqrt(r2 - s) + 1 for s in range(r2 + 1)], dtype=np.int64)
    return int(head @ last)


def _density_common(result: dict, config: dict, dim_total: int):
    r2 = int(config["radius"] * config["radius"])
    total = ball_count(dim_total, r2)
    _require(result["total_points"] == total,
             f"total_points {result['total_points']} != {total}")
    bad = result["bad_points"]
    _require(0 <= bad <= total, "bad_points outside [0, total]")
    _require(result["good_fraction"] == 1.0 - bad / total,
             "good_fraction != 1 - bad/total")
    _require(0.0 <= result["delta"] < 1.0, f"delta {result['delta']} outside [0, 1)")
    return r2


def check_density_generic(result: dict, op, files: dict):
    _density_common(result, op.config, op.expect["dim_total"])


def check_density_catmap2(result: dict, op, files: dict):
    r2 = _density_common(result, op.config, 2)
    diagonal = sum(1 for t in range(-math.isqrt(r2), math.isqrt(r2) + 1) if 2 * t * t <= r2)
    _require(result["bad_points"] == diagonal,
             f"bad_points {result['bad_points']} != diagonal count {diagonal}")


def check_density_catmap3(result: dict, op, files: dict):
    r2 = _density_common(result, op.config, 3)
    b = math.isqrt(r2)
    bad = sum(1 for x in range(-b, b + 1) for y in range(-b, b + 1)
              for z in range(-b, b + 1)
              if x * x + y * y + z * z <= r2 and (x == y or y == z or x == z))
    _require(result["bad_points"] == bad, f"bad_points {result['bad_points']} != {bad}")


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def _coeffs(data: dict) -> dict:
    return {tuple(e["z"]): complex(e["re"], e["im"]) for e in data["coeffs"]}


def _matpow(m: list, e: int) -> list:
    out = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for _ in range(e):
        out = [[sum(out[i][k] * m[k][j] for k in range(len(m))) for j in range(len(m))]
               for i in range(len(m))]
    return out


def check_correlate_powers(result: dict, op, files: dict):
    f, g = _coeffs(files[op.expect["f"]]), _coeffs(files[op.expect["g"]])
    scale = sum(abs(c) for c in f.values()) * max(abs(c) for c in g.values())
    entries = result["entries"]
    _require(len(entries) == len(op.expect["powers"]), "wrong number of entries")
    for p, e in zip(op.expect["powers"], entries):
        mt = _matpow(op.expect["matrix"], p)
        ref = 0j
        for k, c in f.items():
            target = tuple(sum(mt[i][j] * k[i] for i in range(len(k))) for j in range(len(k)))
            ref += c * g.get(target, 0j).conjugate()
        got = complex(e["re"], e["im"])
        _require(abs(got - ref) <= 1e-12 * scale,
                 f"power {p}: correlation {got} != direct sum {ref}")


def check_correlate_times(result: dict, op, files: dict):
    scale = 1.0
    for name in op.expect["observables"]:
        scale *= sum(abs(c) for c in _coeffs(files[name]).values())
    entries = result["entries"]
    for e in entries:
        _require(abs(e["im"]) <= 1e-9 * scale, "real observables gave a complex correlation")
    for i, j in op.expect["pairs"]:
        a, b = entries[i], entries[j]
        _require(abs(a["re"] - b["re"]) <= 1e-9 * scale,
                 f"shifted time tuples disagree: {a['re']} vs {b['re']}")


def check_solve(result: dict, op, files: dict):
    fmax = max(abs(c) for c in _coeffs(files[op.expect["observable"]]).values())
    _require(result["residual"] <= 1e-12 * fmax,
             f"residual {result['residual']:.3e} > 1e-12 max|f|")
    _require(result["reconstruction_ok"] is True, "reconstruction check failed")
    _require(result["dropped_mean"] is False, "mean-zero input reported a dropped mean")
    for d in result["norms"]:
        _require(d["norm"] >= d["norm_small"] >= 0, "small-divisor norm exceeds the total")
        bound = d["predicted_small_bound"]
        if bound is not None:
            _require(d["norm_small"] <= bound * (1 + 1e-9),
                     "small-divisor norm exceeds its certified bound")


def check_threshold(result: dict, op, files: dict):
    """Verdicts of the line model: a profile nonvanishing at the origin (one,
    bump) converges below order 1/2, diverges logarithmically at 1/2 and like
    a power above; x^2 vanishes at the origin and converges for r <= 3/4."""
    profile = op.expect["profile"]
    for run in result["runs"]:
        r, h, value, verdict = run["r"], run["h"], run["value"], run["verdict"]
        if profile == "square":
            want = "convergent"
        else:
            want = ("convergent" if r < 0.5 else
                    "divergent-log" if r == 0.5 else "divergent-power")
        _require(verdict == want, f"r={r}, h={h}: verdict {verdict}, expected {want}")
        if profile == "one" and r == 0.25 and h <= 1e-6:
            _require(_close(value, 4.0, 0.01), f"I(1/4) = {value}, expected 4.0")
        if profile == "one" and r == 0.5 and h <= 1e-4:
            ratio = value / math.log(1.0 / h)
            _require(1.9 <= ratio <= 2.1, f"I(1/2)/log(1/h) = {ratio}")


def check_counterexample_maxgap(result: dict, op, files: dict):
    limit = result["meta"]["expected_limit"]
    for e in result["entries"]:
        p = e["times"][0][0]
        _require(e["gap"] == e["max_gap"] == p, "gaps do not grow with p")
        if p >= 30:
            _require(abs(complex(e["re"], e["im"]) - complex(limit["re"], limit["im"]))
                     <= 1e-10, f"p={p}: value has not reached the limit")


def check_counterexample_nub(result: dict, op, files: dict):
    expected = result["meta"]["expected_constant"]
    for p, e in enumerate(result["entries"], start=1):
        _require(e["re"] == expected and e["im"] == 0.0,
                 f"p={p}: value {e['re']} is not exactly {expected}")
        _require(e["gap"] == float(p), f"p={p}: gap {e['gap']}")


CHECKS = {
    "analyze": check_analyze,
    "rates": check_rates,
    "certify_structural": check_certify_structural,
    "certify_exact": check_certify_exact,
    "certify_quadratic": check_certify_quadratic,
    "density_generic": check_density_generic,
    "density_catmap2": check_density_catmap2,
    "density_catmap3": check_density_catmap3,
    "correlate_powers": check_correlate_powers,
    "correlate_times": check_correlate_times,
    "solve": check_solve,
    "threshold": check_threshold,
    "counterexample_maxgap": check_counterexample_maxgap,
    "counterexample_nub": check_counterexample_nub,
}


def check_op(op, report: dict, files: dict):
    """Run the operation's check on its report; raises CheckFailure."""
    _require(report["command"] == op.command, "report names another command")
    CHECKS[op.check](report["result"], op, files)


def check_workload(ops: list, results: dict):
    """Checks across the operations of one pass: densities of cubic-rank2
    rise with the radius (criterion 9) and delta(eps) is nondecreasing on a
    shared Monte Carlo seed.  ``results`` maps op id -> report result."""
    fractions = [results[op.id]["good_fraction"] for op in ops
                 if op.id.startswith("density-cubic-rank2-") and op.id in results]
    if len(fractions) == 3:
        _require(fractions == sorted(fractions), f"cubic-rank2 densities {fractions} fall")
        _require(fractions[-1] >= 0.95, f"cubic-rank2 density {fractions[-1]} < 0.95")
    deltas = [results[op.id]["delta"] for op in ops
              if op.id.startswith("density-catmap-eps") and op.id in results]
    _require(deltas == sorted(deltas), f"delta(eps) {deltas} is not nondecreasing")
