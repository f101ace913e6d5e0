"""Explicit decay-rate quantities of ergodic lattice automorphisms.

All rates derive from two certified numbers: the block spectral margin
rho (over rational invariant blocks of the abelianization, the smallest
of each block's largest one-sided exponent) and the spectral gap chi
(smallest nonzero |Lyapunov exponent| on the whole algebra).  From them:
the two-term order-2 envelope, the Hoelder-scale rate gamma(s), the
directional rate Theta of a time tuple, and asymptotic densities of the
good time-tuple sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dioph import _ball_points, _first_sign, _radius_sq
from .exactlin import RationalMatrix, char_poly, factor_over_q, factor_roots, lyapunov_data
from .nilalg import (
    NilpotentAlgebra,
    abelianization_action,
    action_matrix,
    check_commuting,
    cyclotomic_part,
    is_ergodic,
    lyapunov_functionals,
    n2_of_family,
    restrict_to_span,
)

__all__ = [
    "RateReport",
    "TimeTuple",
    "Envelope",
    "rho_chi",
    "order2_envelope",
    "holder_rate",
    "theta",
    "DensityReport",
    "density_estimate",
    "DEFAULT_DENSITY_SEED",
]

DEFAULT_DENSITY_SEED = 0x6E696C6D


# ---------------------------------------------------------------------------
# rho and chi
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    rho: float
    rho_err: float
    chi: float
    chi_err: float
    delta: int                     # 0 for irrational type, 1 for rational type
    dim: int
    s0: int                        # dim + 1
    rho0: float                    # min(chi/2, rho/4)
    block_extremes: list           # per abelianization block (low, high) exponents
    layer_dims: tuple = ()         # central-series layer sizes, for s_i(r)

    def sobolev_orders(self, r: float) -> tuple[list[float], float]:
        """Per-layer regularity costs s_i(r) = r * layer size, and their max s(r)."""
        if r <= 0:
            raise ValueError("order r must be positive")
        per_layer = [r * d for d in self.layer_dims]
        return per_layer, max(per_layer)


def rho_chi(algebra: NilpotentAlgebra, m: RationalMatrix,
            precision_bits: int = 128) -> RateReport:
    """Certified (rho, chi) of an ergodic automorphism.

    rho: over the rational invariant blocks of the abelianization, the
    minimum of max(top exponent, |bottom exponent|).  chi: the smallest
    nonzero |exponent| over the full algebra.
    """
    if not is_ergodic(algebra, m):
        raise ValueError("automorphism is not ergodic")
    ab = abelianization_action(algebra, m)
    ab_split = lyapunov_data(ab, precision_bits)

    block_extremes = []
    rho = math.inf
    rho_err = 0.0
    for i in range(len(ab_split.primary.blocks)):
        exps = [(b.exponent, b.exponent_err) for b in ab_split.blocks
                if i in b.primary_factors]
        low = min(exps, key=lambda t: t[0])
        high = max(exps, key=lambda t: t[0])
        block_extremes.append((low[0], high[0]))
        margin = max(high[0], abs(low[0]))
        margin_err = max(high[1], low[1])
        if margin < rho:
            rho, rho_err = margin, margin_err
    if not (rho > 0):
        raise ArithmeticError("spectral margin vanished for an ergodic automorphism")

    full_split = lyapunov_data(m, precision_bits)
    nonzero = [(abs(b.exponent), b.exponent_err) for b in full_split.blocks
               if not (b.exponent == 0.0 and b.exponent_err == 0.0)]
    if not nonzero:
        raise ArithmeticError("no nonzero exponents: automorphism cannot be ergodic")
    chi, chi_err = min(nonzero, key=lambda t: t[0])

    delta = 0 if not cyclotomic_part(m) else 1
    return RateReport(rho=rho, rho_err=rho_err, chi=chi, chi_err=chi_err,
                      delta=delta, dim=algebra.dim, s0=algebra.dim + 1,
                      rho0=min(chi / 2.0, rho / 4.0), block_extremes=block_extremes,
                      layer_dims=tuple(algebra.layer_dims))


# ---------------------------------------------------------------------------
# Envelopes and the Hoelder rate
# ---------------------------------------------------------------------------

@dataclass
class Envelope:
    """bound(g) = C1 e^{-rate1 g} + delta C2 e^{-rate2 g} with fitted constants."""

    rate1: float
    rate2: Optional[float]        # None when the second term is absent (delta = 0)
    delta: int
    order: float                  # regularity order r the first rate was built with
    eps: float

    @property
    def rates(self) -> list[float]:
        return [self.rate1] + ([self.rate2] if self.rate2 is not None else [])

    def bound(self, gap: float, c1: float, c2: float = 0.0) -> float:
        out = c1 * math.exp(-self.rate1 * gap)
        if self.rate2 is not None:
            out += c2 * math.exp(-self.rate2 * gap)
        return out


def order2_envelope(algebra: NilpotentAlgebra, m: RationalMatrix, r: float,
                    eps: float, precision_bits: int = 128) -> Envelope:
    """Two-term order-2 envelope shape: rates (chi - eps) r and rho/2 - eps.

    The second term is present only for rational type (delta = 1); the
    constants are left symbolic, to be fitted against measured series.
    """
    if r <= 0:
        raise ValueError("order r must be positive")
    rep = rho_chi(algebra, m, precision_bits)
    if not 0 < eps < min(rep.chi, rep.rho / 2.0):
        raise ValueError(f"eps must lie in (0, {min(rep.chi, rep.rho / 2.0):.6g})")
    rate1 = (rep.chi - eps) * r
    rate2 = rep.rho / 2.0 - eps if rep.delta else None
    return Envelope(rate1=rate1, rate2=rate2, delta=rep.delta, order=r, eps=eps)


def holder_rate(algebra: NilpotentAlgebra, m: RationalMatrix, s: float,
                precision_bits: int = 128) -> float:
    """gamma(s) = min(s rho0 / (4 s0), rho0 / 2) with s0 = dim + 1.

    Stated for 0 < s < 1; larger s is accepted (the formula stays
    monotone and caps at rho0/2) with a warning recording the hypothesis.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if s >= 1:
        import warnings
        warnings.warn("the partial-regularity statement assumes 0 < s < 1; "
                      "the formula is applied as given", stacklevel=2)
    rep = rho_chi(algebra, m, precision_bits)
    return min(s * rep.rho0 / (4.0 * rep.s0), rep.rho0 / 2.0)


# ---------------------------------------------------------------------------
# Time tuples and the directional rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeTuple:
    times: tuple                   # n vectors in Z^l

    @staticmethod
    def of(*times) -> "TimeTuple":
        ts = tuple(tuple(int(x) for x in t) for t in times)
        if len(ts) < 2:
            raise ValueError("need at least two times")
        if len({len(t) for t in ts}) != 1:
            raise ValueError("times live in different ranks")
        return TimeTuple(ts)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def rank(self) -> int:
        return len(self.times[0])

    @property
    def gap(self) -> float:
        return min(math.dist(a, b) for a, b in itertools.combinations(self.times, 2))

    @property
    def max_gap(self) -> float:
        return max(math.dist(a, b) for a, b in itertools.combinations(self.times, 2))

    def scaled(self, t: int) -> "TimeTuple":
        return TimeTuple(tuple(tuple(t * x for x in z) for z in self.times))

    def direction(self) -> tuple:
        flat = [float(x) for z in self.times for x in z]
        norm = math.sqrt(sum(x * x for x in flat))
        if norm == 0:
            raise ValueError("zero time tuple has no direction")
        return tuple(x / norm for x in flat)


@dataclass
class ThetaReport:
    value: float
    per_pair: list                 # ((i, j), min over functionals, regular flag)
    functionals: list


def theta(algebra: NilpotentAlgebra, generators: Sequence[RationalMatrix],
          tup: TimeTuple, precision_bits: int = 128) -> ThetaReport:
    """Directional rate: min over nonzero functionals chi and pairs i != j of
    |chi((z_i - z_j) / ||z_i - z_j||)|.  Scale-invariant in the tuple."""
    check_commuting(list(generators))
    if tup.rank != len(generators):
        raise ValueError("tuple rank does not match the number of generators")
    if tup.gap == 0:
        raise ValueError("degenerate tuple: two equal times")
    funcs = [f for f in lyapunov_functionals(generators, precision_bits)
             if not f.is_zero()]
    if not funcs:
        raise ArithmeticError("no nonzero Lyapunov functionals")
    per_pair = []
    overall = math.inf
    for (i, zi), (j, zj) in itertools.combinations(enumerate(tup.times), 2):
        d = [a - b for a, b in zip(zi, zj)]
        norm = math.sqrt(sum(x * x for x in d))
        unit = [x / norm for x in d]
        vals = [abs(f(unit)) for f in funcs]
        m = min(vals)
        budget = max(f.err for f in funcs) * (sum(map(abs, unit)) + 1) * 4
        per_pair.append(((i, j), m, m > budget))
        overall = min(overall, m)
    return ThetaReport(value=overall, per_pair=per_pair, functionals=funcs)


# ---------------------------------------------------------------------------
# Densities of good time tuples
# ---------------------------------------------------------------------------

@dataclass
class DensityReport:
    n: int
    rank: int
    radius: float
    good_fraction: float           # density estimate for the hyperplane-avoiding set
    total_points: int
    bad_points: int
    eps: float
    delta: float                   # threshold with spherical bad-measure <= eps
    thick_fraction: Optional[float]  # fraction with directional margin >= delta
    method: str


def _is_bad_difference(w: tuple, generators: Sequence[RationalMatrix],
                       precision_bits: int = 128) -> bool:
    """Exact test: does some nonzero functional vanish on w?

    Equivalent to the combined matrix having an eigenvalue of modulus one
    off the family's common root-of-unity core, where every functional is
    zero.  The core's characteristic polynomial is divided out; every
    remaining irreducible factor with a proven unit-modulus root makes w
    bad, cyclotomic factors included.
    """
    if not any(w):
        return True
    gens = list(generators)
    combined = action_matrix(gens, list(w))
    poly = char_poly(combined)
    core = n2_of_family(gens)
    if core:
        poly = poly // char_poly(restrict_to_span(combined, core))
    return any(any(factor_roots(q, precision_bits).unit) for q, _ in factor_over_q(poly))


class _BadDifferenceTest:
    """Float prefilter + exact confirmation for functional kernels.

    |chi(w)| well away from zero (beyond the certified error budget)
    proves w is not in the kernel; only near-zero values reach the exact
    combined-matrix factorization.  The functionals are linear and
    |mu^g| = 1 exactly when |mu| = 1, so w is bad exactly when its
    primitive direction w / gcd(w) is: one confirmation per direction.
    """

    def __init__(self, generators, funcs, precision_bits: int = 128):
        self.generators = list(generators)
        self.func_arr = np.array([f.exponents for f in funcs], dtype=float)
        self.precision_bits = precision_bits
        self.cache: dict = {}

    def bad_mask(self, ws: np.ndarray) -> np.ndarray:
        """Per integer row w of ws: does some nonzero functional vanish at w?
        The zero row is always bad."""
        mask = ~ws.any(axis=1)
        if self.func_arr.size == 0:
            return mask
        vals = np.abs(ws.astype(float) @ self.func_arr.T).min(axis=1)
        budget = 1e-9 * (1.0 + np.abs(ws).sum(axis=1))
        unclear = np.flatnonzero((vals <= budget) & ~mask)
        if len(unclear) == 0:
            return mask
        prim = ws[unclear] // np.gcd.reduce(ws[unclear], axis=1)[:, None]
        prim *= _first_sign(prim)[:, None]
        keys, inv = np.unique(prim, axis=0, return_inverse=True)
        flags = np.array([self._confirm(tuple(int(x) for x in k)) for k in keys])
        mask[unclear] = flags[inv.ravel()]
        return mask

    def _confirm(self, key: tuple) -> bool:
        if key not in self.cache:
            self.cache[key] = _is_bad_difference(key, self.generators, self.precision_bits)
        return self.cache[key]


def _hyperplane_normals(funcs, n: int) -> list[np.ndarray]:
    """Unit normals of the bad direction loci in R^{n*l}.

    Each nonzero functional chi and pair i < j contributes the locus
    chi(z_i - z_j) = 0, whose normal embeds chi at slot i and -chi at j.
    """
    normals = []
    for f in funcs:
        v = np.array(f.exponents, dtype=float)
        for i, j in itertools.combinations(range(n), 2):
            nv = np.zeros(n * len(f.exponents))
            nv[i * len(f.exponents):(i + 1) * len(f.exponents)] = v
            nv[j * len(f.exponents):(j + 1) * len(f.exponents)] = -v
            normals.append(nv / np.linalg.norm(nv))
    return normals


def _ball_count(dim: int, r_sq: int) -> int:
    """Exact number of integer points with ||x||^2 <= r_sq (layered convolution)."""
    counts = np.zeros(r_sq + 1, dtype=np.int64)
    b = math.isqrt(r_sq)
    for x in range(-b, b + 1):
        counts[x * x] += 1
    acc = counts.copy()
    for _ in range(dim - 1):
        nxt = np.zeros(r_sq + 1, dtype=np.int64)
        for x in range(-b, b + 1):
            x2 = x * x
            nxt[x2:] += acc[: r_sq + 1 - x2]
        acc = nxt
    return int(acc.sum())


def _shifted_ball_counts(centers: np.ndarray, r_sq: np.ndarray) -> np.ndarray:
    """Per row c of centers: integer points x with ||x - c||^2 <= r_sq.

    Loops over the integer offsets of the leading coordinate for all rows
    at once, with the float steps of a scalar recursion (sqrt, ceil, floor,
    (x - c0) ** 2).  Exact when the centers are half-integral and r_sq is
    quarter-integral: the squares and remainders are then float-exact, and
    a lattice point lies on a sphere only when its radius is a half-integer,
    whose sqrt is float-exact too.
    """
    counts = np.zeros(len(r_sq), dtype=np.int64)
    live = np.flatnonzero(r_sq >= 0)
    c0, rs = centers[live, 0], r_sq[live]
    r = np.sqrt(rs)
    lo, hi = np.ceil(c0 - r), np.floor(c0 + r)
    if centers.shape[1] == 1:
        counts[live] = np.maximum(0, hi - lo + 1)
        return counts
    for k in range(int(np.max(hi - lo, initial=-1)) + 1):
        x = lo + k
        on = x <= hi
        counts[live[on]] += _shifted_ball_counts(centers[live[on], 1:],
                                                 rs[on] - (x[on] - c0[on]) ** 2)
    return counts


_DIRECT_LIMIT = 3_000_000


def density_estimate(generators: Sequence[RationalMatrix], n: int, radius: float,
                     eps: float, samples: int = 1_000_000,
                     seed: int = DEFAULT_DENSITY_SEED,
                     precision_bits: int = 128) -> DensityReport:
    """Exact density of hyperplane-avoiding time n-tuples in the radius ball,
    plus the directional-margin threshold delta(eps) by Monte Carlo + bisection.

    A tuple is bad iff some pairwise difference kills a nonzero Lyapunov
    functional (float prefilter, exact integer confirmation).  For n = 2
    the count sums, over bad differences w, the exact lattice count of the
    shifted ball; n >= 3 enumerates the ball directly (size-capped).
    """
    check_commuting(list(generators))
    if n < 2:
        raise ValueError("need n >= 2")
    ell = len(generators)
    dim_total = n * ell
    r_sq = _radius_sq(radius)
    funcs = [f for f in lyapunov_functionals(list(generators), precision_bits)
             if not f.is_zero()]
    bad = _BadDifferenceTest(generators, funcs, precision_bits)

    total = _ball_count(dim_total, r_sq)
    if n == 2:
        method = "difference-weighted exact count"
        # (z, z - w) lies in the ball iff ||z - w/2||^2 <= (r_sq - ||w||^2/2) / 2
        ws = _ball_points(ell, 2 * r_sq)
        wn = (ws * ws).sum(axis=1)
        centers = ws / 2.0
        bad_rows = bad.bad_mask(ws)
        bad_total = int(_shifted_ball_counts(centers[bad_rows],
                                             (r_sq - wn[bad_rows] / 2.0) / 2.0).sum())
    else:
        method = "direct enumeration"
        if total > _DIRECT_LIMIT:
            raise ValueError(f"ball of {total} points is too large for direct "
                             f"enumeration; reduce the radius")
        grid = _ball_points(dim_total, r_sq)
        bad_rows = np.zeros(len(grid), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            diffs = grid[:, i * ell:(i + 1) * ell] - grid[:, j * ell:(j + 1) * ell]
            uniq, inv = np.unique(diffs, axis=0, return_inverse=True)
            bad_rows |= bad.bad_mask(uniq)[inv.ravel()]
        bad_total = int(bad_rows.sum())

    good_fraction = 1.0 - bad_total / total

    # delta(eps): bisection on the Monte Carlo spherical measure of the
    # delta-neighborhood of the bad directions; a vacuous requirement
    # (eps >= 1) keeps the full set with delta = 0
    normals = _hyperplane_normals(funcs, n)
    if eps >= 1.0:
        return DensityReport(n=n, rank=ell, radius=float(radius),
                             good_fraction=good_fraction, total_points=total,
                             bad_points=bad_total, eps=eps, delta=0.0,
                             thick_fraction=1.0, method=method)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(int(samples), dim_total))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    margins = np.min(np.abs(u @ np.array(normals).T), axis=1) if normals else \
        np.full(int(samples), np.inf)

    lo, hi = 0.0, 1.0
    for _ in range(48):
        mid = (lo + hi) / 2.0
        if float(np.mean(margins < mid)) <= eps:
            lo = mid
        else:
            hi = mid
    delta = lo
    del u, margins  # free the Monte Carlo samples before the lattice counts

    # fraction of lattice directions with margin >= delta
    thick = None
    if normals:
        norm_arr = np.array(normals)
        if n == 2 and delta > 0:
            # directional margin of (z1, z2) against the pair hyperplane of a
            # unit functional is |chi(w)| / (sqrt(2) ||z||): count per
            # difference w with a capped effective radius; the zero
            # difference has margin 0
            func_unit = bad.func_arr / np.linalg.norm(bad.func_arr, axis=1, keepdims=True)
            nz = np.flatnonzero(wn > 0)
            mv = np.abs(ws[nz].astype(float) @ func_unit.T).min(axis=1)
            nz, mv = nz[mv > 0], mv[mv > 0]
            r_eff_sq = np.minimum(float(r_sq), (mv / (math.sqrt(2.0) * delta)) ** 2)
            thick_count = _shifted_ball_counts(centers[nz],
                                               (r_eff_sq - wn[nz] / 2.0) / 2.0).sum()
            thick = int(thick_count) / total
        elif total <= _DIRECT_LIMIT:
            grid = _ball_points(dim_total, r_sq)
            nz = (grid != 0).any(axis=1)
            pts = grid[nz].astype(np.float64)
            dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            marg = np.min(np.abs(dirs @ norm_arr.T), axis=1)
            thick = float((marg >= delta).sum()) / total

    return DensityReport(n=n, rank=ell, radius=float(radius),
                         good_fraction=good_fraction, total_points=total,
                         bad_points=bad_total, eps=eps, delta=delta,
                         thick_fraction=thick, method=method)
