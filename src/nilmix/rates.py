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
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .dioph import _ball_point_count, _first_sign, _half_ball, _radius_sq
from .exactlin import RationalMatrix, char_poly, factor_over_q, factor_roots, lyapunov_data
from .nilalg import (
    NilpotentAlgebra,
    _slack,
    abelianization_action,
    action_matrix,
    cyclotomic_part,
    is_ergodic,
    joint_blocks,
    lyapunov_functionals,
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
]


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


def rho_chi(algebra: NilpotentAlgebra, m: RationalMatrix) -> RateReport:
    """Certified (rho, chi) of an ergodic automorphism.

    rho: over the rational invariant blocks of the abelianization, the
    minimum of max(top exponent, |bottom exponent|).  chi: the smallest
    nonzero |exponent| over the full algebra.
    """
    if not is_ergodic(algebra, m):
        raise ValueError("automorphism is not ergodic")
    ab = abelianization_action(algebra, m)
    ab_split = lyapunov_data(ab)

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

    full_split = lyapunov_data(m)
    nonzero = [(abs(b.exponent), b.exponent_err) for b in full_split.blocks
               if not full_split._is_zero(b)]
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
                    eps: float) -> Envelope:
    """Two-term order-2 envelope shape: rates (chi - eps) r and rho/2 - eps.

    The second term is present only for rational type (delta = 1); the
    constants are left symbolic, to be fitted against measured series.
    """
    if r <= 0:
        raise ValueError("order r must be positive")
    rep = rho_chi(algebra, m)
    if not 0 < eps < min(rep.chi, rep.rho / 2.0):
        raise ValueError(f"eps must lie in (0, {min(rep.chi, rep.rho / 2.0):.6g})")
    rate1 = (rep.chi - eps) * r
    rate2 = rep.rho / 2.0 - eps if rep.delta else None
    return Envelope(rate1=rate1, rate2=rate2, delta=rep.delta, order=r, eps=eps)


def holder_rate(algebra: NilpotentAlgebra, m: RationalMatrix, s: float) -> float:
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
    rep = rho_chi(algebra, m)
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
    def rank(self) -> int:
        return len(self.times[0])

    @property
    def gap(self) -> float:
        return min(math.dist(a, b) for a, b in itertools.combinations(self.times, 2))

    def scaled(self, t: int) -> "TimeTuple":
        return TimeTuple(tuple(tuple(t * x for x in z) for z in self.times))


@dataclass
class ThetaReport:
    value: float
    per_pair: list                 # ((i, j), min over functionals, regular flag)
    functionals: list


def theta(algebra: NilpotentAlgebra, generators: Sequence[RationalMatrix],
          tup: TimeTuple) -> ThetaReport:
    """Directional rate: min over nonzero functionals chi and pairs i != j of
    |chi((z_i - z_j) / ||z_i - z_j||)|.  Scale-invariant in the tuple."""
    if tup.rank != len(generators):
        raise ValueError("tuple rank does not match the number of generators")
    if tup.gap == 0:
        raise ValueError("degenerate tuple: two equal times")
    funcs = [f for f in lyapunov_functionals(generators) if not f.is_zero()]
    if not funcs:
        raise ArithmeticError("no nonzero Lyapunov functionals")
    per_pair = []
    overall = math.inf
    for (i, zi), (j, zj) in itertools.combinations(enumerate(tup.times), 2):
        d = [a - b for a, b in zip(zi, zj)]
        norm = math.sqrt(sum(x * x for x in d))
        unit = [x / norm for x in d]
        m = min(abs(f(unit)) for f in funcs)
        per_pair.append(((i, j), m, m > _slack(funcs, unit)))
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


def _is_bad_difference(w: tuple, generators: Sequence[RationalMatrix]) -> bool:
    """Exact test: does some functional of a joint block off the family's
    root-of-unity core vanish on w (w = 0 is bad)?

    w is bad when, on one of those blocks, some irreducible factor of the
    characteristic polynomial of prod_i g_i^{w_i} has a proven unit-modulus
    root, cyclotomic factors included, at the joint blocks' precision_bits.
    Every w on which a nonzero functional vanishes is bad.  So is every w
    when a non-core block has a root tuple on the unit circle, whose
    functional is zero: the test is conservative there, and on the Salem
    family (S, S^2) it calls all w bad, though its nonzero functionals
    vanish only on w0 + 2 w1 = 0.
    """
    if not any(w):
        return True
    record = joint_blocks(generators)
    return any(any(factor_roots(q, record.precision_bits).unit)
               for blk in record.blocks if not blk.core
               for q, _ in factor_over_q(char_poly(action_matrix(blk.restricted, w))))


def _bad_mask(ws: np.ndarray, generators: Sequence[RationalMatrix],
              func_arr: np.ndarray) -> np.ndarray:
    """Per integer row w of ws: does some nonzero functional (a row of
    func_arr) vanish at w?  The zero row is always bad.

    |chi(w)| well away from zero (beyond the certified error budget)
    proves w is not in the kernel; only near-zero values reach the exact
    per-block factorization.  The functionals are linear and
    |mu^g| = 1 exactly when |mu| = 1, so w is bad exactly when its
    primitive direction w / gcd(w) is: one confirmation per direction.
    The mask is even in w.
    """
    mask = ~ws.any(axis=1)
    if func_arr.size == 0:
        return mask
    vals = _abs_min(ws.astype(float) @ func_arr.T)
    budget = 1e-9 * (1.0 + np.abs(ws).sum(axis=1))
    unclear = np.flatnonzero((vals <= budget) & ~mask)
    if len(unclear) == 0:
        return mask
    prim = ws[unclear] // np.gcd.reduce(ws[unclear], axis=1)[:, None]
    prim *= _first_sign(prim)[:, None]
    keys, inv = np.unique(prim, axis=0, return_inverse=True)
    flags = np.array([_is_bad_difference(tuple(int(x) for x in k), generators) for k in keys])
    mask[unclear] = flags[inv.ravel()]
    return mask


def _hyperplane_normals(funcs, n: int) -> list[np.ndarray]:
    """Unit normals of the bad direction loci in R^{n*l}, each once up to sign.

    Each nonzero functional chi and pair i < j contributes the locus
    chi(z_i - z_j) = 0, whose normal embeds chi at slot i and -chi at j.
    A normal is kept with its first nonzero entry positive, and only the
    first of the rows equal bit for bit (-chi gives chi's normals again).
    """
    normals = {}
    for f in funcs:
        v = np.array(f.exponents, dtype=float)
        for i, j in itertools.combinations(range(n), 2):
            nv = np.zeros(n * len(f.exponents))
            nv[i * len(f.exponents):(i + 1) * len(f.exponents)] = v
            nv[j * len(f.exponents):(j + 1) * len(f.exponents)] = -v
            nv = nv / np.linalg.norm(nv) * _first_sign(nv[None])[0] + 0.0
            normals.setdefault(nv.tobytes(), nv)
    return list(normals.values())


def _abs_min(prod: np.ndarray) -> np.ndarray:
    """Per row of prod: the smallest |entry|, one column at a time (the same
    values as np.abs(prod).min(axis=1), NaN propagating alike)."""
    out = np.abs(prod[:, 0])
    for k in range(1, prod.shape[1]):
        np.minimum(out, np.abs(prod[:, k]), out=out)
    return out


_MARGIN_BLOCK = 1 << 14     # rows of the thick count's lattice directions at once


def _blocks(count: int) -> list:
    """The (start, stop) of consecutive blocks of _MARGIN_BLOCK rows covering
    count rows; a last block of one row joins the one before it (numpy
    multiplies a single row as a vector, whose sums may round differently)."""
    stops = list(range(_MARGIN_BLOCK, count, _MARGIN_BLOCK)) + [count]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


def _unit_margins(rows, count: int, normals: np.ndarray) -> np.ndarray:
    """Per point u of a set of count points: the smallest |<u / ||u||, v>|
    over the rows v of normals, as float64.  rows(start, stop) returns the
    points start, ..., stop - 1 as a writable float64 array, normalized in
    place; each block of _blocks(count) is normalized, multiplied and reduced
    with the per-row expressions of a whole-array pass, so the margins do not
    depend on the block size."""
    out = np.empty(count)
    for start, stop in _blocks(count):
        u = rows(start, stop)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        out[start:stop] = _abs_min(u @ normals.T)
    return out


def _sorted_norms(coords: list, kmax: int) -> np.ndarray:
    """The squared norms <= kmax, sorted, of the integer points whose i-th
    coordinate runs over the array coords[i].  A partial norm s and a square
    c^2 of the next coordinate meet only while s + c^2 <= kmax: both are
    sorted, so each element of the shorter list extends a prefix of the
    other, and no norm beyond kmax is ever made."""
    norms = np.zeros(1, dtype=np.int64)
    for c in coords:
        sq = np.sort(c * c)
        outer, inner = (norms, sq) if len(norms) <= len(sq) else (sq, norms)
        ends = np.searchsorted(inner, kmax - outer, side="right")
        out = np.empty(int(ends.sum()), dtype=np.int64)
        pos = 0
        for v, k in zip(outer.tolist(), ends.tolist()):
            np.add(inner[:k], v, out=out[pos:pos + k])
            pos += k
        if len(outer) > 1:          # else out is one sorted run already
            out.sort()
        norms = out
    return norms


def _ball_count(dim: int, r_sq: int) -> int:
    """Exact number of integer points with ||x||^2 <= r_sq: for each squared
    norm a of the first dim // 2 coordinates, the number of norms <= r_sq - a
    of the others."""
    b = math.isqrt(r_sq)
    line = np.arange(-b, b + 1, dtype=np.int64)
    head = _sorted_norms([line] * (dim // 2), r_sq)
    tail = _sorted_norms([line] * (dim - dim // 2), r_sq)
    return int(np.searchsorted(tail, r_sq - head, side="right").sum())


def _coset_counts(ws: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Per row w of ws: the integer points x with ||x - w/2||^2 <= rho[row],
    that is ||2x - w||^2 <= floor(4 rho), counted exactly in integers.

    2x - w runs over the coset 2Z^l - p of the parity class p = w mod 2, so
    the count depends only on p and on floor(4 rho): the sorted ||t||^2 over
    the coset (its theta series, Conway-Sloane ch. 4) answer every row of the
    class by one binary search.  A negative rho counts 0.
    """
    counts = np.zeros(len(ws), dtype=np.int64)
    live = np.flatnonzero(rho >= 0)
    keys = np.floor(4.0 * rho[live]).astype(np.int64)
    ell = ws.shape[1]
    cls = (ws[live] & 1) @ (1 << np.arange(ell, dtype=np.int64))
    # the classes present, ascending (np.unique would load numpy.ma)
    for c in np.flatnonzero(np.bincount(cls, minlength=1 << ell)):
        rows = np.flatnonzero(cls == c)
        kmax = int(keys[rows].max())
        b = math.isqrt(kmax)
        line = np.arange(-b, b + 1, dtype=np.int64)
        coords = [line[(line - (c >> i)) % 2 == 0] for i in range(ell)]
        norms = _sorted_norms(coords, kmax)
        counts[live[rows]] = np.searchsorted(norms, keys[rows], side="right")
    return counts


_GRID = 1 << 48             # delta(eps) is a multiple of 2^-48 below 1
_SLAB_BITS = 128            # arcsin and pi are bounded in units of 2^-128


def _slab_coefficients(dim: int) -> list:
    """The p_i of P(s) = sum_i p_i s^i with which the slab {|<u, v>| < x} of
    the unit sphere of R^dim (u uniform, v a unit vector, 0 <= x < 1) has
    measure I_(x^2)(1/2, (dim - 1)/2): x P(1 - x^2) for odd dim, (2 / pi)
    (arcsin x + x sqrt(1 - x^2) P(1 - x^2)) for even dim.  By parts from F_0
    = x or F_(-1/2) = arcsin x, F_a(x) = int_0^x (1 - t^2)^a dt has (2a + 1)
    F_a = x (1 - x^2)^a + 2a F_(a-1), here with a = (dim - 3) / 2."""
    c = [Fraction(math.comb(2 * i, i), 4 ** i) for i in range((dim - 1) // 2)]
    return c if dim % 2 else [1 / ((2 * i + 1) * x) for i, x in enumerate(c)]


def _atan_bounds(num: int, den: int) -> tuple:
    """(lo, hi) with lo <= atan(num / den) 2^_SLAB_BITS <= hi, for 0 <=
    num / den <= 1/5: the alternating series, its powers rounded down (off
    by less than k + 1 units after k steps, each term by less than 2),
    until a power rounds to 0; the first term left out bounds the rest."""
    total, power, k = 0, (num << _SLAB_BITS) // den, 0
    while power:
        total += (-1) ** k * (power // (2 * k + 1))
        power = power * num * num // (den * den)
        k += 1
    return total - 3 * k - 1, total + 3 * k + 1


def _admissible_delta(normals: np.ndarray, eps: float) -> float:
    """delta(eps) for the bad hyperplanes with the float64 unit normals given
    as rows: the largest delta on the grid with K mu(delta / ||v||) <= eps
    proven, mu the slab measure (_slab_coefficients), K the number of rows
    (distinct up to sign, as _hyperplane_normals makes them), ||v||^2 the
    least squared row length.  The union of the K slabs {|<u, v>| < delta}
    measures at most K mu: delta is admissible, and delta(eps) when K = 1.
    eps >= 1 is vacuous (0); no normals leave nothing bad (the top).

    A float64 bisection guesses the grid point; exact tests gallop from it
    until one point fits and the next does not (K mu increases).  They are
    exact for odd dim; for even dim arcsin x = 2 atan(x / (1 + sqrt(1 -
    x^2))), the angle halved to t <= 1/8 by t -> t / (1 + sqrt(1 + t^2)),
    and x sqrt(1 - x^2) are bounded above, pi (Machin) below: a comparison
    closer than that fails."""
    if eps >= 1.0 or not len(normals):
        return 0.0 if eps >= 1.0 else (_GRID - 1) / _GRID
    count, dim, coeffs = len(normals), normals.shape[1], _slab_coefficients(normals.shape[1])
    # exact from the doubles; 1 far within 2^-47, so delta / ||v|| < 1 on the grid
    norm_sq = min(sum(Fraction(x) ** 2 for x in row) for row in normals.tolist())
    floats, unit = [float(c) for c in coeffs], 1 / (_GRID * math.sqrt(norm_sq))
    one, pi = 1 << _SLAB_BITS, 16 * _atan_bounds(1, 5)[0] - 4 * _atan_bounds(1, 239)[1]

    def estimate(k):
        x = k * unit
        p = sum(c * (1.0 - x * x) ** i for i, c in enumerate(floats))
        return count * (x * p if dim % 2 else
                        2 / math.pi * (math.asin(x) + x * math.sqrt(1.0 - x * x) * p))

    def root(q):                    # floor(sqrt(q) 2^_SLAB_BITS)
        return math.isqrt((q.numerator << 2 * _SLAB_BITS) // q.denominator)

    def fits(k):
        x_sq = Fraction(k * k, _GRID * _GRID) / norm_sq
        p = sum(c * (1 - x_sq) ** i for i, c in enumerate(coeffs))
        if dim % 2:                 # count x P(s) <= eps, squared
            return count * count * x_sq * p * p <= Fraction(eps) ** 2
        t, halvings = -(-(root(x_sq) + 1) * one // (one + root(1 - x_sq))), 1
        while 8 * t > one:
            t, halvings = -(-t * one // (one + math.isqrt(one * one + t * t))), halvings + 1
        arcsin = _atan_bounds(t, one)[1] << halvings
        return 2 * count * (arcsin + (root(x_sq * (1 - x_sq)) + 1) * p) <= Fraction(eps) * pi

    lo = 0
    for bit in reversed(range(48)):
        lo += (1 << bit) * (estimate(lo + (1 << bit)) <= eps)
    # gallop until lo fits (mu(0) = 0) and hi does not (or is past the grid)
    hi, step = lo + 1, 1
    while lo and not fits(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi < _GRID and fits(hi):
        lo, hi, step = hi, min(hi + step, _GRID), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo / _GRID


_DIRECT_LIMIT = 3_000_000
# n = 2 holds the differences and squared norms of balls in Z^l of radius R
# and sqrt(2) R: catmap and cubic-rank2 peak at ~1.15 GB RSS at this many
# points in the radius-R ball
_HALF_LIMIT = 10_000_000


def _fewest_points(dim: int, radius: float) -> float:
    """A lower bound on the integer points of the radius ball in Z^dim: each
    point of the ball of radius R - sqrt(dim) / 2 rounds to one of them, so
    that volume, less rounding, bounds their number."""
    return _ball_point_count(dim, max(radius - math.sqrt(dim) / 2, 0.0)) * (1 - 1e-9)


def density_estimate(generators: Sequence[RationalMatrix], n: int, radius: float,
                     eps: float) -> DensityReport:
    """Exact density of hyperplane-avoiding time n-tuples in the radius ball,
    plus the directional-margin threshold delta(eps) in closed form
    (_admissible_delta).

    A tuple is bad iff some pairwise difference kills a nonzero Lyapunov
    functional (float prefilter, exact integer confirmation), decided once
    on the differences of the radius ball.  For n = 2 the count sums, over
    bad differences w, the exact lattice count of the shifted ball; n >= 3
    enumerates the ball directly (size-capped) and looks each pair
    difference up in the bad ones.  Both count on the half ball, as every
    count is symmetric under x -> -x.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    if not eps >= 0:
        raise ValueError("eps must be >= 0")
    ell = len(generators)
    dim_total = n * ell
    r_sq = _radius_sq(radius)
    if 2 * r_sq >= 2 ** 52:
        raise ValueError(f"radius {radius:g} is beyond the exact range of the lattice counts")
    if n == 2 and _fewest_points(ell, radius) > _HALF_LIMIT:
        raise ValueError(f"the ball of radius {radius:g} in Z^{ell} holds more than "
                         f"{_HALF_LIMIT} points, too many to count pairs in memory")
    # n >= 3 enumerates the ball: refused from its size before it is counted
    total = math.inf if n > 2 and _fewest_points(dim_total, radius) > _DIRECT_LIMIT \
        else _ball_count(dim_total, r_sq)
    if n > 2 and total > _DIRECT_LIMIT:
        raise ValueError(f"the ball of radius {radius:g} in Z^{dim_total} holds more than "
                         f"{_DIRECT_LIMIT} points, too many for direct enumeration")
    funcs = [f for f in lyapunov_functionals(list(generators)) if not f.is_zero()]
    func_arr = np.array([f.exponents for f in funcs], dtype=float)
    # every difference of two ball points, up to sign: ||x - y||^2 <= 2 r_sq;
    # ws[0] = 0 is bad and its own negative
    ws, wn = _half_ball(ell, 2 * r_sq, np.int64)
    bad = _bad_mask(ws, generators, func_arr)

    if n == 2:
        method = "difference-weighted exact count"
        # (z, z - w) lies in the ball iff ||z - w/2||^2 <= (r_sq - ||w||^2/2) / 2
        counts = _coset_counts(ws[bad], (r_sq - wn[bad] / 2.0) / 2.0)
        bad_total = 2 * int(counts.sum()) - int(counts[0])
    else:
        method = "direct enumeration"
        grid, _ = _half_ball(dim_total, r_sq, np.int64)
        # int64 keys x @ place, first coordinate most significant, are
        # linear: slots a, b give a pair difference d the key a - b.  Its
        # digits |d_k| <= 2 isqrt(r_sq) are balanced, as are those of the
        # rows of ws, so the key's sign is _first_sign(d), and |a - b| is
        # the key of the row of ws that stands for +-d
        place = (4 * math.isqrt(r_sq) + 1) ** np.arange(ell - 1, -1, -1, dtype=np.int64)
        bad_keys = ws[bad] @ place
        slots = [grid[:, i * ell:(i + 1) * ell] @ place for i in range(n)]
        bad_rows = np.zeros(len(grid), dtype=bool)
        for a, b in itertools.combinations(slots, 2):
            bad_rows |= np.isin(np.abs(a - b), bad_keys)
        bad_total = 2 * int(bad_rows.sum()) - 1     # the zero tuple is bad

    good_fraction = 1.0 - bad_total / total

    # delta(eps): a proven bound on the spherical measure of the
    # delta-neighborhood of the bad directions
    normals = np.array(_hyperplane_normals(funcs, n)).reshape(-1, dim_total)
    delta = _admissible_delta(normals, eps)

    # fraction of lattice directions with margin >= delta
    thick = 1.0 if eps >= 1.0 else None
    if eps < 1.0 and len(normals):
        if delta == 0:
            thick = (total - 1) / total     # every nonzero point has margin >= 0
        elif n == 2:
            # directional margin of (z1, z2) against the pair hyperplane of a
            # unit functional is |chi(w)| / (sqrt(2) ||z||): count per
            # difference w with a capped effective radius; the zero
            # difference has margin 0
            func_unit = func_arr / np.linalg.norm(func_arr, axis=1, keepdims=True)
            nz = np.flatnonzero(wn > 0)
            mv = _abs_min(ws[nz].astype(float) @ func_unit.T)
            nz, mv = nz[mv > 0], mv[mv > 0]
            r_eff_sq = np.minimum(float(r_sq), (mv / (math.sqrt(2.0) * delta)) ** 2)
            thick_count = _coset_counts(ws[nz], (r_eff_sq - wn[nz] / 2.0) / 2.0).sum()
            thick = 2 * int(thick_count) / total
        else:
            # the nonzero points of the half ball, as directions
            marg = _unit_margins(lambda start, stop: grid[1 + start:1 + stop].astype(float),
                                 len(grid) - 1, normals)
            thick = float(2 * int((marg >= delta).sum())) / total

    return DensityReport(n=n, rank=ell, radius=float(radius),
                         good_fraction=good_fraction, total_points=total,
                         bad_points=bad_total, eps=eps, delta=delta,
                         thick_fraction=thick, method=method)
