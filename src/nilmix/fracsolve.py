"""Small-divisor solver for fractional directional equations on Fourier lattices,
plus the line-model threshold experiment.

On the frequency lattice the fractional directional operator of order r
along v acts mode-wise by |2 pi z.v|^r (modulus form) or (2 pi i z.v)^r
(signed form, integer r only).  The solver partitions frequencies into a
large-divisor part (sum_j |z.v_j| >= 1), a small-divisor part (< 1) and
the zero mode, picks per frequency the index with the largest |z.v_i|,
and inverts mode-wise.  An exact zero divisor with a nonzero coefficient
is the obstruction the Diophantine hypothesis rules out, and raises.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .fourier import FourierObservable

__all__ = [
    "ObstructionError",
    "project_torus_factor",
    "split_small_divisor",
    "SmallDivisorSplit",
    "solve_fractional",
    "FractionalSolution",
    "sobolev_norm",
    "schrodinger_threshold",
    "ThresholdReport",
]

_TWO_PI = 2.0 * math.pi
_REL_TOL = 1e-6        # relative convergence tolerance of each threshold quadrature cell


class ObstructionError(ArithmeticError):
    """A supported frequency sits exactly on the resonance locus."""

    def __init__(self, frequency, direction_index):
        self.frequency = frequency
        self.direction_index = direction_index
        super().__init__(
            f"exact resonance at frequency {frequency} (direction {direction_index}): "
            f"the directional operator annihilates this mode")


# ---------------------------------------------------------------------------
# Projections and partitions
# ---------------------------------------------------------------------------

def project_torus_factor(f: FourierObservable, directions: Sequence[Sequence]) \
        -> tuple[FourierObservable, FourierObservable]:
    """Split f into the part fixed by the sub-torus and its complement.

    A mode goes to the fixed part iff z.t = 0 for every direction t
    (exact rational test); supports are disjoint and f = fixed + rest.
    """
    dirs = [[Fraction(x) for x in t] for t in directions]
    fixed, rest = {}, {}
    for z, c in f.items():
        if all(sum(Fraction(a) * b for a, b in zip(z, t)) == 0 for t in dirs):
            fixed[z] = c
        else:
            rest[z] = c
    return (FourierObservable(f.dim, fixed, exact=f.exact),
            FourierObservable(f.dim, rest, exact=f.exact))


def _dot(z: tuple, v: Sequence) -> float:
    return float(sum(float(a) * float(b) for a, b in zip(z, v)))


def _dot_exact(z: tuple, v: Sequence) -> Optional[Fraction]:
    if all(isinstance(x, (int, Fraction)) for x in v):
        return sum(Fraction(a) * Fraction(x) for a, x in zip(z, v))
    return None


@dataclass
class SmallDivisorSplit:
    large: FourierObservable       # sum_j |z.v_j| >= 1
    small: FourierObservable       # 0 < sum_j |z.v_j| < 1 (nonzero modes)
    zero_mode: FourierObservable   # the invariant z = 0 coefficient
    selector: dict                 # frequency -> chosen direction index
    dots: dict                     # frequency -> z . v of its chosen direction


def split_small_divisor(f: FourierObservable, directions: Sequence[Sequence]) \
        -> SmallDivisorSplit:
    if not directions:
        raise ValueError("need at least one direction")
    large, small, zero = {}, {}, {}
    selector, chosen = {}, {}
    origin = tuple([0] * f.dim)
    for z, c in f.items():
        if z == origin:
            zero[z] = c
            continue
        dots = [_dot(z, v) for v in directions]
        sizes = [abs(d) for d in dots]
        # first index attaining max_j |z.v_j| (hence >= the average)
        i = sizes.index(max(sizes))
        selector[z], chosen[z] = i, dots[i]
        if math.fsum(sizes) >= 1.0:
            large[z] = c
        else:
            small[z] = c
    return SmallDivisorSplit(
        FourierObservable(f.dim, large, exact=f.exact),
        FourierObservable(f.dim, small, exact=f.exact),
        FourierObservable(f.dim, zero, exact=f.exact),
        selector,
        chosen,
    )


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

@dataclass
class DirectionSolution:
    index: int
    direction: tuple
    order: float
    phi: FourierObservable
    phi_large: FourierObservable
    phi_small: FourierObservable
    norm: float                    # l2 norm of phi
    norm_small: float              # l2 norm of the small-divisor part
    predicted_small_bound: Optional[float] = None


@dataclass
class FractionalSolution:
    order: float
    mode: str
    directions: list
    split: SmallDivisorSplit
    per_direction: list            # DirectionSolution, index order
    residual: float                # sup_z |reconstruction - f_z|
    dropped_mean: bool

    def reconstruction_ok(self, f: FourierObservable, tol: float = 1e-12) -> bool:
        scale = f.max_abs()
        return self.residual <= tol * max(scale, 1e-300)


def _divisor(z: tuple, v: Sequence, d: float, r: float, mode: str):
    """Mode-wise symbol: |2 pi z.v|^r, or (2 pi i z.v)^r for integer r; d is
    the float z.v."""
    exact_dot = _dot_exact(z, v)
    if exact_dot is not None:
        resonant = exact_dot == 0
    else:
        zn = math.sqrt(sum(float(x) ** 2 for x in z))
        vn = math.sqrt(sum(float(x) ** 2 for x in v))
        resonant = abs(d) < 1e-15 * zn * vn
    if resonant:
        return None
    if mode == "modulus":
        return abs(_TWO_PI * d) ** r
    if mode == "signed":
        if abs(r - round(r)) > 1e-12:
            raise ValueError("signed mode needs an integer order")
        return (1j * _TWO_PI * d) ** int(round(r))
    raise ValueError(f"unknown mode {mode!r}")


def solve_fractional(f: FourierObservable, directions: Sequence[Sequence], r: float,
                     mode: str = "modulus",
                     certificate=None) -> FractionalSolution:
    """Solve sum_i |v_i|^r phi_i = f mode-wise on the selector partition.

    f should be mean-zero; a nonzero mean is dropped with a warning (the
    zero mode is invariant and cannot be inverted).  Raises
    ObstructionError on an exact resonance with a nonzero coefficient.
    """
    if r <= 0:
        raise ValueError("order must be positive")
    dirs = [tuple(v) for v in directions]
    split = split_small_divisor(f, dirs)
    dropped_mean = False
    if len(split.zero_mode):
        warnings.warn("observable has a nonzero mean; the invariant mode is dropped",
                      stacklevel=2)
        dropped_mean = True

    # one pass over the modes: each goes to its selected direction
    phis = [({}, {}) for _ in dirs]
    recon: dict = {}
    for part, k in ((split.large, 0), (split.small, 1)):
        for z, c in part.items():
            i = split.selector[z]
            d = _divisor(z, dirs[i], split.dots[z], r, mode)
            if d is None:
                raise ObstructionError(z, i)
            val = complex(c) / d
            phis[i][k][z] = val
            recon[z] = val * d

    bound = None
    if certificate is not None and certificate.c_emp > 0:
        # mode-wise: |z.v_i| >= (C/t) ||z||^{-dimE}  =>
        # ||phi_small|| <= (C/t)^-r (2 pi)^-r ||f||_{dimE * r}
        c_eff = certificate.c_emp / len(dirs)
        bound = (c_eff ** (-r)) * (_TWO_PI ** (-r)) * sobolev_norm(
            f, r * certificate.dim_ambient)
    per_direction = []
    for i, (v, (phi_l, phi_s)) in enumerate(zip(dirs, phis)):
        phi_large = FourierObservable(f.dim, phi_l)
        phi_small = FourierObservable(f.dim, phi_s)
        phi = phi_large + phi_small
        per_direction.append(DirectionSolution(
            index=i, direction=v, order=r, phi=phi,
            phi_large=phi_large, phi_small=phi_small,
            norm=math.sqrt(phi.l2_sq()), norm_small=math.sqrt(phi_small.l2_sq()),
            predicted_small_bound=bound))

    residual = 0.0
    for z, c in f.items():
        if z == tuple([0] * f.dim):
            continue
        residual = max(residual, abs(recon.get(z, 0j) - complex(c)))
    return FractionalSolution(order=r, mode=mode, directions=list(dirs), split=split,
                              per_direction=per_direction, residual=residual,
                              dropped_mean=dropped_mean)


# ---------------------------------------------------------------------------
# Weighted coefficient norms
# ---------------------------------------------------------------------------

def sobolev_norm(f: FourierObservable, s: float,
                 directions: Optional[Sequence[Sequence]] = None) -> float:
    """Weighted coefficient l2 norm.

    Full form: weight (1 + 4 pi^2 ||z||^2)^s.  With directions given, only
    derivatives along them count: weight (1 + 4 pi^2 sum_i |z.v_i|^2)^s.
    Compensated summation in lexicographic frequency order.
    """
    if s < 0:
        raise ValueError("order must be >= 0")
    terms = []
    for z, c in f.items():
        if directions is None:
            w = 1.0 + 4.0 * math.pi ** 2 * sum(float(x) ** 2 for x in z)
        else:
            w = 1.0 + 4.0 * math.pi ** 2 * math.fsum(_dot(z, v) ** 2 for v in directions)
        terms.append((w ** s) * abs(complex(c)) ** 2)
    return math.sqrt(math.fsum(terms))


# ---------------------------------------------------------------------------
# Line-model threshold experiment
# ---------------------------------------------------------------------------

Profile = Union[Callable[[float], float], Sequence]


def _profile_callable(profile: Profile) -> Callable[[float], float]:
    if callable(profile):
        return profile
    return _sampled_profile(tuple(sorted((float(x), float(y)) for x, y in profile)))


@functools.lru_cache(maxsize=8)
def _sampled_profile(pts: tuple) -> Callable[[float], float]:
    """Linear interpolation of sorted samples; one callable per sample set,
    so the threshold runs of one sweep share their quadrature cells."""
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if len(xs) < 2:
        raise ValueError("sampled profile needs at least two points")

    def interp(x: float) -> float:
        return float(np.interp(x, xs, ys))

    return interp


def _dyadic_integral(g: Callable[[float], float], r: float, h: float) -> float:
    """integral over h <= |x| <= 1 of g(x)^2 |x|^{-2r} dx.

    Sums the cells [2^-j-1, 2^-j] and their mirror images (the cell
    containing h is truncated) in order of decreasing |x|.
    """
    if not 0 < h < 1:
        raise ValueError("need 0 < h < 1")
    total = 0.0
    b = 1.0
    while b > h:
        a = max(h, b / 2.0)
        total += _cell(g, r, a, b, _REL_TOL)
        total += _cell(g, r, -b, -a, _REL_TOL)
        b = a
    return total


@functools.lru_cache(maxsize=1024)
def _cell(g: Callable[[float], float], r: float, a: float, b: float,
          rel_tol: float) -> float:
    """Memo of _cell_quadrature: the cutoffs h, h/4, h/16 of a threshold run,
    and every cutoff of a sweep over one profile callable, share their cells."""
    return _cell_quadrature(g, r, a, b, rel_tol)


def _cell_quadrature(g: Callable[[float], float], r: float, a: float, b: float,
                     rel_tol: float) -> float:
    """Composite midpoint rule for g(x)^2 |x|^{-2r} on [a, b]; the point
    count doubles until two successive values agree to rel_tol."""
    n = 32
    prev = None
    while True:
        xs = a + (b - a) * (np.arange(n) + 0.5) / n
        vals = np.array([g(x) ** 2 for x in xs.tolist()]) * np.abs(xs) ** (-2.0 * r)
        out = float(vals.sum() * (b - a) / n)
        if prev is not None and abs(out - prev) <= rel_tol * max(abs(out), 1e-300):
            return out
        prev = out
        n *= 2
        if n > 1 << 16:
            return out


@dataclass
class ThresholdReport:
    order: float
    cutoff: float
    value: float
    refinement: list               # (h_k, I(r, h_k)) at shrinking cutoffs
    verdict: str                   # "convergent" | "divergent-log" | "divergent-power"
    details: str = ""


def schrodinger_threshold(profile: Profile, r: float, h: float) -> ThresholdReport:
    """Quadrature value of the line-model quadratic form with origin cutoff.

    The verdict classifies the h -> 0 behavior from three refinements:
    Cauchy differences (convergent), growth ~ log(1/h) (order exactly 1/2
    with nonvanishing profile), or growth ~ h^{1-2r} (order above 1/2).
    """
    if r <= 0:
        raise ValueError("order must be positive")
    g = _profile_callable(profile)
    hs = [h, h / 4.0, h / 16.0]
    vals = [_dyadic_integral(g, r, hk) for hk in hs]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    scale = max(abs(vals[0]), 1e-300)

    if abs(d1) <= 64.0 * _REL_TOL * scale and abs(d2) <= 64.0 * _REL_TOL * scale:
        verdict, details = "convergent", f"Cauchy differences {d1:.3e}, {d2:.3e}"
    else:
        # tail of the cutoff integral scales like h^q: the refinement ratio
        # d2/d1 = 4^{-q} estimates q; q = 0 is the logarithmic boundary
        ratio = d2 / d1 if d1 else math.inf
        q_est = -math.log(ratio, 4.0) if ratio > 0 else math.inf
        if q_est > 0.01:
            verdict = "convergent"
            details = f"tail exponent ~ {q_est:.4g} > 0 (ratio {ratio:.4g})"
        elif q_est >= -0.01:
            verdict = "divergent-log"
            details = (f"tail exponent ~ {q_est:.2g} == 0; "
                       f"I/log(1/h) near {vals[-1] / math.log(1.0 / hs[-1]):.6g}")
        else:
            verdict = "divergent-power"
            details = (f"difference growth ratio {ratio:.3g} "
                       f"(constant profile predicts {4.0 ** (2 * r - 1):.3g})")
    return ThresholdReport(order=r, cutoff=h, value=vals[0],
                           refinement=list(zip(hs, vals)), verdict=verdict,
                           details=details)
