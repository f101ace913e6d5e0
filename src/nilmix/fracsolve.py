"""Small-divisor solver for fractional directional equations on Fourier lattices,
plus the line-model threshold experiment.

On the frequency lattice the fractional directional operator of order r
along v acts mode-wise by |2 pi z.v|^r (modulus form) or (2 pi i z.v)^r
(signed form, integer r only).  The solver partitions frequencies into a
large-divisor part (sum_j |z.v_j| >= 1), a small-divisor part (< 1) and
the zero mode, picks per frequency the index with the largest |z.v_i|,
and inverts mode-wise.  An exact zero divisor with a nonzero coefficient
is the obstruction the Diophantine hypothesis rules out, and raises.

A threshold profile is a function of a float64 array of points that
returns their values (an array of the same shape, or a scalar, which
broadcasts: `lambda x: 1.0` is the constant profile), or a list of (x, y)
samples, interpolated linearly.  Each sweep integrates one dyadic ladder
of cells for all its cutoffs, calling the profile once per refinement level
on the midpoints of every cell still refining (at most _MAX_POINTS points a
call); no cell outlives the call.  Every square, g(x)^2 and the norms', is
the IEEE product x * x (`fourier._pow`), correctly rounded on every
platform.  Other powers stay on libm's scalar `pow`, as Python's float **
rounds: the Sobolev weight w^s (s != 2), and the solver's symbols
|2 pi z.v|^r at every order (x * x at r = 2 would move solve's pins).  A
profile that needs `exp` or another transcendental takes it from libm
(`math.exp` mapped over the points), as numpy's `exp` differs from it in the
last bit for some doubles, and every reported value is pinned to the bit.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exactlin import _integral
from .fourier import FourierObservable, _ordered_sum, _overflow_refused, _pow, _square_sum

__all__ = [
    "ObstructionError",
    "project_torus_factor",
    "split_small_divisor",
    "SmallDivisorSplit",
    "solve_fractional",
    "FractionalSolution",
    "sobolev_norm",
    "schrodinger_threshold",
    "threshold_sweep",
    "ThresholdReport",
]

_TWO_PI = 2.0 * math.pi
_REL_TOL = 1e-6        # relative convergence tolerance of each threshold quadrature cell
_MAX_POINTS = 1 << 16  # a cell's finest midpoint count, and the most points a profile call takes


class ObstructionError(ArithmeticError):
    """A supported frequency sits exactly on the resonance locus."""

    def __init__(self, frequency, direction_index):
        self.frequency = frequency
        self.direction_index = direction_index
        super().__init__(
            f"exact resonance at frequency {frequency} (direction {direction_index}): "
            f"the directional operator annihilates this mode")


# ---------------------------------------------------------------------------
# Argument checks
# ---------------------------------------------------------------------------

def _dims(f: FourierObservable, directions: Sequence[Sequence]) -> list:
    """The directions as tuples of finite entries, one per coordinate of f."""
    dirs = [tuple(v) for v in directions]
    if any(len(v) != f.dim for v in dirs):
        raise ValueError(f"every direction needs {f.dim} entries, one per frequency coordinate")
    if not all(abs(x) < math.inf for v in dirs for x in v):     # exact for ints and Fractions
        raise ValueError("direction entries must be finite")
    return dirs


def _floats(dirs: list) -> np.ndarray:
    """The directions as float64 rows, each entry converted once."""
    try:
        return np.array([[float(x) for x in v] for v in dirs], dtype=np.float64)
    except OverflowError:
        raise ValueError("a direction entry is beyond the double range") from None


def _check_solve(f: FourierObservable, directions: Sequence[Sequence], r: float,
                 mode: str) -> tuple:
    """solve_fractional's arguments, checked once up front; returns the
    directions and their float64 rows."""
    if r <= 0:
        raise ValueError("order must be positive")
    if mode not in ("modulus", "signed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "signed" and abs(r - round(r)) > 1e-12:
        raise ValueError("signed mode needs an integer order")
    dirs = _dims(f, directions)
    rows = _floats(dirs)
    if not all(v.any() for v in rows):
        raise ValueError("zero direction vector")
    return dirs, rows


# ---------------------------------------------------------------------------
# Projections and partitions
# ---------------------------------------------------------------------------

def _orthogonal(freqs: np.ndarray, v: Sequence) -> np.ndarray:
    """Rows z with z.v = 0 exactly (v of ints, Fractions or floats)."""
    return freqs.astype(object).dot(_integral([Fraction(x) for x in v])[0]) == 0


def _dots(freqs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m, t) float z.v_i of each frequency and direction row, added coordinate
    by coordinate."""
    dots = [_ordered_sum(freqs * v) for v in rows]
    return np.array(dots).reshape(len(rows), len(freqs)).T


def project_torus_factor(f: FourierObservable, directions: Sequence[Sequence]) \
        -> tuple[FourierObservable, FourierObservable]:
    """Split f into the part fixed by the sub-torus and its complement.

    A mode goes to the fixed part iff z.t = 0 for every direction t
    (exact rational test); supports are disjoint and f = fixed + rest.
    """
    fixed = np.ones(len(f), dtype=bool)
    for t in _dims(f, directions):
        fixed &= _orthogonal(f.freqs, t)
    return f._take(fixed), f._take(~fixed)


@dataclass
class SmallDivisorSplit:
    large: FourierObservable       # sum_j |z.v_j| >= 1
    small: FourierObservable       # 0 < sum_j |z.v_j| < 1 (nonzero modes)
    zero_mode: FourierObservable   # the invariant z = 0 coefficient
    selector: np.ndarray           # per frequency of f: chosen direction index, -1 at z = 0
    dots: np.ndarray               # per frequency of f: z . v of its chosen direction


def split_small_divisor(f: FourierObservable, directions: Sequence[Sequence]) \
        -> SmallDivisorSplit:
    return _split(f, _floats(_dims(f, directions)))[0]


def _split(f: FourierObservable, rows: np.ndarray) -> tuple:
    """The split by the float64 direction rows, and the mask of f's large rows."""
    if not len(rows):
        raise ValueError("need at least one direction")
    dots = _dots(f.freqs, rows)
    sizes = np.abs(dots)
    origin = ~f.freqs.any(axis=1)
    best = sizes.argmax(axis=1)    # first index attaining max_j |z.v_j| (hence >= the average)
    # the correctly rounded sum of the sizes: for one or two, their IEEE sum
    total = sizes.sum(axis=1) if len(rows) <= 2 else \
        np.fromiter(map(math.fsum, sizes.tolist()), float, len(f))
    large = ~origin & (total >= 1.0)
    return SmallDivisorSplit(
        f._take(large), f._take(~origin & ~large), f._take(origin),
        np.where(origin, -1, best), np.where(origin, 0.0, dots[np.arange(len(f)), best]),
    ), large


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

@dataclass
class DirectionSolution:
    index: int
    direction: tuple
    order: float
    phi: FourierObservable
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

    def reconstruction_ok(self, f: FourierObservable) -> bool:
        return self.residual <= 1e-12 * max(f.max_abs(), 1e-300)


def _symbols(d: np.ndarray, r: float, mode: str, freqs: np.ndarray) -> tuple:
    """Parts of the mode-wise symbol |2 pi d|^r, or (2 pi i d)^r, at the frequencies
    freqs by Python's scalar pow in solving order; a zero symbol raises as dividing
    by it does, and one beyond the doubles raises ArithmeticError naming it."""
    if mode == "modulus":
        bases, n = np.abs(_TWO_PI * d).tolist(), r
    else:
        bases, n = list(map(operator.mul, repeat(1j * _TWO_PI), d.tolist())), int(round(r))
    try:                    # a float symbol divides as complex(d, 0.0)
        out = np.fromiter(map(pow, bases, repeat(n)), dtype=complex, count=len(bases))
        if out.all():
            return out.real, out.imag
    except OverflowError:
        pass
    for k, b in enumerate(bases):           # some symbol fails: raise at the first
        try:
            symbol = b ** n
        except OverflowError:
            raise ArithmeticError(f"{mode} symbol of order {r} at frequency "
                                  f"{tuple(freqs[k].tolist())} overflows a double") from None
        if not symbol:
            raise ZeroDivisionError("complex division by zero")


def _quot(ar, ai, br, bi) -> tuple:
    """a / b (b nonzero) by parts, as Python divides complex numbers (Smith's method)."""
    big = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):                 # Python's complex division never warns
        ratio = np.where(big, bi / br, br / bi)
        den = np.where(big, br + bi * ratio, br * ratio + bi)
        return (np.where(big, ar + ai * ratio, ar * ratio + ai) / den,
                np.where(big, ai - ar * ratio, ai * ratio - ar) / den)


def solve_fractional(f: FourierObservable, directions: Sequence[Sequence], r: float,
                     mode: str = "modulus",
                     certificate=None) -> FractionalSolution:
    """Solve sum_i |v_i|^r phi_i = f mode-wise on the selector partition.

    f should be mean-zero; a nonzero mean is dropped with a warning (the
    zero mode is invariant and cannot be inverted).  Raises
    ObstructionError on an exact resonance with a nonzero coefficient.
    The modes are solved as arrays, large ones first, then small ones,
    with Python's float rounding throughout.
    """
    dirs, vs = _check_solve(f, directions, r, mode)
    split, large = _split(f, vs)
    dropped_mean = bool(len(split.zero_mode))
    if dropped_mean:
        warnings.warn("observable has a nonzero mean; the invariant mode is dropped",
                      stacklevel=2)

    rows = np.concatenate([np.flatnonzero(large), np.flatnonzero((split.selector >= 0) & ~large)])
    sel, d = split.selector[rows], split.dots[rows]
    # resonant: z.v = 0 exactly for a rational v, else |z.v| < 1e-15 ||z|| ||v||
    zn = np.sqrt(_ordered_sum(_pow(f.freqs[rows].astype(np.float64), 2)))
    vn = np.array([math.hypot(*v) for v in vs.tolist()])
    resonant = np.abs(d) < 1e-15 * zn * vn[sel]
    for i, v in enumerate(dirs):
        if all(isinstance(x, (int, Fraction)) for x in v):
            resonant[sel == i] = _orthogonal(f.freqs[rows[sel == i]], v)
    stop = int(resonant.argmax()) if resonant.any() else len(rows)
    sr, si = _symbols(d[:stop], r, mode, f.freqs[rows[:stop]])
    if stop < len(rows):
        raise ObstructionError(tuple(f.freqs[rows[stop]].tolist()), int(sel[stop]))
    cr, ci = (p[rows] for p in f._parts(False))
    vr, vi = _quot(cr, ci, sr, si)
    # sup |val * symbol - c| by Python's complex product; max() skips a nan
    with np.errstate(all="ignore"):
        recon = np.hypot(vr * sr - vi * si - cr, vr * si + vi * sr - ci)
    residual = float(np.fmax.reduce(recon, initial=0.0))

    bound = None
    if certificate is not None and certificate.c_emp > 0:
        # mode-wise: |z.v_i| >= (C/t) ||z||^{-dimE}  =>
        # ||phi_small|| <= (C/t)^-r (2 pi)^-r ||f||_{dimE * r}
        c_eff = certificate.c_emp / len(dirs)
        bound = (c_eff ** (-r)) * (_TWO_PI ** (-r)) * sobolev_norm(
            f, r * certificate.dim_ambient)
    small = ~large[rows]
    vr[small] += 0.0        # phi = large part + small part: 0.0 + -0.0 is 0.0
    vi[small] += 0.0
    phi_re, phi_im = np.zeros(len(f)), np.zeros(len(f))
    phi_re[rows], phi_im[rows] = vr, vi
    per_direction = []
    for i, v in enumerate(dirs):
        on = split.selector == i
        phi = FourierObservable._of(f.dim, f.freqs[on], phi_re[on], phi_im[on], False)
        on = (sel == i) & small
        per_direction.append(DirectionSolution(
            index=i, direction=v, order=r, phi=phi, norm=math.sqrt(phi.l2_sq()),
            norm_small=math.sqrt(_square_sum(vr[on], vi[on], f"small-part norm {i}")),
            predicted_small_bound=bound))
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
    norm = f"Sobolev norm of order {s}"
    with _overflow_refused(norm):          # the weights overflow as the sum would
        if directions is None:
            sq = _ordered_sum(_pow(f.freqs.astype(np.float64), 2))
        else:
            sq = _pow(_dots(f.freqs, _floats(_dims(f, directions))), 2).tolist()
            sq = np.fromiter(map(math.fsum, sq), float, len(f))
        w = 1.0 + 4.0 * math.pi ** 2 * sq
    return math.sqrt(_square_sum(*f._parts(False), norm, w, s))


# ---------------------------------------------------------------------------
# Line-model threshold experiment
# ---------------------------------------------------------------------------

Profile = Union[Callable[[np.ndarray], np.ndarray], Sequence]


def _profile_callable(profile: Profile) -> Callable[[np.ndarray], np.ndarray]:
    """The profile as an array function; samples are interpolated linearly."""
    if callable(profile):
        return profile
    pts = sorted((float(x), float(y)) for x, y in profile)
    if len(pts) < 2:
        raise ValueError("sampled profile needs at least two points")
    xs, ys = np.array(pts).T
    return functools.partial(np.interp, xp=xs, fp=ys)


def _dyadic_integrals(g: Callable[[np.ndarray], np.ndarray], orders: tuple,
                      cutoffs: Sequence[float]) -> list:
    """integral over h <= |x| <= 1 of g(x)^2 |x|^{-2r} dx per cutoff h, a tuple over
    the orders r.  One ladder of cells [b/2, b] and their mirror images runs down to
    the smallest cutoff; a cutoff h in (b/2, b) adds the cell [h, b] to the totals
    of the whole cells above it.  The cells are listed first and integrated
    together; every sum runs in order of decreasing |x|."""
    if not all(0 < h < 1 for h in cutoffs):
        raise ValueError("need 0 < h < 1")
    steps = []                      # (a, b, whether [a, b] is a whole cell)
    b, low = 1.0, min(cutoffs, default=1.0)
    while b > low:
        steps += [(h, b, False) for h in set(cutoffs) if b / 2.0 < h < b]
        b /= 2.0
        if b >= low:
            steps.append((b, 2.0 * b, True))
    vals = _cell_quadratures(g, orders, [c for a, b, _ in steps for c in ((a, b), (-b, -a))])
    out = {}                        # the totals down to a, per lower end a of a step
    totals = (0.0,) * len(orders)
    for (a, _, whole), cell, mirror in zip(steps, vals[::2], vals[1::2]):
        out[a] = tuple(t + c + m for t, c, m in zip(totals, cell, mirror))
        if whole:
            totals = out[a]
    return [out[h] for h in cutoffs]


def _cell_quadratures(g: Callable[[np.ndarray], np.ndarray], orders: tuple,
                      cells: list) -> list:
    """Composite midpoint rule for g(x)^2 |x|^{-2r} on each cell [a, b], for each
    order r.  A cell's point count doubles until two successive values of an order
    agree to _REL_TOL, and that order keeps its value; the cell stops when every
    order has one, or at _MAX_POINTS points.  Each level integrates the cells still
    refining together: g is called on their midpoints as one flat array of at most
    _MAX_POINTS points, and each cell's row of the C-ordered (cells, n) values sums
    as its own 1-D array would.  The squares serve every order; a finite g(x) whose
    square overflows makes the cell's refining orders inf (_report refuses them)."""
    a, b = np.array(cells, dtype=np.float64).reshape(-1, 2).T
    vals = np.full((len(cells), len(orders)), math.nan)
    refining = np.ones(vals.shape, dtype=bool)
    n = 32
    while n <= _MAX_POINTS and refining.any():
        live = np.flatnonzero(refining.any(axis=1))
        step = max(1, _MAX_POINTS // n)
        for start in range(0, len(live), step):
            rows = live[start:start + step]
            xs = a[rows, None] + (b - a)[rows, None] * (np.arange(n) + 0.5) / n
            y = np.asarray(g(xs.ravel()), dtype=np.float64)
            y = np.broadcast_to(y, (xs.size,)).reshape(xs.shape)
            with np.errstate(over="ignore", invalid="ignore"):   # _report refuses inf, nan
                sq = y * y              # fourier._pow's square, overflow flagged per cell
                over = (np.isinf(sq) & np.isfinite(y)).any(axis=1)
                ax = np.abs(xs)
                for i, r in enumerate(orders):
                    on = refining[rows, i] & ~over
                    k = rows[on]
                    out = (sq[on] * ax[on] ** (-2.0 * r)).sum(axis=1) * (b - a)[k] / n
                    refining[k, i] = ~(np.abs(out - vals[k, i])
                                       <= _REL_TOL * np.maximum(np.abs(out), 1e-300))
                    vals[k, i] = out
            k = rows[over]
            vals[k] = np.where(refining[k], math.inf, vals[k])
            refining[k] = False
        n *= 2
    return vals.tolist()


@dataclass
class ThresholdReport:
    order: float
    cutoff: float
    value: float
    refinement: list               # (h_k, I(r, h_k)) at shrinking cutoffs
    verdict: str                   # "convergent" | "divergent-log" | "divergent-power"
    details: str = ""


def schrodinger_threshold(profile: Profile, r: float, h: float) -> ThresholdReport:
    """Quadrature value of the line-model quadratic form with origin cutoff:
    the one-order case of threshold_sweep."""
    return threshold_sweep(profile, (r,), (h,))[0][0]


def threshold_sweep(profile: Profile, orders: Sequence[float],
                    cutoffs: Sequence[float]) -> list:
    """Per cutoff h, in the order given, one ThresholdReport per order.

    profile is an array function or a list of (x, y) samples (see the
    module docstring).  The verdict classifies the h -> 0 behavior from the
    refinements h, h/4, h/16: Cauchy differences (convergent), growth ~
    log(1/h) (order exactly 1/2 with nonvanishing profile), or growth ~
    h^{1-2r} (order above 1/2).  A value not a finite double raises
    ArithmeticError.
    """
    orders = tuple(orders)
    if any(r <= 0 for r in orders):
        raise ValueError("order must be positive")
    hs = [[h, h / 4.0, h / 16.0] for h in cutoffs]
    vals = _dyadic_integrals(_profile_callable(profile), orders, sum(hs, []))
    return [[_report(r, row, [v[i] for v in vals[3 * k:3 * k + 3]])
             for i, r in enumerate(orders)] for k, row in enumerate(hs)]


def _report(r: float, hs: list, vals: list) -> ThresholdReport:
    """The report of order r from its values at the refinements hs."""
    if not all(map(math.isfinite, vals)):
        raise ArithmeticError(f"order {r} at cutoff {hs[0]}: the threshold integrals "
                              f"{vals} at {hs} are not all finite doubles")
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
    return ThresholdReport(order=r, cutoff=hs[0], value=vals[0],
                           refinement=list(zip(hs, vals)), verdict=verdict,
                           details=details)
