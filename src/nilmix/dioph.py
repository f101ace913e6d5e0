"""Empirical Diophantine certificates over lattice balls.

A subspace direction set {v_1..v_t} inside Z^dimE is certified over the
ball ||m|| <= R by the exact minimum of

    f(m) = ||m||^dimE * sum_i |m . v_i|,       0 != m in Z^dimE

with a deterministic lexicographic argmin tie-break.  The scan is
symmetry-reduced (m and -m give equal values; the canonical
representative has positive first nonzero coordinate).

Two scan engines produce the identical ball minimum:

* a literal full scan for balls up to a size threshold, over the cached
  lines of the ball (the points that share their first d - 1 coordinates,
  whose prefixes ``_half_ball``, which also serves the density counts,
  builds exactly): a closed-form float64 bound per line, with a proven
  rounding margin, skips the lines that cannot reach the minimum, and the
  points that could still attain it are evaluated exactly, in Python-int
  keys over one common denominator (a float64 direction is a dyadic rational);
* a pruned scan for large balls: after a seed full scan out to a small
  radius s, a lattice point that could still attain the running minimum C
  must satisfy |m . v| <= C / max(||p||, s)^dimE for the dominant direction
  v, where p are the coordinates of m off the largest axis of v.  Split by
  ||p|| into dyadic shells, these candidates lie in one thin ellipsoid per
  shell, whose lattice points are enumerated (LLL reduction in exact
  integers, then a vectorized Fincke-Pohst search, one pass over consecutive
  shells whose box bounds sum to at most _SCREEN_BLOCK, a larger shell alone)
  and admitted by the same float64 test that decided them when the scan
  swept every p, then screened and evaluated like the full scan's points.
  Every candidate at or below the seed minimum is provably evaluated.  Work
  and memory follow the number of candidates; a scan whose candidate bound
  exceeds a fixed limit raises MemoryError before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exactlin import (RationalMatrix, _int_einsum, _integral, _rref, integer_kernel,
                       lyapunov_data)
from .nilalg import NilpotentAlgebra, abelian_algebra, is_ergodic

__all__ = [
    "DiophantineCertificate",
    "diophantine_certificate",
    "certify_structural_subspaces",
    "type_i_subspace",
]

_FULL_SCAN_LIMIT = 3_000_000       # lattice points; beyond this the pruned engine runs
_FLOAT_DOWN = 1.0 - 1e-13          # directed-rounding margin on reported float-direction minima
_SCREEN_BLOCK = 1 << 15            # points (or lines x t^2 candidates) per float64 block


@dataclass
class DiophantineCertificate:
    directions: list                  # the tested basis vectors (as given)
    dim_ambient: int
    radius: float
    c_emp: float                      # certified-down empirical constant
    c_emp_sq_exact: Optional[Fraction]  # exact (||m||^2)^d (sum|m.v|)^2; None for float directions
    argmin: tuple
    passed: bool                      # True iff no exact resonance found (c_emp > 0)
    points_scanned: int

    def __repr__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"DiophantineCertificate(C_emp={self.c_emp:.6g} at m={self.argmin}, "
                f"R={self.radius:g}, {verdict})")


def _ball_point_count(dim: int, radius: float) -> float:
    unit = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0, 4: math.pi ** 2 / 2.0}
    v = unit.get(dim, math.pi ** (dim / 2) / math.gamma(dim / 2 + 1))
    try:
        return v * radius ** dim
    except OverflowError:             # R^d beyond the double range
        return math.inf


def _first_sign(pts: np.ndarray) -> np.ndarray:
    """Sign of each row's first nonzero coordinate (0 for a zero row)."""
    first = (pts != 0).argmax(axis=1)
    return np.sign(pts[np.arange(len(pts)), first])


def _radius_sq(radius: float) -> int:
    """Integer bound on ||m||^2 for the ball of a float radius (1e-9 slack)."""
    return math.floor(radius * radius + 1e-9)


def _is_rational_input(vs) -> bool:
    return all(isinstance(x, (int, Fraction)) for v in vs for x in v)


# ---------------------------------------------------------------------------
# Full scan (float64 screen; exact survivors)
# ---------------------------------------------------------------------------

def _ipow_half(nsq: np.ndarray, dim: int) -> np.ndarray:
    """nsq^(dim/2) by repeated squaring and a sqrt: at most dim + 1 roundings, in a fixed order."""
    out = np.ones_like(nsq)
    half = nsq
    e = dim // 2
    while e:
        if e & 1:
            out = out * half
        e >>= 1
        if e:
            half = half * half
    if dim % 2:
        out = out * np.sqrt(nsq)
    return out


def _half_ball(dim: int, r_sq: int, dtype) -> tuple:
    """One of each pair +-x of the integer points with ||x||^2 <= r_sq, rows of
    the given dtype in lexicographic order (the zero row, then those whose first
    nonzero coordinate is positive), and their exact int64 squared norms.  Each
    prefix with partial norm s extends by the x with |x| <= isqrt(r_sq - s) in
    increasing order, only x >= 0 after an all-zero prefix, so no point outside
    the half ball is made.  Each level keeps only its coordinates and widths;
    column k is then written once, level k's coordinates repeated by their
    descendant counts.  The float sqrt floors exactly below 2^52."""
    norms = np.zeros(1, dtype=np.int64)
    coords, widths = [], []
    for _ in range(dim):
        reach = np.sqrt((r_sq - norms).astype(np.float64)).astype(np.int64)
        low = np.where(norms > 0, reach, 0)
        width = low + reach + 1
        x = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width + low, width)
        norms = np.repeat(norms, width) + x * x
        coords.append(x.astype(dtype))
        widths.append(width)
    rows = np.empty((len(norms), dim), dtype=dtype)
    count = np.ones(len(norms), dtype=np.int64)
    for k in range(dim - 1, -1, -1):
        rows[:, k] = np.repeat(coords[k], count)
        count = np.add.reduceat(count, np.cumsum(widths[k]) - widths[k])
    return rows, norms


@lru_cache(maxsize=4)
def _lattice_ball(dim: int, radius: float) -> tuple:
    """The lines of the half ball of _radius_sq(radius) without its zero row,
    cached and read-only: prefixes p (exact float64 rows), ||p||^2, the range
    lo..hi of the last coordinate (y >= 1 on p = 0) and the least norm power
    max(||p||^2, 1)^(d/2).  Expanded in order, y increasing, they are its rows."""
    r_sq = _radius_sq(radius)
    pre, nsq = _half_ball(dim - 1, r_sq, np.float64)
    hi = np.sqrt((r_sq - nsq).astype(np.float64)).astype(np.int64)
    nsq = nsq.astype(np.float64)
    lines = pre, nsq, np.where(nsq > 0, -hi, 1), hi, _ipow_half(np.maximum(nsq, 1.0), dim)
    for a in lines:
        a.setflags(write=False)
    return lines


def _expand(hi: np.ndarray, keep: np.ndarray, end: np.ndarray, rows: np.ndarray) -> tuple:
    """Line index and y of rows of the lines keep, expanded in order (end: cumulative sizes)."""
    k = np.searchsorted(end, rows, side="right")
    return keep[k], hi[keep[k]] - (end[k] - 1 - rows)


def _lex_best(grid: np.ndarray, f: np.ndarray):
    """Minimum of f with lexicographic tie-break on the lattice point."""
    ties = np.nonzero(f == f.min())[0]
    best_i = ties[np.lexsort(grid[ties].T[::-1])[0]]
    return f[best_i], tuple(int(x) for x in grid[best_i])


def _sqrt_nearest(q: Fraction) -> float:
    """The double nearest sqrt(q), ties to even, for a Fraction q >= 0: the isqrt of
    q 4^k (a root of at least 2^54) with a sticky bit, rounded once by Python ints."""
    k = max(0, (110 - q.numerator.bit_length() + q.denominator.bit_length()) // 2)
    n, rest = divmod(q.numerator << 2 * k, q.denominator)
    r = math.isqrt(n)
    return (2 * r + (rest != 0 or r * r != n)) / (1 << k + 1)   # int / int rounds correctly


def _minimum(pts: np.ndarray, rows: list, dim: int):
    """Exact minimum of f^2 over the points pts and its lexicographic argmin: the
    least Python-int key (||m||^2)^d (sum_j |m . W_j|)^2 of the rows' integer
    numerators W over one common denominator den, over den^2.  The sums are
    int64 where they provably fit, and a zero sum (f = 0) needs no keys."""
    w, den = _integral(rows)
    s = np.abs(_int_einsum("pi,ji->pj", pts, w, sums=len(w))).sum(axis=1)
    if s.min() == 0:
        return Fraction(0), _lex_best(pts, s)[1]
    key, arg = _lex_best(pts, (pts * pts).sum(1).astype(object) ** dim * s.astype(object) ** 2)
    return Fraction(key, den * den), arg


def _screen(rows: list, dim: int, radius: float) -> tuple:
    """The rows' float64 copy v64 and the proven bound err on |f64 - F| over the ball."""
    v64 = np.array([[float(x) for x in r] for r in rows])
    e = max(1e-12, (2 * dim + len(v64) + 2) * 2.0 ** -50) * (radius + 1.0) ** (dim + 1)
    with np.errstate(over="ignore"):        # a norm beyond the doubles: err is inf
        return v64, e * max(float(np.linalg.norm(v64, axis=1).sum()), 1e-280)


def _near_min(f64: np.ndarray, err: float) -> np.ndarray:
    """Indices of f64 <= min(f64) + 2 err, the rows that can attain the minimum (NaN: all)."""
    return np.flatnonzero(~(f64 > f64.min() + 2.0 * err))


def _scan_full(rows: list, dim: int, radius: float):
    """Exact minimum f^2, lexicographic argmin and point count of f over the
    ball for rational rows (Fractions, or float64 values as Fractions),
    screened line by line in float64 with their float64 copy v64 (_screen).

    f64 at m = (p, y) is ||m||^d sum_j |p . v_j[:-1] + y v_j[-1]|, with ||m||^2
    exact.  Let u = 2^-53.  Against the exact F(m) = ||m||^d sum_j |m . v_j|,
    to first order in u: rounding v_j moves m . v_j by at most
    u sum_i |m_i v_ji|, a d-term dot product (any order, with or without FMA)
    by d u sum_i |m_i v_ji| <= d u ||m|| ||v_j||; the t-term sum is off by
    (t - 1) u of itself, the norm power (_ipow_half) by (d + 1) u, and the
    product rounds once more.  So in any order of summation, as ||m|| <= R,

        |f64(m) - F(m)| <= err = e (R + 1)^(d + 1) sum_j ||v_j||_2

    with e = max(1e-12, (2d + t + 2) 2^-50), twice the summed first-order
    bounds or more: the slack covers the second-order terms and the rounding
    of sum_j ||v_j|| and of the thresholds below.  Underflow adds at most
    ~(d + t) 2^-1074 R^(d+1), inside the floor 1e-280 on sum_j ||v_j||.

    On the line of p, ||m||^2 >= max(||p||^2, 1) and S(y) = sum_j |m . v_j| is
    convex and piecewise linear, least on the integers of [lo, hi] next to a
    zero y*_j = -(p . v_j[:-1]) / v_j[-1] clipped to [lo, hi].  The line's
    bound B is max(||p||^2, 1)^(d/2) times the least float64 S at c_j and
    min(c_j + 1, hi), c_j the floor of each float64 y*_j so clipped (NaN read
    as lo).  Their errors delta_j, |v_j[-1]| delta_j <= (d + 3) u R ||v_j||, add
    at most 2 sum_j |v_j[-1]| delta_j to the least S (a subnormal v_j[-1] moves
    S by < 2^-1021 R along the line), so B exceeds a lower bound of F on the
    line by at most (4d + t + 8) u R^(d+1) sum_j ||v_j|| <= err.  With U the
    least f64 at these points, the minimum L of F is at most U + err, and a
    minimizer's line has B <= L + err <= U + 2 err: lines with B > U + 2 err
    are skipped.  The points of the others are evaluated in float64, in
    blocks of _SCREEN_BLOCK rows; every point attaining L has f64 <= L + err
    <= min(f64) + 2 err and is kept (_near_min), then evaluated exactly
    (_minimum).  A NaN or an infinite err (float64 products beyond the double
    range) keeps every line and point.
    """
    pre, nsq, lo, hi, low_pow = _lattice_ball(dim, radius)
    v64, err = _screen(rows, dim, radius)
    a, b = v64[:, :-1], v64[:, -1:]
    bound, u, step = np.empty(len(lo)), np.inf, max(1, _SCREEN_BLOCK // len(v64) ** 2)
    for blk in (slice(i, i + step) for i in range(0, len(lo), step)):
        s = a @ pre[blk].T                         # row j: p . v_j[:-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # inf is clipped
            y = np.floor(np.fmin(np.fmax(-s / b, lo[blk]), hi[blk]))
        y = np.concatenate((y, np.minimum(y + 1, hi[blk])))
        sums = np.abs(s[:, None] + y * b[:, :, None]).sum(axis=0)
        bound[blk] = low_pow[blk] * sums.min(axis=0)
        u = np.minimum(u, (_ipow_half(nsq[blk] + y * y, dim) * sums).min())   # NaN stays
    keep = np.flatnonzero(~(bound > u + 2.0 * err))
    end = np.cumsum(hi[keep] - lo[keep] + 1)
    f64 = np.empty(end[-1])
    for start in range(0, len(f64), _SCREEN_BLOCK):
        li, y = _expand(hi, keep, end, np.arange(start, min(start + _SCREEN_BLOCK, len(f64))))
        sums = np.abs(a @ pre[li].T + y * b).sum(axis=0)
        f64[start:start + len(y)] = _ipow_half(nsq[li] + y * y, dim) * sums
    li, y = _expand(hi, keep, end, _near_min(f64, err))
    fsq, arg = _minimum(np.column_stack((pre[li], y)).astype(np.int64), rows, dim)
    return fsq, arg, int((hi - lo).sum()) + len(lo)


# ---------------------------------------------------------------------------
# Pruned scan (large balls): shelled lattice enumeration
# ---------------------------------------------------------------------------

_ENUM_LIMIT = 60_000_000   # candidate bound above which a pruned scan is refused
_ENUM_SLACK = 1e-6         # over-cover of the enumerated ellipsoids (relative and absolute)


def _lll(gram: Sequence) -> tuple:
    """Integral LLL reduction (delta = 99/100) of a positive-definite integer Gram matrix.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7,
    in Python integers.  Returns ``(h, dets, lam)``: the rows of the
    unimodular ``h`` are the reduced basis in the input basis, ``dets[i]`` is
    the Gram determinant of its first ``i`` vectors and ``lam[k][j] =
    dets[j + 1] * mu_kj`` are its Gram-Schmidt coefficients.
    """
    n = len(gram)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    dets = [1, gram[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > dets[l + 1]:
            q = (2 * lam[k][l] + dets[l + 1]) // (2 * dets[l + 1])
            h[k] = [a - q * b for a, b in zip(h[k], h[l])]
            lam[k][l] -= q * dets[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:                      # row k is still e_k: Gram-Schmidt it
            kmax = k
            for j in range(k + 1):
                u = sum(gram[k][t] * h[j][t] for t in range(n))
                for i in range(j):
                    u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
                if j < k:
                    lam[k][j] = u
                else:
                    dets[k + 1] = u
        red(k, k - 1)
        if 100 * dets[k + 1] * dets[k - 1] < 99 * dets[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            h[k], h[k - 1] = h[k - 1], h[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            b = (dets[k - 1] * dets[k + 1] + mu * mu) // dets[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dets[k + 1] * lam[i][k - 1] - mu * t) // dets[k]
                lam[i][k - 1] = (b * t + mu * lam[i][k]) // dets[k + 1]
            dets[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return h, dets, lam


def _enumerate(dn: np.ndarray, mu: np.ndarray) -> tuple:
    """One of each pair +-x of integer x with sum_i dn_si (x_i + sum_{k>i} mu_ski x_k)^2 <= 1
    in each of S forms (dn of shape (S, d), mu (S, d, d)), and each row's form s.

    Fincke-Pohst enumeration, level by level from the outermost coordinate:
    each level is one numpy step over the open nodes of all S forms (consecutive
    shells, together within ``_SCREEN_BLOCK``), and each node adds one integer
    range, so the rows come form by form, each in the order of its own pass;
    a lone form's rows carry no index (s is 0).  Of x and -x only the one whose
    outermost nonzero coordinate is positive is kept (and x = 0).  Budgets and
    ranges are widened by ``_ENUM_SLACK``, far beyond the float64 rounding of
    a size-reduced basis, so no point is lost; a few beyond the bound come too.
    """
    s, n = dn.shape
    shell = np.arange(s) if s > 1 else 0
    xs = np.zeros((s, n), dtype=np.int64)
    zero = np.ones(s, dtype=bool)          # nodes whose coordinates so far are all 0
    part = np.zeros(s)
    cen = np.zeros((s, n))                 # cen[:, j] = sum_{k set} mu_kj x_k
    for i in range(n - 1, -1, -1):
        c = cen[:, i]
        w = np.sqrt(np.maximum(1.0 + _ENUM_SLACK - part, 0.0) / dn[shell, i]) + _ENUM_SLACK
        lo = np.ceil(-c - w).astype(np.int64)
        lo[zero] = np.maximum(lo[zero], 0)
        cnt = np.maximum(np.floor(-c + w).astype(np.int64) - lo + 1, 0)
        node = np.repeat(np.arange(len(cnt)), cnt)
        x = lo[node] + np.arange(len(node)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        xs = xs[node]
        xs[:, i] = x
        shell = shell[node] if s > 1 else 0
        if i:
            zero = zero[node] & (x == 0)
            part = part[node] + dn[shell, i] * (x + c[node]) ** 2
            cen = cen[node] + x[:, None] * mu[shell, i]
    return xs, shell


def _shell_points(forms: list, bounds: list, other_axes: list) -> list:
    """The enumerated points of each shell's ellipsoid that lie in the shell, in
    order: consecutive shells whose box bounds sum to at most _SCREEN_BLOCK share
    one enumeration and one basis product, and a larger shell goes alone."""
    starts, total = [], math.inf
    for k, b in enumerate(bounds):
        if total + b > _SCREEN_BLOCK:
            starts.append(k)
            total = 0.0
        total += b
    chunks = []
    for a, z in zip(starts, starts[1:] + [len(forms)]):
        n_lo, n_hi, basis, dn, mu = map(np.array, zip(*forms[a:z]))
        pts, shell = _enumerate(dn, mu)      # rebound: the product frees the coordinates
        pts = pts @ basis[0] if z - a == 1 else (pts[:, None] @ basis[shell])[:, 0]
        n_sq = (pts[:, other_axes] ** 2).sum(axis=1)
        chunks.append(pts[(n_sq > n_lo[shell]) & (n_sq <= n_hi[shell])])
    return chunks


def _shell_forms(u: list, ax: int, c: float, seed_radius: float, radius: float) -> list:
    """Reduced ellipsoids covering the pruned candidates, one per dyadic shell.

    With p the coordinates of m off the pivot axis, shell j holds the m with
    n_lo < ||p||^2 <= n_hi, that is ||p|| in (s 2^(j-1), s 2^j] (s the seed
    radius), the last shell cut at the ball.  A candidate there has
    |m . u| <= t = c / max(lo, s)^d, with u the pivot direction scaled to
    u_ax = 1 and c the running minimum over |piv_ax|, so it lies in the
    ellipsoid ||p||^2 / n_hi + (m . u)^2 / t^2 <= 2.  t carries slack for the
    sweep's float64 admission test.  Each form is LLL-reduced in exact
    integers (its condition number reaches ~1e24 at R = 1000, d = 3), starting
    from the previous shell's basis: the integer Gram matrix [i = j != ax]
    tq D^2 + tp n_hi w_i w_j (u_i = w_i / D, 1/t^2 = tp / tq) is the form
    times n_hi tq D^2, and LLL on k G takes the same steps (dets[i] k^i, lam
    k^(j+1)), so the float64 Gram-Schmidt data do not depend on the scale.
    """
    dim = len(u)
    rsq = _radius_sq(radius)
    w, den = _integral(u)
    off_axis = np.identity(dim, dtype=object)
    off_axis[ax, ax] = 0
    h = np.identity(dim, dtype=object)
    forms, n_lo, hi = [], -1, float(seed_radius)
    while n_lo < rsq:
        n_hi = min(math.floor(hi * hi), rsq)
        lo = max(hi / 2, seed_radius)
        t = c / lo ** dim * (1 + _ENUM_SLACK) + hi * dim * 1e-11
        tp, tq = (1.0 / (t * t)).as_integer_ratio()
        scale = n_hi * tq * den * den
        g = tq * den * den * off_axis + tp * n_hi * np.outer(w, w)
        red, dets, lam = _lll(h @ g @ h.T)
        h = np.array(red, dtype=object) @ h
        dn = np.array([dets[i + 1] / (2 * scale * dets[i]) for i in range(dim)])
        mu = np.array([[lam[i][j] / dets[j + 1] if j < i else 0.0
                        for j in range(dim)] for i in range(dim)])
        forms.append((n_lo, n_hi, h.astype(np.int64), dn, mu))
        n_lo, hi = n_hi, 2 * hi
    return forms


def _scan_pruned(rows: list, dim: int, radius: float, seed_radius: float):
    fsq, arg, count = _scan_full(rows, dim, min(radius, seed_radius))
    if radius <= seed_radius:
        return fsq, arg, count
    c_cur = _sqrt_nearest(fsq) * (1 + 1e-9) + 1e-300

    # pivot: coordinate axis and direction with the largest |component|
    v64, err = _screen(rows, dim, radius)
    vi, ax = np.unravel_index(np.argmax(np.abs(v64)), v64.shape)
    piv, piv_ax = v64[vi], float(v64[vi, ax])
    other_axes = [j for j in range(dim) if j != ax]

    u = [Fraction(float(x)) / Fraction(piv_ax) for x in piv]
    forms = _shell_forms(u, ax, c_cur / abs(piv_ax), seed_radius, radius)
    # every level of a shell's enumeration has at most this many nodes (box bound)
    dns = np.array([dn for *_, dn, _ in forms])
    bounds = np.prod(np.floor(2 * (np.sqrt((1 + _ENUM_SLACK) / dns) + _ENUM_SLACK)) + 1, axis=1)
    if (estimate := sum(bounds)) > _ENUM_LIMIT:
        raise MemoryError(f"pruned scan in d={dim} to R={radius:g} would enumerate "
                          f"~{estimate:.3g} candidates (limit {_ENUM_LIMIT:.3g})")
    pts = np.vstack(_shell_points(forms, bounds.tolist(), other_axes))

    # the admission test of the (d-1)-ball sweep, which decides every
    # candidate in float64 with explicit slack.  sub_f is C-ordered like the
    # sweep's ball: BLAS rounds an F-ordered matrix-vector product
    # differently, and a resonant candidate is decided by its last bit
    sub_f = np.ascontiguousarray(pts[:, other_axes], dtype=np.float64)
    sub_norm_f64 = (sub_f ** 2).sum(axis=1)
    denom = np.maximum(np.sqrt(sub_norm_f64), float(seed_radius))
    tau = c_cur / _ipow_half(denom * denom, dim)
    center = -(sub_f @ piv[other_axes]) / piv_ax
    width = tau / abs(piv_ax) * (1 + 1e-9) + np.abs(center) * 1e-12 + 1e-290
    cand_f = pts[:, ax].astype(np.float64)
    r_sq = radius * radius + 1e-9
    keep = (np.abs(cand_f - center) <= width) & (sub_norm_f64 + cand_f ** 2 <= r_sq)
    pts = pts[keep & pts.any(axis=1)]
    if len(pts) == 0:
        return fsq, arg, count
    # every +-m pair was enumerated once, in one shell: no duplicates
    pts = np.where(_first_sign(pts)[:, None] < 0, -pts, pts)
    # the full scan's screen at radius R (err holds in any order of summation)
    f64 = _ipow_half((pts * pts).sum(axis=1) * 1.0, dim) * np.abs(pts @ v64.T).sum(axis=1)
    fsq, arg = min((fsq, arg), _minimum(pts[_near_min(f64, err)], rows, dim))
    return fsq, arg, count + len(pts)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def diophantine_certificate(directions: Sequence[Sequence], dim_ambient: int,
                            radius: float) -> DiophantineCertificate:
    """Exhaustive-ball certificate for sum_i |m . v_i| >= C ||m||^{-dimE}."""
    vs = [list(v) for v in directions]
    if not vs or any(len(v) != dim_ambient for v in vs):
        raise ValueError("directions must be nonzero vectors of the ambient dimension")
    try:
        finite = all(math.isfinite(float(x)) for v in vs for x in v)
    except OverflowError:
        raise ValueError("a direction entry is beyond the double range") from None
    if not finite:
        raise ValueError("direction entries must be finite")
    if any(all(float(x) == 0.0 for x in v) for v in vs):
        raise ValueError("zero direction vector")
    if radius < 1:
        raise ValueError("radius must be >= 1")

    n_points = _ball_point_count(dim_ambient, radius)
    if math.isinf(n_points) or math.isinf(radius * radius):
        raise MemoryError(f"scan in d={dim_ambient} to R={radius:g} would enumerate "
                          f"~{n_points:.3g} candidates (limit {_ENUM_LIMIT:.3g})")

    # a float64 direction is the dyadic rational it holds: every scan is exact
    rational = _is_rational_input(vs)
    rows = vs if rational else [[Fraction(float(x)) for x in v] for v in vs]
    if n_points <= _FULL_SCAN_LIMIT:
        fsq, arg, count = _scan_full(rows, dim_ambient, radius)
    else:
        fsq, arg, count = _scan_pruned(rows, dim_ambient, radius,
                                       seed_radius=_seed_radius(dim_ambient))
    c = math.sqrt(float(fsq)) if rational else _sqrt_nearest(fsq) * _FLOAT_DOWN
    return DiophantineCertificate(vs, dim_ambient, float(radius), c,
                                  fsq if rational else None, arg, fsq != 0, count)


def _seed_radius(dim: int) -> float:
    target = float(_FULL_SCAN_LIMIT) / 4.0
    r = (target / _ball_point_count(dim, 1.0)) ** (1.0 / dim)
    return float(max(8.0, min(r, 512.0)))


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each direction so its largest-|coordinate| entry equals 1 (-0.0 becomes 0.0)."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows / rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)][:, None] + 0.0


def certify_structural_subspaces(m: RationalMatrix, radius: float,
                            algebra: Optional[NilpotentAlgebra] = None) -> dict:
    """Certificates for the structural subspaces of an ergodic integer matrix.

    Covers the top/bottom modulus classes across primary blocks, the
    expanding and contracting spaces (ambient lattice Z^m), and every
    modulus class inside its own primary block, re-coordinatized by a
    saturated integer lattice basis of the block.

    Subspaces often repeat a set of normalized rows (on catmap block_max is
    w_plus and block_min is w_minus): each distinct set, keyed on its exact
    float64 bits, is scanned once per call and its certificate shared;
    nothing outlives the call.
    """
    if not m.is_unimodular_integer():
        raise ValueError("matrix must be integer with determinant +-1")
    algebra = algebra or abelian_algebra(m.dim)
    if not is_ergodic(algebra, m):
        raise ValueError("matrix is not ergodic (root-of-unity eigenvalue present)")

    split = lyapunov_data(m)
    report, scans = {}, {}

    def certify(rows: np.ndarray) -> DiophantineCertificate:
        vs = _normalize_rows(rows)
        bits = vs.shape, vs.tobytes()
        if bits not in scans:
            scans[bits] = diophantine_certificate(vs.tolist(), vs.shape[1], radius)
        return scans[bits]

    ambient = {
        "block_max": split.block_max(),
        "block_min": split.block_min(),
        "w_plus": split.w_plus(),
        "w_minus": split.w_minus(),
    }
    for name, rows in ambient.items():
        if rows.shape[0] == 0:
            raise ArithmeticError(f"subspace {name} is empty for an ergodic matrix")
        report[name] = certify(rows)

    for i, blk in enumerate(split.primary.blocks):
        # rows span the block's saturated integer lattice, ker q(m)^c in Z^n
        lattice = np.array(integer_kernel(blk.factor.evaluate_matrix(m) ** blk.multiplicity),
                           dtype=np.float64)
        gram = lattice @ lattice.T
        ginv = np.linalg.inv(gram)
        for k, b in enumerate(split.blocks):
            if i not in b.primary_factors:
                continue
            rows = split.class_rows(k, i)
            coords = rows @ lattice.T @ ginv   # coordinates in the block lattice basis
            resid = np.linalg.norm(coords @ lattice - rows)
            if resid > 1e-9 * max(1.0, np.linalg.norm(rows)):
                raise ArithmeticError(
                    f"class basis escapes its primary block lattice (residual {resid:.2e})")
            key = f"class[{i}]@{b.exponent:+.6f}"
            report[key] = certify(coords)
    return report


def type_i_subspace(algebra: NilpotentAlgebra, layer: int,
                    candidate: Sequence[Sequence], ambient: Sequence[Sequence],
                    radius: float) -> DiophantineCertificate:
    """Certificate for a candidate subspace against a layer-graded ambient.

    The candidate lives in the tail algebra below the given layer; its
    layer component must land inside the ambient's layer span.  The lift
    through the layer isomorphism keeps exactly the layer coordinates,
    and the certificate runs in the ambient's integer coordinates.
    """
    sl = algebra.layer_slice(layer)
    amb = [list(v) for v in ambient]
    for v in amb:
        for j, x in enumerate(v):
            if j not in sl and Fraction(x) != 0:
                raise ValueError("ambient subspace must lie in the layer span")
            if not isinstance(x, (int, Fraction)) or Fraction(x).denominator != 1:
                raise ValueError("ambient subspace needs an integer basis")

    exact = _is_rational_input(candidate)
    lifted = []
    for v in candidate:
        if len(v) != algebra.dim:
            raise ValueError("candidate vectors must live in the full algebra")
        deep_start = sl.start
        if any(float(x) != 0.0 for j, x in enumerate(v) if j < deep_start):
            raise ValueError("candidate must lie in the tail algebra of the layer")
        lifted.append([v[j] for j in sl])

    # coordinates of the lifted directions in the ambient integer basis
    if exact:
        # reduce [A^T | W]: the ambient columns must all be pivots, a pivot in
        # a candidate column puts it outside their span, and the reduced rows
        # then hold each candidate's coordinates
        t = len(amb)
        red, last, pivots, _ = _rref([[v[j] for v in amb] + [w[i] for w in lifted]
                                      for i, j in enumerate(sl)])
        if pivots[:t] != list(range(t)):
            raise ValueError("ambient basis is degenerate")
        if len(pivots) > t:
            raise ValueError("candidate layer component is not inside the ambient span")
        return diophantine_certificate([[Fraction(red[i][t + k], last) for i in range(t)]
                                        for k in range(len(lifted))], t, radius)

    amb_cols = np.array([[float(v[j]) for j in sl] for v in amb], dtype=np.float64)
    gram = amb_cols @ amb_cols.T
    try:
        ginv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise ValueError("ambient basis is degenerate")
    coords = []
    for w in lifted:
        w = np.array([float(x) for x in w])
        x = ginv @ (amb_cols @ w)
        if np.linalg.norm(amb_cols.T @ x - w) > 1e-9 * max(1.0, np.linalg.norm(w)):
            raise ValueError("candidate layer component is not inside the ambient span")
        coords.append(list(x))
    return diophantine_certificate(coords, len(amb), radius)
