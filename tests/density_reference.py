"""The density counters and ball builders that `rates` and `dioph` used
before, kept as test references.

`shifted_ball_counts` recurses over the leading coordinate with the float
steps of a scalar recursion; `offset_ball_count` convolves one shifted copy
per coordinate offset.  The fast paths in `rates` must give the same
integers.  `shifted_ball_brute` is the integer oracle for all of them.

`whole_array_directions` normalizes every lattice point in one array, as
`density_estimate` did before it reduced them in blocks; the blocked
margins must hold the same doubles.

`cube_half_ball` cuts the canonical half ball out of the whole cube, and
`full_ball_density` counts bad tuples and thick directions over the whole
ball (every difference w for n = 2, every point for n >= 3), as
`density_estimate` did before it counted one point of each pair +-x.  For
n >= 3 it decides every pair's differences itself, as `density_estimate`
did before it looked them up in the bad rows of the n = 2 difference set.
"""

import itertools
import math

import numpy as np

from nilmix import rates
from nilmix.nilalg import lyapunov_functionals


def shifted_ball_brute(h, q: int) -> int:
    """Integer x with ||2x - h||^2 <= q: the ball about h / 2 of radius^2
    q / 4, scaled by 4 into Python integers."""
    if q < 0:
        return 0
    b = math.isqrt(q)
    ranges = [range(-((b - hi) // 2), (hi + b) // 2 + 1) for hi in h]
    return sum(1 for x in itertools.product(*ranges)
               if sum((2 * xi - hi) ** 2 for xi, hi in zip(x, h)) <= q)


def shifted_ball_counts(centers: np.ndarray, r_sq: np.ndarray) -> np.ndarray:
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
        counts[live[on]] += shifted_ball_counts(centers[live[on], 1:],
                                                rs[on] - (x[on] - c0[on]) ** 2)
    return counts


def offset_ball_count(dim: int, r_sq: int) -> int:
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


def whole_array_directions(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Per nonzero integer point x: min over the rows v of normals of
    |<x / ||x||, v>|."""
    dirs = points / np.linalg.norm(points, axis=1, keepdims=True)
    return np.abs(dirs @ normals.T).min(axis=1)


def cube_half_ball(dim: int, r_sq: int) -> np.ndarray:
    """The whole (2b + 1)^dim cube in lexicographic order, cut to the ball
    ||x||^2 <= r_sq, then the zero row and the rows whose first nonzero
    coordinate is positive."""
    b = math.isqrt(r_sq)
    n = 2 * b + 1
    grid = np.indices((n,) * dim, dtype=np.int64).reshape(dim, n ** dim).T - b
    grid = grid[(grid * grid).sum(axis=1) <= r_sq]
    nz = grid != 0
    first = grid[np.arange(len(grid)), nz.argmax(axis=1)]
    return grid[~nz.any(axis=1) | (first > 0)]


def full_ball_points(dim: int, r_sq: int) -> np.ndarray:
    """All integer points with ||x||^2 <= r_sq, rows in lexicographic order,
    built one coordinate at a time from the prefixes that still fit."""
    rows = np.zeros((1, 0), dtype=np.int64)
    norms = np.zeros(1, dtype=np.int64)
    for _ in range(dim):
        reach = np.sqrt((r_sq - norms).astype(np.float64)).astype(np.int64)
        width = 2 * reach + 1
        node = np.repeat(np.arange(len(rows)), width)
        x = np.arange(len(node)) - np.repeat(np.cumsum(width) - width + reach, width)
        rows = np.column_stack([rows[node], x])
        norms = norms[node] + x * x
    return rows


def full_ball_density(generators, n: int, radius: float, delta: float):
    """(bad_points, thick_fraction) of `density_estimate` at the given delta,
    counted over the whole ball; ValueError where the ball is too large for
    the direct enumeration of n >= 3."""
    ell = len(generators)
    r_sq = rates._radius_sq(radius)
    funcs = [f for f in lyapunov_functionals(list(generators)) if not f.is_zero()]
    func_arr = np.array([f.exponents for f in funcs], dtype=float)
    normals = rates._hyperplane_normals(funcs, n)
    total = rates._ball_count(n * ell, r_sq)
    if n == 2:
        ws = full_ball_points(ell, 2 * r_sq)
        wn = (ws * ws).sum(axis=1)
        bad_rows = rates._bad_mask(ws, generators, func_arr)
        bad_total = int(rates._coset_counts(ws[bad_rows],
                                            (r_sq - wn[bad_rows] / 2.0) / 2.0).sum())
    else:
        if total > rates._DIRECT_LIMIT:
            raise ValueError(f"ball of {total} points")
        grid = full_ball_points(n * ell, r_sq)
        bad_rows = np.zeros(len(grid), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            diffs = grid[:, i * ell:(i + 1) * ell] - grid[:, j * ell:(j + 1) * ell]
            bad_rows |= rates._bad_mask(diffs, generators, func_arr)
        bad_total = int(bad_rows.sum())
    thick = None
    if not normals:
        return bad_total, thick
    if n == 2 and delta > 0:
        func_unit = func_arr / np.linalg.norm(func_arr, axis=1, keepdims=True)
        nz = np.flatnonzero(wn > 0)
        mv = np.abs(ws[nz].astype(float) @ func_unit.T).min(axis=1)
        nz, mv = nz[mv > 0], mv[mv > 0]
        r_eff_sq = np.minimum(float(r_sq), (mv / (math.sqrt(2.0) * delta)) ** 2)
        thick = int(rates._coset_counts(ws[nz], (r_eff_sq - wn[nz] / 2.0) / 2.0).sum()) / total
    elif total <= rates._DIRECT_LIMIT:
        grid = full_ball_points(n * ell, r_sq)
        pts = grid[(grid != 0).any(axis=1)].astype(np.float64)
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        marg = np.abs(dirs @ np.array(normals).T).min(axis=1)
        thick = float((marg >= delta).sum()) / total
    return bad_total, thick
