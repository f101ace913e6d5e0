"""The density counters that `rates` used before its norm histograms, kept as
test references.

`shifted_ball_counts` recurses over the leading coordinate with the float
steps of a scalar recursion; `offset_ball_count` convolves one shifted copy
per coordinate offset; `bisection_delta` runs the 48-step bisection on the
sample fraction `np.mean(margins < mid)`.  The fast paths in `rates` must
give the same integers and the same double.  `shifted_ball_brute` is the
integer oracle for all of them.
"""

import itertools
import math

import numpy as np


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


def bisection_delta(margins: np.ndarray, eps: float) -> float:
    """The largest dyadic delta (48 halvings of [0, 1]) whose sample measure
    mean(margins < delta) stays <= eps."""
    lo, hi = 0.0, 1.0
    for _ in range(48):
        mid = (lo + hi) / 2.0
        if float(np.mean(margins < mid)) <= eps:
            lo = mid
        else:
            hi = mid
    return lo
