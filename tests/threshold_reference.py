"""Reference only: the threshold quadrature with one refinement ladder per order.

`fracsolve._cell_quadratures` integrates every order of a sweep on one
ladder per cell, and every cell still refining at a level in one profile
call: the midpoints and the squares of the profile are computed once per
level, and each cell and order keeps its own sum and stopping test; and
`fracsolve._dyadic_integrals` walks one ladder of cells for every cutoff of
a sweep.  The version here runs the whole refinement ladder of one cell for
one order and the cells for one cutoff, and the differential test requires
bit-equal values.  Squares are the IEEE product y * y, as in the library.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=1024)
def cell_quadrature(g, r: float, a: float, b: float, rel_tol: float, cap: int) -> float:
    """Composite midpoint rule for g(x)^2 |x|^{-2r} on [a, b]; the point
    count doubles from 32 until two successive values agree to rel_tol, or
    up to cap points.  Memoized per profile callable, which the tests never
    change, so that the cutoffs and orders of one test share their cells."""
    n = 32
    prev = None
    while True:
        xs = a + (b - a) * (np.arange(n) + 0.5) / n
        y = np.asarray(g(xs), dtype=np.float64)
        vals = y * y * np.abs(xs) ** (-2.0 * r)
        out = float(vals.sum() * (b - a) / n)
        if prev is not None and abs(out - prev) <= rel_tol * max(abs(out), 1e-300):
            return out
        prev = out
        n *= 2
        if n > cap:
            return out


def dyadic_integral(g, r: float, h: float, rel_tol: float, cap: int) -> float:
    """integral over h <= |x| <= 1 of g(x)^2 |x|^{-2r} dx by dyadic cells and
    their mirror images, in order of decreasing |x|."""
    total = 0.0
    b = 1.0
    while b > h:
        a = max(h, b / 2.0)
        total += cell_quadrature(g, r, a, b, rel_tol, cap)
        total += cell_quadrature(g, r, -b, -a, rel_tol, cap)
        b = a
    return total
