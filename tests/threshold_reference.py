"""Reference only: the threshold quadrature with one refinement ladder per order.

`fracsolve._cell_quadrature` integrates every order of a sweep on one
ladder per cell: the midpoints and the squares of the profile are computed
once per level, and each order keeps its own sum and stopping test; and
`fracsolve._dyadic_integrals` walks one ladder of cells for every cutoff of
a sweep.  The version here runs the whole refinement ladder for one order
and the cells for one cutoff, as the library did before, and the
differential test requires bit-equal values.
"""

import functools

import numpy as np

from nilmix.fourier import _pow


@functools.lru_cache(maxsize=1024)
def cell_quadrature(g, r: float, a: float, b: float, rel_tol: float) -> float:
    """Composite midpoint rule for g(x)^2 |x|^{-2r} on [a, b]; the point
    count doubles from 32 until two successive values agree to rel_tol, or
    up to 2^16 points.  Memoized per profile callable, which the tests never
    change, so that the cutoffs and orders of one test share their cells."""
    n = 32
    prev = None
    while True:
        xs = a + (b - a) * (np.arange(n) + 0.5) / n
        vals = _pow(np.asarray(g(xs), dtype=np.float64), 2) * np.abs(xs) ** (-2.0 * r)
        out = float(vals.sum() * (b - a) / n)
        if prev is not None and abs(out - prev) <= rel_tol * max(abs(out), 1e-300):
            return out
        prev = out
        n *= 2
        if n > 1 << 16:
            return out


def dyadic_integral(g, r: float, h: float, rel_tol: float) -> float:
    """integral over h <= |x| <= 1 of g(x)^2 |x|^{-2r} dx by dyadic cells and
    their mirror images, in order of decreasing |x|."""
    total = 0.0
    b = 1.0
    while b > h:
        a = max(h, b / 2.0)
        total += cell_quadrature(g, r, a, b, rel_tol)
        total += cell_quadrature(g, r, -b, -a, rel_tol)
        b = a
    return total
