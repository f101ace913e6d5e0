"""Class subspaces at 2048 bits, as the test reference for the float64
class bases of `exactlin.LyapunovSplitting`.

The library builds the rows of class k inside primary block i as the image
of the other roots' polynomial in fixed point.  This reference reads the
same subspace as a kernel instead: the generalized eigenspace of the class's
roots of the block's factor q, ker prod (M - lambda)^c over those roots
(c the multiplicity of q), with every root from `mpmath.polyroots` and the
kernel from an `mpmath` SVD, all at 2048 bits.  Its real span is the span of
the real and imaginary parts of the complex kernel.
"""

import mpmath
import numpy as np

_PREC = 2048


def class_subspace(m, q, multiplicity: int, exponent: float, exponents: list) -> list:
    """Orthonormal rows (mpf lists) of the real span of the generalized
    eigenspaces of the roots of q whose log-modulus is nearer to exponent
    than to any other of exponents."""
    with mpmath.workprec(_PREC):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(q.coeffs)], maxsteps=500, extraprec=_PREC)
        kept = [z for z in roots
                if min(exponents, key=lambda e: abs(mpmath.log(abs(z)) - e)) == exponent]
        n = m.dim
        a = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in m.rows])
        op = mpmath.eye(n)
        for z in kept:
            for _ in range(multiplicity):
                op = op * (a - z * mpmath.eye(n))
        _, s, v = mpmath.svd_c(op)
        tiny = [j for j in range(n) if s[j] < mpmath.mpf(2) ** (-_PREC // 2) * s[0]]
        parts = [[f(v[j, c].conjugate()) for c in range(n)]
                 for j in tiny for f in (mpmath.re, mpmath.im)]
        _, s, v = mpmath.svd_r(mpmath.matrix(parts))
        return [[v[j, c] for c in range(n)] for j in range(len(tiny))]


def distance(rows: np.ndarray, basis: list) -> float:
    """The largest distance of a row to the span of the orthonormal basis."""
    with mpmath.workprec(_PREC):
        worst = mpmath.mpf(0)
        for x in rows.tolist():
            coords = [mpmath.fsum(b * y for b, y in zip(row, x)) for row in basis]
            res = [y - mpmath.fsum(c * row[j] for c, row in zip(coords, basis))
                   for j, y in enumerate(x)]
            worst = max(worst, mpmath.sqrt(mpmath.fsum(r * r for r in res)))
        return float(worst)
