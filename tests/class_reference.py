"""References for the Lyapunov classes of `exactlin.LyapunovSplitting`.

Class subspaces at 2048 bits, for the float64 class bases.  The library
builds the rows of class k inside primary block i as the image of the other
roots' polynomial in fixed point.  This reference reads the same subspace as
a kernel instead: the generalized eigenspace of the class's roots of the
block's factor q, ker prod (M - lambda)^c over those roots (c the
multiplicity of q), with every root from `mpmath.polyroots` and the kernel
from an `mpmath` SVD, all at 2048 bits.  Its real span is the span of the
real and imaginary parts of the complex kernel.

The class of a joint root, for `nilalg.joint_blocks`.  The library decides
it on the root's integer disc (`LyapunovSplitting.class_of`).  This
reference is the former rule: it reads the root as a double and bounds
|p(mu)| in doubles with a hand-derived rounding term (`float_class_of`).
Both rules are certified, so wherever both answer they agree.
"""

import math
import operator
from functools import reduce

import mpmath
import numpy as np

from nilmix.exactlin import (
    PrecisionError,
    factor_roots,
    lyapunov_data,
    primary_decomposition,
    restrict_to_span,
)
from nilmix.nilalg import _WEIGHT, _pairing

_PREC = 2048
_UNIT_ROUNDOFF = 2.0 ** -53   # of a double


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


def float_class_of(p, root: tuple, split) -> int:
    """Index of the class of split holding log|p(mu)|, mu the certified root
    given as (complex centre, radius) doubles.

    |p(mu~) - p(mu)| <= P(|mu~| + d) - P(|mu~|), P with p's absolute
    coefficients and d the root error plus mu~'s rounding; Horner in doubles
    adds (4 deg p + 8) u P(|mu~| + d).  Class exponents are widened by their
    own rounding, 8 u (1 + |exponent|)."""
    mu, err = root
    u, r = _UNIT_ROUNDOFF, abs(mu)
    upper = sum(abs(float(c)) * (r + err + 2 * u * r) ** j for j, c in enumerate(p.coeffs))
    lower = sum(abs(float(c)) * r ** j for j, c in enumerate(p.coeffs))
    bound = upper - lower + (4 * p.degree + 8) * u * upper
    value = abs(p.evaluate(mu))
    if value <= bound:
        raise PrecisionError("joint eigenvalue not separated from zero")
    lo, hi = math.log(value - bound), math.log(value + bound)
    hits = [k for k, b in enumerate(split.blocks)
            if abs(b.exponent - min(max(b.exponent, lo), hi))
            <= b.exponent_err + 8 * u * (1 + abs(b.exponent))]
    if len(hits) != 1:
        raise PrecisionError(f"log|p(mu)| = {math.log(value):.6g} matches "
                             f"{len(hits)} Lyapunov classes")
    return hits[0]


def float_classes(gens) -> list:
    """The class tuples of each joint block of the commuting family gens, in
    the order of joint_blocks, by float_class_of on the roots' doubles."""
    splits = [lyapunov_data(g) for g in gens]
    prec = max(s.precision_bits for s in splits)
    h = reduce(operator.add, (g.scale(_WEIGHT ** i) for i, g in enumerate(gens)))
    out = []
    for blk in primary_decomposition(h).blocks:
        h_b = restrict_to_span(h, blk.basis)
        pairing = [_pairing(h_b, restrict_to_span(g, blk.basis), blk.factor) for g in gens]
        out.append(tuple(tuple(float_class_of(p, root, s) for p, s in zip(pairing, splits))
                         for root in factor_roots(blk.factor, prec).roots))
    return out
