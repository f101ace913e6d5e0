"""Reference only: the exact matrix kernel in `Fraction` arithmetic.

`exactlin` runs these on integer numerators over one denominator: `_rref`
by fraction-free (Bareiss) elimination, `char_poly` by Faddeev-LeVerrier
on the numerators, `IntPolynomial.evaluate_matrix` by integer Horner.
The versions here work entry by entry on `Fraction`s, as the library did
before, and the differential tests require equal results.
"""

from fractions import Fraction


def rref(rows):
    """Gauss-Jordan reduction of int or Fraction rows of any shape: the
    reduced rows, the pivot columns and the signed product of the pivots
    (0 when some row has no pivot)."""
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots = []
    det = Fraction(1)
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][col]
        inv = 1 / Fraction(a[r][col])
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots, det if len(pivots) == nrows else Fraction(0)


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _identity(n, c=1):
    return [[Fraction(c) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def char_poly(rows) -> list:
    """Ascending coefficients of det(xI - M), by Faddeev-LeVerrier in Fractions."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = _identity(n)
    for k in range(1, n + 1):
        mk = matmul(rows, mk)
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                mk[i][i] += c
    return coeffs


def evaluate_matrix(coeffs, rows) -> list:
    """p(M) for ascending Fraction coefficients, by Horner's rule in Fractions."""
    n = len(rows)
    out = _identity(n, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = matmul(out, rows)
        for i in range(n):
            out[i][i] += c
    return out


def poly_mul(a, b) -> list:
    """Ascending coefficients of the product, trailing zeros included."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
