"""Differential tests of the exact matrix kernel in `exactlin` against sympy.

`RationalMatrix` products and powers run on integer numerators over one
common denominator, and determinant, inverse, kernel and span bases all
come from one Gauss-Jordan reduction (`exactlin._rref`).  sympy's `Matrix`
is the independent, slower path: every result must be equal, not close.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from nilmix.exactlin import RationalMatrix, rational_kernel
from nilmix.nilalg import _span_rows

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ENTRIES = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))
INT_ENTRIES = st.integers(-4, 4)


@st.composite
def row_lists(draw, rows=None, cols=None, entries=ENTRIES):
    """Rows of ints and Fractions of the given (or a drawn) shape in 1..5; often
    rank-deficient: the last row may be replaced by a rational combination
    of the others."""
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        coeffs = [Fraction(draw(ENTRIES)) for _ in range(rows - 1)]
        m[-1] = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(cols)]
    return m


@st.composite
def square_matrices(draw, entries=ENTRIES):
    n = draw(st.integers(1, 5))
    return draw(row_lists(n, n, entries))


def to_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def from_sympy(m: sympy.Matrix) -> tuple:
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i))
                 for i in range(m.rows))


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(row_lists(n, n), row_lists(n, n))))
def test_product_matches_sympy(pair):
    a, b = pair
    assert (RationalMatrix(a) * RationalMatrix(b)).rows == \
        from_sympy(to_sympy(a) * to_sympy(b))


@SETTINGS
@given(st.one_of(square_matrices(), square_matrices(INT_ENTRIES)), st.integers(-5, 8))
def test_power_matches_sympy(m, e):
    rm = RationalMatrix(m)
    if e < 0 and to_sympy(m).det() == 0:
        with pytest.raises(ZeroDivisionError):
            rm ** e
        return
    assert (rm ** e).rows == from_sympy(to_sympy(m) ** e)


@SETTINGS
@given(st.one_of(square_matrices(), square_matrices(INT_ENTRIES)))
def test_determinant_and_inverse_match_sympy(m):
    rm, sm = RationalMatrix(m), to_sympy(m)
    det = sm.det()
    assert rm.determinant() == Fraction(int(det.p), int(det.q))
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            rm.inverse()
    else:
        assert rm.inverse().rows == from_sympy(sm.inv())


@SETTINGS
@given(st.one_of(row_lists(), square_matrices()))
def test_rational_kernel_matches_sympy(rows):
    # sympy's nullspace sets each free variable to 1 and reads the pivot
    # entries off its rref, as rational_kernel does: the bases are equal
    want = [tuple(Fraction(int(x.p), int(x.q)) for x in v)
            for v in to_sympy(rows).nullspace()]
    assert rational_kernel(rows) == want
    if len(rows) == len(rows[0]):
        assert rational_kernel(RationalMatrix(rows)) == want


@SETTINGS
@given(row_lists())
def test_span_rows_match_sympy_rref(rows):
    reduced, pivots = to_sympy(rows).rref()
    assert _span_rows(rows) == list(from_sympy(reduced)[: len(pivots)])
