"""Differential tests of the exact matrix kernel in `exactlin` against sympy
and against the `Fraction` reference in `kernel_reference`.

`RationalMatrix` and `IntPolynomial` store integer numerators over one
positive denominator in lowest terms.  Products, powers, characteristic
polynomials and polynomial values at a matrix run on those integers, and
determinant, inverse, kernel and span bases all come from one
fraction-free Gauss-Jordan reduction (`exactlin._rref`).  sympy's `Matrix`
and the entrywise `Fraction` kernel are the independent, slower paths:
every result must be equal, not close.  The integer contractions of
`exactlin._int_einsum` are checked against `np.einsum` on Python ints.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

import kernel_reference as ref
from root_reference import compose_neg
from nilmix.exactlin import (
    IntPolynomial,
    RationalMatrix,
    _int_einsum,
    _rref,
    char_poly,
    primary_decomposition,
    rational_kernel,
)
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
def square_matrices(draw, entries=ENTRIES, max_dim=5):
    n = draw(st.integers(1, max_dim))
    return draw(row_lists(n, n, entries))


@st.composite
def with_zero_rows(draw, rows):
    """rows with zero rows inserted at drawn places."""
    rows = list(rows)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


POLYS = st.lists(ENTRIES, min_size=1, max_size=6)


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


@SETTINGS
@given(st.one_of(row_lists(), square_matrices(), square_matrices(INT_ENTRIES))
       .flatmap(with_zero_rows))
def test_rref_matches_the_fraction_reference(rows):
    # the integer rows over the (positive) last pivot are the reduced rows
    red, last, pivots, det = _rref(rows)
    assert last > 0
    assert ([[Fraction(x, last) for x in row] for row in red], pivots, det) == ref.rref(rows)


@SETTINGS
@given(square_matrices(max_dim=6))
def test_char_poly_matches_the_fraction_reference(m):
    assert list(char_poly(RationalMatrix(m)).coeffs) == ref.char_poly(m)


@SETTINGS
@given(square_matrices(max_dim=6), POLYS)
def test_evaluate_matrix_matches_the_fraction_reference(m, p):
    want = tuple(map(tuple, ref.evaluate_matrix([Fraction(c) for c in p], m)))
    assert IntPolynomial(p).evaluate_matrix(RationalMatrix(m)).rows == want


@SETTINGS
@given(POLYS, POLYS)
def test_polynomial_product_matches_the_fraction_reference(p, q):
    assert (IntPolynomial(p) * IntPolynomial(q)).coeffs == IntPolynomial(ref.poly_mul(p, q)).coeffs


def assert_canonical(values):
    """Equal values with equal hashes, each in lowest terms over a positive denominator."""
    assert all(v == values[0] and hash(v) == hash(values[0]) for v in values)
    for v in values:
        nums = [x for row in v.nums for x in row] if isinstance(v, RationalMatrix) else v.nums
        assert v.den > 0 and math.gcd(v.den, *nums) == 1


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[row_lists(n, n)] * 3)))
def test_equal_matrices_have_one_form(triple):
    a, b, y = map(RationalMatrix, triple)
    m = a * b
    routes = [RationalMatrix(ref.matmul(triple[0], triple[1])), m,
              m.scale(2).scale(Fraction(1, 2)), m + y - y]
    if m.determinant():
        routes.append(m.inverse().inverse())
    assert_canonical(routes)


@SETTINGS
@given(POLYS, POLYS, POLYS)
def test_equal_polynomials_have_one_form(p, q, r):
    prod = IntPolynomial(p) * IntPolynomial(q)
    assert_canonical([IntPolynomial(ref.poly_mul(p, q)), prod,
                      prod.scale(2).scale(Fraction(1, 2)),
                      prod + IntPolynomial(r) - IntPolynomial(r),
                      compose_neg(compose_neg(prod))])


def test_a_second_route_to_a_matrix_hits_the_memo():
    literal = RationalMatrix([[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)]])
    routes = [RationalMatrix([[2, 1], [1, 1]]).scale(Fraction(1, 3)),
              literal.inverse().inverse(),
              literal * RationalMatrix.identity(2),
              literal + literal - literal]
    first = primary_decomposition(literal)
    for m in routes:
        hits = primary_decomposition.cache_info().hits
        assert primary_decomposition(m) is first
        assert primary_decomposition.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# exact integer contractions
# ---------------------------------------------------------------------------

# magnitudes near 2^31 (their products near 2^62) and near 2^62, either sign
_MAGNITUDES = st.sampled_from([0, 1, 3, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
                               (1 << 62) - 1, 1 << 62, (1 << 62) + 1])
_SIGNED = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]), _MAGNITUDES)


@st.composite
def contractions(draw) -> tuple:
    """Subscripts of a product, a matrix-vector product, a tensor
    contraction or a copy, object operands of matching shapes (extents
    0..3) and a number of results to be summed."""
    p, q, r = (draw(st.integers(0, 3)) for _ in range(3))
    subscripts, shapes = draw(st.sampled_from([
        ("ij,jk->ik", [(p, q), (q, r)]), ("ij,j->i", [(p, q), (q,)]),
        ("pi,pqk->iqk", [(p, q), (p, r, r)]), ("ijk->ijk", [(p, q, r)])]))
    operands = [np.array(draw(st.lists(_SIGNED, min_size=math.prod(shape),
                                       max_size=math.prod(shape))),
                         dtype=object).reshape(shape) for shape in shapes]
    return subscripts, operands, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(contractions())
# a largest partial sum of 2^63 - 1 fits int64, one of 2^63 does not
@example(("ij,jk->ik", [[[1, 1]], [[1 << 62], [(1 << 62) - 1]]], 1))
@example(("ij,jk->ik", [[[1, 1]], [[1 << 62], [1 << 62]]], 1))
@example(("ij,j->i", [[[-1, -1]], [1 << 62, 1 << 62]], 1))      # -2^63
@example(("ijk->ijk", [[[[(1 << 62) - 1]]]], 2))                  # twice: 2^63 - 2
def test_int_einsum_matches_python_ints(case):
    subscripts, operands, sums = case
    operands = [np.array(x, dtype=object) for x in operands]
    out = _int_einsum(subscripts, *operands, sums=sums)
    assert out.tolist() == np.einsum(subscripts, *operands).tolist()
    # int64 exactly when sums times the contraction of |operands| is below 2^63
    bound = np.einsum(subscripts, *(abs(x) for x in operands)).max(initial=0) * sums
    assert out.dtype == (np.int64 if bound < 1 << 63 else object)
    event(f"{subscripts} in {out.dtype}")


# ---------------------------------------------------------------------------
# the numerator format: a read-only object array of Python ints
# ---------------------------------------------------------------------------

def assert_exact_format(m: RationalMatrix):
    """nums holds Python ints (numpy ints would wrap in products) and cannot be written."""
    assert m.nums.dtype == object and m.nums.shape == (m.dim, m.dim)
    assert all(type(x) is int for x in m.nums.flat) and type(m.den) is int
    with pytest.raises(ValueError):
        m.nums[0, 0] = 1


# entries whose 3-term dot products pass 2^63: int64 arithmetic would wrap
_WIDE = st.one_of(st.integers(-4, 4), st.integers(-(1 << 31) - 5, (1 << 31) + 5))


@st.composite
def numpy_pairs(draw):
    """Two square matrices of one size, each given as an int64 array, a list of
    np.int64 rows or plain rows, and the same matrices as plain int rows."""
    n = draw(st.integers(1, 4))
    plain = [[[draw(_WIDE) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    forms = [draw(st.sampled_from([lambda r: np.array(r, dtype=np.int64),
                                   lambda r: [[np.int64(x) for x in row] for row in r],
                                   lambda r: r]))(r) for r in plain]
    return forms, plain


_BIG = 1 << 31


@SETTINGS
@given(numpy_pairs(), st.integers(-2, 5), ENTRIES)
# every sum of two products is 2^63: it wraps in int64
@example(([np.array([[_BIG, _BIG], [1, 1]], dtype=np.int64),
           [[np.int64(_BIG), np.int64(0)], [np.int64(_BIG), np.int64(1)]]],
          [[[_BIG, _BIG], [1, 1]], [[_BIG, 0], [_BIG, 1]]]), 3, 1)
def test_every_operation_keeps_the_exact_read_only_format(pair, e, c):
    (a_in, b_in), (a_rows, b_rows) = pair
    a, b = RationalMatrix(a_in), RationalMatrix(b_in)
    assert a == RationalMatrix(a_rows) and hash(a) == hash(RationalMatrix(a_rows))
    n, sa = a.dim, to_sympy(a_rows)
    det = sa.det()
    results = [a, b, a * b, a + b, a - b, a.scale(c), c * a, a * c, a.scale(0),
               RationalMatrix.identity(n), IntPolynomial([c, 1, -2]).evaluate_matrix(a)]
    if e >= 0 or det != 0:
        results.append(a ** e)
        assert (a ** e).rows == from_sympy(sa ** e)
    if det != 0:
        results.append(a.inverse())
        results.append(RationalMatrix.companion(char_poly(a)))
    for m in results:
        assert_exact_format(m)
    assert (a * b).rows == from_sympy(sa * to_sympy(b_rows))
    assert a.determinant() == Fraction(int(det.p), int(det.q))
    assert a.trace() == sum(a_rows[i][i] for i in range(n))
    v = np.array([row[0] for row in b_rows], dtype=np.int64)
    assert a.apply(v) == tuple(Fraction(int(x)) for x in sa * to_sympy([[x] for x in v]))
    assert all(type(x) is int for row in a.to_int_array() for x in row)


def test_a_near_overflow_power_is_exact():
    cat = RationalMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
    power = cat ** 200                       # entries near 2^277
    assert_exact_format(power)
    assert power.rows == from_sympy(sympy.Matrix([[2, 1], [1, 1]]) ** 200)
    assert (power * cat.inverse() ** 200) == RationalMatrix.identity(2)
