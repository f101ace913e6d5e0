"""Exact linear algebra over the rationals for integer/rational square matrices.

Everything structural (characteristic polynomials, factorization over Q,
invariant-subspace kernels, root-of-unity detection) is computed in exact
rational arithmetic.  Only eigenvalue *moduli* are floating point, and those
carry certified error bounds obtained from high-precision root isolation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import mpmath
import numpy as np
import sympy

__all__ = [
    "PrecisionError",
    "RationalMatrix",
    "IntPolynomial",
    "PrimaryBlock",
    "PrimaryDecomposition",
    "FactorRoots",
    "LyapunovBlock",
    "LyapunovSplitting",
    "char_poly",
    "factor_over_q",
    "primary_decomposition",
    "factor_roots",
    "is_cyclotomic",
    "cyclotomic_polynomial",
    "inverse_totient",
    "lyapunov_data",
    "rational_kernel",
    "integer_kernel",
]


class PrecisionError(ArithmeticError):
    """Raised when certified intervals cannot separate or merge eigenvalue moduli."""


# entries kept by each memo (primary_decomposition, factor_roots, lyapunov_data)
_MEMO_SIZE = 256
# working precision at which lyapunov_data stops escalating
_MAX_PRECISION_BITS = 2048


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not float(x).is_integer():
            raise TypeError(f"refusing to coerce non-integer float {x!r} to an exact rational")
        return Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RationalMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [tuple(_as_fraction(x) for x in row) for row in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and non-empty")
        self.dim = len(rows)
        self.rows = tuple(rows)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def companion(p: "IntPolynomial") -> "RationalMatrix":
        """Companion matrix of a monic polynomial."""
        c = p.monic().coeffs
        n = len(c) - 1
        if n < 1:
            raise ValueError("need degree >= 1")
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = Fraction(1)
        for i in range(n):
            rows[i][n - 1] = -c[i]
        return RationalMatrix(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            self._check_dim(other)
            a, da = self._numerators()
            b, db = other._numerators()
            return RationalMatrix._from_numerators(_int_matmul(a, b), da * db)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, m: int) -> "RationalMatrix":
        if not isinstance(m, int):
            raise TypeError("integer powers only")
        base, den = (self if m >= 0 else self.inverse())._numerators()
        m = abs(m)
        den **= m
        out = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        while m:
            if m & 1:
                out = _int_matmul(out, base)
            m >>= 1
            if m:
                base = _int_matmul(base, base)
        return RationalMatrix._from_numerators(out, den)

    def _numerators(self) -> tuple[list[list[int]], int]:
        """Integer numerators over one common denominator: self = nums / den."""
        den = math.lcm(*(x.denominator for row in self.rows for x in row))
        return [[x.numerator * (den // x.denominator) for x in row] for row in self.rows], den

    @staticmethod
    def _from_numerators(nums: Sequence[Sequence[int]], den: int) -> "RationalMatrix":
        """The matrix nums / den, building one Fraction per entry."""
        return RationalMatrix([[Fraction(x, den) for x in row] for row in nums])

    def _check_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def scale(self, c) -> "RationalMatrix":
        c = _as_fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.rows])

    def apply(self, v: Sequence[Fraction]) -> tuple:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum((a * b for a, b in zip(row, v) if b), Fraction(0)) for row in self.rows)

    def determinant(self) -> Fraction:
        """Exact determinant, the signed product of the row reduction's pivots."""
        return _rref(self.rows)[2]

    def inverse(self) -> "RationalMatrix":
        """Exact inverse, by reducing [A | I]; ZeroDivisionError if A is singular."""
        n = self.dim
        red, pivots, _ = _rref([row + tuple(Fraction(int(i == j)) for j in range(n))
                                for i, row in enumerate(self.rows)])
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return RationalMatrix([row[n:] for row in red])

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def is_unimodular_integer(self) -> bool:
        return self.is_integer() and abs(self.determinant()) == 1

    def to_int_array(self) -> list[list[int]]:
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.rows]

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan reduction of a list of int or Fraction rows of any shape.

    Returns the reduced row echelon form (unique, so every basis read from
    it is canonical), the pivot columns, and the determinant: the signed
    product of the pivots, or 0 when some row has no pivot (meaningful
    for square input only).
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots: list[int] = []
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


# ---------------------------------------------------------------------------
# Integer/rational polynomials (coefficients in ascending degree order)
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Polynomial with exact rational coefficients, ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_as_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_monic(self) -> bool:
        return self.lead == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms) if terms else "0"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, c) -> "IntPolynomial":
        c = _as_fraction(c)
        return IntPolynomial([c * x for x in self.coeffs])

    def __pow__(self, m: int) -> "IntPolynomial":
        out = IntPolynomial([1])
        for _ in range(m):
            out = out * self
        return out

    def divmod(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPolynomial([0]), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.lead
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return IntPolynomial(quot), IntPolynomial(rem[: other.degree] or [0])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "IntPolynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        return self.scale(1 / self.lead)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        out = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def evaluate_matrix(self, m: RationalMatrix) -> RationalMatrix:
        out = RationalMatrix.identity(m.dim).scale(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            out = out * m + RationalMatrix.identity(m.dim).scale(c)
        return out

    def compose_neg(self) -> "IntPolynomial":
        """p(-x)."""
        return IntPolynomial([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def reverse(self) -> "IntPolynomial":
        """x^deg * p(1/x)."""
        return IntPolynomial(list(reversed(self.coeffs)))

    def is_self_reciprocal(self) -> bool:
        rev = self.reverse()
        return rev == self or rev == self.scale(-1)

    def primitive_int(self) -> "IntPolynomial":
        """Integer polynomial with content 1, positive leading coefficient."""
        if self.is_zero():
            return self
        den = math.lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*[abs(c) for c in ints if c] or [1])
        ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return IntPolynomial(ints)


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, exact)
# ---------------------------------------------------------------------------

def char_poly(m: RationalMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), computed exactly."""
    n = m.dim
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        if k < n:
            mk = mk + RationalMatrix.identity(n).scale(c)
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Factorization over Q
# ---------------------------------------------------------------------------

def factor_over_q(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Exact irreducible factorization over Q, with multiplicities.

    Factors are returned monic, in canonical order (degree, then the
    ascending coefficient tuple); the constant content is discarded.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, factors = sympy.factor_list(sympy.Poly(coeffs, x, domain="QQ"))
    out = []
    for poly, mult in factors:
        q = IntPolynomial([Fraction(int(c.numerator), int(c.denominator))
                           for c in reversed(poly.all_coeffs())])
        out.append((q.monic(), mult))
    return sorted(out, key=lambda kv: (kv[0].degree, kv[0].coeffs))


# ---------------------------------------------------------------------------
# Cyclotomic detection
# ---------------------------------------------------------------------------

def _euler_phi(n: int) -> int:
    out, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            pk = 1
            while m % d == 0:
                m //= d
                pk *= d
            out *= pk - pk // d
        d += 1
    if m > 1:
        out *= m - 1
    return out


def inverse_totient(n: int) -> list[int]:
    """All d with Euler-phi(d) = n, by direct enumeration (phi(d) >= sqrt(d/2))."""
    if n < 1:
        return []
    bound = 2 * n * n + 2
    return [d for d in range(1, bound + 1) if _euler_phi(d) == n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial by exact recursive division of x^d - 1."""
    xd = IntPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            q, r = xd.divmod(cyclotomic_polynomial(e))
            assert r.is_zero()
            xd = q
    return xd


def is_cyclotomic(q: IntPolynomial, *, assume_irreducible: bool = False) -> Optional[int]:
    """Return d if q is the d-th cyclotomic polynomial, else None.

    q must be monic, irreducible, with integer coefficients; orders d are
    enumerated through the inverse totient of deg q and compared coefficientwise.
    """
    if not q.is_monic() or not q.is_integer():
        raise ValueError("expected a monic integer polynomial")
    if not assume_irreducible:
        factors = factor_over_q(q)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("polynomial is not irreducible")
    for d in inverse_totient(q.degree):
        if cyclotomic_polynomial(d) == q:
            return d
    return None


# ---------------------------------------------------------------------------
# Primary decomposition
# ---------------------------------------------------------------------------

def rational_kernel(m: RationalMatrix | Sequence[Sequence[Fraction]]) -> list[tuple]:
    """Exact basis of ker(M) over Q (list of Fraction tuples); M may be a
    RationalMatrix or a rectangular list of rows."""
    rows = m.rows if isinstance(m, RationalMatrix) else m
    red, pivots, _ = _rref(rows)
    n = len(rows[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def integer_kernel(m: RationalMatrix) -> list[tuple]:
    """Basis of the saturated integer kernel {x in Z^n : Mx = 0}.

    Column-style Hermite reduction with a unimodular transform; the returned
    vectors generate ker(M) intersect Z^n as a lattice (integer tuples).
    """
    if not m.is_integer():
        den = math.lcm(*[x.denominator for row in m.rows for x in row])
        m = m.scale(den)
    a = [[int(x) for x in col] for col in zip(*m.rows)]  # columns as rows
    n = m.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]  # tracks column ops
    row = 0
    col = 0
    while row < n and col < n:
        nz = [r for r in range(col, n) if a[r][row] != 0]
        if not nz:
            row += 1
            continue
        # gcd-reduce all entries in this row into a single column
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(a[r][row]))
            r0 = nz[0]
            for r in nz[1:]:
                q = a[r][row] // a[r0][row]
                a[r] = [x - q * y for x, y in zip(a[r], a[r0])]
                u[r] = [x - q * y for x, y in zip(u[r], u[r0])]
            nz = [r for r in range(col, n) if a[r][row] != 0]
        r0 = nz[0]
        a[col], a[r0] = a[r0], a[col]
        u[col], u[r0] = u[r0], u[col]
        row += 1
        col += 1
    out = []
    for r in range(col, n):
        if all(x == 0 for x in a[r]):
            out.append(tuple(u[r]))
    return out


@dataclass(frozen=True)
class PrimaryBlock:
    """One rational invariant block: factor q, multiplicity c, exact basis of ker q(M)^c."""

    factor: IntPolynomial
    multiplicity: int
    basis: tuple            # tuple of Fraction tuples, a Q-basis
    lattice_basis: tuple    # tuple of int tuples, basis of the block's integer lattice
    cyclotomic_order: Optional[int]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PrimaryDecomposition:
    matrix: RationalMatrix
    char: IntPolynomial
    blocks: tuple


@lru_cache(maxsize=_MEMO_SIZE)
def primary_decomposition(m: RationalMatrix) -> PrimaryDecomposition:
    """Split Q^n into exact M-invariant blocks ker q_i(M)^{c_i}.

    Memoized per matrix, so the spectral pipeline factors each distinct
    matrix once per process; the result is immutable and shared by all callers.
    """
    p = char_poly(m)
    blocks = []
    for q, c in factor_over_q(p):
        ann = q.evaluate_matrix(m) ** c
        basis = rational_kernel(ann)
        lattice = integer_kernel(ann) if m.is_integer() else tuple()
        expected = c * q.degree
        if len(basis) != expected:
            raise ArithmeticError(
                f"kernel dimension {len(basis)} != multiplicity*degree {expected} for factor {q}")
        cyc = is_cyclotomic(q.primitive_int(), assume_irreducible=True) if q.is_integer() else None
        blocks.append(PrimaryBlock(q, c, tuple(basis), tuple(lattice), cyc))
    total = sum(b.dim for b in blocks)
    if total != m.dim:
        raise ArithmeticError("primary blocks do not fill the space")
    return PrimaryDecomposition(m, p, tuple(blocks))


# ---------------------------------------------------------------------------
# Certified eigenvalue moduli and the Lyapunov splitting
# ---------------------------------------------------------------------------

def _certified_roots(q: IntPolynomial, prec: int) -> list[tuple[complex, float]]:
    """Roots of an irreducible (hence squarefree) polynomial with error bounds.

    The bound is the standard simple-root Newton estimate 2|q(r)/q'(r)|,
    inflated by a safety factor; roots are refined at working precision prec.
    """
    with mpmath.workprec(prec + 32):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(q.coeffs)]
        roots = mpmath.polyroots(cs, maxsteps=200, extraprec=prec)
        dq = q.derivative()
        out = []
        for r in roots:
            num = abs(_mp_eval(q, r))
            den = abs(_mp_eval(dq, r))
            if den == 0:
                raise PrecisionError(f"derivative vanished at approximate root of {q}")
            err = 8 * float(num / den) + math.ldexp(1.0, -(prec - 8))
            out.append((complex(r), err))
        return out


def _mp_eval(q: IntPolynomial, x):
    out = mpmath.mpf(0)
    for c in reversed(q.coeffs):
        out = out * x + mpmath.mpf(c.numerator) / c.denominator
    return out


def _pair_conjugates(roots: list[tuple[complex, float]]) -> list[int]:
    """Index of the conjugate partner for each root (itself for real roots)."""
    n = len(roots)
    partner = [-1] * n
    used = [False] * n
    for i, (r, err) in enumerate(roots):
        if used[i]:
            continue
        if abs(r.imag) <= err:
            partner[i] = i
            used[i] = True
            continue
        best, bestd = None, None
        for j in range(n):
            if j == i or used[j]:
                continue
            d = abs(roots[j][0] - r.conjugate())
            if bestd is None or d < bestd:
                best, bestd = j, d
        if best is None or bestd > roots[best][1] + err:
            raise PrecisionError("could not certify conjugate pairing of roots")
        partner[i] = best
        partner[best] = i
        used[i] = used[best] = True
    return partner


def _prove_modulus_one(q: IntPolynomial, roots, partner, idx, cyc_order) -> bool:
    """Prove |root| == 1 exactly: cyclotomic factor, root at +-1, or a
    self-reciprocal factor whose reciprocal partner coincides with the conjugate."""
    if cyc_order is not None:
        return True
    r, err = roots[idx]
    if abs(abs(r) - 1.0) > err + 1e-12:
        return False
    if q.degree == 1:
        val = -q.coeffs[0] / q.coeffs[1]
        return abs(val) == 1
    if not q.is_self_reciprocal():
        return False
    if partner[idx] == idx:
        return False  # real root of modulus 1 would force degree-1 factor x -+ 1
    # reciprocal 1/r must be a root; |r| == 1 iff that root is conj(r)
    recip = 1.0 / r
    pj, perr = roots[partner[idx]]
    # isolation: nearest root to 1/r must be the conjugate partner
    dists = [abs(rr - recip) for rr, _ in roots]
    j = int(np.argmin(dists))
    return j == partner[idx] and dists[j] <= perr + err * 4 + 1e-12


@dataclass(frozen=True)
class FactorRoots:
    """Certified roots of one irreducible factor at one working precision."""

    roots: tuple      # (complex root, error bound) per root
    partner: tuple    # index of each root's complex conjugate (itself for a real root)
    unit: tuple       # per root: |root| == 1 is proven


@lru_cache(maxsize=_MEMO_SIZE)
def factor_roots(q: IntPolynomial, prec: int) -> FactorRoots:
    """The root record of an irreducible factor: certified roots and errors,
    their conjugate pairing, and which roots provably lie on the unit circle."""
    roots = _certified_roots(q, prec)
    partner = _pair_conjugates(roots)
    cyc = is_cyclotomic(q.primitive_int(), assume_irreducible=True) if q.is_integer() else None
    unit = [_prove_modulus_one(q, roots, partner, i, cyc) for i in range(len(roots))]
    return FactorRoots(tuple(roots), tuple(partner), tuple(unit))


@dataclass(frozen=True)
class LyapunovBlock:
    """Eigenvalue-modulus class: exponent with certified error, multiplicity, real basis."""

    exponent: float
    exponent_err: float
    multiplicity: int
    basis: np.ndarray            # shape (multiplicity, dim), rows are basis vectors; read-only
    invariance_residual: float
    primary_factors: tuple       # indices of primary blocks contributing


@dataclass(frozen=True)
class LyapunovSplitting:
    matrix: RationalMatrix
    primary: PrimaryDecomposition
    blocks: tuple                 # LyapunovBlock, exponents ascending
    precision_bits: int

    def _union(self, pred) -> np.ndarray:
        rows = [b.basis for b in self.blocks if pred(b)]
        if not rows:
            return np.zeros((0, self.matrix.dim))
        return np.vstack(rows)

    @property
    def exponents(self) -> list[float]:
        return [b.exponent for b in self.blocks]

    def w_plus(self) -> np.ndarray:
        return self._union(lambda b: b.exponent > 0 and not self._is_zero(b))

    def w_minus(self) -> np.ndarray:
        return self._union(lambda b: b.exponent < 0 and not self._is_zero(b))

    def w_zero(self) -> np.ndarray:
        return self._union(self._is_zero)

    @staticmethod
    def _is_zero(b: LyapunovBlock) -> bool:
        return b.exponent == 0.0 and b.exponent_err == 0.0

    def block_max(self) -> np.ndarray:
        """Union over primary blocks of the top-modulus Lyapunov class."""
        return self._extreme(top=True)

    def block_min(self) -> np.ndarray:
        return self._extreme(top=False)

    def _extreme(self, top: bool) -> np.ndarray:
        rows = []
        for i in range(len(self.primary.blocks)):
            cand = [b for b in self.blocks if i in b.primary_factors]
            if not cand:
                continue
            pick = max(cand, key=lambda b: b.exponent) if top else min(cand, key=lambda b: b.exponent)
            # restrict the class basis to the part inside primary block i
            rows.append(_restrict_to_primary(self, pick, i))
        return np.vstack(rows) if rows else np.zeros((0, self.matrix.dim))


def _restrict_to_primary(split: LyapunovSplitting, block: LyapunovBlock, i: int) -> np.ndarray:
    prim = split.primary.blocks[i]
    pbasis = np.array([[float(x) for x in v] for v in prim.basis])
    # orthogonal projection of the class basis onto the primary block, re-orthonormalized
    q, _ = np.linalg.qr(pbasis.T)
    proj = block.basis @ q @ q.T
    keep = proj[np.linalg.norm(proj, axis=1) > 1e-8]
    if keep.size == 0:
        return np.zeros((0, split.matrix.dim))
    u, s, vt = np.linalg.svd(keep, full_matrices=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    return vt[:rank]


def _real_annihilator_basis(m_f: np.ndarray, prim_basis: np.ndarray, rec: FactorRoots,
                            other: list, mult: int, dim_expected: int) -> np.ndarray:
    """Real basis of the modulus class inside one primary block.

    Applies the product over the excluded roots ``other`` (indices into the
    factor's root record) of (M - lambda), each conjugate pair combined into
    one real quadratic, each to the power of the factor multiplicity, to the
    exact primary basis; the column space is the wanted class.
    """
    n = m_f.shape[0]
    op = np.eye(n)
    done = set()
    for idx in other:
        if idx in done:
            continue
        lam = rec.roots[idx][0]
        if rec.partner[idx] != idx:
            factor = m_f @ m_f - 2 * lam.real * m_f + (abs(lam) ** 2) * np.eye(n)
            done.add(rec.partner[idx])
        else:
            factor = m_f - lam.real * np.eye(n)
        for _ in range(mult):
            op = factor @ op
    cols = op @ prim_basis.T
    u, s, vt = np.linalg.svd(cols.T, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        raise PrecisionError("annihilator collapsed the block")
    rank = int(np.sum(s > 1e-9 * s[0]))
    if rank != dim_expected:
        raise PrecisionError(
            f"annihilator rank {rank} != expected class dimension {dim_expected}")
    return vt[:dim_expected]


@lru_cache(maxsize=_MEMO_SIZE)
def lyapunov_data(m: RationalMatrix, precision_bits: int = 128) -> LyapunovSplitting:
    """Certified Lyapunov splitting of an invertible rational matrix.

    Moduli of the exact characteristic roots are computed at >= precision_bits
    working precision with error bounds.  Classes are merged only on proven
    equality (conjugate pairs, negation-related factors, proven modulus one,
    equal rational moduli); overlapping-but-unproven intervals escalate the
    precision up to _MAX_PRECISION_BITS and then raise PrecisionError.
    Every attempt reuses the memoized primary decomposition.  Memoized per
    (matrix, precision); the splitting is frozen and its block bases are
    read-only, since callers share it.
    """
    if m.determinant() == 0:
        raise ValueError("matrix must be invertible")
    prec = precision_bits
    while True:
        try:
            return _lyapunov_attempt(m, prec)
        except PrecisionError:
            if prec >= _MAX_PRECISION_BITS:
                raise
            prec = min(2 * prec, _MAX_PRECISION_BITS)


def _lyapunov_attempt(m: RationalMatrix, prec: int) -> LyapunovSplitting:
    primary = primary_decomposition(m)
    records = [factor_roots(blk.factor, prec) for blk in primary.blocks]
    entries = []  # one per root: factor index, root index, modulus, error, proven |root| = 1
    for fi, rec in enumerate(records):
        for ri, ((r, err), one) in enumerate(zip(rec.roots, rec.unit)):
            entries.append({"fi": fi, "ri": ri, "mod": 1.0 if one else abs(r),
                            "err": 0.0 if one else err, "one": one})

    classes = _merge_modulus_classes(entries, primary, records)

    m_f = m.to_float()
    blocks = []
    for cls in classes:
        mult = sum(primary.blocks[e["fi"]].multiplicity for e in cls)
        exps = []
        errs = []
        any_one = any(e["one"] for e in cls)
        for e in cls:
            if e["one"]:
                exps.append(0.0)
                errs.append(0.0)
            else:
                exps.append(math.log(e["mod"]))
                errs.append(e["err"] / e["mod"] * 1.05 + 1e-300)
        exponent = 0.0 if any_one else float(np.mean(exps))
        exponent_err = 0.0 if any_one else float(max(errs) + (max(exps) - min(exps)))

        basis_rows = []
        fis = sorted({e["fi"] for e in cls})
        for fi in fis:
            blk = primary.blocks[fi]
            keep_idx = [e["ri"] for e in cls if e["fi"] == fi]
            other = [ri for ri in range(len(records[fi].roots)) if ri not in keep_idx]
            pbasis = np.array([[float(x) for x in v] for v in blk.basis])
            dim_expected = blk.multiplicity * len(keep_idx)
            if not other:
                rows = _orthonormal_rows(pbasis)
            else:
                rows = _real_annihilator_basis(m_f, pbasis, records[fi], other,
                                               blk.multiplicity, dim_expected)
            basis_rows.append(rows)
        basis = np.vstack(basis_rows)
        basis.setflags(write=False)
        residual = _invariance_residual(m_f, basis)
        if residual > 1e-9:
            raise PrecisionError(f"block invariance residual {residual:.3e} exceeds 1e-9")
        blocks.append(LyapunovBlock(exponent, exponent_err, mult, basis, residual, tuple(fis)))

    blocks.sort(key=lambda b: b.exponent)
    _check_disjoint(blocks)
    split = LyapunovSplitting(m, primary, tuple(blocks), prec)
    _check_det_sum(m, split)
    return split


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(rows.T)
    return q.T[: rows.shape[0]]


def _invariance_residual(m_f: np.ndarray, basis: np.ndarray) -> float:
    if basis.shape[0] == 0:
        return 0.0
    q, _ = np.linalg.qr(basis.T)
    worst = 0.0
    for v in basis:
        w = m_f @ v
        res = w - q @ (q.T @ w)
        worst = max(worst, float(np.linalg.norm(res) / np.linalg.norm(v)))
    return worst


def _merge_modulus_classes(entries, primary, records):
    """Group roots into exact-equal-modulus classes; raise on unprovable overlap."""
    items = sorted(entries, key=lambda e: e["mod"])
    classes = []
    for e in items:
        placed = False
        for cls in classes:
            lo1, hi1 = e["mod"] - e["err"], e["mod"] + e["err"]
            lo2 = min(x["mod"] - x["err"] for x in cls)
            hi2 = max(x["mod"] + x["err"] for x in cls)
            if hi1 < lo2 or hi2 < lo1:
                continue
            if any(_prove_equal_modulus(e, member, primary, records) for member in cls):
                cls.append(e)
                placed = True
                break
            raise PrecisionError(
                f"modulus intervals overlap without provable equality near {e['mod']:.6g}")
        if not placed:
            classes.append([e])
    return classes


def _prove_equal_modulus(e1, e2, primary, records) -> bool:
    if e1["one"] and e2["one"]:
        return True
    if e1["one"] != e2["one"]:
        return False
    q1 = primary.blocks[e1["fi"]].factor
    q2 = primary.blocks[e2["fi"]].factor
    r1, err1 = records[e1["fi"]].roots[e1["ri"]]
    r2, err2 = records[e2["fi"]].roots[e2["ri"]]
    if e1["fi"] == e2["fi"]:
        # conjugate pair within the same irreducible factor
        if records[e1["fi"]].partner[e1["ri"]] == e2["ri"]:
            return True
        # negation symmetry within an even/odd factor: r2 == -r1 or -conj(r1)
        return (q1.compose_neg() in (q1, q1.scale(-1))
                and min(abs(r1 + r2), abs(r1.conjugate() + r2)) <= err1 + err2 + 1e-12)
    # rational roots: exact comparison
    if q1.degree == 1 and q2.degree == 1:
        v1 = -q1.coeffs[0] / q1.coeffs[1]
        v2 = -q2.coeffs[0] / q2.coeffs[1]
        return abs(v1) == abs(v2)
    # factors related by x -> -x have negated root sets (equal moduli)
    neg = q1.compose_neg()
    if neg in (q2, q2.scale(-1)):
        if abs(r1 + r2) <= err1 + err2 + 1e-12 or abs(r1.conjugate() + r2) <= err1 + err2 + 1e-12:
            return True
    return False


def _check_disjoint(blocks):
    # after merging, distinct classes have distinct true moduli; touching
    # certified intervals therefore mean the precision was insufficient
    for a, b in zip(blocks, blocks[1:]):
        if a.exponent + a.exponent_err >= b.exponent - b.exponent_err:
            raise PrecisionError("adjacent exponent intervals overlap after merging")


def _check_det_sum(m: RationalMatrix, split: LyapunovSplitting):
    det = m.determinant()
    target = math.log(abs(float(det)))
    total = sum(b.exponent * b.multiplicity for b in split.blocks)
    budget = sum(b.exponent_err * b.multiplicity for b in split.blocks) + 1e-9
    if abs(total - target) > budget:
        raise PrecisionError(
            f"sum of exponents {total:.12g} != log|det| {target:.12g} beyond budget {budget:.3g}")
