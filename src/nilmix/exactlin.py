"""Exact linear algebra over the rationals for integer/rational square matrices.

Everything structural (characteristic polynomials, factorization over Q,
invariant-subspace kernels, root-of-unity detection) is computed in exact
rational arithmetic.  Only eigenvalue *moduli* are floating point, and those
carry certified error bounds: each root of an irreducible factor gets a
`Disc` (integers at the scale it carries, mapped with outward rounding) that
provably holds it and no other root (Weierstrass inclusion).  Every root
question but equal moduli (conjugate partner, modulus one, the Lyapunov class
of a joint root, `LyapunovSplitting.class_of`) is decided by one rule on
those discs, `Disc.holder`; equal moduli by counting, in integers, the real
roots of a squarefree polynomial near each |z|^2 (`_modulus_relation`).
The float64 bases of the modulus classes are built from the same discs, in
fixed point inside each primary block, and rounded once (`_class_basis`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "PrecisionError",
    "ResolutionError",
    "RationalMatrix",
    "IntPolynomial",
    "PrimaryBlock",
    "PrimaryDecomposition",
    "Disc",
    "FactorRoots",
    "LyapunovBlock",
    "LyapunovSplitting",
    "char_poly",
    "factor_over_q",
    "primary_decomposition",
    "factor_roots",
    "squared_modulus_polynomial",
    "is_cyclotomic",
    "cyclotomic_polynomial",
    "inverse_totient",
    "lyapunov_data",
    "rational_kernel",
    "integer_kernel",
]


class PrecisionError(ArithmeticError):
    """Raised when certified intervals cannot separate or merge eigenvalue moduli."""


class ResolutionError(PrecisionError):
    """Two moduli proven unequal that round to the same double: their reported
    exponents would coincide at every working precision, so no higher one is
    tried."""


# entries kept by each memo (primary_decomposition, factor_roots, lyapunov_data)
_MEMO_SIZE = 256
# working precision at which lyapunov_data starts, and at which it stops escalating
START_PRECISION_BITS = 128
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
    """Immutable square matrix with exact rational entries, stored as integer
    numerators over one positive denominator in lowest terms, self = nums / den:
    nums is a read-only object array of Python ints, so products never wrap;
    the form is canonical, so == and hash are exact."""

    __slots__ = ("dim", "nums", "den")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [[_as_fraction(x) for x in row] for row in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and non-empty")
        # lowest terms: each prime power of den divides some entry's denominator
        self.nums, self.den = _integral(rows)
        self.dim = len(rows)
        self.nums.flags.writeable = False

    @staticmethod
    def _of(nums: np.ndarray, den: int) -> "RationalMatrix":
        """The matrix nums / den (a square object array of ints, den > 0), in lowest terms."""
        g = math.gcd(den, *nums.flat)
        m = object.__new__(RationalMatrix)
        m.dim = len(nums)
        m.nums = nums // g if g > 1 else nums
        m.nums.flags.writeable = False
        m.den = den // g
        return m

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._of(np.identity(n, dtype=object), 1)

    @staticmethod
    def companion(p: "IntPolynomial") -> "RationalMatrix":
        """Companion matrix of a monic polynomial."""
        p = p.monic()
        n = p.degree
        if n < 1:
            raise ValueError("need degree >= 1")
        nums = p.den * np.eye(n, k=-1, dtype=object)
        nums[:, -1] = [-c for c in p.nums[:-1]]
        return RationalMatrix._of(nums, p.den)

    @property
    def rows(self) -> tuple:
        """The entries as Fraction rows."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.nums)

    def __getitem__(self, ij):
        return Fraction(self.nums[ij], self.den)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.den == other.den
                and tuple(self.nums.flat) == tuple(other.nums.flat))

    def __hash__(self):
        return hash((self.den, *self.nums.flat))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        den = math.lcm(self.den, other.den)
        return RationalMatrix._of(den // self.den * self.nums + den // other.den * other.nums, den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            self._check_dim(other)
            return RationalMatrix._of(self.nums @ other.nums, self.den * other.den)
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
        base = self if m >= 0 else self.inverse()
        return RationalMatrix._of(np.linalg.matrix_power(base.nums, abs(m)), base.den ** abs(m))

    def _check_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def scale(self, c) -> "RationalMatrix":
        c = _as_fraction(c)
        return RationalMatrix._of(c.numerator * self.nums, c.denominator * self.den)

    def apply(self, v: Sequence[Fraction]) -> tuple:
        """M v for int or Fraction entries, as Fractions."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        w, den = _integral(v)
        return tuple(Fraction(x, den * self.den) for x in self.nums @ w)

    def determinant(self) -> Fraction:
        """Exact determinant, from the fraction-free row reduction of nums."""
        return _rref(self.nums)[3] / self.den ** self.dim

    def inverse(self) -> "RationalMatrix":
        """Exact inverse, by reducing [nums | den I]; ZeroDivisionError if singular."""
        n = self.dim
        eye = np.identity(n, dtype=object)
        red, last, pivots, _ = _rref(np.hstack([self.nums, self.den * eye]))
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return RationalMatrix._of(np.array(red, dtype=object)[:, n:], last)

    def trace(self) -> Fraction:
        return Fraction(self.nums.trace(), self.den)

    def is_integer(self) -> bool:
        return self.den == 1

    def is_unimodular_integer(self) -> bool:
        return self.is_integer() and abs(self.determinant()) == 1

    def to_int_array(self) -> list[list[int]]:
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return self.nums.tolist()

    def to_float(self) -> np.ndarray:
        # int / int is correctly rounded, as float(Fraction) is
        return (self.nums / self.den).astype(float)


def _integral(values) -> tuple[np.ndarray, int]:
    """Rationals (ints, numpy ints or Fractions) in any nested array-like, as
    numerators over their least common denominator: an object array of Python
    ints of the same shape, and the denominator."""
    a = np.array(values, dtype=object)
    den = math.lcm(*(x.denominator for x in a.flat))
    return np.array([int(x.numerator) * (den // int(x.denominator)) for x in a.flat],
                    dtype=object).reshape(a.shape), den


def _int_einsum(subscripts: str, *operands, sums: int = 1) -> np.ndarray:
    """np.einsum of one or two integer arrays (or nested lists), exactly: in
    int64 when every entry fits and sums times the same contraction of the
    absolute values is below 2^63, so that every product, partial sum and
    sum of sums results fits; else in Python ints.  The bound is taken in
    float64, relatively within 2^-20 for under 2^32 summed terms, and
    retaken in Python ints when that margin reaches 2^63."""
    ops = [x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in operands]

    def bound(kind):
        return np.einsum(subscripts, *(np.abs(x.astype(kind)) for x in ops)).max(initial=0) * sums

    try:
        top, edge = bound(np.float64), 2.0 ** 63
        if top < edge * (1 - 2 ** -20) or top < edge * (1 + 2 ** -20) and bound(object) < edge:
            return np.einsum(subscripts, *(x.astype(np.int64, copy=False) for x in ops))
    except OverflowError:                      # an object entry beyond float64 or int64
        pass
    return np.einsum(subscripts, *(x.astype(object) for x in ops))


def _rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], int, list[int], Fraction]:
    """Gauss-Jordan reduction of a list of int or Fraction rows of any shape.

    Fraction-free (Bareiss, Math. Comp. 22, 1968): each row is scaled to
    integers by the lcm of its denominators, and each step divides exactly
    by the previous pivot, so entries stay integers (minors of the scaled
    rows) and every pivot ends equal to the last.  Returns the reduced rows
    as integers over that last pivot, made positive (red / last is the
    reduced row echelon form, unique, so every basis read from it is
    canonical), last, the pivot columns, and the determinant: sign * last
    pivot / product of the row scales, or 0 when some row has no pivot
    (meaningful for square input only).
    """
    a, scale = [], 1
    for row in rows:
        nums, den = _integral(row)
        a.append(list(nums))
        scale *= den
    nrows = len(a)
    pivots: list[int] = []
    sign, last = 1, 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top, p = a[r], a[r][col]
        for i in range(nrows):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // last for x, y in zip(a[i], top)]
        last = p
        pivots.append(col)
    det = Fraction(sign * last, scale) if len(pivots) == nrows else Fraction(0)
    if last < 0:
        a, last = [[-x for x in row] for row in a], -last
    return a, last, pivots, det


# ---------------------------------------------------------------------------
# Integer/rational polynomials (coefficients in ascending degree order)
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Polynomial with exact rational coefficients, ascending degree order,
    stored as in RationalMatrix: integer numerators (no trailing zeros, so
    () is the zero polynomial) over one positive denominator, in lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence):
        # in lowest terms, as in RationalMatrix; a zero has denominator 1
        nums, self.den = _integral([_as_fraction(c) for c in coeffs])
        self.nums = tuple(_trim(list(nums)))

    @staticmethod
    def _of(nums: Sequence[int], den: int) -> "IntPolynomial":
        """The polynomial nums / den (den > 0), in lowest terms."""
        nums = _trim(list(nums))
        g = math.gcd(den, *nums)
        p = object.__new__(IntPolynomial)
        p.nums = tuple(c // g for c in nums)
        p.den = den // g
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, (0,) for the zero polynomial."""
        return tuple(Fraction(c, self.den) for c in self.nums) or (Fraction(0),)

    @property
    def degree(self) -> int:
        return max(len(self.nums) - 1, 0)

    def is_zero(self) -> bool:
        return not self.nums

    def is_integer(self) -> bool:
        return self.den == 1

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        powers = ["", "x"] + [f"x^{i}" for i in range(2, len(self.coeffs))]
        return " + ".join(str(c) if i == 0 else ("" if c == 1 else f"{c}*") + powers[i]
                          for i, c in enumerate(self.coeffs) if c != 0 or self.degree == 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        den = math.lcm(self.den, other.den)
        return IntPolynomial._of(_add([den // self.den * c for c in self.nums],
                                      [den // other.den * c for c in other.nums]), den)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial._of(_mul(self.nums, other.nums), self.den * other.den)

    def scale(self, c) -> "IntPolynomial":
        c = _as_fraction(c)
        return IntPolynomial._of([c.numerator * x for x in self.nums], c.denominator * self.den)

    def __pow__(self, m: int) -> "IntPolynomial":
        out = IntPolynomial([1])
        for _ in range(m):
            out = out * self
        return out

    def monic(self) -> "IntPolynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        return self.scale(Fraction(self.den, self.nums[-1]))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial._of([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def evaluate(self, x):
        out = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def evaluate_matrix(self, m: RationalMatrix) -> RationalMatrix:
        """p(M) by Horner's rule on integers: for M = N / d and p = a / e,
        p(M) = sum_i a_i d^(deg - i) N^i over e d^deg."""
        eye = np.identity(m.dim, dtype=object)
        out = 0 * eye
        for k, c in enumerate(reversed(self.nums)):
            out = out @ m.nums + c * m.den ** k * eye
        return RationalMatrix._of(out, self.den * m.den ** self.degree)

    def reverse(self) -> "IntPolynomial":
        """x^deg * p(1/x)."""
        return IntPolynomial._of(self.nums[::-1], self.den)

    def is_self_reciprocal(self) -> bool:
        rev = self.reverse()
        return rev == self or rev == self.scale(-1)


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, exact)
# ---------------------------------------------------------------------------

def char_poly(m: RationalMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), computed exactly.

    Faddeev-LeVerrier on the integer numerators N = den M: N's coefficients
    c_k are integers, so every division by k is exact, and the coefficient
    of x^(n-k) of M's is c_k / den^k.
    """
    n, den = m.dim, m.den
    coeffs = [0] * n + [den ** n]
    eye = mk = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        mk = m.nums @ mk
        c = -mk.trace() // k
        coeffs[n - k] = c * den ** (n - k)
        mk = mk + c * eye
    return IntPolynomial._of(coeffs, den ** n)


# ---------------------------------------------------------------------------
# Factorization over Q (Zassenhaus: factor modulo a prime, Hensel-lift the
# factors, recombine them; von zur Gathen-Gerhard, Modern Computer Algebra,
# ch. 14-15).  Polynomials here are int lists in ascending degree order with
# no trailing zeros; the zero polynomial is [].
# ---------------------------------------------------------------------------

# modular factors above which factor_over_q refuses the exponential subset
# recombination (Swinnerton-Dyer polynomials of degree 2^k split into at least
# 2^(k-1) factors modulo every prime); only characteristic polynomials reach it
_RECOMBINE_LIMIT = 16


def factor_over_q(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Exact irreducible factorization over Q, with multiplicities.

    Factors are returned monic, in canonical order (degree, then the
    ascending coefficient tuple); the constant content is discarded.
    Raises ArithmeticError, before any subset search, when a squarefree
    part splits into more than `_RECOMBINE_LIMIT` factors modulo its prime.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    f = _primitive(p.nums)
    out = [(IntPolynomial._of(q, q[-1]), k)
           for part, k in _squarefree_parts(f) for q in _factor_squarefree(part)]
    return sorted(out, key=lambda kv: (kv[0].degree, kv[0].coeffs))


# Miller-Rabin with these bases decides primality exactly below 3.18e23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.18e23 (Sorenson-Webster 2017); it
    picks the factorizer's primes and correlate's moduli below 2^61."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: list) -> list:
    """a over the gcd of its coefficients, with a positive leading coefficient."""
    if not a:
        return a
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def _add(a: list, b: list, m: int = 0) -> list:
    """a + b over Z, or modulo m when m is given."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b + [0] * (len(a) - len(b)))]
    return _trim([c % m for c in out] if m else out)


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, [-c for c in b], m)


def _mul(a: list, b: list, m: int = 0) -> list:
    """a * b over Z, or modulo m when m is given."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out]) if m else out


def _divmod_mod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b modulo m (b's leading coefficient a unit mod m)."""
    inv = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + db] * inv % m
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % m
    return _trim(quot), _trim(rem[:db])


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd over F_p (a nonzero)."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcdex_mod(a: list, b: list, p: int) -> tuple[list, list]:
    """s, t with s a + t b = 1 over F_p, deg s < deg b, deg t < deg a (a, b coprime)."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e modulo f over F_p."""
    out, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul(a, a, p), f, p)[1]
    return out


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder over Z: lc(b)^(deg a - deg b + 1) a modulo b."""
    rem, db, lb = list(a), len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + db]
        rem = [x * lb for x in rem]
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(rem[:db])


def _gcd_z(a: list, b: list) -> list:
    """Primitive gcd over Z with a positive leading coefficient (primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quotient(a: list, b: list) -> Optional[list]:
    """a / b over Z, or None when b does not divide a."""
    rem, db, lb = list(a), len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c, r = divmod(rem[k + db], lb)
        if r:
            return None
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return None if any(rem[:db]) else quot


def _squarefree_parts(f: list) -> list[tuple[list, int]]:
    """[(part, k)] with f = prod part^k, the parts squarefree, coprime, primitive
    and of positive degree and leading coefficient (f primitive, lead > 0)."""
    g = _gcd_z(f, _trim([i * c for i, c in enumerate(f)][1:]))
    w, y = _exact_quotient(f, g), g
    out, k = [], 1
    while len(w) > 1:
        z = _gcd_z(w, y)
        part = _exact_quotient(w, z)
        if len(part) > 1:
            out.append((part, k))
        w, y, k = z, _exact_quotient(y, z), k + 1
    return out


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """[(g, d)]: g the product of the degree-d irreducible factors of f over F_p
    (f monic and squarefree mod p)."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list, d: int, p: int, rng: random.Random) -> list[list]:
    """The monic irreducible factors of g over F_p, all of degree d (Cantor-Zassenhaus, p odd)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gcd_mod(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod_mod(g, h, p)[0], d, p, rng))


def _hensel_step(m: int, f: list, g: list, h: list, s: list, t: list) -> tuple:
    """From f = g h and s g + t h = 1 mod m (h monic) to the same identities mod m^2."""
    m2 = m * m
    e = _sub(f, _mul(g, h), m2)
    q, r = _divmod_mod(_mul(s, e, m2), h, m2)
    g = _add(g, _add(_mul(t, e), _mul(q, g), m2), m2)
    h = _add(h, r, m2)
    b = _sub(_add(_mul(s, g), _mul(t, h), m2), [1], m2)
    c, d = _divmod_mod(_mul(s, b, m2), h, m2)
    return g, h, _sub(s, d, m2), _sub(t, _add(_mul(t, b), _mul(c, g), m2), m2)


def _hensel_lift(f: list, factors: list[list], p: int, pk: int) -> list[list]:
    """Monic lifts mod pk = p^k of the factors mod p, given f = lc(f) prod(factors)
    mod p with the factors monic and pairwise coprime mod p (multifactor lifting
    down a balanced factor tree)."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, pk)
        return [[c * inv % pk for c in f]]
    half = len(factors) // 2
    g = reduce(lambda acc, u: _mul(acc, u, p), factors[:half], [f[-1] % p])
    h = reduce(lambda acc, u: _mul(acc, u, p), factors[half:], [1])
    s, t = _gcdex_mod(g, h, p)
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(g, factors[:half], p, pk) + _hensel_lift(h, factors[half:], p, pk)


def _recombine(f: list, lifted: list[list], pk: int) -> list[list]:
    """The irreducible factors over Z of the primitive squarefree f, from the monic
    lifts mod pk of its factors mod p; pk exceeds twice every coefficient of
    lc(f)/lc(g) g for every factor g of f.  Subsets of the lifts are tried by
    size; a candidate passes a constant-term divisibility screen and then exact
    trial division."""
    def symmetric(c: int) -> int:
        c %= pk
        return c - pk if 2 * c > pk else c

    out, todo, size = [], list(lifted), 1
    while 2 * size <= len(todo):
        lead = f[-1]
        for subset in combinations(range(len(todo)), size):
            if f[0]:
                c = symmetric(reduce(lambda acc, i: acc * todo[i][0] % pk, subset, lead))
                if not c or lead * f[0] % c:
                    continue
            g = reduce(lambda acc, i: _mul(acc, todo[i], pk), subset, [lead])
            g = _primitive([symmetric(c) for c in g])
            q = _exact_quotient(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            todo = [u for i, u in enumerate(todo) if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


def _factor_squarefree(f: list) -> list[list]:
    """Irreducible factors over Z of a primitive squarefree f with lead > 0."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p = 3
    while f[-1] % p == 0 or len(_gcd_mod([c % p for c in f],
                                         _trim([i * c % p for i, c in enumerate(f)][1:]),
                                         p)) > 1:
        p += 2
        while not _is_prime(p):
            p += 2
    inv = pow(f[-1], -1, p)
    split = _distinct_degree([c * inv % p for c in f], p)
    count = sum((len(g) - 1) // d for g, d in split)
    if count == 1:
        return [f]
    if count > _RECOMBINE_LIMIT:
        raise ArithmeticError(
            f"factor_over_q refuses a squarefree part of degree {n}: {count} factors "
            f"modulo {p} exceed the recombination limit {_RECOMBINE_LIMIT}")
    rng = random.Random(p)  # the route only: the factorization is unique
    factors = [u for g, d in split for u in _equal_degree(g, d, p, rng)]
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * f[-1]
    pk = p
    while pk <= 2 * bound:
        pk *= p
    return _recombine(f, _hensel_lift(f, factors, p, pk), pk)


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
    return [d for d in range(1, 2 * n * n + 3) if _euler_phi(d) == n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial by exact recursive division of x^d - 1."""
    xd = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            xd = _exact_quotient(xd, cyclotomic_polynomial(e).nums)
    return IntPolynomial._of(xd, 1)


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
    rows = m.nums if isinstance(m, RationalMatrix) else m
    red, last, pivots, _ = _rref(rows)
    n = len(rows[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-red[r][fc], last)
        basis.append(tuple(v))
    return basis


def integer_kernel(m: RationalMatrix) -> list[tuple]:
    """Basis of the saturated integer kernel {x in Z^n : Mx = 0}.

    Column-style Hermite reduction with a unimodular transform; the returned
    vectors generate ker(M) intersect Z^n as a lattice (integer tuples).
    """
    a = m.nums.T.tolist()  # columns as rows, times m.den
    n = m.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]  # tracks column ops
    row = col = 0
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
    return [tuple(u[r]) for r in range(col, n) if not any(a[r])]


@dataclass(frozen=True)
class PrimaryBlock:
    """One rational invariant block: factor q, multiplicity c, exact basis of ker q(M)^c."""

    factor: IntPolynomial
    multiplicity: int
    basis: tuple            # tuple of Fraction tuples, a Q-basis
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
        basis = rational_kernel(q.evaluate_matrix(m) ** c)
        expected = c * q.degree
        if len(basis) != expected:
            raise ArithmeticError(
                f"kernel dimension {len(basis)} != multiplicity*degree {expected} for factor {q}")
        cyc = is_cyclotomic(q, assume_irreducible=True) if q.is_integer() else None
        blocks.append(PrimaryBlock(q, c, tuple(basis), cyc))
    total = sum(b.dim for b in blocks)
    if total != m.dim:
        raise ArithmeticError("primary blocks do not fill the space")
    return PrimaryDecomposition(m, p, tuple(blocks))


def restrict_to_span(m: RationalMatrix, basis: Sequence[tuple]) -> RationalMatrix:
    """Exact matrix of m on an m-invariant span.  The basis (rational_kernel
    vectors or reduced echelon rows) has each vector equal to 1 at a column
    where the others vanish, so coordinates are read at those columns."""
    cols = [next(j for j, x in enumerate(v) if x == 1
                 and all(w[j] == 0 for k, w in enumerate(basis) if k != i))
            for i, v in enumerate(basis)]
    images = [m.apply(v) for v in basis]
    return RationalMatrix([[img[c] for img in images] for c in cols])


# ---------------------------------------------------------------------------
# Certified eigenvalue moduli and the Lyapunov splitting
# ---------------------------------------------------------------------------

def _certified_roots(q: IntPolynomial, prec: int) -> tuple[tuple, tuple]:
    """Roots of an irreducible (hence squarefree) polynomial in isolating
    Discs, Gaussian integers in units of 2^-s, s = prec + _DISC_BITS.

    np.roots of q(2^k x), with coefficients that fit doubles, seeds the centres;
    Weierstrass (Durand-Kerner) sweeps z_i -= w_i, w_i = q(z_i) / (lc prod_{j
    != i} (z_i - z_j)), in fixed point refine them, pushing apart centres that
    meet, until each |w_i| < 2^-(prec+32), PrecisionError after _ROOT_STEPS.
    Parts below 2^-(prec+31) are then 0; roots are sorted by (|imag|, real).
    With q, q' and w_i exact at the centres, r is max(8|q/q'|(z_i) +
    2^-(prec-8), n|w_i|) rounded up: the D(z_i, n|w_i|) cover the roots, and m
    of them apart from the rest hold m (Braess-Hadeler; Carstensen, Numer.
    Math. 1991), so disjoint discs hold one root each, else PrecisionError.
    Returns (complex(z_i), radius) pairs to the nearest double, and the discs
    (r covers the radius); ResolutionError for a root beyond the doubles."""
    a, n, s = q.nums, q.degree, prec + _DISC_BITS
    k = max(0, *(-((a[-1].bit_length() - c.bit_length() + 999) // (n - j))
                 for j, c in enumerate(a[:-1])))       # q(2^k x) / lc 2^kn: coefficients < 2^1000
    zs = [tuple((p << s + k) // d for p, d in map(float.as_integer_ratio, (z.real, z.imag)))
          for z in np.roots([c / (a[-1] << k * (n - j)) for j, c in reversed(list(enumerate(a)))])]
    fixed = [c << s for c in reversed(a)]
    for _ in range(_ROOT_STEPS):
        worst = 0
        for i, (x, y) in enumerate(zs):
            (u, v), _, (pu, pv) = _weierstrass(fixed, zs, i, s)
            if not (m := pu * pu + pv * pv):            # z_i meets another centre: push it off
                zs[i], worst = (x + (abs(x) >> 48) + 1, y + (abs(y) >> 48) + 1), math.inf
                continue
            zs[i] = x - ((u * pu + v * pv) << s) // m, y - ((v * pu - u * pv) << s) // m
            worst = max(worst, abs(x - zs[i][0]), abs(y - zs[i][1]))
        if worst < 1 << _DISC_BITS // 2:
            break
    else:
        raise PrecisionError(f"roots of {q} did not converge at {prec} bits")
    t, w = 1 << _DISC_BITS // 2 + 1, 1 << s
    zs = sorted(((x * (abs(x) >= t), y * (abs(y) >= t)) for x, y in zs),
                key=lambda z: (abs(z[1]), z[0]))
    exact = [c * w ** j for j, c in enumerate(reversed(a))]  # q(z) w^n = sum c_j w^(n-j) (zw)^j
    out, edge = [], (w << 1024) - (w << 970)    # x / w is a double (below 2^1024) iff |x| < edge
    for i, (x, y) in enumerate(zs):
        (u, v), (du, dv), (pu, pv) = _weierstrass(exact, zs, i, 0)
        if not ((du or dv) and (pu or pv)):
            raise PrecisionError(f"an approximate root of {q} is critical or repeated")
        r = 1 + max(math.isqrt(-(-64 * (u * u + v * v) // (du * du + dv * dv))) + (w >> prec - 8),
                    math.isqrt(-(-n * n * (u * u + v * v) // (pu * pu + pv * pv))))
        centre = complex(x / w, y / w) if max(abs(x), abs(y)) < edge else math.inf
        if not abs(centre) < math.inf or (math.isqrt(x * x + y * y) + 1 + r) << 1074 < w:
            raise ResolutionError(f"a root of a degree-{n} factor lies outside the float64 range")
        out.append(((centre, r / w), Disc(x, y, r + (r >> 52) + 1, prec)))
    roots, discs = zip(*out)
    # the identity is a symmetry too: each disc must meet no disc but itself
    if any(d.holder(discs) != i for i, d in enumerate(discs)):
        raise PrecisionError(f"root discs of {q} overlap at {prec} bits")
    return roots, discs


def _weierstrass(coeffs: list, zs: list, i: int, t: int) -> tuple:
    """q(z), q'(z) and lc prod_{j != i} (z - z_j) at z = z_i as Gaussian integer
    pairs, from q's coefficients (descending) times 2^t, in fixed point at scale
    2^t; or exactly for t = 0, coeffs times w^0..w^n and zs in units of 1/w."""
    (x, y), (u, v), (du, dv) = zs[i], (coeffs[0], 0), (0, 0)
    for c in coeffs[1:]:
        du, dv = ((du * x - dv * y) >> t) + u, ((du * y + dv * x) >> t) + v
        u, v = ((u * x - v * y) >> t) + c, (u * y + v * x) >> t
    pu, pv = coeffs[0], 0
    for x2, y2 in zs[:i] + zs[i + 1:]:
        pu, pv = (pu * (x - x2) - pv * (y - y2)) >> t, (pu * (y - y2) + pv * (x - x2)) >> t
    return (u, v), (du, dv), (pu, pv)


_DISC_BITS = 64
# Weierstrass sweeps before _certified_roots gives up
_ROOT_STEPS = 200


class Disc(NamedTuple):
    """A closed disc x + iy +- r, integers in units of 2^-bits, bits = prec +
    _DISC_BITS: a root's disc (_certified_roots), or its image under an exact
    map, rounded outward so it holds the image of every point it came from."""

    x: int
    y: int
    r: int
    prec: int     # the working precision the disc was made at

    @property
    def bits(self) -> int:
        return self.prec + _DISC_BITS

    def meets(self, other: "Disc") -> bool:
        (x, y, r, _), (u, v, e, _) = self, other
        return (x - u) ** 2 + (y - v) ** 2 <= (r + e) ** 2

    def holder(self, discs) -> Optional[int]:
        """The one disc of discs that this one meets, or None.  A root's image
        under an exact map (z -> conj z, 1/z) lies in its disc's image: when it
        is a root of the discs' polynomials, the one disc met holds it."""
        hits = [k for k, d in enumerate(discs) if self.meets(d)]
        return hits[0] if len(hits) == 1 else None

    def conjugate(self) -> "Disc":
        return self._replace(y=-self.y)

    def inverse(self) -> Optional["Disc"]:
        """The disc under z -> 1/z when it excludes 0, else None: centre
        conj(c) / s and radius r / s, s = |c|^2 - r^2, rounded outward."""
        x, y, r, prec = self
        if (s := x * x + y * y - r * r) <= 0:
            return None
        k = 1 << 2 * (prec + _DISC_BITS)
        return Disc(x * k // s, -y * k // s, r * k // s + 3, prec)

    def squared_modulus(self) -> "Disc":
        """The disc under z -> |z|^2: centre x^2 + y^2 on the real axis and
        radius 2|c| r + r^2, rounded outward, so |z|^2 lies strictly inside."""
        x, y, r, prec = self
        s, b = x * x + y * y, prec + _DISC_BITS
        return Disc(s >> b, 0, ((2 * (math.isqrt(s) + 1) * r + r * r) >> b) + 2, prec)

    def evaluate(self, nums: tuple) -> "Disc":
        """The disc under z -> sum_j nums[j] z^j by Horner, each product (c, e)(z, r)
        of radius |c| r + |z| e + e r, every floor rounded outward."""
        x, y, r, prec = self
        b, size = prec + _DISC_BITS, math.isqrt(x * x + y * y) + 1
        u = v = e = 0
        for c in reversed(nums):
            u, v, e = (((u * x - v * y) >> b) + (c << b), (u * y + v * x) >> b,
                       (((math.isqrt(u * u + v * v) + 1) * r + size * e + e * r) >> b) + 3)
        return Disc(u, v, e, prec)


@dataclass(frozen=True)
class FactorRoots:
    """Certified roots of one irreducible factor at one working precision, in
    pairwise disjoint discs that each hold exactly one root (_certified_roots):
    Gaussian integers, of which the doubles only report the centres and radii."""

    roots: tuple      # (complex centre, radius) per root, each its disc's to the nearest double
    discs: tuple      # per root: its Disc, all at one working precision
    partner: tuple    # index of each root's complex conjugate (itself for a real root)
    unit: tuple       # per root: |root| == 1 is proven


@lru_cache(maxsize=_MEMO_SIZE)
def factor_roots(q: IntPolynomial, prec: int) -> FactorRoots:
    """The root record of an irreducible factor: isolating discs, the
    conjugate partner of each root (the disc holding its conjugate), and which
    roots provably lie on the unit circle: |z| = 1 iff 1/z = conj(z), and 1/z
    is a root only when q is self-reciprocal."""
    roots, discs = _certified_roots(q, prec)
    partner = tuple(d.conjugate().holder(discs) for d in discs)
    if None in partner:
        raise PrecisionError(f"could not certify conjugate pairing of the roots of {q}")
    unit = tuple(q.is_self_reciprocal() and (inv := d.inverse()) is not None
                 and inv.holder(discs) == partner[i] for i, d in enumerate(discs))
    return FactorRoots(roots, discs, partner, unit)


def squared_modulus_polynomial(q: IntPolynomial) -> IntPolynomial:
    """P_q(y) = prod_{i <= j} (y - z_i z_j) over the roots z_i of q, so every
    |z|^2 = z conj(z) is a root.  Newton's identities on the power sums
    p_k(P_q) = (p_k(q)^2 + p_2k(q)) / 2 build it in integers: with d the
    denominator of monic q, the d z_i are roots of a monic integer polynomial."""
    m = q.monic()
    n, d, big = m.degree, m.den, m.degree * (m.degree + 1) // 2
    e = [1] + [(-1) ** k * m.nums[n - k] * d ** (k - 1) for k in range(1, n + 1)]
    p = [n]     # power sums of the roots d z_i
    for k in range(1, 2 * big + 1):
        p.append(sum((-1) ** (i - 1) * e[i] * p[k - i] for i in range(1, min(k, n + 1)))
                 + (-1) ** (k - 1) * k * (e[k] if k <= n else 0))
    sq = [(p[k] * p[k] + p[2 * k]) // 2 for k in range(big + 1)]
    f = [1]     # elementary symmetric functions of the products d^2 z_i z_j, i <= j
    for k in range(1, big + 1):
        f.append(sum((-1) ** (i - 1) * f[k - i] * sq[i] for i in range(1, k + 1)) // k)
    return IntPolynomial._of([(-1) ** (big - j) * f[big - j] * d ** (2 * j)
                              for j in range(big + 1)], d ** (2 * big))


@lru_cache(maxsize=_MEMO_SIZE)
def _squared_modulus_kernel(q: IntPolynomial) -> tuple:
    """S_q = P_q / gcd(P_q, P_q') over Z, P_q = squared_modulus_polynomial(q):
    each distinct product z_i z_j of q's roots is a simple root of S_q."""
    p = squared_modulus_polynomial(q)    # monic in lowest terms: p.nums is primitive
    return tuple(_exact_quotient(p.nums, _gcd_z(p.nums, p.derivative().nums)))


def _taylor_shift(f: list, a: int) -> list:
    """The coefficients of f(x + a), by n(n + 1)/2 integer steps."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += a * f[j + 1]
    return f


@lru_cache(maxsize=_MEMO_SIZE)
def _root_count(f: tuple, lo: int, hi: int, bits: int) -> Optional[int]:
    """The number of roots of f (a nonzero int tuple, ascending) in the open
    interval (a, b) = (lo, hi) 2^-bits, lo <= hi, when Descartes' rule of signs
    on (1 + t)^n f((a + b t)/(1 + t)), built in integers by two Taylor shifts,
    reads 0 or 1 sign changes, else None (Collins and Akritas, SYMSAC 1976).
    Memoized: the merge asks for each root's interval once per pair it meets."""
    g = _taylor_shift([c << bits * (len(f) - 1 - k) for k, c in enumerate(f)], lo)
    g = [c * (hi - lo) ** k for k, c in enumerate(g)]
    signs = [c > 0 for c in _taylor_shift(g[::-1], 1) if c]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    return changes if changes < 2 else None


@dataclass(frozen=True)
class LyapunovBlock:
    """Eigenvalue-modulus class: exponent, multiplicity, member roots.  exponent_err
    bounds the error of the exponent at the working precision, not of the
    double exponent rounded from it."""

    exponent: float
    exponent_err: float
    multiplicity: int
    primary_factors: tuple       # indices of primary blocks contributing, ascending
    roots: tuple                 # (primary index, root index) of each member root, ascending


@dataclass(frozen=True)
class LyapunovSplitting:
    """The exact modulus classes of a matrix, with float64 class bases built
    on first use of bases, once: only the subspace readers (w_plus, w_minus,
    w_zero, block_max, block_min, class_rows) need them."""

    matrix: RationalMatrix
    primary: PrimaryDecomposition
    blocks: tuple                 # LyapunovBlock, exponents ascending
    precision_bits: int

    @cached_property
    def bases(self) -> dict:
        """(class k, primary block i) -> read-only orthonormal rows spanning
        class k inside block i, for each block of each class, in ascending
        (k, i) order: _class_basis on the exact action on the block at
        precision_bits, M-invariant up to 1e-9 max(1, |M|_2)
        (_invariance_residual), else PrecisionError."""
        m_f = self.matrix.to_float()
        bound = 1e-9 * max(1.0, float(np.linalg.norm(m_f, 2)))
        actions = [restrict_to_span(self.matrix, blk.basis) for blk in self.primary.blocks]
        bases = {}
        for k, b in enumerate(self.blocks):
            for i in b.primary_factors:
                blk = self.primary.blocks[i]
                rows = _class_basis(actions[i], blk, factor_roots(blk.factor, self.precision_bits),
                                    [ri for fi, ri in b.roots if fi == i])
                residual = _invariance_residual(m_f, rows)
                if residual > bound:
                    raise PrecisionError(
                        f"class invariance residual {residual:.3e} exceeds {bound:.3g}")
                rows.setflags(write=False)
                bases[k, i] = rows
        return bases

    def _union(self, pred) -> np.ndarray:
        rows = [rows for (k, _), rows in self.bases.items() if pred(self.blocks[k])]
        return np.vstack(rows) if rows else np.zeros((0, self.matrix.dim))

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
        return self._extreme(max)

    def block_min(self) -> np.ndarray:
        return self._extreme(min)

    def _extreme(self, pick) -> np.ndarray:
        # classes are indexed in ascending order of exponent
        return np.vstack([self.bases[pick(k for k, j in self.bases if j == i), i]
                          for i in range(len(self.primary.blocks))])

    def class_rows(self, k: int, i: int) -> np.ndarray:
        """The orthonormal rows of class k inside primary block i."""
        return self.bases[k, i]

    def class_of(self, p: IntPolynomial, disc: Disc) -> int:
        """Index of the class holding |p(z)|, z the root in disc (a FactorRoots
        Disc): the one class whose |z|^2 disc, of a member root at disc.prec,
        times p.den^2, meets that of p.nums on disc, else PrecisionError."""
        moduli = [factor_roots(self.primary.blocks[fi].factor, disc.prec).discs[ri]
                  .squared_modulus() for fi, ri in (b.roots[0] for b in self.blocks)]
        k = disc.evaluate(p.nums).squared_modulus().holder(
            [m._replace(x=m.x * p.den ** 2, r=m.r * p.den ** 2) for m in moduli])
        if k is None:
            raise PrecisionError(
                f"|p(mu)| is not in exactly one Lyapunov class at {disc.prec} bits")
        return k


def _class_basis(action: RationalMatrix, blk: PrimaryBlock, rec: FactorRoots,
                 kept: list) -> np.ndarray:
    """Orthonormal float64 rows spanning the generalized eigenspaces of the
    kept roots (indices into rec) inside the primary block blk.

    The span is the column space of P(A)^c, A the exact action on blk's basis
    (restrict_to_span), c its multiplicity and P the real polynomial of the
    other roots, each conjugate pair one quadratic.  P's coefficients come
    from the integer disc centres, and P(A)^c is formed, in fixed point at
    the discs' scale 2^bits.  Elimination with complete pivoting keeps
    c len(kept) columns, PrecisionError unless the next pivot is below
    2^-(prec/2) of the largest; the kept columns are mapped to the ambient
    space, rounded to float64 and orthonormalized (QR), once.
    """
    s, prec = rec.discs[0].bits, rec.discs[0].prec
    poly = [1 << s]               # ascending coefficients in units of 2^-s
    for ri, (x, y, _, _) in enumerate(rec.discs):
        if ri in kept or rec.partner[ri] < ri:
            continue
        factor = [-x, 1 << s] if rec.partner[ri] == ri else [(x * x + y * y) >> s, -2 * x, 1 << s]
        poly = [c >> s for c in _mul(poly, factor)]
    n = action.dim
    eye = np.identity(n, dtype=object)
    t = poly[-1] * eye
    for c in reversed(poly[:-1]):
        t = (t @ action.nums) // action.den + c * eye
    p = t
    for _ in range(blk.multiplicity - 1):
        t = (t @ p) >> s

    rank = blk.multiplicity * len(kept)
    w, live, cols, largest = t.tolist(), set(range(n)), [], 0
    while len(cols) < n:
        size, i, j = max((abs(w[i][j]), i, j) for i in live for j in range(n) if j not in cols)
        largest = largest or size
        if len(cols) == rank:
            if size << prec // 2 >= largest:
                raise PrecisionError(f"class of rank {rank} not separated at {prec} bits")
            break
        if size == 0:
            raise PrecisionError(f"class rank below {rank} at {prec} bits")
        cols.append(j)
        live.remove(i)
        for r in live:
            f = w[r][j]
            w[r] = [a - f * b // w[i][j] for a, b in zip(w[r], w[i])]

    vnums = _integral(blk.basis)[0]
    amb = t[:, sorted(cols)].T @ vnums
    floats = (amb / np.abs(amb).max(axis=1, keepdims=True)).astype(float)
    return np.linalg.qr(floats.T)[0].T


@lru_cache(maxsize=_MEMO_SIZE)
def lyapunov_data(m: RationalMatrix) -> LyapunovSplitting:
    """Certified Lyapunov splitting of an invertible rational matrix.

    Moduli of the exact characteristic roots are computed with error bounds,
    first at START_PRECISION_BITS.  Two roots share a class only when their
    moduli are proven equal, and lie in two classes only when proven
    unequal (_modulus_relation: unit circle, conjugation and root counts of
    the squared-modulus kernels); doubles only order and report them.  A
    pair decided neither way doubles the precision up to
    _MAX_PRECISION_BITS and then raises PrecisionError; moduli proven unequal
    whose doubles coincide raise ResolutionError at once.  The splitting's
    precision_bits is the precision that succeeded.  Every attempt reuses the
    memoized primary decomposition and builds the exact classes only
    (LyapunovSplitting.bases builds their float64 bases on first use).
    Memoized per matrix; the splitting is frozen and its bases are
    read-only, since callers share it.
    """
    det = m.determinant()
    if det == 0:
        raise ValueError("matrix must be invertible")
    prec = START_PRECISION_BITS
    while True:
        try:
            return _lyapunov_attempt(m, det, prec)
        except PrecisionError as e:
            if prec >= _MAX_PRECISION_BITS or isinstance(e, ResolutionError):
                raise
            prec = min(2 * prec, _MAX_PRECISION_BITS)


def _lyapunov_attempt(m: RationalMatrix, det: Fraction, prec: int) -> LyapunovSplitting:
    primary = primary_decomposition(m)
    records = [factor_roots(blk.factor, prec) for blk in primary.blocks]
    entries = []  # one per root: factor index, root index, modulus, error, proven |root| = 1
    for fi, rec in enumerate(records):
        for ri, ((r, err), one) in enumerate(zip(rec.roots, rec.unit)):
            if rec.discs[ri].inverse() is None:
                raise PrecisionError(f"a root disc reaches 0 at {prec} bits")
            entries.append({"fi": fi, "ri": ri, "mod": 1.0 if one else abs(r),
                            "err": 0.0 if one else err, "one": one})

    blocks = []
    for cls in _merge_modulus_classes(entries, primary, records):
        mult = sum(primary.blocks[e["fi"]].multiplicity for e in cls)
        # a class holds proven unit moduli only, or none (_modulus_relation)
        exponent = exponent_err = 0.0
        if not cls[0]["one"]:
            exps = [math.log(e["mod"]) for e in cls]
            errs = [e["err"] / e["mod"] * 1.05 + 1e-300 for e in cls]
            exponent = float(np.mean(exps))
            exponent_err = float(max(errs) + (max(exps) - min(exps)))
        blocks.append(LyapunovBlock(exponent, exponent_err, mult,
                                    tuple(sorted({e["fi"] for e in cls})),
                                    tuple(sorted((e["fi"], e["ri"]) for e in cls))))

    blocks.sort(key=lambda b: b.exponent)
    _check_disjoint(blocks)
    split = LyapunovSplitting(m, primary, tuple(blocks), prec)
    _check_det_sum(det, split)
    return split


def _invariance_residual(m_f: np.ndarray, basis: np.ndarray) -> float:
    """The largest distance from M v to the span of the orthonormal rows of
    basis, over those rows v: the largest column norm of R - B^T (B R), R = M B^T."""
    r = m_f @ basis.T
    return float(np.linalg.norm(r - basis.T @ (basis @ r), axis=0).max())


def _merge_modulus_classes(entries, primary, records):
    """Group roots into classes of equal modulus, decided by _modulus_relation
    alone.  In ascending order of reported modulus, a root joins the class
    with a member proven equal to it, opens a new class only when proven
    unequal to every root placed so far, and else raises PrecisionError; a
    root proven unequal to a member of the same double modulus raises
    ResolutionError at once."""
    classes = []
    for e in sorted(entries, key=lambda e: e["mod"]):
        unproven = False
        for cls, x in ((cls, x) for cls in classes for x in cls):
            relation = _modulus_relation(e, x, primary, records)
            if relation:
                cls.append(e)
                break
            if relation is False and x["mod"] == e["mod"]:
                raise ResolutionError(f"moduli near {e['mod']:.6g} differ below double resolution")
            unproven |= relation is None
        else:
            if unproven:
                raise PrecisionError(f"modulus near {e['mod']:.6g} not proven equal or unequal")
            classes.append([e])
    return classes


def _modulus_relation(e1, e2, primary, records) -> Optional[bool]:
    """True when |root 1| == |root 2| is proven, False when |root 1| != |root 2|
    is, None when neither.  Unequal: the discs of the squared moduli are
    disjoint (asked of every pair).  Equal: both are proven on the unit circle
    (a unit and a non-unit root are never proven equal), or root 2 is the
    conjugate of root 1.  Else, when the open interval I_k of each squared
    modulus holds one root of S_qk (_squared_modulus_kernel), 1 or 0 roots of
    gcd(S_q1, S_q2) in I1 and I2 decide; other counts decide nothing."""
    if e1["one"] and e2["one"]:
        return True
    rec1, rec2 = records[e1["fi"]], records[e2["fi"]]
    images = [rec.discs[e["ri"]].squared_modulus() for rec, e in ((rec1, e1), (rec2, e2))]
    if not images[0].meets(images[1]):
        return False
    if e1["one"] or e2["one"]:
        return None
    if e1["fi"] == e2["fi"] and rec1.partner[e1["ri"]] == e2["ri"]:
        return True
    kernels = [_squared_modulus_kernel(primary.blocks[e["fi"]].factor) for e in (e1, e2)]
    (lo1, hi1, bits), (lo2, hi2, _) = spans = [(d.x - d.r, d.x + d.r, d.bits) for d in images]
    if any(_root_count(s, *span) != 1 for s, span in zip(kernels, spans)):
        return None
    count = _root_count(tuple(_gcd_z(*kernels)), max(lo1, lo2), min(hi1, hi2), bits)
    return None if count is None else count == 1


def _check_disjoint(blocks):
    # after merging, distinct classes have distinct true moduli; touching
    # certified intervals therefore mean the precision was insufficient
    for a, b in zip(blocks, blocks[1:]):
        if a.exponent + a.exponent_err >= b.exponent - b.exponent_err:
            raise PrecisionError("adjacent exponent intervals overlap after merging")


def _check_det_sum(det: Fraction, split: LyapunovSplitting):
    target = math.log(abs(det.numerator)) - math.log(det.denominator)   # det may pass 2^1024
    total = sum(b.exponent * b.multiplicity for b in split.blocks)
    budget = sum(b.exponent_err * b.multiplicity for b in split.blocks) + 1e-9
    if not abs(total - target) <= budget < math.inf:      # NaN and infinity fail too
        raise PrecisionError(
            f"sum of exponents {total:.12g} != log|det| {target:.12g} beyond budget {budget:.3g}")
