"""Finite Fourier observables on integer frequency lattices.

An observable is a finite map from frequency vectors z in Z^d to complex
coefficients; it stands in for a trigonometric polynomial sum_z c_z
e^{2 pi i z.x}.  It is three read-only arrays: `freqs`, the (m, d) int64
frequencies, distinct and in lexicographic order, and `re`, `im`, the
parts of their nonzero coefficients: float64, or Fractions (Gaussian
rationals) when the observable is flagged exact.  Outside input (a mapping
or the JSON wire format) is checked once, when it is read; derived
observables are built straight from arrays.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from fractions import Fraction
from itertools import chain, repeat
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = ["FourierObservable", "ExactComplex", "real_cosine", "real_sine"]


class ExactComplex:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _excoerce(o)
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, o):
        o = _excoerce(o)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = _excoerce(o)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __eq__(self, o):
        o = _excoerce(o)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def _excoerce(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x, 0)
    if isinstance(x, complex):
        raise TypeError("cannot mix floating complex into exact arithmetic")
    raise TypeError(f"cannot coerce {x!r}")


Coefficient = Union[complex, ExactComplex]


def _pow(x: np.ndarray, y) -> np.ndarray:
    """x ** y entrywise.  A square is the IEEE product x * x, correctly rounded on
    every platform (glibc's pow(x, 2) differs from it for about 1 in 1000 doubles),
    and raises FloatingPointError where it overflows.  Any other power (the Sobolev
    weight w^s) maps the scalar libm pow, as Python's float ** rounds, as do the
    solver's symbols and the bump profile's exp elsewhere: no exact rule fixes those
    bits, so they stay pinned to libm (numpy's power and exp differ in the last bit)."""
    if y == 2:
        with np.errstate(over="raise"):
            return x * x
    return np.fromiter(map(pow, x.ravel().tolist(), repeat(y)), dtype=np.float64,
                       count=x.size).reshape(x.shape)


@contextlib.contextmanager
def _overflow_refused(norm: str):
    """Raise on float overflow inside, as ArithmeticError naming the norm."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ArithmeticError(f"{norm}: the (weighted) squared coefficient moduli overflow "
                              "a double") from None


def _square_sum(re: np.ndarray, im: np.ndarray, norm: str, w=None, s=1.0) -> float:
    """fsum of |re + i im|^2, each times w^s if w is given (powers by _pow);
    ArithmeticError naming the norm where a power, product or the sum overflows."""
    with _overflow_refused(norm):
        return math.fsum((1.0 if w is None else _pow(w, s)) * _pow(np.hypot(re, im), 2))


def _ordered_sum(a: np.ndarray, start=0.0):
    """start + a[..., 0] + a[..., 1] + ... left to right, as a Python loop adds (np.sum
    adds pairwise): the last entry of the running sum, a scalar for 1-D input."""
    head = np.full(a.shape[:-1] + (1,), start)
    return np.cumsum(np.concatenate([head, a], axis=-1), axis=-1).T[-1]


def _lex_rows(freqs: np.ndarray) -> tuple:
    """The distinct rows in lexicographic order, and each row's index among them."""
    order = np.lexsort(freqs.T[::-1])
    rows = freqs[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], inverse


class FourierObservable:
    """Finite complex coefficient map on Z^d."""

    __slots__ = ("dim", "exact", "freqs", "re", "im")

    def __init__(self, dim: int, coeffs: Mapping[tuple, Coefficient], exact: bool = False):
        """Read a mapping frequency -> coefficient; zero coefficients are dropped."""
        parts = [_coefficient(c, exact) for c in coeffs.values()]
        FourierObservable._of(*_checked(dim, list(coeffs), [p[0] for p in parts],
                                        [p[1] for p in parts], exact), exact, out=self)

    @classmethod
    def _of(cls, dim: int, freqs: np.ndarray, re: np.ndarray, im: np.ndarray,
            exact: bool, out=None) -> "FourierObservable":
        """Trusted constructor (fills out if given): freqs distinct, sorted; zeros dropped."""
        keep = (re != 0) | (im != 0)
        if not keep.all():
            freqs, re, im = freqs[keep], re[keep], im[keep]
        for a in (freqs, re, im):
            a.flags.writeable = False
        out = object.__new__(cls) if out is None else out
        out.dim, out.exact, out.freqs, out.re, out.im = dim, bool(exact), freqs, re, im
        return out

    def _take(self, rows) -> "FourierObservable":
        """The observable on some of its rows (a mask, or ascending indices)."""
        return FourierObservable._of(self.dim, self.freqs[rows], self.re[rows], self.im[rows],
                                     self.exact)

    def _parts(self, exact: bool) -> tuple:
        """The coefficient parts, as floats unless exact."""
        kind = object if exact else np.float64
        return self.re.astype(kind, copy=False), self.im.astype(kind, copy=False)

    # -- structure -----------------------------------------------------------

    def frequencies(self) -> list[tuple]:
        return [tuple(z) for z in self.freqs.tolist()]

    def items(self):
        value = ExactComplex if self.exact else complex
        return zip(self.frequencies(), map(value, self.re.tolist(), self.im.tolist()))

    @property
    def coeffs(self) -> dict:
        """A new dict frequency -> coefficient (perfbench's tracer reads it)."""
        return dict(self.items())

    def __len__(self):
        return len(self.freqs)

    def __getitem__(self, z) -> Coefficient:
        z = np.array([int(x) for x in z], dtype=object)
        hit = np.flatnonzero((self.freqs == z).all(axis=1)) if len(z) == self.dim else []
        if len(hit):
            return (ExactComplex if self.exact else complex)(self.re[hit[0]], self.im[hit[0]])
        return ExactComplex() if self.exact else 0j

    def support_radius(self) -> float:
        return math.sqrt(max((self.freqs.astype(object) ** 2).sum(axis=1), default=0))

    def mean(self) -> Coefficient:
        return self[tuple([0] * self.dim)]

    def is_mean_zero(self) -> bool:
        return not self.mean()

    def max_abs(self) -> float:
        return float(np.hypot(*self._parts(False)).max()) if len(self) else 0.0

    # -- algebra ---------------------------------------------------------------

    def scaled(self, a) -> "FourierObservable":
        exact = self.exact and isinstance(a, (int, Fraction, ExactComplex))
        a = _excoerce(a) if exact else complex(a)
        ar, ai = (a.re, a.im) if exact else (a.real, a.imag)
        re, im = self._parts(exact)
        return FourierObservable._of(self.dim, self.freqs, ar * re - ai * im,
                                     ar * im + ai * re, exact)

    def __add__(self, other: "FourierObservable") -> "FourierObservable":
        """self's coefficients stay as they are; other's are added to them,
        or to 0.0 where self has none (which turns a -0.0 part into 0.0)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        exact = self.exact and other.exact
        (ar, ai), (br, bi) = self._parts(exact), other._parts(exact)
        freqs, inv = _lex_rows(np.concatenate([self.freqs, other.freqs]))
        n = len(self)
        re, im = np.zeros(len(freqs), dtype=ar.dtype), np.zeros(len(freqs), dtype=ar.dtype)
        re[inv[:n]], im[inv[:n]] = ar, ai
        re[inv[n:]] += br
        im[inv[n:]] += bi
        return FourierObservable._of(self.dim, freqs, re, im, exact)

    def __sub__(self, other: "FourierObservable") -> "FourierObservable":
        return self + other.scaled(-1)

    def conjugate(self) -> "FourierObservable":
        """Coefficients of the pointwise complex conjugate: c'_z = conj(c_{-z})."""
        return FourierObservable._of(self.dim, -self.freqs[::-1], self.re[::-1],
                                     -self.im[::-1], self.exact)

    def product(self, other: "FourierObservable") -> "FourierObservable":
        """Pointwise product = coefficient convolution; each frequency's terms
        are added from zero in the order of a loop over self, then other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if len(self) and len(other) and \
                int(np.abs(self.freqs).max()) + int(np.abs(other.freqs).max()) >= 1 << 63:
            raise OverflowError("product frequencies would leave int64")
        exact = self.exact and other.exact
        (ar, ai), (br, bi) = self._parts(exact), other._parts(exact)
        ar, ai = ar[:, None], ai[:, None]
        freqs, inv = _lex_rows((self.freqs[:, None] + other.freqs[None]).reshape(-1, self.dim))
        re, im = np.zeros(len(freqs), dtype=ar.dtype), np.zeros(len(freqs), dtype=ar.dtype)
        np.add.at(re, inv, (ar * br - ai * bi).ravel())
        np.add.at(im, inv, (ar * bi + ai * br).ravel())
        return FourierObservable._of(self.dim, freqs, re, im, exact)

    def power(self, n: int) -> "FourierObservable":
        if n < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out.product(self)
        return out

    def integral(self) -> Coefficient:
        """Integral over the torus = zero-frequency coefficient."""
        return self.mean()

    def l2_sq(self):
        """||f||_2^2 = sum |c_z|^2 (Plancherel)."""
        if self.exact:
            return sum(self.re * self.re + self.im * self.im, Fraction(0))
        return _square_sum(self.re, self.im, "l2 norm")

    def to_float(self) -> "FourierObservable":
        return FourierObservable._of(self.dim, self.freqs, *self._parts(False), False) \
            if self.exact else self

    def __repr__(self):
        return f"FourierObservable(dim={self.dim}, modes={len(self)}, exact={self.exact})"

    # -- JSON wire format ------------------------------------------------------

    def to_json_dict(self) -> dict:
        re, im = self._parts(False)
        return {"dim": self.dim,
                "coeffs": [{"z": z, "re": a, "im": b} for z, a, b in
                           zip(self.freqs.tolist(), re.tolist(), im.tolist())]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "FourierObservable":
        return FourierObservable._of(*_checked(*_json_parts(data), False), False)

    @staticmethod
    def loads(text: str) -> "FourierObservable":
        return FourierObservable.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# The one check of outside input
# ---------------------------------------------------------------------------

_FREQ_LIMIT = 1 << 62     # |z_j| of outside input stays below: a sum of two fits in int64


def _is_number(x, integral: bool = False) -> bool:
    """The config rules for one number: an int or a finite float, never a bool
    or a string; an integral one has no fractional part, any other fits a float."""
    if isinstance(x, (bool, np.bool_)):
        return False
    if isinstance(x, (int, np.integer)):
        return integral or abs(int(x)) <= sys.float_info.max
    return (isinstance(x, (float, np.floating)) and math.isfinite(x)
            and (not integral or float(x).is_integer()))


def _coefficient(c, exact: bool) -> tuple:
    """The parts of one mapping coefficient: exact ones as Fractions."""
    if isinstance(c, (bool, np.bool_)):
        raise ValueError(f"bad coefficient {c!r}")
    if exact:
        c = c if isinstance(c, ExactComplex) else ExactComplex(c)
        return c.re, c.im
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"bad coefficient {c!r}: must be finite")
    return c.real, c.imag


def _all_numbers(values: list, integral: bool = False) -> bool:
    """Whether _is_number(x, integral) holds for every x of values.  Exact
    ints and floats are decided in one numpy pass; only values of other
    types (bools, strings, numpy scalars) go through _is_number."""
    kinds = set(map(type, values))
    if kinds - {int, float}:
        if not all(_is_number(x, integral) for x in values if type(x) not in (int, float)):
            return False
        values = [x for x in values if type(x) in (int, float)]
    if integral:        # every int is integral; a float must be finite and whole
        if float not in kinds:
            return True
        a = np.array([x for x in values if type(x) is float] if int in kinds else values,
                     dtype=np.float64)
        return bool((np.isfinite(a) & (np.floor(a) == a)).all())
    try:
        a = np.array(values, dtype=np.float64)
    except OverflowError:                       # an int beyond every float
        return False
    # an int just above the float max rounds to it: decide those exactly
    edge = np.flatnonzero(np.abs(a) == sys.float_info.max)
    return bool(np.isfinite(a).all()) and all(_is_number(values[i]) for i in edge)


def _json_parts(data) -> tuple:
    """dim, frequencies and checked coefficient parts of the wire format."""
    if not isinstance(data, dict) or set(data) - {"dim", "coeffs"}:
        raise ValueError("an observable is an object with fields 'dim' and 'coeffs'")
    entries = data.get("coeffs")
    if not isinstance(entries, list) \
            or not all(issubclass(t, dict) for t in set(map(type, entries))) \
            or set().union(*entries) - {"z", "re", "im"}:
        raise ValueError("'coeffs' must be a list of entries with keys z, re, im")
    re, im = ([e.get(k, 0.0) for e in entries] for k in ("re", "im"))
    if not _all_numbers(re + im):
        raise ValueError("coefficient parts 're', 'im' must be finite numbers")
    return data.get("dim"), [e.get("z") for e in entries], re, im


def _checked(dim, zs: list, re: list, im: list, exact: bool) -> tuple:
    """Check dim and the frequencies zs (parallel to the coefficient parts)
    by the config rules: integers with |z_j| < 2^62, each a list of dim of
    them, no two alike.  Returns the constructor's arrays, sorted."""
    if not _is_number(dim, integral=True) or dim < 1:
        raise ValueError(f"bad dim {dim!r}: must be a positive integer")
    dim = int(dim)
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, zs))) \
            or set(map(len, zs)) - {dim}:
        raise ValueError(f"every frequency must be a list of {dim} integers")
    flat = list(chain.from_iterable(zs))
    if not _all_numbers(flat, integral=True):
        raise ValueError("frequency coordinates must be integers")
    try:                                        # int() of each coordinate
        coords = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except OverflowError:
        coords = None
    if coords is None or ((coords >= _FREQ_LIMIT) | (coords <= -_FREQ_LIMIT)).any():
        raise ValueError("frequency coordinates must lie below 2^62 in absolute value")
    freqs, inv = _lex_rows(coords.reshape(len(zs), dim))
    if len(freqs) < len(zs):
        raise ValueError("repeated frequency")
    kind = object if exact else np.float64
    out_re, out_im = np.empty(len(zs), dtype=kind), np.empty(len(zs), dtype=kind)
    out_re[inv], out_im[inv] = re, im
    return dim, freqs, out_re, out_im


def real_cosine(dim: int, z: Sequence[int]) -> FourierObservable:
    """cos(2 pi z.x) as an exact observable: coefficients 1/2 at +-z."""
    z = tuple(int(x) for x in z)
    half = Fraction(1, 2)
    return FourierObservable(dim, {z: ExactComplex(half),
                                   tuple(-x for x in z): ExactComplex(half)}, exact=True)


def real_sine(dim: int, z: Sequence[int]) -> FourierObservable:
    """sin(2 pi z.x): coefficients -+ i/2 at +-z."""
    z = tuple(int(x) for x in z)
    half = Fraction(1, 2)
    return FourierObservable(dim, {z: ExactComplex(0, -half),
                                   tuple(-x for x in z): ExactComplex(0, half)}, exact=True)
