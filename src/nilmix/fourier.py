"""Finite Fourier observables on integer frequency lattices.

An observable is a finite map from frequency vectors z in Z^d to complex
coefficients; it stands in for a trigonometric polynomial sum_z c_z
e^{2 pi i z.x}.  Coefficients are complex doubles, or pairs of exact
Fractions (Gaussian rationals) when the observable is flagged exact.
Iteration is always in lexicographic frequency order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

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


class FourierObservable:
    """Finite complex coefficient map on Z^d."""

    __slots__ = ("dim", "coeffs", "exact")

    def __init__(self, dim: int, coeffs: Mapping[tuple, Coefficient], exact: bool = False):
        self.dim = int(dim)
        self.exact = bool(exact)
        store = {}
        for z, c in coeffs.items():
            z = tuple(int(x) for x in z)
            if len(z) != self.dim:
                raise ValueError(f"frequency {z} does not have dimension {self.dim}")
            if exact:
                c = c if isinstance(c, ExactComplex) else ExactComplex(c)
                if c:
                    store[z] = c
            else:
                c = complex(c)
                if c != 0:
                    store[z] = c
        self.coeffs = store

    # -- structure -----------------------------------------------------------

    def frequencies(self) -> list[tuple]:
        return sorted(self.coeffs)

    def items(self):
        for z in self.frequencies():
            yield z, self.coeffs[z]

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, z) -> Coefficient:
        z = tuple(int(x) for x in z)
        if z in self.coeffs:
            return self.coeffs[z]
        return ExactComplex() if self.exact else 0j

    def support_radius(self) -> float:
        return max((math.sqrt(sum(x * x for x in z)) for z in self.coeffs), default=0.0)

    def mean(self) -> Coefficient:
        return self[tuple([0] * self.dim)]

    def is_mean_zero(self) -> bool:
        return not _nonzero(self.mean())

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    # -- algebra ---------------------------------------------------------------

    def scaled(self, a) -> "FourierObservable":
        exact = self.exact and isinstance(a, (int, Fraction, ExactComplex))
        if exact:
            return FourierObservable(self.dim, {z: a * c for z, c in self.coeffs.items()},
                                     exact=True)
        a = complex(a)
        return FourierObservable(self.dim, {z: a * complex(c) for z, c in self.coeffs.items()})

    def __add__(self, other: "FourierObservable") -> "FourierObservable":
        self._compat(other)
        exact = self.exact and other.exact
        conv = (lambda c: c) if exact else complex
        out: dict = {}
        for z, c in self.coeffs.items():
            out[z] = conv(c)
        for z, c in other.coeffs.items():
            out[z] = out.get(z, ExactComplex() if exact else 0j) + conv(c)
        return FourierObservable(self.dim, out, exact=exact)

    def __sub__(self, other: "FourierObservable") -> "FourierObservable":
        return self + other.scaled(-1)

    def conjugate(self) -> "FourierObservable":
        """Coefficients of the pointwise complex conjugate: c'_z = conj(c_{-z})."""
        out = {tuple(-x for x in z): c.conjugate() for z, c in self.coeffs.items()}
        return FourierObservable(self.dim, out, exact=self.exact)

    def product(self, other: "FourierObservable") -> "FourierObservable":
        """Pointwise product = coefficient convolution."""
        self._compat(other)
        exact = self.exact and other.exact
        conv = (lambda c: c) if exact else complex
        out: dict = {}
        for z1, c1 in self.items():
            for z2, c2 in other.items():
                z = tuple(a + b for a, b in zip(z1, z2))
                out[z] = out.get(z, ExactComplex() if exact else 0j) + conv(c1) * conv(c2)
        return FourierObservable(self.dim, out, exact=exact)

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
            return sum((c.abs_sq() for c in self.coeffs.values()), Fraction(0))
        return math.fsum(abs(c) ** 2 for _, c in self.items())

    def to_float(self) -> "FourierObservable":
        return FourierObservable(self.dim, {z: complex(c) for z, c in self.coeffs.items()})

    def _compat(self, other: "FourierObservable"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return f"FourierObservable(dim={self.dim}, modes={len(self.coeffs)}, exact={self.exact})"

    # -- JSON wire format ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "coeffs": [{"z": list(z), "re": float(complex(c).real),
                            "im": float(complex(c).imag)}
                           for z, c in self.items()]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "FourierObservable":
        if set(data) - {"dim", "coeffs"}:
            raise ValueError(f"unknown observable fields {sorted(set(data) - {'dim', 'coeffs'})}")
        coeffs = {}
        for entry in data["coeffs"]:
            if set(entry) - {"z", "re", "im"}:
                raise ValueError("coefficient entries must have keys z, re, im")
            coeffs[tuple(entry["z"])] = complex(entry.get("re", 0.0), entry.get("im", 0.0))
        return FourierObservable(int(data["dim"]), coeffs)

    @staticmethod
    def loads(text: str) -> "FourierObservable":
        return FourierObservable.from_json_dict(json.loads(text))


def _nonzero(c) -> bool:
    if isinstance(c, ExactComplex):
        return bool(c)
    return c != 0


def real_cosine(dim: int, z: Sequence[int], amplitude=1) -> FourierObservable:
    """cos(2 pi z.x) with the given amplitude, as an exact observable."""
    z = tuple(int(x) for x in z)
    half = Fraction(amplitude) / 2
    return FourierObservable(dim, {z: ExactComplex(half),
                                   tuple(-x for x in z): ExactComplex(half)}, exact=True)


def real_sine(dim: int, z: Sequence[int], amplitude=1) -> FourierObservable:
    """sin(2 pi z.x): coefficients -+ i/2 at +-z."""
    z = tuple(int(x) for x in z)
    half = Fraction(amplitude) / 2
    return FourierObservable(dim, {z: ExactComplex(0, -half),
                                   tuple(-x for x in z): ExactComplex(0, half)}, exact=True)
