"""Dict-based Fourier observables and the per-mode small-divisor solver.

These are the earlier implementations, kept as the reference the array
code in `nilmix.fourier` and `nilmix.fracsolve` is checked against bit for
bit: an observable is a dict frequency tuple -> coefficient, every
operation is a Python loop over it, and the solver inverts one mode at a
time.  Squares are the IEEE product x * x, as in the library; every other
power is Python's float ** (libm's pow).
"""

import json
import math
import warnings
from fractions import Fraction

from nilmix.fourier import ExactComplex
from nilmix.fracsolve import ObstructionError

_TWO_PI = 2.0 * math.pi


class DictObservable:
    """Finite complex coefficient map on Z^d, stored as a dict."""

    def __init__(self, dim, coeffs, exact=False):
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

    def frequencies(self):
        return sorted(self.coeffs)

    def items(self):
        for z in self.frequencies():
            yield z, self.coeffs[z]

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, z):
        z = tuple(int(x) for x in z)
        if z in self.coeffs:
            return self.coeffs[z]
        return ExactComplex() if self.exact else 0j

    def max_abs(self):
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def scaled(self, a):
        if self.exact and isinstance(a, (int, Fraction, ExactComplex)):
            return DictObservable(self.dim, {z: a * c for z, c in self.coeffs.items()},
                                  exact=True)
        a = complex(a)
        return DictObservable(self.dim, {z: a * complex(c) for z, c in self.coeffs.items()})

    def __add__(self, other):
        exact = self.exact and other.exact
        conv = (lambda c: c) if exact else complex
        out = {}
        for z, c in self.coeffs.items():
            out[z] = conv(c)
        for z, c in other.coeffs.items():
            out[z] = out.get(z, ExactComplex() if exact else 0j) + conv(c)
        return DictObservable(self.dim, out, exact=exact)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def conjugate(self):
        out = {tuple(-x for x in z): c.conjugate() for z, c in self.coeffs.items()}
        return DictObservable(self.dim, out, exact=self.exact)

    def product(self, other):
        exact = self.exact and other.exact
        conv = (lambda c: c) if exact else complex
        out = {}
        for z1, c1 in self.items():
            for z2, c2 in other.items():
                z = tuple(a + b for a, b in zip(z1, z2))
                out[z] = out.get(z, ExactComplex() if exact else 0j) + conv(c1) * conv(c2)
        return DictObservable(self.dim, out, exact=exact)

    def power(self, n):
        out = self
        for _ in range(n - 1):
            out = out.product(self)
        return out

    def l2_sq(self):
        if self.exact:
            return sum((c.abs_sq() for c in self.coeffs.values()), Fraction(0))
        return math.fsum(abs(c) * abs(c) for _, c in self.items())

    def to_float(self):
        return DictObservable(self.dim, {z: complex(c) for z, c in self.coeffs.items()})

    def dumps(self):
        return json.dumps({"dim": self.dim,
                           "coeffs": [{"z": list(z), "re": float(complex(c).real),
                                       "im": float(complex(c).imag)}
                                      for z, c in self.items()]})


def _dot(z, v):
    return float(sum(float(a) * float(b) for a, b in zip(z, v)))


def _dot_exact(z, v):
    if all(isinstance(x, (int, Fraction)) for x in v):
        return sum(Fraction(a) * Fraction(x) for a, x in zip(z, v))
    return None


def project_torus_factor(f, directions):
    dirs = [[Fraction(x) for x in t] for t in directions]
    fixed, rest = {}, {}
    for z, c in f.items():
        if all(sum(Fraction(a) * b for a, b in zip(z, t)) == 0 for t in dirs):
            fixed[z] = c
        else:
            rest[z] = c
    return DictObservable(f.dim, fixed, exact=f.exact), DictObservable(f.dim, rest, exact=f.exact)


def split_small_divisor(f, directions):
    """(large, small, zero_mode, selector dict, dots dict)."""
    large, small, zero = {}, {}, {}
    selector, chosen = {}, {}
    origin = tuple([0] * f.dim)
    for z, c in f.items():
        if z == origin:
            zero[z] = c
            continue
        dots = [_dot(z, v) for v in directions]
        sizes = [abs(d) for d in dots]
        i = sizes.index(max(sizes))
        selector[z], chosen[z] = i, dots[i]
        if math.fsum(sizes) >= 1.0:
            large[z] = c
        else:
            small[z] = c
    return (DictObservable(f.dim, large, exact=f.exact),
            DictObservable(f.dim, small, exact=f.exact),
            DictObservable(f.dim, zero, exact=f.exact), selector, chosen)


def _divisor(z, v, d, r, mode):
    exact_dot = _dot_exact(z, v)
    if exact_dot is not None:
        resonant = exact_dot == 0
    else:
        zn = math.sqrt(sum(float(x) * float(x) for x in z))
        vn = math.sqrt(sum(float(x) * float(x) for x in v))
        resonant = abs(d) < 1e-15 * zn * vn
    if resonant:
        return None
    if mode == "modulus":
        return abs(_TWO_PI * d) ** r
    if abs(r - round(r)) > 1e-12:
        raise ValueError("signed mode needs an integer order")
    return (1j * _TWO_PI * d) ** int(round(r))


def solve_fractional(f, directions, r, mode="modulus"):
    """(phis per direction, norms, small norms, residual, dropped_mean)."""
    dirs = [tuple(v) for v in directions]
    if not all(any(map(float, v)) for v in dirs):
        raise ValueError("zero direction vector")
    large, small, zero, selector, chosen = split_small_divisor(f, dirs)
    dropped_mean = bool(len(zero))
    if dropped_mean:
        warnings.warn("observable has a nonzero mean; the invariant mode is dropped")
    phis = [({}, {}) for _ in dirs]
    recon = {}
    for part, k in ((large, 0), (small, 1)):
        for z, c in part.items():
            i = selector[z]
            d = _divisor(z, dirs[i], chosen[z], r, mode)
            if d is None:
                raise ObstructionError(z, i)
            val = complex(c) / d
            phis[i][k][z] = val
            recon[z] = val * d
    out_phis, norms, small_norms = [], [], []
    for phi_l, phi_s in phis:
        phi_large = DictObservable(f.dim, phi_l)
        phi_small = DictObservable(f.dim, phi_s)
        phi = phi_large + phi_small
        out_phis.append(phi)
        norms.append(math.sqrt(phi.l2_sq()))
        small_norms.append(math.sqrt(phi_small.l2_sq()))
    residual = 0.0
    for z, c in f.items():
        if z == tuple([0] * f.dim):
            continue
        residual = max(residual, abs(recon.get(z, 0j) - complex(c)))
    return out_phis, norms, small_norms, residual, dropped_mean


def sobolev_norm(f, s, directions=None):
    terms = []
    for z, c in f.items():
        if directions is None:
            w = 1.0 + 4.0 * math.pi ** 2 * sum(float(x) * float(x) for x in z)
        else:
            dots = [_dot(z, v) for v in directions]
            w = 1.0 + 4.0 * math.pi ** 2 * math.fsum(d * d for d in dots)
        m = abs(complex(c))
        terms.append((w * w if s == 2 else w ** s) * (m * m))
    return math.sqrt(math.fsum(terms))
