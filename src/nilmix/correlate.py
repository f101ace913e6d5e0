"""Exact n-point correlations of trigonometric polynomials under integer
automorphisms, by resonance summation.

A mode k transported by the automorphism power alpha(z) becomes
(d alpha(z))^T k; only frequency tuples whose transported sum vanishes
contribute.  Frequency transport uses exact big integers throughout
(transported frequencies grow exponentially in the time), so resonance
detection is never subject to rounding or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional, Sequence

import numpy as np

from .exactlin import RationalMatrix
from .fourier import ExactComplex, FourierObservable
from .nilalg import action_matrix, check_commuting

__all__ = [
    "BudgetError",
    "CorrelationSeries",
    "correlation2",
    "correlation_n",
    "decay_fit",
    "DecayFit",
    "counterexample_maxgap",
    "no_uniform_bound_demo",
]

DEFAULT_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    """The resonance enumeration would exceed the configured budget."""


# ---------------------------------------------------------------------------
# Exact integer transport
# ---------------------------------------------------------------------------

def _transport(mt: Sequence[Sequence[int]], k: tuple) -> tuple:
    """Apply the transpose of the integer matrix to a frequency vector."""
    n = len(mt)
    return tuple(sum(mt[i][j] * k[i] for i in range(n)) for j in range(n))


# ---------------------------------------------------------------------------
# Two-point correlation
# ---------------------------------------------------------------------------

def correlation2(f: FourierObservable, g: FourierObservable, m: RationalMatrix,
                 power: int):
    """<f o a^power, g> = sum_k f_k conj(g_{(M^power)^T k}), exactly.

    The conjugate convention is <u, v> = integral of u * conj(v).
    """
    if f.dim != g.dim or f.dim != m.dim:
        raise ValueError("dimension mismatch")
    if not m.is_unimodular_integer():
        raise ValueError("need an integer matrix with determinant +-1")
    mt = (m ** power).to_int_array()
    exact = f.exact and g.exact
    if not exact:
        f, g = (h.to_float() if h.exact else h for h in (f, g))
    acc = ExactComplex() if exact else 0j
    for k, c in f.items():
        acc = acc + c * g[_transport(mt, k)].conjugate()
    return acc


# ---------------------------------------------------------------------------
# n-point correlation (meet in the middle)
# ---------------------------------------------------------------------------

def correlation_n(observables: Sequence[FourierObservable],
                  generators: Sequence[RationalMatrix],
                  times: Sequence[Sequence[int]],
                  budget: int = DEFAULT_BUDGET):
    """integral of prod_i f_i(alpha(z_i) x) dx, by exact resonance summation.

    Sums prod_i f_i(k_i) over tuples with sum_i (d alpha(z_i))^T k_i = 0.
    The enumeration meets in the middle: the transported partial sums of
    the first half are hashed, the second half looks up the negation.
    """
    n = len(observables)
    if n < 1 or len(times) != n:
        raise ValueError("need one time per observable")
    check_commuting(list(generators))
    dim = observables[0].dim
    if any(f.dim != dim for f in observables):
        raise ValueError("observables live on different lattices")

    exact = all(f.exact for f in observables)
    if not exact:
        observables = [f.to_float() if f.exact else f for f in observables]

    transported = []
    for f, z in zip(observables, times):
        z = tuple(int(t) for t in z)
        if len(z) != len(generators):
            raise ValueError("time vectors must match the number of generators")
        mt = action_matrix(generators, z).to_int_array()
        transported.append([(_transport(mt, k), c) for k, c in f.items()])

    sizes = [len(t) for t in transported]
    if 0 in sizes:
        return ExactComplex() if exact else 0j

    order = sorted(range(n), key=lambda i: sizes[i])
    half_a: list[int] = []
    half_b: list[int] = []
    prod_a = prod_b = 1
    for i in order:
        if prod_a <= prod_b:
            half_a.append(i)
            prod_a *= sizes[i]
        else:
            half_b.append(i)
            prod_b *= sizes[i]
    if prod_a + prod_b > budget:
        raise BudgetError(
            f"resonance enumeration needs {prod_a + prod_b} partial sums "
            f"(budget {budget}); shrink the supports or raise the budget")

    zero = ExactComplex() if exact else 0j

    def accumulate(indices):
        table: dict = {}
        for combo in iproduct(*[transported[i] for i in indices]):
            ksum = tuple(sum(k[j] for k, _ in combo) for j in range(dim))
            coeff = combo[0][1]
            for _, c in combo[1:]:
                coeff = coeff * c
            table[ksum] = table.get(ksum, zero) + coeff
        return table

    ta = accumulate(half_a) if half_a else {tuple([0] * dim): (ExactComplex(1) if exact else 1 + 0j)}
    acc = zero
    if half_b:
        for combo in iproduct(*[transported[i] for i in half_b]):
            ksum = tuple(sum(k[j] for k, _ in combo) for j in range(dim))
            neg = tuple(-x for x in ksum)
            if neg not in ta:
                continue
            coeff = combo[0][1]
            for _, c in combo[1:]:
                coeff = coeff * c
            acc = acc + ta[neg] * coeff
    else:
        acc = ta.get(tuple([0] * dim), zero)
    return acc


# ---------------------------------------------------------------------------
# Series containers and decay fitting
# ---------------------------------------------------------------------------

@dataclass
class SeriesEntry:
    times: tuple                  # tuple of time vectors
    value: complex
    gap: float                    # min pairwise separation
    max_gap: float

    @staticmethod
    def build(times, value) -> "SeriesEntry":
        ts = [tuple(int(x) for x in t) for t in times]
        seps = [math.dist(a, b) for i, a in enumerate(ts) for b in ts[i + 1:]]
        return SeriesEntry(tuple(ts), complex(value),
                           min(seps) if seps else 0.0,
                           max(seps) if seps else 0.0)


@dataclass
class CorrelationSeries:
    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    fit: Optional["DecayFit"] = None

    def append(self, times, value):
        self.entries.append(SeriesEntry.build(times, value))

    def values(self) -> list[complex]:
        return [e.value for e in self.entries]


@dataclass
class DecayFit:
    c_fit: float                  # minimal single constant for the envelope rate
    slope: float
    intercept: float
    r_squared: float
    rate: float                   # envelope rate the fit was checked against
    envelope_satisfied: bool
    n_used: int


def decay_fit(series: CorrelationSeries, rate: float,
              floor: float = 1e-14) -> DecayFit:
    """Least squares of log|value| against the gap, plus the envelope constant.

    c_fit is the smallest single C with |value| <= C e^{-rate * gap} across
    all entries (computed from the nonzero entries; zero values satisfy any
    envelope).  Entries below the floor are excluded from the regression.
    """
    pts = [(e.gap, abs(e.value)) for e in series.entries if abs(e.value) > floor]
    if len(pts) < 3:
        raise ValueError("need at least 3 entries above the floor to fit a decay rate")
    xs = np.array([p[0] for p in pts])
    ys = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    c_fit = max(v * math.exp(rate * g) for g, v in pts)
    ok = all(abs(e.value) <= c_fit * math.exp(-rate * e.gap) * (1 + 1e-9)
             for e in series.entries)
    fit = DecayFit(c_fit=float(c_fit), slope=float(slope), intercept=float(intercept),
                   r_squared=r2, rate=float(rate), envelope_satisfied=ok,
                   n_used=len(pts))
    series.fit = fit
    return fit


# ---------------------------------------------------------------------------
# Counterexample constructions
# ---------------------------------------------------------------------------

def counterexample_maxgap(f1: FourierObservable, f2: FourierObservable, n: int,
                          m: RationalMatrix, powers: Sequence[int],
                          budget: int = DEFAULT_BUDGET) -> CorrelationSeries:
    """Series integral of (f1 o a^p)^2 (f2 o a^{2p})^n over p in powers.

    Requires mean-zero f1 and c = integral of f2^n nonzero; the values
    approach c * integral of f1^2 as p grows while the largest pairwise
    time separation also grows (so no bound in the largest gap can force
    decay).  The expected limit is reported in the metadata.
    """
    if not f1.is_mean_zero():
        raise ValueError("f1 must be mean-zero")
    if n < 2:
        raise ValueError("need n >= 2")
    f1_sq = f1.power(2)
    f2_n = f2.power(n)
    c = f2_n.integral()
    if not (c if isinstance(c, ExactComplex) else c != 0):
        raise ValueError("integral of f2^n vanishes; the construction needs c != 0")
    limit = _times_value(c, f1_sq.integral())

    series = CorrelationSeries(meta={
        "construction": "squared-pair with doubled time",
        "c": complex(c),
        "expected_limit": complex(limit),
    })
    for p in powers:
        val = correlation_n([f1_sq, f2_n], [m], [(int(p),), (2 * int(p),)], budget)
        series.append(((int(p),), (2 * int(p),)), complex(val))
    return series


def _times_value(a, b):
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a * b
    return complex(a) * complex(b)


def no_uniform_bound_demo(generators: Sequence[RationalMatrix],
                          g: FourierObservable, powers: Sequence[int],
                          budget: int = DEFAULT_BUDGET) -> CorrelationSeries:
    """Constant correlations at diverging time separations on a product system.

    generators = [B, F] acting on a product lattice, with F fixing the
    first block (non-ergodic) and B acting there.  The observable
    f(x, y) = g(x) is F-invariant, so
    integral (f o A^p) conj(f) o B^p = ||g||^2 for A = B F, all p:
    the time tuples ((p, p), (p, 0)) separate linearly while the value
    never decays.
    """
    if len(generators) != 2:
        raise ValueError("need exactly two generators [B, F]")
    b, fgen = generators
    if b.dim != fgen.dim:
        raise ValueError("generator dimension mismatch")
    if not len(g):
        raise ValueError("observable is zero")
    if not g.is_mean_zero():
        raise ValueError("observable must be mean-zero")
    block = g.dim
    if block >= b.dim:
        raise ValueError("block observable must live on a strict sub-lattice")
    pad = b.dim - block
    lifted = FourierObservable(
        b.dim, {tuple(list(z) + [0] * pad): c for z, c in g.coeffs.items()},
        exact=g.exact)
    # F must fix the lifted observable: its transpose transport on the
    # block frequencies must be the identity
    mt = fgen.to_int_array()
    for z in lifted.coeffs:
        if _transport(mt, z) != z:
            raise ValueError("second generator does not fix the block observable")

    expected = lifted.l2_sq()
    series = CorrelationSeries(meta={
        "construction": "product-block invariant observable",
        "expected_constant": float(expected),
    })
    conj = lifted.conjugate()
    for p in powers:
        p = int(p)
        val = correlation_n([lifted, conj], [b, fgen],
                            [(p, p), (p, 0)], budget)
        series.append(((p, p), (p, 0)), complex(val))
    return series
