"""Exact n-point correlations of trigonometric polynomials under integer
automorphisms, by resonance summation.

A mode k transported by the automorphism power alpha(z) becomes
(d alpha(z))^T k; only frequency tuples whose transported sum vanishes
contribute.  Frequencies are transported exactly (they grow exponentially
in the time; int64 where a bound proves it cannot overflow) and compared
through residue keys modulo as many 61-bit primes as the largest coordinate
requires, so that congruent keys mean equal frequencies: resonance detection
is never subject to rounding or overflow.  One join serves both correlations
(the two-point one is its case of two factors): it sorts the keys of both its
sides once, and a group of equal keys met from both sides is a resonance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactlin import RationalMatrix, _int_einsum, _is_prime
from .fourier import ExactComplex, FourierObservable, _ordered_sum
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
_BLOCK = 1 << 14              # rows per step of the row-wise join passes: bounds their scratch


class BudgetError(RuntimeError):
    """The resonance enumeration would exceed the configured budget."""


# ---------------------------------------------------------------------------
# Exact transport, residue keys and the resonance sum
# ---------------------------------------------------------------------------

def _transport(freqs: np.ndarray, mt: Sequence[Sequence[int]]) -> np.ndarray:
    """Apply the transpose of the integer matrix to each frequency row, exactly."""
    return _int_einsum("ij,jk->ik", freqs, mt)


@functools.lru_cache(maxsize=8)
def _moduli(count: int) -> tuple:
    """The count largest primes below 2^61: a sum of two residues fits in int64."""
    out, n = [], 1 << 61
    while len(out) < count:
        n -= 1
        if _is_prime(n):
            out.append(n)
    return tuple(out)


def _packing(dim: int, bound: int) -> tuple:
    """Base and moduli for exact keys of integer vectors u, v that are only
    compared when every |u_j - v_j| <= bound.  A vector packs to
    sum_j v_j W^j with W = 2 bound + 1, which is injective on such pairs, and
    the product of the moduli (each above 2^60) exceeds every packed
    difference, so equal keys mean equal vectors."""
    base = 2 * bound + 1
    span = bound * sum(base ** j for j in range(dim))
    return base, _moduli(span.bit_length() // 60 + 1)


def _keys(freqs: np.ndarray, base: int, moduli: tuple) -> np.ndarray:
    """(len(moduli), m) int64 residues of the packed frequency rows."""
    packed = _int_einsum("ij,j->i", freqs, [base ** j for j in range(freqs.shape[1])])
    return np.array([packed % p for p in moduli], dtype=np.int64)


def _group(columns) -> tuple:
    """Group N rows by their keys, given one (N,) int64 column per modulus:
    rows share an id exactly when all their keys agree.  Returns the ids
    (0, 1, ... per group) and a row of each group.

    The ids depend only on the keys, not on how a sort orders equal keys,
    so the first column takes numpy's default (unstable) sort: its distinct
    keys get ids 0, 1, ... in ascending order.  A later column re-sorts only
    the groups whose rows disagree on it, numbering their new parts in
    (id, key) order, and reading stops once every group is a single row.
    Each column is released before the next is made (the first before the
    ids exist) and sorted neighbours are compared a block at a time, so the
    scratch memory does not grow with the number of moduli."""
    ids = first = None
    for key in columns:
        if ids is None:                          # the first column sorts every row
            rows = np.argsort(key)
        else:
            split = np.zeros(len(first), dtype=bool)
            split[ids[key != key[first[ids]]]] = True
            rows = np.flatnonzero(split[ids])
            rows = rows[np.lexsort((key[rows], ids[rows]))]
        new = np.ones(len(rows), dtype=bool)     # the row opens a part
        for s in range(0, len(rows) - 1, _BLOCK):
            r = rows[s:s + _BLOCK + 1]
            new[s + 1:s + len(r)] = key[r[1:]] != key[r[:-1]]
            if ids is not None:
                new[s + 1:s + len(r)] |= ids[r[1:]] != ids[r[:-1]]
        del key
        if ids is None:                          # the distinct first keys are the groups
            ids = np.empty(len(rows), dtype=np.int32 if len(rows) < 1 << 31 else np.int64)
            ids[rows] = np.cumsum(new, dtype=ids.dtype) - 1
            first = rows[new]
        else:
            # the part of a group with the smallest key keeps the group's id,
            # the other parts get ids after the last one
            starts = rows[new]
            part_ids = ids[starts]
            split = np.zeros(len(starts), dtype=bool)
            split[1:] = part_ids[1:] == part_ids[:-1]
            part_ids[split] = len(first) + np.arange(np.count_nonzero(split))
            ids[rows] = part_ids[np.cumsum(new, dtype=ids.dtype) - 1]
            first = np.concatenate([first, starts[split]])
            first[part_ids[~split]] = starts[~split]
        if len(first) == len(ids):
            break
    return ids, first


def _matched_blocks(ids: np.ndarray, other: np.ndarray):
    """Ascending blocks of the rows whose id the other side also has."""
    for s in range(0, len(ids), _BLOCK):
        rows = s + np.flatnonzero(other[ids[s:s + _BLOCK]])
        if len(rows):
            yield rows


def _join_column(keys: list, half_a: list, half_b: list, j: int, p: int) -> np.ndarray:
    """The join's keys modulo p = moduli[j], written into one new column:
    every sum with one frequency per factor of half_a, in iproduct order
    (the first factor varies slowest; no factors give the one sum 0), then
    the negatives of half_b's sums in that order."""
    sizes = [math.prod(len(keys[i][j]) for i in half) for half in (half_a, half_b)]
    col = np.zeros(sum(sizes), dtype=np.int64)
    for half, out in zip((half_a, half_b), np.split(col, sizes[:1])):
        acc = np.zeros(1, dtype=np.int64)
        for t, i in enumerate(half):
            dst = out if t == len(half) - 1 else np.empty(len(acc) * len(keys[i][j]), np.int64)
            np.add(acc[:, None], keys[i][j], out=dst.reshape(len(acc), -1))
            acc = np.remainder(dst, p, out=dst)
    np.subtract(p, out, out=out)                 # out is half_b's part now
    np.remainder(out, p, out=out)
    return col


def _products(factors: list, rows: np.ndarray) -> tuple:
    """Coefficient products of the given partial-sum rows, left to right in
    factor order, with the real-arithmetic formula of Python's complex
    multiply (numpy's complex multiply can differ in the last bit)."""
    idx = np.unravel_index(rows, [len(m) for m in factors])
    re, im = factors[0].re[idx[0]], factors[0].im[idx[0]]
    for m, i in zip(factors[1:], idx[1:]):
        br, bi = m.re[i], m.im[i]
        re, im = re * br - im * bi, re * bi + im * br
    return re, im


def _value(exact: bool, re, im, at: str = ""):
    if not (exact or math.isfinite(re) and math.isfinite(im)):
        raise ArithmeticError(f"correlation at {at} overflows a double")
    return ExactComplex(re, im) if exact else complex(re, im)


@np.errstate(over="ignore", invalid="ignore")     # _value refuses inf and nan
def _resonance_sum(factors: list, freqs: list, half_a: list, half_b: list, exact: bool,
                   at: str):
    """sum of prod_i c_i(k_i) over the tuples of one row k_i of each factor
    whose frequencies freqs[i][k_i] (as transported) sum to zero.

    The enumeration meets in the middle: the partial sums of half_a and the
    negated partial sums of half_b get exact residue keys, and one sort of
    the keys groups them; a group with rows of both halves is a resonance.
    Coefficients are multiplied only on matched rows: each first-half group's
    coefficients are added in enumeration order, then the terms of the result
    in the second half's enumeration order, so float values equal those of
    the plain nested loop bit for bit, whatever order the sort leaves equal
    keys in.
    """
    # a first-half sum differs from another one, or from a negated
    # second-half sum, by at most twice the sum of the largest coordinates
    base, moduli = _packing(freqs[0].shape[1], 2 * sum(
        max(int(k.max(initial=0)), -int(k.min(initial=0))) for k in freqs))
    keys = [_keys(k, base, moduli) for k in freqs]
    # one group per distinct key: a group with rows on both sides is a resonance
    ids, first = _group(_join_column(keys, half_a, half_b, j, p) for j, p in enumerate(moduli))
    del keys
    prod_a = math.prod(len(freqs[i]) for i in half_a)
    ids_a, ids_b = ids[:prod_a], ids[prod_a:]
    in_a, in_b = np.zeros(len(first), dtype=bool), np.zeros(len(first), dtype=bool)
    in_a[ids_a], in_b[ids_b] = True, True

    # each matched first-half sum's coefficients, added in enumeration order
    kind = object if exact else np.float64
    ta_re, ta_im = np.zeros(len(first), dtype=kind), np.zeros(len(first), dtype=kind)
    for rows in _matched_blocks(ids_a, in_b):
        re, im = _products([factors[i] for i in half_a], rows)
        np.add.at(ta_re, ids_a[rows], re)
        np.add.at(ta_im, ids_a[rows], im)
    if not half_b:                 # one factor: the value is the zero sum's entry
        a = ids_b[0]
        return _value(exact, ta_re[a], ta_im[a], at) if in_a[a] else _value(exact, 0, 0)
    acc_re = acc_im = Fraction(0) if exact else 0.0
    for rows in _matched_blocks(ids_b, in_a):
        br, bi = _products([factors[i] for i in half_b], rows)
        a = ids_b[rows]
        ar, ai = ta_re[a], ta_im[a]
        acc_re = _ordered_sum(ar * br - ai * bi, acc_re)
        acc_im = _ordered_sum(ar * bi + ai * br, acc_im)
    return _value(exact, acc_re, acc_im, at)


# ---------------------------------------------------------------------------
# Correlations
# ---------------------------------------------------------------------------

def correlation2(f: FourierObservable, g: FourierObservable, m: RationalMatrix,
                 power: int):
    """<f o a^power, g> = sum_k f_k conj(g_{(M^power)^T k}), exactly.

    The conjugate convention is <u, v> = integral of u * conj(v).  The value
    is the resonance sum of two halves, conj(g) and then f transported by the
    power, so its terms are added in f's frequency order.
    """
    if f.dim != g.dim or f.dim != m.dim:
        raise ValueError("dimension mismatch")
    if not m.is_unimodular_integer():
        raise ValueError("need an integer matrix with determinant +-1")
    exact = f.exact and g.exact
    f, g = (h.to_float() if h.exact and not exact else h for h in (f, g))
    freqs = _transport(f.freqs, (m ** power).nums)
    # only a transported frequency within g's largest |coordinate| can meet g's
    bound = int(np.abs(g.freqs).max(initial=0))
    near = np.flatnonzero(((freqs <= bound) & (freqs >= -bound)).all(axis=1))
    conj = g.conjugate()
    return _resonance_sum([conj, f._take(near)], [conj.freqs, freqs[near]], [0], [1], exact,
                          f"power {power}")


def correlation_n(observables: Sequence[FourierObservable],
                  generators: Sequence[RationalMatrix],
                  times: Sequence[Sequence[int]],
                  budget: int = DEFAULT_BUDGET):
    """integral of prod_i f_i(alpha(z_i) x) dx, by exact resonance summation.

    Sums prod_i f_i(k_i) over tuples with sum_i (d alpha(z_i))^T k_i = 0, the
    factors split into two halves of balanced size (see _resonance_sum).
    BudgetError when the halves have more than budget partial sums together.
    """
    n = len(observables)
    if n < 1 or len(times) != n:
        raise ValueError("need one time per observable")
    check_commuting(list(generators))
    if len({f.dim for f in observables}) > 1:
        raise ValueError("observables live on different lattices")

    exact = all(f.exact for f in observables)
    observables = [f.to_float() if f.exact and not exact else f for f in observables]
    freqs = []
    for f, z in zip(observables, times):
        z = tuple(int(t) for t in z)
        if len(z) != len(generators):
            raise ValueError("time vectors must match the number of generators")
        a = action_matrix(generators, z)
        if not a.is_integer():
            raise ValueError("matrix has non-integer entries")
        freqs.append(_transport(f.freqs, a.nums))

    sizes = [len(f) for f in observables]
    if 0 in sizes:
        return _value(exact, 0, 0)
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
    return _resonance_sum(observables, freqs, half_a, half_b, exact,
                          f"times {[tuple(map(int, z)) for z in times]}")


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


def decay_fit(series: CorrelationSeries, rate: float) -> DecayFit:
    """Least squares of log|value| against the gap, plus the envelope constant.

    c_fit is the smallest single C with |value| <= C e^{-rate * gap} across
    all entries (computed from the nonzero entries; zero values satisfy any
    envelope).  Entries of modulus up to 1e-14 are excluded from the regression.
    ValueError when e^(|rate| gap) overflows a double.
    """
    pts = [(e.gap, abs(e.value)) for e in series.entries if abs(e.value) > 1e-14]
    if len(pts) < 3:
        raise ValueError("need at least 3 entries above 1e-14 to fit a decay rate")
    xs = np.array([p[0] for p in pts])
    ys = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    try:
        c_fit = max(v * math.exp(rate * g) for g, v in pts)
        ok = all(abs(e.value) <= c_fit * math.exp(-rate * e.gap) * (1 + 1e-9)
                 for e in series.entries)
    except OverflowError:
        gap = max(e.gap for e in series.entries)
        raise ValueError(f"rate {rate} at gap {gap}: e^(|rate| gap) overflows a double") from None
    return DecayFit(c_fit=float(c_fit), slope=float(slope), intercept=float(intercept),
                    r_squared=r2, rate=float(rate), envelope_satisfied=ok,
                    n_used=len(pts))


# ---------------------------------------------------------------------------
# Counterexample constructions
# ---------------------------------------------------------------------------

def counterexample_maxgap(f1: FourierObservable, f2: FourierObservable, n: int,
                          m: RationalMatrix, powers: Sequence[int]) -> CorrelationSeries:
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
    if not c:
        raise ValueError("integral of f2^n vanishes; the construction needs c != 0")
    limit = _times_value(c, f1_sq.integral())

    series = CorrelationSeries(meta={
        "construction": "squared-pair with doubled time",
        "c": complex(c),
        "expected_limit": complex(limit),
    })
    for p in powers:
        val = correlation_n([f1_sq, f2_n], [m], [(int(p),), (2 * int(p),)])
        series.append(((int(p),), (2 * int(p),)), complex(val))
    return series


def _times_value(a, b):
    if isinstance(a, ExactComplex) and isinstance(b, ExactComplex):
        return a * b
    return complex(a) * complex(b)


def no_uniform_bound_demo(generators: Sequence[RationalMatrix],
                          g: FourierObservable, powers: Sequence[int]) -> CorrelationSeries:
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
    if not fgen.is_integer():
        raise ValueError("matrix has non-integer entries")
    if not len(g):
        raise ValueError("observable is zero")
    if not g.is_mean_zero():
        raise ValueError("observable must be mean-zero")
    block = g.dim
    if block >= b.dim:
        raise ValueError("block observable must live on a strict sub-lattice")
    pad = b.dim - block
    freqs = np.hstack([g.freqs, np.zeros((len(g), pad), dtype=np.int64)])
    lifted = FourierObservable._of(b.dim, freqs, g.re, g.im, g.exact)
    # F must fix the lifted observable: its transpose transport on the
    # block frequencies must be the identity
    if not (_transport(freqs, fgen.nums) == freqs).all():
        raise ValueError("second generator does not fix the block observable")

    expected = lifted.l2_sq()
    series = CorrelationSeries(meta={
        "construction": "product-block invariant observable",
        "expected_constant": float(expected),
    })
    conj = lifted.conjugate()
    for p in powers:
        p = int(p)
        val = correlation_n([lifted, conj], [b, fgen], [(p, p), (p, 0)])
        series.append(((p, p), (p, 0)), complex(val))
    return series
