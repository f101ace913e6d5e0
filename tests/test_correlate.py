import math
import os
import subprocess
import sys
import zlib
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
import sympy

import nilmix
from nilmix import correlate

from nilmix.catalog import CAT, block_diag, get_system
from nilmix.correlate import (
    BudgetError,
    CorrelationSeries,
    correlation2,
    correlation_n,
    counterexample_maxgap,
    decay_fit,
    no_uniform_bound_demo,
)
from nilmix.exactlin import RationalMatrix, _int_einsum
from nilmix.fourier import ExactComplex, FourierObservable, real_cosine, real_sine
from nilmix.nilalg import action_matrix

from conftest import CHI_CAT


def obs(entries, d=2, exact=False):
    return FourierObservable(d, entries, exact=exact)


def quadrature_oracle(f, g, mpow, n_grid=256):
    """Brute-force grid quadrature of <f o a^m, g> on the 2-torus."""
    xs = np.arange(n_grid) / n_grid
    x, y = np.meshgrid(xs, xs, indexing="ij")
    xp = (mpow[0][0] * x + mpow[0][1] * y) % 1.0
    yp = (mpow[1][0] * x + mpow[1][1] * y) % 1.0
    fv = np.zeros_like(x, dtype=complex)
    for (a, b), c in f.items():
        fv += complex(c) * np.exp(2j * np.pi * (a * xp + b * yp))
    gv = np.zeros_like(x, dtype=complex)
    for (a, b), c in g.items():
        gv += complex(c) * np.exp(2j * np.pi * (a * x + b * y))
    return complex((fv * np.conj(gv)).mean())


# ---------------------------------------------------------------------------
# two-point
# ---------------------------------------------------------------------------

def test_plancherel_at_zero_time():
    f = obs({(1, 0): 1.0})
    assert correlation2(f, f, CAT, 0) == 1.0


def test_unit_mode_decorrelates():
    f = obs({(1, 0): 1.0})
    assert correlation2(f, f, CAT, 1) == 0.0
    assert correlation2(f, f, CAT, -1) == 0.0


def test_against_grid_quadrature():
    entries = {}
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a * a + b * b <= 64:
                entries[(a, b)] = math.exp(-math.hypot(a, b))
    f = obs(entries)
    val = correlation2(f, f, CAT, 2)
    oracle = quadrature_oracle(f, f, (CAT ** 2).to_int_array())
    assert complex(val) == pytest.approx(oracle, abs=1e-8)


def test_exact_arithmetic_mode():
    f = real_cosine(2, (1, 0))
    v = correlation2(f, f, CAT, 0)
    assert isinstance(v, ExactComplex)
    assert v == ExactComplex(Fraction(1, 2))


def test_finite_horizon_vanishing():
    # trig polynomials on a hyperbolic map: exactly zero beyond the horizon
    f = real_cosine(2, (1, 0)) + real_sine(2, (0, 1))
    horizon = 12
    for m in range(horizon, horizon + 6):
        assert complex(correlation2(f, f, CAT, m)) == 0


def test_measure_preservation_shift():
    fs = [obs({(1, 0): 1.0, (-1, 0): 1.0}),
          obs({(0, 1): 0.5, (0, -1): 0.5}),
          obs({(1, 1): 1.0, (-1, -1): 1.0})]
    times = [(0,), (2,), (5,)]
    base = correlation_n(fs, [CAT], times)
    for w in (-3, 1, 4):
        shifted = [(t[0] + w,) for t in times]
        assert complex(correlation_n(fs, [CAT], shifted)) == \
            pytest.approx(complex(base), abs=1e-14)


# ---------------------------------------------------------------------------
# n-point
# ---------------------------------------------------------------------------

def test_all_constant_observables():
    one = obs({(0, 0): 1.0})
    assert correlation_n([one] * 3, [CAT], [(0,)] * 3) == 1.0


def test_direct_resonance_triple():
    ms = [obs({(1, 0): 1.0}), obs({(0, 1): 1.0}), obs({(-1, -1): 1.0})]
    assert correlation_n(ms, [CAT], [(0,)] * 3) == 1.0


def test_two_block_consistency():
    # merging the first n-1 factors by explicit coefficient convolution and
    # pairing with the conjugated last factor reproduces the n-point value
    f1 = real_cosine(2, (1, 0)).to_float()
    f2 = real_cosine(2, (0, 1)).to_float()
    f3 = obs({(1, 1): 0.5, (-1, -1): 0.5})
    times = [(3,), (1,), (0,)]
    full = correlation_n([f1, f2, f3], [CAT], times)

    def transported(f, e):
        mt = (CAT ** e).to_int_array()
        out = {}
        for k, c in f.items():
            kk = tuple(sum(mt[i][j] * k[i] for i in range(2)) for j in range(2))
            out[kk] = out.get(kk, 0j) + complex(c)
        return FourierObservable(2, out)

    merged = transported(f1, 3).product(transported(f2, 1))
    paired = correlation2(merged, f3.conjugate(), CAT, 0)
    assert complex(full) == pytest.approx(complex(paired), abs=1e-12)


def test_budget_error():
    big = obs({(a, b): 1.0 for a in range(-9, 10) for b in range(-9, 10)})
    with pytest.raises(BudgetError, match=r"needs 260642 partial sums \(budget 100\)"):
        correlation_n([big] * 4, [CAT], [(0,)] * 4, budget=100)


def test_permutation_symmetry():
    # permuting the factors together with their times leaves the value fixed
    import itertools
    fs = [real_cosine(2, (1, 0)).to_float(),
          obs({(0, 1): 0.5, (0, -1): 0.5}),
          obs({(1, 1): 1.0, (-1, -1): 1.0})]
    times = [(0,), (1,), (3,)]
    base = complex(correlation_n(fs, [CAT], times))
    for perm in itertools.permutations(range(3)):
        v = complex(correlation_n([fs[i] for i in perm], [CAT],
                                  [times[i] for i in perm]))
        assert v == pytest.approx(base, abs=1e-14)


def test_mixed_exact_and_float_observables():
    # one exact and one float observable are summed in floats, with the
    # same value as when both are float
    cos = real_cosine(2, (1, 0))
    shifted_cos = obs({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    f1, f2 = cos.power(2), shifted_cos.power(2)
    for times in ([(1,), (2,)], [(0,), (0,)], [(3,), (-1,)]):
        mixed = correlation_n([f1, f2], [CAT], times)
        assert isinstance(mixed, complex)
        assert mixed == correlation_n([f1.to_float(), f2], [CAT], times)
    assert correlation2(f2, f1, CAT, 1) == correlation2(f2, f1.to_float(), CAT, 1)
    series = counterexample_maxgap(cos, shifted_cos, 2, CAT, [1, 20])
    assert series.values()[-1] == pytest.approx(0.75, abs=1e-12)


def test_non_integer_generator_is_refused():
    # frequencies transport only by integer matrices; entries are not truncated
    g = RationalMatrix([[Fraction(3, 2), 0], [0, Fraction(2, 3)]])
    with pytest.raises(ValueError):
        correlation_n([obs({(1, 0): 1.0}), obs({(-1, 0): 1.0})], [g], [(1,), (0,)])
    # the check is on the action matrix at each time, not on the generators:
    # at time 0 the action is the identity
    assert correlation_n([obs({(1, 0): 1.0}), obs({(-1, 0): 1.0})], [g], [(0,), (0,)]) == 1.0


def test_integer_generator_with_a_non_integer_inverse_is_refused():
    # det 2: the inverse at a negative time has entry 1/2, whose numerator
    # would transport frequencies as if it were the matrix
    g = RationalMatrix([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        correlation_n([obs({(1, 0): 1.0}), obs({(-1, 0): 1.0})], [g], [(-1,), (0,)])


def test_no_uniform_bound_refuses_a_non_integer_second_generator():
    # F = diag(1/2, 1, 1, 1) has numerators diag(1, 2, 2, 2), which fix (k, 0, 0, 0)
    b = get_system("product-t2xt2").generators[0]
    f = RationalMatrix([[Fraction(int(i == j), 1 + (i == j == 0)) for j in range(4)]
                        for i in range(4)])
    with pytest.raises(ValueError, match="non-integer"):
        no_uniform_bound_demo([b, f], obs({(1, 0): 1.0}), [])


def test_rank2_generators():
    system = get_system("product-t2xt2")
    f = obs({(1, 0, 0, 0): 1.0}, d=4)
    g = obs({(-1, 0, 0, 0): 1.0}, d=4)
    v = correlation_n([f, g], list(system.generators), [(0, 0), (0, 0)])
    assert complex(v) == 1.0


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_synthetic_exponential():
    series = CorrelationSeries()
    for m in range(1, 10):
        series.append(((0,), (m,)), math.exp(-CHI_CAT * m))
    fit = decay_fit(series, 0.9)
    assert fit.slope == pytest.approx(-CHI_CAT, abs=1e-6)
    assert fit.r_squared > 0.999999
    assert fit.envelope_satisfied


def test_fit_constant_series():
    series = CorrelationSeries()
    for m in range(1, 8):
        series.append(((0,), (m,)), 0.5)
    fit = decay_fit(series, 0.0)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_degenerate():
    series = CorrelationSeries()
    for m in range(1, 8):
        series.append(((0,), (m,)), 0.0)
    with pytest.raises(ValueError):
        decay_fit(series, 1.0)


@pytest.mark.parametrize("rate", [1000.0, -1000.0])
def test_fit_refuses_an_envelope_beyond_the_doubles(rate):
    # e^(1000 gap) overflows: a ValueError naming the rate and the gap, not
    # math's bare OverflowError
    series = CorrelationSeries()
    for p in range(1, 6):
        series.append(((0,), (p,)), 10.0 ** -p)
    with pytest.raises(ValueError, match=rf"rate {rate} at gap 5.0: .* overflows a double"):
        decay_fit(series, rate)


def test_double_rate_envelope_single_constant():
    # irrational type: a single constant C works for the rate-2*chi envelope
    # across the panel, and the constant is pinned by small times (the values
    # decay faster than e^{-2 chi m})
    entries = {}
    for a in range(-24, 25):
        for b in range(-24, 25):
            if 0 < a * a + b * b <= 24 * 24:
                entries[(a, b)] = math.exp(-0.7 * math.hypot(a, b))
    f = obs(entries)
    f = f.scaled(1.0 / math.sqrt(f.l2_sq()))
    rate = 2.0 * CHI_CAT
    weighted = {}
    for m in range(1, 8):
        v = abs(complex(correlation2(f, f, CAT, m)))
        if v > 0:
            weighted[m] = v * math.exp(rate * m)
    c_fit = max(weighted.values())
    argmax = max(m for m, w in weighted.items() if w >= c_fit * (1 - 1e-12))
    assert argmax <= 4
    for m, w in weighted.items():
        assert w <= c_fit * (1 + 1e-12)


def test_fit_super_exponential_catmap():
    # mean-zero: correlations of the zero mode never decay
    entries = {}
    for a in range(-48, 49):
        for b in range(-48, 49):
            if 0 < a * a + b * b <= 48 * 48:
                entries[(a, b)] = math.exp(-0.5 * math.hypot(a, b))
    f = obs(entries)
    series = CorrelationSeries()
    for m in range(2, 9):
        series.append(((0,), (m,)), complex(correlation2(f, f, CAT, m)))
    fit = decay_fit(series, CHI_CAT)
    assert fit.slope <= -1.9
    assert fit.envelope_satisfied


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def test_maxgap_series_catmap():
    f = real_cosine(2, (1, 0))
    series = counterexample_maxgap(f, f, 2, CAT, [0, 1, 5, 30])
    vals = {e.times[0][0]: e.value for e in series.entries}
    assert vals[0].real == pytest.approx(3 / 8)
    for p in (1, 5, 30):
        assert vals[p].real == pytest.approx(0.25, abs=1e-14)
    assert complex(series.meta["expected_limit"]) == pytest.approx(0.25)


def test_maxgap_rejects_vanishing_power_integral():
    f1 = real_cosine(2, (1, 0))
    f2 = real_sine(2, (0, 1))
    with pytest.raises(ValueError):
        counterexample_maxgap(f1, f2, 3, CAT, [1])   # integral of sin^3 = 0


def test_maxgap_rejects_nonzero_mean():
    biased = obs({(0, 0): 1.0, (1, 0): 1.0})
    with pytest.raises(ValueError):
        counterexample_maxgap(biased, biased, 2, CAT, [1])


def test_no_uniform_bound_constant():
    system = get_system("product-t2xt2")
    g = obs({(1, 0): 1.0})
    series = no_uniform_bound_demo(list(system.generators), g, range(1, 11))
    for e in series.entries:
        assert e.value == pytest.approx(1.0)
    gaps = [e.gap for e in series.entries]
    assert gaps == sorted(gaps) and gaps[-1] == 10.0


def test_no_uniform_bound_two_modes():
    system = get_system("product-t2xt2")
    g = obs({(1, 0): 1.0, (2, 1): 2.0})
    series = no_uniform_bound_demo(list(system.generators), g, [1, 6])
    for e in series.entries:
        assert e.value == pytest.approx(5.0)


def test_no_uniform_bound_rejects_zero():
    system = get_system("product-t2xt2")
    with pytest.raises(ValueError):
        no_uniform_bound_demo(list(system.generators), obs({}), [1])


# ---------------------------------------------------------------------------
# the residue-key join against the plain loops it replaced
# ---------------------------------------------------------------------------

def _transport_ref(mt, k):
    n = len(mt)
    return tuple(sum(mt[i][j] * k[i] for i in range(n)) for j in range(n))


def reference_correlation2(f, g, m, power):
    """Python-int dict lookups over f's modes (the former correlation2)."""
    mt = (m ** power).to_int_array()
    exact = f.exact and g.exact
    if not exact:
        f, g = (h.to_float() if h.exact else h for h in (f, g))
    acc = ExactComplex() if exact else 0j
    for k, c in f.items():
        acc = acc + c * g[_transport_ref(mt, k)].conjugate()
    return acc


def reference_correlation_n(observables, generators, times):
    """Hashed Python-int meet in the middle (the former correlation_n)."""
    n = len(observables)
    dim = observables[0].dim
    exact = all(f.exact for f in observables)
    if not exact:
        observables = [f.to_float() if f.exact else f for f in observables]
    transported = []
    for f, z in zip(observables, times):
        mt = action_matrix(generators, z).to_int_array()
        transported.append([(_transport_ref(mt, k), c) for k, c in f.items()])
    sizes = [len(t) for t in transported]
    if 0 in sizes:
        return ExactComplex() if exact else 0j
    half_a, half_b = [], []
    prod_a = prod_b = 1
    for i in sorted(range(n), key=lambda i: sizes[i]):
        if prod_a <= prod_b:
            half_a.append(i)
            prod_a *= sizes[i]
        else:
            half_b.append(i)
            prod_b *= sizes[i]
    zero = ExactComplex() if exact else 0j

    def accumulate(indices):
        table = {}
        for combo in iproduct(*[transported[i] for i in indices]):
            ksum = tuple(sum(k[j] for k, _ in combo) for j in range(dim))
            coeff = combo[0][1]
            for _, c in combo[1:]:
                coeff = coeff * c
            table[ksum] = table.get(ksum, zero) + coeff
        return table

    ta = accumulate(half_a)
    if not half_b:
        return ta.get(tuple([0] * dim), zero)
    acc = zero
    for combo in iproduct(*[transported[i] for i in half_b]):
        neg = tuple(-sum(k[j] for k, _ in combo) for j in range(dim))
        if neg not in ta:
            continue
        coeff = combo[0][1]
        for _, c in combo[1:]:
            coeff = coeff * c
        acc = acc + ta[neg] * coeff
    return acc


def _same(a, b):
    """Equal values of the same type; floats bit for bit (signed zeros too)."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, complex):
        assert (a.real, a.imag) == (b.real, b.imag), (a, b)
        assert (math.copysign(1, a.real), math.copysign(1, a.imag)) == \
            (math.copysign(1, b.real), math.copysign(1, b.imag)), (a, b)
    else:
        assert a == b, (a, b)


def _random_observable(rng, dim, radius, modes, exact=False):
    box = range(-radius, radius + 1)
    support = rng.permutation([z for z in iproduct(box, repeat=dim)
                               if sum(x * x for x in z) <= radius * radius])[:modes]
    if exact:
        coeffs = {tuple(z): ExactComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                                         Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))
                  for z in support}
    else:
        coeffs = {tuple(z): complex(rng.normal(), rng.normal()) for z in support}
    return FourierObservable(dim, coeffs, exact=exact)


@pytest.mark.parametrize("kind", ["float", "exact", "mixed"])
@pytest.mark.parametrize("system, n, times", [
    ("catmap", 1, [(0,)]),
    ("catmap", 1, [(3,)]),
    ("catmap", 2, [(0,), (2,)]),
    ("catmap", 3, [(0,), (1,), (2,)]),
    ("catmap", 4, [(0,), (1,), (1,), (3,)]),
    ("catmap", 4, [(-2,), (0,), (1,), (2,)]),
    ("product-t2xt2", 2, [(1, 0), (0, 1)]),
    ("product-t2xt2", 3, [(0, 0), (1, 1), (1, 2)]),
    ("product-t2xt2", 4, [(0, 0), (1, 0), (0, 1), (1, 1)]),
])
def test_join_matches_the_loop(kind, system, n, times):
    generators = list(get_system(system).generators)
    dim = generators[0].dim
    rng = np.random.default_rng(zlib.crc32(repr((kind, system, times)).encode()))
    radius, modes = (3, 25) if dim == 2 else (2, 40)
    # real observables plus mean-zero ones, so many tuples resonate
    obs_ = [_random_observable(rng, dim, radius, modes,
                               exact=(kind == "exact" or (kind == "mixed" and i % 2 == 0)))
            for i in range(n)]
    obs_ = [o + o.conjugate() if i % 2 else o for i, o in enumerate(obs_)]
    value = correlation_n(obs_, generators, times)
    assert value
    _same(value, reference_correlation_n(obs_, generators, times))


def test_join_past_2_to_the_62():
    # catmap max-gap at p = 40 reaches 111-bit frequencies; product-t2xt2
    # at ((40, 40), (40, 0)) as well: several moduli are needed
    cos = real_cosine(2, (1, 0))
    f1, f2 = cos.power(2), (cos + real_sine(2, (1, 1))).power(2)
    for a, b in ((f1, f2), (f1.to_float(), f2), (f1.to_float(), f2.to_float())):
        _same(correlation_n([a, b], [CAT], [(40,), (80,)]),
              reference_correlation_n([a, b], [CAT], [(40,), (80,)]))
    mt = (CAT ** 80).to_int_array()
    assert max(abs(x) for row in mt for x in row).bit_length() > 62
    system = get_system("product-t2xt2")
    g = obs({(1, 0, 0, 0): 1.0, (2, 1, 0, 0): 2.0 - 1j, (0, 1, 1, 0): 0.5j}, d=4)
    times = [(40, 40), (40, 0)]
    for pair in ([g, g.conjugate()], [g, g]):
        _same(correlation_n(pair, list(system.generators), times),
              reference_correlation_n(pair, list(system.generators), times))


def test_correlation2_matches_the_loop():
    rng = np.random.default_rng(5)
    f = _random_observable(rng, 2, 12, 300)
    g = _random_observable(rng, 2, 12, 300)
    fx = _random_observable(rng, 2, 4, 30, exact=True)
    gx = _random_observable(rng, 2, 4, 30, exact=True)
    for a, b in ((f, g), (f, f), (fx, gx), (fx, g), (f, gx), (g, obs({}))):
        for power in range(-3, 13):
            _same(correlation2(a, b, CAT, power), reference_correlation2(a, b, CAT, power))


def _joined(f, g, m, power):
    """correlation2's join of conj(g) and f transported, run whatever the supports."""
    exact = f.exact and g.exact
    f, g = (h.to_float() if h.exact and not exact else h for h in (f, g))
    conj = g.conjugate()
    freqs = correlate._transport(f.freqs, (m ** power).nums)
    return correlate._resonance_sum([conj, f], [conj.freqs, freqs], [0], [1], exact, "")


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_correlation2_without_terms_is_the_joins_empty_sum(exact, monkeypatch):
    # CAT^12 carries (1, 0) to (75025, 46368), far outside g's box, and an
    # empty observable has no term: the value is the join's empty sum, with
    # no join (g's conjugate is never built)
    f, g = real_cosine(2, (1, 0)), real_sine(2, (0, 1))
    if not exact:
        f, g = f.to_float(), g.to_float()
    empty = FourierObservable(2, {}, exact=exact)
    cases = [(f, g, 12), (f, g, -9), (f, empty, 0), (empty, g, 3), (empty, empty, 1),
             (f.to_float(), g, 12)]
    want = [_joined(a, b, CAT, p) for a, b, p in cases]
    monkeypatch.setattr(FourierObservable, "conjugate", lambda self: pytest.fail("joined"))
    for (a, b, p), w in zip(cases, want):
        _same(correlation2(a, b, CAT, p), w)
    assert [type(w) for w in want] == [ExactComplex if exact else complex] * 5 + [complex]
    assert not any(want)


def test_correlation2_joins_on_two_moduli(monkeypatch):
    # g holds f's modes transported by CAT^35 (coordinates near 2^50) and
    # five unmatched modes near 2^40: the two-point keys need two moduli
    rng = np.random.default_rng(35)
    f = _random_observable(rng, 2, 3, 12)
    mt = (CAT ** 35).to_int_array()
    g = {_transport_ref(mt, k): complex(rng.normal(), rng.normal()) for k in f.frequencies()}
    g.update({(int(a), int(b)): complex(rng.normal(), rng.normal())
              for a, b in (1 << 40) + rng.integers(-999, 1000, size=(5, 2))})
    g = obs(g)
    assert 49 <= max(abs(x) for z in g.frequencies() for x in z).bit_length() <= 51
    packing, counts = correlate._packing, []

    def counted(dim, bound):
        base, moduli = packing(dim, bound)
        counts.append(len(moduli))
        return base, moduli

    monkeypatch.setattr(correlate, "_packing", counted)
    for power in (34, 35, 36, -35):
        _same(correlation2(f, g, CAT, power), reference_correlation2(f, g, CAT, power))
    assert correlation2(f, g, CAT, 35)
    assert counts and set(counts) == {2}


def test_group_splits_by_every_column():
    # rows share an id exactly when they agree on every key column; a
    # column is read only while some group still holds several rows
    rng = np.random.default_rng(3)
    for _ in range(300):
        n, k = int(rng.integers(0, 40)), int(rng.integers(1, 5))
        cols = [rng.integers(0, int(rng.integers(1, 4)), size=n) for _ in range(k)]
        read = []
        ids, first = correlate._group(read.append(c) or c.copy() for c in cols)
        rows = [tuple(int(c[i]) for c in cols) for i in range(n)]
        assert len(first) == len(set(rows))
        assert sorted(set(ids.tolist())) == list(range(len(first)))
        for i in range(n):
            assert rows[first[ids[i]]] == rows[i]
            assert all((ids[i] == ids[j]) == (rows[i] == rows[j]) for j in range(n))
        if len(read) < k:
            assert len(first) == n
        if len(set(cols[0].tolist())) == n:
            assert len(read) == 1


def _stable_group(columns) -> tuple:
    """_group as it was with a stable sort, without the block-wise scratch
    bound: the reference whose ids the default sort must reproduce."""
    ids = first = None
    for key in columns:
        if ids is None:
            kind = np.int32 if len(key) < 1 << 31 else np.int64
            ids = np.zeros(len(key), dtype=kind)
            first = np.zeros(min(len(key), 1), dtype=np.int64)
            rows = np.argsort(key, kind="stable")
        else:
            split = np.zeros(len(first), dtype=bool)
            split[ids[key != key[first[ids]]]] = True
            rows = np.flatnonzero(split[ids])
            rows = rows[np.lexsort((key[rows], ids[rows]))]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (key[rows[1:]] != key[rows[:-1]]) | (ids[rows[1:]] != ids[rows[:-1]])
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


def test_group_ids_do_not_depend_on_the_sort():
    # ids are a function of the key tuples: equal to the stable-sort
    # reference's, and carried along by any permutation of the rows; the
    # representative row may differ but holds the same keys
    rng = np.random.default_rng(17)
    p = correlate._moduli(1)[0]
    unstable = False
    for n in [0, 1, 2, 17, 100, 1000, 5000, correlate._BLOCK + 3, 40_000]:
        for _ in range(3):
            k = int(rng.integers(1, 4))
            # few distinct values per column, spread over the residues
            cols = [rng.choice(rng.integers(0, p, size=int(rng.integers(1, 6))), size=n)
                    for _ in range(k)]
            keys = np.stack(cols, axis=1) if n else np.zeros((0, k), np.int64)
            ids, first = correlate._group(c.copy() for c in cols)
            ref_ids, ref_first = _stable_group(c.copy() for c in cols)
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(keys[first], keys[ref_first])
            perm = rng.permutation(n)
            ids_p, first_p = correlate._group(c[perm] for c in cols)
            assert np.array_equal(ids_p, ids[perm])
            assert np.array_equal(keys[perm][first_p], keys[first])
            unstable |= not np.array_equal(np.argsort(cols[0]),
                                           np.argsort(cols[0], kind="stable"))
    assert unstable                    # some case met an order the stable sort differs from


@pytest.mark.parametrize("kind", ["float", "exact"])
@pytest.mark.parametrize("system, times", [
    ("catmap", [(0,), (0,), (0,), (0,)]),
    ("catmap", [(0,), (1,), (0,), (1,)]),
    ("product-t2xt2", [(0, 0), (0, 0), (1, 0), (1, 0)]),
])
def test_join_with_many_equal_partial_sums(kind, system, times):
    # four radius-1 factors: each half's partial sums repeat many times, so
    # the sort meets long runs of equal keys
    generators = list(get_system(system).generators)
    dim = generators[0].dim
    rng = np.random.default_rng(zlib.crc32(repr((kind, system, times)).encode()))
    obs_ = [_random_observable(rng, dim, 1, 9, exact=(kind == "exact")) for _ in range(4)]
    value = correlation_n(obs_, generators, times)
    assert value
    _same(value, reference_correlation_n(obs_, generators, times))


def _dot_ref(a, b) -> list:
    """a @ b in Python ints, as nested lists (a vector b gives a list)."""
    a = [[int(x) for x in row] for row in a]
    if np.ndim(b) == 1:
        return [sum(x * int(y) for x, y in zip(row, b)) for row in a]
    return [[sum(x * int(row_b[c]) for x, row_b in zip(row, b)) for c in range(len(b[0]))]
            for row in a]


_L = (1 << 62) - 1                 # the largest |frequency| an observable may hold
_C = ((1 << 63) - 1) // 7          # 7 * _C = 2^63 - 1


@pytest.mark.parametrize("a, b, kind", [
    # max|a| times the largest absolute column sum: exactly 2^63 - 1, and
    # partial sums that reach +-(2^63 - 1)
    ([[7, -7], [-7, 7], [0, 7]], [[_C - 5, 1], [-5, 2]], np.int64),
    # exactly 2^63: a partial sum would wrap
    ([[2, -2]], [[1 << 61, 1], [-(1 << 61), 0]], object),
    ([[-(1 << 63)]], [[1]], object),                      # int64's minimum
    ([[(1 << 63) - 1]], [[1]], np.int64),
    ([[_L, -_L], [-_L, 0]], [[1], [1]], np.int64),          # 2 (2^62 - 1)
    ([[_L, -_L], [-_L, 0]], [[1], [-2]], object),           # 3 (2^62 - 1)
    ([[_L, _L]], [1, 1], np.int64),                         # a key vector
    ([[_L, _L]], [1, 2], object),
    ([[0, 0]], [[1 << 100, 0], [0, 1]], object),            # huge b, zero a
    (np.zeros((0, 2), np.int64), [[3, 1], [1, 2]], np.int64),
])
def test_exact_dot_at_the_int64_boundary(a, b, kind):
    # the products of _transport (b a matrix) and _keys (b a vector)
    def dot(a, b):
        return _int_einsum("ij,jk->ik" if np.ndim(b) == 2 else "ij,j->i", a, b)

    a = np.array(a, dtype=np.int64)
    out = dot(a, b)
    assert out.dtype == kind
    assert out.tolist() == _dot_ref(a, b)
    # object rows, as a Python-int transport hands them to _keys, decide alike
    out = dot(a.astype(object), b)
    assert out.dtype == kind and out.tolist() == _dot_ref(a, b)


def test_radius_47_transport_by_cat_12_stays_in_int64():
    # the mixing workload's large observables and powers: a silent fallback
    # to Python ints would cost the int64 speed without changing a value
    disc = np.array([z for z in iproduct(range(-47, 48), repeat=2)
                     if z[0] ** 2 + z[1] ** 2 <= 47 ** 2], dtype=np.int64)
    mt = (CAT ** 12).to_int_array()
    out = correlate._transport(disc, mt)
    assert out.dtype == np.int64
    assert out.tolist() == _dot_ref(disc, mt)
    # the 111-bit frequencies of the max-gap counterexample stay exact
    assert correlate._transport(disc, (CAT ** 80).to_int_array()).dtype == object


def test_one_modulus_is_not_enough():
    # the frequency 2^61 - 1 is congruent to 0 modulo the first modulus: a
    # join on that modulus alone would take it for the zero mode
    p = correlate._moduli(1)[0]
    assert p == (1 << 61) - 1
    one = RationalMatrix([[1]])
    assert correlation_n([obs({(p,): 1.0}, d=1)], [one], [(0,)]) == 0
    assert correlation_n([obs({(p,): 1, (0,): 2}, d=1, exact=True)], [one], [(0,)]) == 2
    assert correlation2(obs({(p,): 1.0}, d=1), obs({(0,): 1.0}, d=1), one, 0) == 0


def test_moduli_are_primes_just_below_2_to_the_61():
    # each residue is below 2^61, so the sum of two fits in int64; each
    # modulus is above 2^60, which the count of moduli relies on
    moduli = correlate._moduli(6)
    assert moduli[0] == (1 << 61) - 1
    assert all((1 << 60) < q < p < (1 << 61) for p, q in zip(moduli, moduli[1:]))
    assert all(sympy.isprime(p) for p in moduli)
    assert sympy.nextprime(moduli[-1]) == moduli[-2]


def _chernick_carmichael(count: int) -> list:
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime
    out, k = [], 1
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            out.append(math.prod(factors))
        k += 1
    return out


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                               *_chernick_carmichael(20),
                               3215031751, 3825123056546413051])
def test_miller_rabin_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5, 7 and
    # 3825123056546413051 to every prime base up to 23
    assert not sympy.isprime(n)
    assert not correlate._is_prime(n)


def test_miller_rabin_matches_sympy():
    top = 1 << 61
    for n in [*range(3000), *range(top - 10_000, top)]:
        assert correlate._is_prime(n) == sympy.isprime(n), n


def test_join_of_two_million_partial_sums_under_1_gib():
    # the child alone runs under RLIMIT_AS = 1 GiB: four 1000-mode factors
    # give 2 * 10^6 partial sums, a few hundred bytes each at most
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from nilmix.catalog import CAT
from nilmix.correlate import correlation_n
from nilmix.fourier import FourierObservable
rng = np.random.default_rng(0)
box = [(a, b) for a in range(-18, 19) for b in range(-18, 19) if a * a + b * b <= 324]
fs = [FourierObservable(2, {z: complex(*rng.normal(size=2)) for z in box[:1000]})
      for _ in range(4)]
v = correlation_n(fs, [CAT], [(0,), (1,), (2,), (3,)])
assert np.isfinite(v.real) and np.isfinite(v.imag)
print("ok")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=240, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
