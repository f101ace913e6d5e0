import math
from fractions import Fraction

import numpy as np
import pytest

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
from nilmix.exactlin import RationalMatrix
from nilmix.fourier import ExactComplex, FourierObservable, real_cosine, real_sine

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
    with pytest.raises(BudgetError):
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
