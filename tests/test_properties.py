"""Property suites for the module invariants, driven by hypothesis.

Exact statements are checked exactly (Fraction arithmetic); floating
statements at their stated tolerances.  Each property runs at least 200
generated cases unless the strategy space itself is smaller.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from nilmix.catalog import CAT, CUBIC, get_system, random_ergodic_gl3
from nilmix.correlate import correlation2, correlation_n
from nilmix.dioph import diophantine_certificate
from nilmix.exactlin import (
    IntPolynomial,
    RationalMatrix,
    _exact_quotient,
    _invariance_residual,
    char_poly,
    cyclotomic_polynomial,
    factor_over_q,
    is_cyclotomic,
    lyapunov_data,
    primary_decomposition,
)
from nilmix.fourier import FourierObservable
from nilmix.fracsolve import (
    schrodinger_threshold,
    sobolev_norm,
    solve_fractional,
    split_small_divisor,
    threshold_sweep,
)
from nilmix.nilalg import _span_rows, abelianization_action, classify, heisenberg_algebra
from nilmix.rates import TimeTuple, rho_chi, theta

from conftest import CHI_CAT, PHI_INV

COMMON = settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much,
                                         HealthCheck.data_too_large])

HEIS = heisenberg_algebra()
HEIS_M = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def int_matrices(dim_max=4, bound=4):
    return st.integers(2, dim_max).flatmap(
        lambda d: st.lists(st.lists(st.integers(-bound, bound),
                                    min_size=d, max_size=d),
                           min_size=d, max_size=d)).map(RationalMatrix)


@st.composite
def unimodular_matrices(draw, dim_max=4):
    d = draw(st.integers(2, dim_max))
    m = RationalMatrix.identity(d)
    for _ in range(draw(st.integers(2, 6))):
        i = draw(st.integers(0, d - 1))
        j = draw(st.integers(0, d - 1))
        assume(i != j)
        rows = [[Fraction(int(a == b)) for b in range(d)] for a in range(d)]
        rows[i][j] = Fraction(draw(st.sampled_from([-2, -1, 1, 2])))
        m = m * RationalMatrix(rows)
    return m


@st.composite
def observables(draw, dim=2, bound=12, max_modes=14, mean_zero=False):
    n = draw(st.integers(1, max_modes))
    coeffs = {}
    for _ in range(n):
        z = tuple(draw(st.integers(-bound, bound)) for _ in range(dim))
        if mean_zero and not any(z):
            continue
        re = draw(st.floats(-2, 2, allow_nan=False, width=32))
        im = draw(st.floats(-2, 2, allow_nan=False, width=32))
        if re or im:
            coeffs[z] = complex(re, im)
    assume(coeffs)
    return FourierObservable(dim, coeffs)


GOLDEN = [(1.0, PHI_INV)]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@COMMON
@given(int_matrices())
def test_cayley_hamilton(m):
    ann = char_poly(m).evaluate_matrix(m)
    assert all(x == 0 for row in ann.rows for x in row)


@COMMON
@given(unimodular_matrices())
def test_unimodular_invariants(m):
    p = char_poly(m)
    assert abs(p.coeffs[0]) == 1
    split = lyapunov_data(m)
    total = sum(b.exponent * b.multiplicity for b in split.blocks)
    budget = sum(b.exponent_err * b.multiplicity for b in split.blocks) + 1e-9
    assert abs(total) <= budget
    assert all(_invariance_residual(m.to_float(), basis) <= 1e-9 for basis in split.bases.values())


@COMMON
@given(int_matrices(dim_max=4, bound=3))
def test_primary_decomposition_invariants(m):
    pd = primary_decomposition(m)
    rows = [list(v) for b in pd.blocks for v in b.basis]
    assert len(rows) == m.dim
    assert RationalMatrix(rows).determinant() != 0
    prod = IntPolynomial([1])
    for b in pd.blocks:
        prod = prod * b.factor ** b.multiplicity
    assert prod == char_poly(m).monic()
    for b in pd.blocks:
        ann = b.factor.evaluate_matrix(m) ** b.multiplicity
        for v in b.basis:
            assert all(x == 0 for x in ann.apply(m.apply(v)))


_CYC_POOL = [cyclotomic_polynomial(d) for d in range(1, 25) if
             cyclotomic_polynomial(d).degree <= 8]
_NONCYC_POOL = [IntPolynomial(c) for c in
                [(1, -3, 1), (1, -2, -1, 1), (-1, -1, 0, 1), (1, 1, -1, -1, 1, 1)]]


@COMMON
@given(st.sampled_from(_CYC_POOL + _NONCYC_POOL))
def test_cyclotomic_matches_brute_force(q):
    claimed = is_cyclotomic(q, assume_irreducible=True)
    brute = None
    for d in range(1, 10 * q.degree ** 2 + 1):
        xd = IntPolynomial([-1] + [0] * (d - 1) + [1])
        if _exact_quotient(xd.nums, q.nums) is not None and cyclotomic_polynomial(d) == q:
            brute = d
            break
    assert claimed == brute


@COMMON
@given(int_matrices(dim_max=4, bound=3))
def test_integer_kernel_saturated(m):
    from nilmix.exactlin import integer_kernel, rational_kernel
    basis = integer_kernel(m)
    rat = rational_kernel(m)
    assert len(basis) == len(rat)
    for v in basis:
        assert all(x == 0 for x in m.apply([Fraction(x) for x in v]))
    if not basis:
        return
    # saturation: every integer vector of the rational kernel is an integer
    # combination of the returned basis
    for combo_weights in ([1] * len(rat), list(range(1, len(rat) + 1))):
        vec = [sum(w * v[d] for w, v in zip(combo_weights, rat))
               for d in range(m.dim)]
        den = math.lcm(*[x.denominator for x in vec]) if vec else 1
        target = [int(x * den) for x in vec]
        coeffs = _solve_integer_combination(basis, target, m.dim)
        assert coeffs is not None


def _solve_integer_combination(basis, target, dim):
    """Exact solve of sum_i c_i basis_i = target; None unless all c_i integers."""
    rows = len(basis)
    aug = [[Fraction(basis[i][d]) for i in range(rows)] + [Fraction(target[d])]
           for d in range(dim)]
    piv_rows = []
    r = 0
    for c in range(rows):
        p = next((k for k in range(r, dim) if aug[k][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(dim):
            if k != r and aug[k][c]:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        piv_rows.append((r, c))
        r += 1
    for k in range(r, dim):
        if aug[k][rows] != 0:
            return None
    coeffs = [Fraction(0)] * rows
    for row, col in piv_rows:
        coeffs[col] = aug[row][rows]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return coeffs


# ---------------------------------------------------------------------------
# spectral classification
# ---------------------------------------------------------------------------

@COMMON
@given(st.sampled_from(["catmap", "cubic3", "heisenberg-cat", "filiform4"]),
       st.integers(1, 6))
def test_ergodicity_power_stable(name, q):
    system = get_system(name)
    cls_base = classify(system.algebra, system.matrix)
    cls_pow = classify(system.algebra, system.matrix ** q)
    assert cls_base.ergodic == cls_pow.ergodic


@COMMON
@given(st.sampled_from(["catmap", "cubic3", "heisenberg-cat", "filiform4"]))
def test_splitting_spans_and_invariant(name):
    system = get_system(name)
    cls = classify(system.algebra, system.matrix)
    rows = [list(v) for v in cls.n_z1 + cls.n_z2]
    assert len(rows) == system.algebra.dim
    assert RationalMatrix(rows).determinant() != 0
    # exact invariance of both parts
    for part in (cls.n_z1, cls.n_z2):
        if not part:
            continue
        span_rows = [list(v) for v in part]
        for v in part:
            image = system.matrix.apply(v)
            assert _in_span(image, span_rows)


def _in_span(v, basis) -> bool:
    return len(_span_rows(list(basis) + [list(v)])) == len(_span_rows(basis))


@COMMON
@given(unimodular_matrices(dim_max=3), unimodular_matrices(dim_max=3))
def test_abelianization_functorial(a, b):
    assume(a.dim == b.dim)
    heis_dim = a.dim + 1
    # lift to a block automorphism of an abelian algebra: functoriality of
    # the quotient block under products
    from nilmix.nilalg import abelian_algebra
    alg = abelian_algebra(a.dim)
    ab = abelianization_action(alg, a * b)
    assert ab == abelianization_action(alg, a) * abelianization_action(alg, b)


# ---------------------------------------------------------------------------
# lattice certificates
# ---------------------------------------------------------------------------

@COMMON
@given(st.fractions(min_value=-4, max_value=4).filter(lambda f: f != 0),
       st.fractions(min_value=-4, max_value=4),
       st.integers(3, 9), st.integers(1, 4))
def test_certificate_monotone_in_radius(a, b, r1, dr):
    vs = [[a, b]]
    c1 = diophantine_certificate(vs, 2, r1)
    c2 = diophantine_certificate(vs, 2, r1 + dr)
    assert c2.c_emp_sq_exact <= c1.c_emp_sq_exact


@COMMON
@given(st.fractions(min_value=-3, max_value=3).filter(lambda f: f != 0),
       st.fractions(min_value=-3, max_value=3),
       st.fractions(min_value=Fraction(1, 4), max_value=4).filter(lambda f: f > 0))
def test_certificate_scaling_linearity(a, b, t):
    base = diophantine_certificate([[a, b]], 2, 6)
    scaled = diophantine_certificate([[t * a, t * b]], 2, 6)
    assert scaled.c_emp_sq_exact == t * t * base.c_emp_sq_exact
    assert scaled.argmin == base.argmin


@COMMON
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_certificate_exact_resonance(p, q):
    assume(p or q)
    # direction orthogonal to the integer vector (p, q) resonates there
    cert = diophantine_certificate([[q, -p]], 2, math.hypot(p, q) + 1)
    assert not cert.passed and cert.c_emp == 0


# ---------------------------------------------------------------------------
# small-divisor solver
# ---------------------------------------------------------------------------

@COMMON
@given(observables(mean_zero=True))
def test_partition_and_selector(f):
    sp = split_small_divisor(f, GOLDEN)
    rebuilt = sp.large + sp.small + sp.zero_mode
    assert dict(rebuilt.items()) == dict(f.items())
    for z, idx in zip(f.frequencies(), sp.selector):
        dots = [abs(z[0] * v[0] + z[1] * v[1]) for v in GOLDEN]
        assert dots[idx] >= sum(dots) / len(GOLDEN) - 1e-15


@COMMON
@given(observables(mean_zero=True), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_reconstruction_residual(f, r):
    sol = solve_fractional(f, GOLDEN, r)
    assert sol.residual <= 1e-12 * max(f.max_abs(), 1e-300)


@COMMON
@given(observables(mean_zero=True), observables(mean_zero=True),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
# a near cancellation: the solutions, of size ~0.8, leave a 1.06e-17 rounding
# in rhs, far above 1e-12 times the 1.8e-16 of the solutions' difference
@example(FourierObservable(2, {(1, 0): 1 + 0j}), FourierObservable(2, {(1, 0): 1 + 0j}),
         1 + 0j, -0.9999999999999996 + 0j)
def test_solver_linearity(f, g, a, b):
    combo = f.scaled(a) + g.scaled(b)
    assume(combo.is_mean_zero())
    sol_c = solve_fractional(combo, GOLDEN, 0.5)
    phi_f = solve_fractional(f, GOLDEN, 0.5).per_direction[0].phi
    phi_g = solve_fractional(g, GOLDEN, 0.5).per_direction[0].phi
    lhs = sol_c.per_direction[0].phi
    rhs = phi_f.scaled(a) + phi_g.scaled(b)
    # the rounding of rhs scales with what it subtracts, not with its result
    scale = max(lhs.max_abs(), abs(a) * phi_f.max_abs() + abs(b) * phi_g.max_abs(), 1e-300)
    for z in set(lhs.frequencies()) | set(rhs.frequencies()):
        assert abs(complex(lhs[z]) - complex(rhs[z])) <= 1e-12 * scale


@COMMON
@given(observables(mean_zero=True), st.sampled_from([1, 2, 3]))
def test_modulus_signed_norm_identity(f, r):
    m = solve_fractional(f, GOLDEN, r, mode="modulus")
    s = solve_fractional(f, GOLDEN, r, mode="signed")
    for dm, ds in zip(m.per_direction, s.per_direction):
        assert dm.norm == pytest.approx(ds.norm, rel=1e-12, abs=1e-300)


_CERT_CACHE = {}


def _cert(dim, radius):
    key = (dim, radius)
    if key not in _CERT_CACHE:
        _CERT_CACHE[key] = diophantine_certificate(GOLDEN, dim, radius)
    return _CERT_CACHE[key]


@COMMON
@given(observables(mean_zero=True, bound=10), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_small_divisor_norm_bound(f, r):
    cert = _cert(2, 11)   # covers the support ball
    sol = solve_fractional(f, GOLDEN, r, certificate=cert)
    d = sol.per_direction[0]
    assert d.norm_small <= d.predicted_small_bound * (1 + 1e-9)


@COMMON
@given(st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75]),
       st.floats(min_value=1e-5, max_value=0.05))
def test_threshold_monotone_in_cutoff(r, h):
    big, small = (reports[0].value
                  for reports in threshold_sweep(lambda x: 1.0, (r,), (h, h / 2)))
    assert small >= big * (1 - 1e-9)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

@COMMON
@given(observables(bound=6, max_modes=6), observables(bound=6, max_modes=6),
       observables(bound=6, max_modes=6),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
       st.integers(-5, 5))
def test_shift_invariance(f1, f2, f3, times, w):
    base = correlation_n([f1, f2, f3], [CAT], [(t,) for t in times])
    shifted = correlation_n([f1, f2, f3], [CAT], [(t + w,) for t in times])
    assert complex(shifted) == pytest.approx(complex(base), rel=1e-10, abs=1e-12)


@COMMON
@given(observables(bound=8), observables(bound=8))
def test_plancherel_at_zero(f, g):
    got = correlation2(f, g, CAT, 0)
    want = sum(complex(c) * complex(g[z]).conjugate() for z, c in f.items())
    assert complex(got) == pytest.approx(want, rel=1e-12, abs=1e-15)


@COMMON
@given(observables(bound=5, max_modes=5), observables(bound=5, max_modes=5),
       observables(bound=5, max_modes=5),
       st.integers(0, 4), st.integers(0, 4))
def test_two_block_consistency(f1, f2, f3, t1, t2):
    times = [(t1 + t2,), (t2,), (0,)]
    full = correlation_n([f1, f2, f3], [CAT], times)

    def transported(f, e):
        mt = (CAT ** e).to_int_array()
        out = {}
        for k, c in f.items():
            kk = tuple(sum(mt[i][j] * k[i] for i in range(2)) for j in range(2))
            out[kk] = out.get(kk, 0j) + complex(c)
        return FourierObservable(2, out)

    merged = transported(f1, t1 + t2).product(transported(f2, t2))
    paired = correlation2(merged, f3.conjugate(), CAT, 0)
    scale = max(abs(complex(full)), abs(complex(paired)), 1.0)
    assert abs(complex(full) - complex(paired)) <= 1e-12 * scale


@COMMON
@given(observables(bound=4, max_modes=6, mean_zero=True), st.integers(10, 40))
def test_finite_horizon_vanishing(f, m):
    # support radius <= 4: transported frequencies exceed radius 4 once the
    # stable component cannot compensate; horizon below 10 for the cat map
    assert complex(correlation2(f, f, CAT, m)) == 0


@COMMON
@given(observables(dim=3, bound=4, max_modes=6, mean_zero=True),
       st.integers(12, 40))
def test_finite_horizon_vanishing_cubic(f, m):
    # empirically the horizon for support radius 4 on the totally real cubic
    # companion is 5; give it slack
    assert complex(correlation2(f, f, CUBIC, m)) == 0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@COMMON
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_gamma_monotone(s1, s2):
    from nilmix.rates import holder_rate
    from nilmix.nilalg import abelian_algebra
    lo, hi = sorted((s1, s2))
    assert holder_rate(abelian_algebra(2), CAT, lo) <= \
        holder_rate(abelian_algebra(2), CAT, hi) + 1e-15


@COMMON
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=5, unique=True),
       st.integers(1, 9))
def test_theta_scale_invariance(zs, t):
    from nilmix.nilalg import abelian_algebra
    tup = TimeTuple.of(*[(z,) for z in zs])
    base = theta(abelian_algebra(2), [CAT], tup)
    scaled = theta(abelian_algebra(2), [CAT], tup.scaled(t))
    assert scaled.value == pytest.approx(base.value, rel=1e-12)


@COMMON
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                min_size=2, max_size=4, unique=True))
def test_theta_positive_iff_pairs_regular(zs):
    system = get_system("cubic-rank2")
    tup = TimeTuple.of(*zs)
    assume(tup.gap > 0)
    rep = theta(system.algebra, list(system.generators), tup)
    if rep.value > 1e-6:
        assert all(flag for _, _, flag in rep.per_pair)
    flagged_min = min(v for _, v, _ in rep.per_pair)
    assert rep.value == pytest.approx(flagged_min)


# ---------------------------------------------------------------------------
# random ergodic panel (smaller radius than the acceptance sweep)
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 9))
def test_structural_random_conjugates(seed):
    from nilmix.dioph import certify_structural_subspaces
    m = random_ergodic_gl3(seed)
    report = certify_structural_subspaces(m, 50)
    assert all(cert.passed for cert in report.values())
