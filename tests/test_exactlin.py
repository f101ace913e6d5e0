import importlib.util
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st


from nilmix.exactlin import (
    IntPolynomial,
    PrecisionError,
    RationalMatrix,
    _exact_quotient,
    _invariance_residual,
    char_poly,
    cyclotomic_polynomial,
    factor_over_q,
    factor_roots,
    integer_kernel,
    inverse_totient,
    is_cyclotomic,
    lyapunov_data,
    primary_decomposition,
    rational_kernel,
)

from conftest import CHI_CAT, CUBIC_EXPONENTS


def poly(*coeffs):
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# char_poly
# ---------------------------------------------------------------------------

def test_char_poly_cat(cat):
    assert char_poly(cat) == poly(1, -3, 1)


def test_char_poly_identity3():
    p = char_poly(RationalMatrix.identity(3))
    assert p == poly(-1, 3, -3, 1)   # (x - 1)^3


def test_char_poly_companion(cubic):
    assert char_poly(cubic) == poly(1, -2, -1, 1)


def test_char_poly_rational_entries():
    m = RationalMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
    p = char_poly(m)
    assert p.evaluate(Fraction(1, 2)) == 0
    assert p.evaluate(Fraction(1, 3)) == 0


def test_cayley_hamilton_exact(cat, cubic):
    for m in (cat, cubic, RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])):
        ann = char_poly(m).evaluate_matrix(m)
        assert all(x == 0 for row in ann.rows for x in row)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factor_irreducible_quadratic():
    # rational-root test + discriminant oracle: x^2 - 3x + 1 has discriminant 5,
    # not a square, and no rational roots, hence irreducible
    p = poly(1, -3, 1)
    disc = 9 - 4
    assert math.isqrt(disc) ** 2 != disc
    assert p.evaluate(Fraction(1)) != 0 and p.evaluate(Fraction(-1)) != 0
    assert factor_over_q(p) == [(p, 1)]


def test_factor_x4_minus_1():
    got = factor_over_q(poly(-1, 0, 0, 0, 1))
    assert got == [(poly(-1, 1), 1), (poly(1, 1), 1), (poly(1, 0, 1), 1)]


def test_factor_product_roundtrip():
    # multiply then refactor
    p = poly(-1, 1) ** 2 * poly(1, -3, 1)
    got = factor_over_q(p)
    assert got == [(poly(-1, 1), 2), (poly(1, -3, 1), 1)]


def test_factor_canonical_order():
    p = poly(1, 0, 1) * poly(-1, 1) * poly(2, 1)  # includes non-monic content
    got = factor_over_q(p)
    degs = [q.degree for q, _ in got]
    assert degs == sorted(degs)
    assert all(q.is_monic() for q, _ in got)


# ---------------------------------------------------------------------------
# factorization against sympy (the reference; nilmix factors in-house)
# ---------------------------------------------------------------------------

_X = sympy.Symbol("x")


def sympy_factors(p: IntPolynomial) -> list:
    """sympy.factor_list in factor_over_q's canonical form."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, factors = sympy.factor_list(sympy.Poly(coeffs, _X, domain="QQ"))
    out = [(IntPolynomial([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())]).monic(), k)
           for q, k in factors]
    return sorted(out, key=lambda kv: (kv[0].degree, kv[0].coeffs))


def swinnerton_dyer(*radicands: int) -> IntPolynomial:
    """Minimal polynomial of the sum of the square roots: irreducible of degree
    2^k, yet it splits into factors of degree <= 2 modulo every prime.  Built
    as f(x + sqrt r) f(x - sqrt r) = E^2 - r O^2, one radicand at a time,
    where f(x + y) = E(x) + y O(x) modulo y^2 = r."""
    x, f = poly(0, 1), poly(0, 1)
    for r in radicands:
        a, b = poly(1), poly(0)          # (x + y)^i = a + y b
        e, o = poly(0), poly(0)
        for c in f.coeffs:
            e, o = e + a.scale(c), o + b.scale(c)
            a, b = x * a + b.scale(r), a + x * b
        f = e * e - o * o.scale(r)
    return f


def _perfbench_generators() -> list:
    """Every inline generator of the seed-1 benchmark workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    out = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1).ops:
            system = op.config.get("system")
            if isinstance(system, dict):
                for i, g in enumerate(system["generators"]):
                    out.setdefault(RationalMatrix(g), f"{op.id}-g{i}")
    return [(name, m) for m, name in out.items()]


def _catalog_generators() -> list:
    from nilmix.catalog import get_system, system_names
    return [(f"{name}-g{i}", g) for name in system_names()
            for i, g in enumerate(get_system(name).generators)]


_FIXED = ([("x4-10x2+1", poly(1, 0, -10, 0, 1)),
           ("swinnerton-dyer-2-3-5", swinnerton_dyer(2, 3, 5)),
           # x (x^2 + 4x + 1)(x^2 - x + 1): a factor's coefficient 4 exceeds
           # every coefficient of the product, so a lifting bound taken from
           # the product's coefficients alone recovers a wrong factor
           ("factor-coefficient-above-product", poly(0, 1, 3, -2, 3, 1)),
           ("x8-1", poly(-1, *[0] * 7, 1)),
           ("x16-1", poly(-1, *[0] * 15, 1))]
          + [(f"cyclotomic-{n}", cyclotomic_polynomial(n)) for n in range(1, 61)]
          + [(f"charpoly-{name}", char_poly(m))
             for name, m in _catalog_generators() + _perfbench_generators()])


@pytest.mark.parametrize("p", [p for _, p in _FIXED], ids=[name for name, _ in _FIXED])
def test_factor_matches_sympy_on_fixed_inputs(p):
    assert factor_over_q(p) == sympy_factors(p)


_coefficient = st.one_of(st.integers(-9, 9), st.integers(-10 ** 12, 10 ** 12))
_factor = st.tuples(st.lists(_coefficient, min_size=1, max_size=6),
                    st.integers(-12, 12).filter(bool),
                    st.integers(1, 3))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factors=st.lists(_factor, min_size=1, max_size=3),
       content=st.fractions().filter(bool))
def test_factor_matches_sympy_on_random_products(factors, content):
    # products of integer polynomials of degree 1-6 with multiplicities 1-3,
    # rational content and leading coefficients of either sign
    p = IntPolynomial([content])
    for low, lead, k in factors:
        p = p * IntPolynomial(low + [lead]) ** k
    assert factor_over_q(p) == sympy_factors(p)


def test_factor_recombines_up_to_the_limit_and_refuses_above_it():
    m = sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3) + sympy.sqrt(5), _X)
    assert swinnerton_dyer(2, 3, 5) == IntPolynomial(
        [int(c) for c in reversed(sympy.Poly(m, _X).all_coeffs())])
    # degree 32: 16 quadratic factors modulo its prime, at the limit, so the
    # subset search runs and proves it irreducible
    p = swinnerton_dyer(2, 3, 5, 7, 11)
    assert factor_over_q(p) == [(p, 1)]
    # degree 64: 32 modular factors, 2^31 subsets: refused before the search
    p = swinnerton_dyer(2, 3, 5, 7, 11, 13)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r"degree 64: 32 factors"):
        factor_over_q(p)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# cyclotomic detection
# ---------------------------------------------------------------------------

def test_cyclotomic_basics():
    assert is_cyclotomic(poly(1, 1, 1)) == 3
    assert is_cyclotomic(poly(-1, 1)) == 1
    assert is_cyclotomic(poly(1, 1)) == 2
    assert is_cyclotomic(poly(1, -3, 1)) is None


def test_cyclotomic_rejects_reducible():
    with pytest.raises(ValueError):
        is_cyclotomic(poly(-1, 0, 1))   # (x-1)(x+1)


def test_cyclotomic_against_brute_force():
    # brute force: q is cyclotomic of order d iff q divides x^d - 1; test all
    # d up to 10 * deg^2 for every monic irreducible factor of a few samples
    samples = [cyclotomic_polynomial(d) for d in (1, 2, 3, 4, 5, 6, 8, 12, 105 // 15)]
    samples += [poly(1, -3, 1), poly(1, -2, -1, 1).monic()]
    for q in samples:
        claimed = is_cyclotomic(q, assume_irreducible=True)
        brute = None
        for d in range(1, 10 * q.degree ** 2 + 1):
            xd = IntPolynomial([-1] + [0] * (d - 1) + [1])
            if _exact_quotient(xd.nums, q.nums) is not None and cyclotomic_polynomial(d) == q:
                brute = d
                break
        assert claimed == brute


def test_inverse_totient():
    assert inverse_totient(1) == [1, 2]
    assert set(inverse_totient(2)) == {3, 4, 6}
    assert set(inverse_totient(4)) == {5, 8, 10, 12}


# ---------------------------------------------------------------------------
# primary decomposition and kernels
# ---------------------------------------------------------------------------

def test_primary_cat(cat):
    pd = primary_decomposition(cat)
    assert len(pd.blocks) == 1
    blk = pd.blocks[0]
    assert blk.factor == poly(1, -3, 1)
    assert blk.multiplicity == 1 and blk.dim == 2


def test_primary_mixed_block():
    m = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    pd = primary_decomposition(m)
    factors = {b.factor: b for b in pd.blocks}
    assert poly(-1, 1) in factors and poly(1, -3, 1) in factors
    one = factors[poly(-1, 1)]
    assert [list(map(int, v)) for v in one.basis] == [[0, 0, 1]]


def test_primary_identity_defective():
    pd = primary_decomposition(RationalMatrix.identity(2))
    assert len(pd.blocks) == 1
    assert pd.blocks[0].multiplicity == 2
    assert pd.blocks[0].dim == 2


def test_primary_direct_sum_and_invariance(cat, cubic):
    for m in (cat, cubic, RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])):
        pd = primary_decomposition(m)
        all_rows = [list(v) for b in pd.blocks for v in b.basis]
        # full rank over Q
        rm = RationalMatrix([row + [Fraction(0)] * (m.dim - len(row))
                             if len(row) < m.dim else row for row in all_rows])
        assert rm.determinant() != 0
        # exact invariance: M v stays inside its block
        for b in pd.blocks:
            ann = (b.factor.evaluate_matrix(m)) ** b.multiplicity
            for v in b.basis:
                image = m.apply(v)
                assert all(x == 0 for x in ann.apply(image))


def test_integer_kernel_saturated():
    # kernel of [[1, -2, 0],[0, 0, 0],[0, 0, 3]] over Z: spanned by (2, 1, 0)
    m = RationalMatrix([[1, -2, 0], [0, 0, 0], [0, 0, 3]])
    basis = integer_kernel(m)
    assert len(basis) == 1
    v = basis[0]
    assert [abs(x) for x in v] == [2, 1, 0]


def test_rational_kernel_dimensions(cubic):
    assert rational_kernel(RationalMatrix.identity(3)) == []
    z = RationalMatrix([[0, 0], [0, 0]])
    assert len(rational_kernel(z)) == 2


# ---------------------------------------------------------------------------
# lyapunov data
# ---------------------------------------------------------------------------

def test_lyapunov_cat(cat):
    split = lyapunov_data(cat)
    exps = [b.exponent for b in split.blocks]
    assert exps[0] == pytest.approx(-CHI_CAT, abs=1e-9)
    assert exps[1] == pytest.approx(CHI_CAT, abs=1e-9)
    assert all(b.exponent_err < 1e-20 for b in split.blocks)


def test_lyapunov_mixed():
    split = lyapunov_data(RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]))
    exps = [b.exponent for b in split.blocks]
    assert exps[0] == pytest.approx(-CHI_CAT, abs=1e-9)
    assert exps[1] == 0.0 and split.blocks[1].exponent_err == 0.0
    assert exps[2] == pytest.approx(CHI_CAT, abs=1e-9)


def test_lyapunov_cubic(cubic):
    split = lyapunov_data(cubic)
    exps = [b.exponent for b in split.blocks]
    for got, ref in zip(exps, CUBIC_EXPONENTS):
        assert got == pytest.approx(ref, abs=1e-6)


def test_lyapunov_residuals_and_sum(cat, cubic):
    for m in (cat, cubic, RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
              RationalMatrix.identity(3)):
        split = lyapunov_data(m)
        assert all(_invariance_residual(m.to_float(), basis) <= 1e-9 for basis in split.bases.values())
        total = sum(b.exponent * b.multiplicity for b in split.blocks)
        assert abs(total) < 1e-9   # unimodular integer matrices in this panel
        assert sum(b.multiplicity for b in split.blocks) == m.dim


def test_unimodular_constant_coefficient(cat, cubic):
    for m in (cat, cubic):
        p = char_poly(m)
        assert abs(p.coeffs[0]) == 1


def test_lyapunov_conjugate_pair_merged():
    # rotation-by-sqrt2 style block: x^2 - 2x + 4 has conjugate roots 1 +- i sqrt3,
    # modulus 2 exactly for both: must merge into one class, exponent log 2
    m = RationalMatrix([[2, -4], [1, 0]])
    split = lyapunov_data(m)
    assert len(split.blocks) == 1
    assert split.blocks[0].multiplicity == 2
    assert split.blocks[0].exponent == pytest.approx(math.log(2.0), abs=1e-12)


def test_lyapunov_salem_like_modulus_one():
    # x^4 - 3x^3 + 3x^2 - 3x + 1: Salem polynomial, two real roots (lambda,
    # 1/lambda) and a complex pair of modulus exactly one
    m = RationalMatrix.companion(IntPolynomial([1, -3, 3, -3, 1]))
    split = lyapunov_data(m)
    zero_blocks = [b for b in split.blocks if b.exponent == 0.0 and b.exponent_err == 0.0]
    assert len(zero_blocks) == 1
    assert zero_blocks[0].multiplicity == 2
    assert len(split.blocks) == 3


def test_lyapunov_w_splitting(cubic):
    split = lyapunov_data(cubic)
    assert split.w_plus().shape == (2, 3)
    assert split.w_minus().shape == (1, 3)
    assert split.w_zero().shape == (0, 3)
    assert split.block_max().shape == (1, 3)
    assert split.block_min().shape == (1, 3)


def test_lyapunov_rejects_singular():
    with pytest.raises(ValueError):
        lyapunov_data(RationalMatrix([[1, 0], [0, 0]]))


def test_companion_matches_definition():
    p = IntPolynomial([1, -2, -1, 1])
    c = RationalMatrix.companion(p)
    assert char_poly(c) == p


def test_lyapunov_defective_jordan_blocks():
    # companion of q^2: one size-2 Jordan block per root; the class bases are
    # the generalized eigenspaces and stay exactly invariant
    q = poly(1, -3, 1)
    m = RationalMatrix.companion(q * q)
    split = lyapunov_data(m)
    assert [(b.multiplicity) for b in split.blocks] == [2, 2]
    assert all(_invariance_residual(m.to_float(), basis) <= 1e-9 for basis in split.bases.values())
    assert abs(sum(b.exponent * b.multiplicity for b in split.blocks)) < 1e-9


def test_lyapunov_non_unimodular_determinant_sum():
    # (x - 2)^2 (x - 3): exponents log 2 (twice) and log 3 summing to log 12
    split = lyapunov_data(RationalMatrix.companion(poly(-12, 16, -7, 1)))
    exps = [(b.exponent, b.multiplicity) for b in split.blocks]
    assert exps[0][0] == pytest.approx(math.log(2), abs=1e-12) and exps[0][1] == 2
    assert exps[1][0] == pytest.approx(math.log(3), abs=1e-12) and exps[1][1] == 1


@pytest.mark.parametrize("coeffs, real, units", [
    ((1, -3, 1), 2, 0),             # x^2 - 3x + 1: two real roots off the circle
    ((1, 1, 1), 0, 2),              # third cyclotomic polynomial
    ((1, 0, 1), 0, 2),              # x^2 + 1
    ((1, -3, 3, -3, 1), 2, 2),      # Salem: lambda, 1/lambda and a unit pair
    ((-1, -1, 0, 1), 1, 0),         # x^3 - x - 1: one real root, one complex pair
    ((-1, 1), 1, 1),                # x - 1
    ((-2, 1), 1, 0),                # x - 2
])
def test_factor_roots_record(coeffs, real, units):
    rec = factor_roots(poly(*coeffs), 128)
    n = len(coeffs) - 1
    assert len(rec.roots) == len(rec.partner) == len(rec.unit) == n
    assert sum(rec.partner[i] == i for i in range(n)) == real
    assert all(rec.partner[rec.partner[i]] == i for i in range(n))
    for i, j in enumerate(rec.partner):
        (r, err), (s, serr) = rec.roots[i], rec.roots[j]
        assert abs(r - s.conjugate()) <= err + serr
        assert rec.unit[i] == rec.unit[j]
    assert sum(rec.unit) == units


def test_modulus_merge_rejects_unprovable_overlap():
    # white-box: two entries from unrelated factors with overlapping
    # certified intervals and no proving identity must raise
    from nilmix.exactlin import Disc, FactorRoots, PrecisionError, _merge_modulus_classes
    q1 = poly(1, -3, 1)
    q2 = poly(-1, -1, 0, 1)
    primary = primary_decomposition(
        RationalMatrix.companion(q1 * q2))
    entries = [
        {"fi": 0, "ri": 0, "mod": 2.0, "err": 1e-3, "one": False},
        {"fi": 1, "ri": 0, "mod": 2.0005, "err": 1e-3, "one": False},
    ]
    records = [FactorRoots(((r + 0j, 1e-3),), (Disc(int(r * 2 ** 192), 0, 2 ** 182, 128),),
                           (0,), (False,)) for r in (2.0, 2.0005)]
    with pytest.raises(PrecisionError):
        _merge_modulus_classes(entries, primary, records)


def test_block_overlap_escalates_then_raises():
    from nilmix.exactlin import PrecisionError, _check_disjoint, LyapunovBlock
    blocks = [
        LyapunovBlock(0.5, 0.2, 1, (0,), ((0, 0),)),
        LyapunovBlock(0.6, 0.2, 1, (1,), ((1, 0),)),
    ]
    with pytest.raises(PrecisionError):
        _check_disjoint(blocks)


# ---------------------------------------------------------------------------
# per-matrix memo of the spectral pipeline
# ---------------------------------------------------------------------------

def _clear_memo():
    primary_decomposition.cache_clear()
    lyapunov_data.cache_clear()


@pytest.mark.parametrize("name, matrices", [("cubic3", 1), ("heisenberg-cat", 2)])
def test_one_factorization_per_distinct_matrix(name, matrices):
    # heisenberg-cat factors its 3x3 matrix and the 2x2 abelianization
    from unittest import mock

    from nilmix import exactlin
    from nilmix.catalog import get_system
    from nilmix.nilalg import classify
    from nilmix.rates import rho_chi

    system = get_system(name)
    _clear_memo()
    with mock.patch.object(exactlin, "factor_over_q", wraps=exactlin.factor_over_q) as spy:
        classify(system.algebra, system.matrix)
        lyapunov_data(system.matrix)
        rho_chi(system.algebra, system.matrix)
    assert spy.call_count == matrices


def test_cached_splitting_is_immutable_and_reproducible(cubic):
    import dataclasses

    def fields(split):
        return (split.matrix, split.primary, split.precision_bits,
                [(b.exponent, b.exponent_err, b.multiplicity, b.primary_factors, b.roots)
                 for b in split.blocks],
                [(basis.tolist(), _invariance_residual(cubic.to_float(), basis))
                 for basis in split.bases.values()])

    _clear_memo()
    split = lyapunov_data(cubic)
    assert lyapunov_data(cubic) is split
    assert primary_decomposition(cubic) is split.primary
    assert split.bases is split.bases       # built once, on first use
    with pytest.raises(ValueError):
        split.bases[0, 0][0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.blocks = ()
    _clear_memo()
    fresh = lyapunov_data(cubic)
    assert fresh is not split
    assert fields(fresh) == fields(split)
