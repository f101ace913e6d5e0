"""Root records on isolating discs, and the one image rule that decides
every root question.

`exactlin.factor_roots` gives each root of an irreducible factor a disc
that holds exactly that root.  The conjugate partner and modulus one are
each read off by `exactlin.Disc.holder`: the one disc that meets the image
of a root's disc under an exact map (conjugation, z -> 1/z).  Equal moduli are
decided by Descartes counts of the real roots of the squared-modulus
polynomial's squarefree kernel on the |z|^2 intervals.
The discs are checked against roots recomputed at twice the precision,
the refusals (overlapping discs, no convergence, moduli that differ below
double resolution) against inputs whose roots lie too close, the decisions
against the three float matchers that `exactlin` used before and the
factor-and-isolate rule it used after them, kept in `root_reference`, on
cyclotomic, Salem, Lehmer, x -> -x related and random irreducible factors,
the root counts against sympy's, the squared-modulus polynomial against
sympy's resultant, and the merged classes against the merge that screened
by double intervals (also in `root_reference`) and against moduli compared
at 2048 bits, on x -> ix and x -> x^3 images whose equal moduli need not be
equal doubles.
"""

import functools
import json
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import class_reference
import root_reference as ref
from nilmix import exactlin
from nilmix.cli import main
from nilmix.dioph import certify_structural_subspaces
from nilmix.exactlin import (
    IntPolynomial,
    PrecisionError,
    RationalMatrix,
    Disc,
    ResolutionError,
    _merge_modulus_classes,
    _modulus_relation,
    _root_count,
    cyclotomic_polynomial,
    factor_over_q,
    factor_roots,
    is_cyclotomic,
    lyapunov_data,
    squared_modulus_polynomial,
)
from nilmix.nilalg import lyapunov_functionals
from nilmix.rates import density_estimate

ROOTS = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

SALEM4 = IntPolynomial([1, -3, 3, -3, 1])                       # x^4 - 3x^3 + 3x^2 - 3x + 1
LEHMER = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def _mignotte(k: int) -> IntPolynomial:
    """x^3 - 2 (10^k x - 1)^2, irreducible (Eisenstein at 2), with two real
    roots near 10^-k about 10^(-5k/2) apart."""
    a = 10 ** k
    return IntPolynomial([-2, 4 * a, -2 * a * a, 1])


def _irreducible(q: IntPolynomial) -> bool:
    return factor_over_q(q) == [(q, 1)]


def _factors(max_degree: int):
    """Monic irreducible integer factors of degree <= max_degree: cyclotomic,
    the degree-4 Salem polynomial, Lehmer's, and random ones."""
    named = [cyclotomic_polynomial(d) for d in range(1, 60)
             if cyclotomic_polynomial(d).degree <= max_degree] + [SALEM4, LEHMER]
    random = (st.lists(st.integers(-6, 6), min_size=1, max_size=max_degree)
              .map(lambda low: IntPolynomial(low + [1])).filter(_irreducible))
    return st.one_of(st.sampled_from(named), random)


def _negated(q: IntPolynomial) -> IntPolynomial:
    """The monic one of +-q(-x), whose roots are those of q negated."""
    return ref.compose_neg(q).monic()


def _cubed(q: IntPolynomial) -> IntPolynomial:
    """q(x^3), whose roots are the cube roots of q's: three of each modulus,
    apart by rotations through 2 pi / 3 that are not exact in doubles."""
    coeffs = [0] * (3 * q.degree + 1)
    coeffs[::3] = q.coeffs
    return IntPolynomial(coeffs)


def _rotated(q: IntPolynomial) -> IntPolynomial:
    """q(ix) q(-ix), whose roots are those of q times +-i: with q(x) q(-x) =
    sum_k c_k x^(2k), it is sum_k (-1)^k c_k x^(2k)."""
    even = (q * ref.compose_neg(q)).coeffs
    return IntPolynomial([c * (-1) ** (i // 2) for i, c in enumerate(even)])


@functools.lru_cache(maxsize=None)
def _roots_2048(q: IntPolynomial) -> tuple:
    with mpmath.workprec(2048):
        return tuple(mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                       for c in reversed(q.coeffs)], maxsteps=400, extraprec=2048))


def _moduli_2048(p: IntPolynomial) -> list:
    """|z| at 2048 bits for every root of p, with multiplicity (sympy factors
    p first: repeated roots would stall the iteration; abs rounds to the
    working precision, so it is taken at 2048 bits too)."""
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                               for c in reversed(p.coeffs)], x))
    with mpmath.workprec(2048):
        return [abs(z) for f, k in factors
                for z in _roots_2048(IntPolynomial([int(c) for c in reversed(f.all_coeffs())]))
                for _ in range(k)]


def _modulus_2048(q: IntPolynomial, disc: Disc):
    """|z| at 2048 bits for the one root z of q in disc."""
    x, y, r, _ = disc
    with mpmath.workprec(2048):
        unit = mpmath.ldexp(1, -disc.bits)
        inside = [z for z in _roots_2048(q) if abs(z - mpmath.mpc(x, y) * unit) <= r * unit]
        assert len(inside) == 1
        return abs(inside[0])


def _equal_at_2048_bits(primary, records, e1, e2) -> bool:
    m1, m2 = (_modulus_2048(primary.blocks[e["fi"]].factor, records[e["fi"]].discs[e["ri"]])
              for e in (e1, e2))
    return abs(m1 - m2) < mpmath.ldexp(1, -2000)


def _entries(records) -> list:
    """The merge's root entries, as the Lyapunov splitting builds them."""
    return [{"fi": fi, "ri": ri, "mod": 1.0 if one else abs(r),
             "err": 0.0 if one else err, "one": one}
            for fi, rec in enumerate(records)
            for ri, ((r, err), one) in enumerate(zip(rec.roots, rec.unit))]


def _classes(entries, primary, records, merge=_merge_modulus_classes):
    try:
        return [[(e["fi"], e["ri"]) for e in cls] for cls in merge(entries, primary, records)]
    except PrecisionError:
        return "PrecisionError"


def _splits_equal_moduli(classes, primary, records) -> bool:
    """Whether two of the classes hold moduli equal at 2048 bits (each class
    is proven equal within, so its first root stands for it)."""
    moduli = sorted(_modulus_2048(primary.blocks[fi].factor, records[fi].discs[ri])
                    for (fi, ri), *_ in classes)
    with mpmath.workprec(2048):
        return any(b - a < mpmath.ldexp(1, -2000) for a, b in zip(moduli, moduli[1:]))


@ROOTS
@given(q=_factors(12))
def test_partner_and_unit_match_the_reference(q):
    rec = factor_roots(q, 128)
    partner = ref._pair_conjugates(list(rec.roots))
    assert rec.partner == tuple(partner)
    cyc = is_cyclotomic(q, assume_irreducible=True)
    assert rec.unit == tuple(ref._prove_modulus_one(q, rec.roots, partner, i, cyc)
                             for i in range(q.degree))


@ROOTS
@given(pair=st.one_of(_factors(12).map(lambda q: (q, _negated(q))),
                      st.tuples(_factors(12), _factors(12))))
def test_equal_moduli_and_merges_match_the_reference(pair):
    # the root-count rule decides as the factor-and-isolate rule wherever
    # that decides, proves every equality the float matchers prove, and
    # each equality only it proves holds for the 2048-bit moduli; the
    # classes are those of the merge that screened by double intervals,
    # wherever that merge neither refused nor split moduli equal at 2048 bits
    qs = list(dict.fromkeys(pair))     # one primary block per distinct factor
    primary = SimpleNamespace(blocks=[SimpleNamespace(factor=q) for q in qs])
    records = [factor_roots(q, 128) for q in qs]
    entries = _entries(records)
    for e1 in entries:
        for e2 in entries:
            if e1 is not e2:
                relation = _modulus_relation(e1, e2, primary, records)
                reference = ref._modulus_relation(e1, e2, primary, records)
                if reference is not None:
                    assert relation == reference
                if ref._prove_equal_modulus(e1, e2, primary, records):
                    assert relation is True
                elif relation and reference is None:
                    assert _equal_at_2048_bits(primary, records, e1, e2)
    new = _classes(entries, primary, records)
    old = _classes(entries, primary, records, ref._merge_modulus_classes)
    if old != "PrecisionError" and not _splits_equal_moduli(old, primary, records):
        assert new == old


@ROOTS
@given(q=_factors(16))
@example(q=_cubed(LEHMER))          # degree 30: the factor of companion(LEHMER(x^3))
def test_each_disc_holds_exactly_one_root(q):
    rec = factor_roots(q, 128)
    with mpmath.workprec(256):
        unit = mpmath.ldexp(1, -rec.discs[0].bits)
        roots = mpmath.polyroots([int(c) for c in reversed(q.coeffs)], maxsteps=400,
                                 extraprec=256)
        for (x, y, r, _), (centre, radius) in zip(rec.discs, rec.roots):
            assert r * unit >= radius
            near = [z for z in roots if abs(z - mpmath.mpc(x, y) * unit) <= r * unit]
            assert len(near) == 1


def _cat_factor(k: int) -> IntPolynomial:
    """The characteristic polynomial of CAT^k, x^2 - L_2k x + 1."""
    return factor_over_q(exactlin.char_poly(RationalMatrix([[2, 1], [1, 1]]) ** k))[0][0]


@pytest.mark.parametrize("prec", [256, 512])
@pytest.mark.parametrize("q", [_mignotte(15), _mignotte(20), _cat_factor(115), _cat_factor(150),
                               _cat_factor(300)],
                         ids=["mignotte15", "mignotte20", "cat115", "cat150", "cat300"])
def test_discs_hold_one_2048_bit_root_where_seeds_coincide(q, prec):
    # the double seeds of Mignotte's two close roots coincide (k = 20) or
    # nearly do (k = 15), and those of CAT^k span up to 250 decimal orders:
    # the refined discs still hold one root each
    rec = factor_roots(q, prec)
    with mpmath.workprec(2048):
        unit = mpmath.ldexp(1, -rec.discs[0].bits)
        for (x, y, r, _), (_, radius) in zip(rec.discs, rec.roots):
            assert r * unit >= radius
            assert len([z for z in _roots_2048(q)
                        if abs(z - mpmath.mpc(x, y) * unit) <= r * unit]) == 1


def test_named_records():
    # Lehmer: eight roots on the unit circle and the real pair off it;
    # x^2 + 3x + 1 against x^2 - 3x + 1: negated roots, equal moduli
    rec = factor_roots(LEHMER, 128)
    assert sum(rec.unit) == 8 and sum(p == i for i, p in enumerate(rec.partner)) == 2
    q1, q2 = IntPolynomial([1, -3, 1]), IntPolynomial([1, 3, 1])
    primary = SimpleNamespace(blocks=[SimpleNamespace(factor=q) for q in (q1, q2)])
    records = [factor_roots(q1, 128), factor_roots(q2, 128)]
    assert _classes(_entries(records), primary, records) == [[(0, 0), (1, 1)],
                                                             [(0, 1), (1, 0)]]


def test_holder_names_only_a_unique_disc():
    discs = [Disc(0, 0, 1, 128), Disc(3, 0, 1, 128)]
    assert Disc(0, 1, 0, 128).holder(discs) == 0
    assert Disc(2, 0, 0, 128).holder(discs) == 1
    assert Disc(1, 0, 1, 128).holder(discs) is None          # meets both
    assert Disc(0, 5, 1, 128).holder(discs) is None          # meets neither
    assert discs[0].inverse() is None                        # 0 has no image under 1/z


def test_near_symmetries_prove_nothing():
    # roots within their radius of the unit circle, or of the negated roots
    # of another factor, but q is not self-reciprocal, and q2 != +-q1(-x)
    eps = Fraction(1, 10 ** 45)
    near_unit = IntPolynomial([1 + eps, -1, 1])
    assert factor_roots(near_unit, 128).unit == (False, False)
    q1, q2 = IntPolynomial([1, -3, 1]), IntPolynomial([1 + eps, 3, 1])
    primary = SimpleNamespace(blocks=[SimpleNamespace(factor=q) for q in (q1, q2)])
    records = [factor_roots(q1, 128), factor_roots(q2, 128)]
    entries = _entries(records)
    assert not any(_modulus_relation(e1, e2, primary, records)
                   for e1 in entries[:2] for e2 in entries[2:])
    assert _classes(entries, primary, records) == "PrecisionError"


def test_overlapping_discs_are_refused():
    # roots near 1e-15 about 1e-37 apart: at 128 bits the discs overlap
    q = _mignotte(15)
    with pytest.raises(PrecisionError, match="overlap"):
        factor_roots(q, 128)
    assert factor_roots(q, 256).partner == (0, 1, 2)


def test_no_convergence_is_a_precision_error():
    # at 128 bits the discs of the two roots near 1e-20, 1e-50 apart, overlap;
    # at 256 they are disjoint
    q = _mignotte(20)
    with pytest.raises(PrecisionError, match="overlap"):
        factor_roots(q, 128)
    rec = factor_roots(q, 256)
    assert rec.partner == (0, 1, 2)
    for i, (x1, y1, r1, _) in enumerate(rec.discs):
        for x2, y2, r2, _ in rec.discs[i + 1:]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    # the splitting escalates past it, and refuses (the double moduli of the
    # two small roots coincide) with a PrecisionError, not NoConvergence
    with pytest.raises(PrecisionError):
        lyapunov_data(RationalMatrix.companion(q))


def test_exponent_sums_beyond_doubles_fail_the_determinant_check():
    # an infinite or NaN sum of exponents or budget fails the check, as a
    # root beyond the largest double would make them
    for exponent, err in ((math.inf, math.nan), (math.inf, math.inf), (math.nan, 0.0)):
        split = SimpleNamespace(blocks=[SimpleNamespace(exponent=exponent, exponent_err=err,
                                                        multiplicity=1)])
        with pytest.raises(PrecisionError, match="beyond budget"):
            exactlin._check_det_sum(Fraction(1), split)


def test_determinant_beyond_doubles_is_checked():
    # roots 1e200 and 3e200 are doubles, their product is not
    split = lyapunov_data(RationalMatrix([[10 ** 200, 0], [0, 3 * 10 ** 200]]))
    assert [b.exponent for b in split.blocks] == [pytest.approx(200 * math.log(10), rel=1e-15),
                                                  pytest.approx(math.log(3e200), rel=1e-15)]


def test_moduli_below_double_resolution_are_refused_at_once():
    # the two small roots are proven apart from 256 bits on, but their double
    # moduli coincide, so their exponents would overlap at every precision:
    # refused after two attempts (128 does not converge), not five up to 2048
    attempt = exactlin._lyapunov_attempt
    with mock.patch.object(exactlin, "_lyapunov_attempt", side_effect=attempt) as spy:
        with pytest.raises(ResolutionError, match="below double resolution"):
            lyapunov_data(RationalMatrix.companion(_mignotte(20)))
    assert [c.args[2] for c in spy.call_args_list] == [128, 256]
    assert issubclass(ResolutionError, PrecisionError)


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(low=st.lists(_RATIONALS, min_size=1, max_size=4).filter(lambda c: c[0] != 0),
       lead=_RATIONALS.filter(bool))
def test_squared_modulus_polynomial_matches_the_resultant(low, lead):
    # the resultant R has the products z_i z_j for all i, j as its roots, P
    # those for i <= j, and D = Res_x(q(x), y - x^2) the squares z_i^2: so
    # R = D L^2 and P = D L for L the products for i < j, and P^2 = R D,
    # which fixes the monic P
    q = IntPolynomial(low + [lead])
    x, y = sympy.symbols("x y")
    qx = sum(sympy.Rational(c.numerator, c.denominator) * x ** k for k, c in enumerate(q.coeffs))
    res = sympy.Poly(sympy.resultant(qx, sympy.expand(x ** q.degree * qx.subs(x, y / x)), x), y)
    squares = sympy.Poly(sympy.resultant(qx, y - x ** 2, x), y)
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(squared_modulus_polynomial(q).coeffs)], y, domain="QQ")
    assert p.degree() == q.degree * (q.degree + 1) // 2 and p.LC() == 1
    assert p ** 2 == res.monic() * squares.monic()


def _count_in_open(f, lo: Fraction, hi: Fraction) -> int:
    """The distinct real roots of f in (lo, hi), by sympy's Sturm count on
    [lo, hi] less the roots at its ends."""
    ends = sum(f.eval(c) == 0 for c in (lo, hi))
    return f.count_roots(lo, hi) - ends


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=41),
       lo=st.integers(-2 ** 13, 2 ** 13), width=st.integers(1, 2 ** 12),
       bits=st.integers(0, 12), root=st.sampled_from([None, "lo", "hi", "inside"]))
def test_root_count_matches_sympy(coeffs, lo, width, bits, root):
    # random squarefree polynomials of degree 0-40 (a constant is the gcd of
    # coprime kernels) on dyadic intervals (lo, lo + width) 2^-bits, with a
    # root at an end or inside by choice: whenever the count is given it is
    # the number of roots inside
    x = sympy.Symbol("x")
    assume(any(coeffs))
    f = sympy.Poly(list(reversed(coeffs)), x)
    hi = lo + width
    at = {"lo": (lo, bits), "hi": (hi, bits), "inside": (2 * lo + 1, bits + 1)}.get(root)
    if at is not None:
        f = f * sympy.Poly(2 ** at[1] * x - at[0], x)
    f = f.sqf_part()
    assume(f.degree() <= 40)
    count = _root_count(tuple(int(c) for c in reversed(f.all_coeffs())), lo, hi, bits)
    if count is not None:
        assert count == _count_in_open(f, Fraction(lo, 2 ** bits), Fraction(hi, 2 ** bits))


def test_root_count_reads_simple_cases():
    # x^2 - 2 has one root in (1, 2), none in (0, 1) and none in an empty
    # interval; a root at an end is outside; a constant has none; x^2 - 2 on
    # (-2, 2) holds two roots, which Descartes cannot certify as 0 or 1
    f = (-2, 0, 1)
    assert _root_count(f, 1, 2, 0) == 1 and _root_count(f, 0, 1, 0) == 0
    assert _root_count(f, 3, 3, 1) == 0 and _root_count((-3, 2), 3, 3, 1) == 0
    assert _root_count((-1, 1), 1, 3, 0) == 0 and _root_count((-1, 1), 0, 3, 1) == 1
    assert _root_count((7,), -5, 5, 3) == 0
    assert _root_count(f, -2, 2, 0) is None


def _companions(polys) -> RationalMatrix:
    """The block-diagonal matrix of the polynomials' companion matrices."""
    n = sum(p.degree for p in polys)
    rows, off = [[0] * n for _ in range(n)], 0
    for p in polys:
        c = RationalMatrix.companion(p)
        for i in range(p.degree):
            rows[off + i][off:off + p.degree] = c.rows[i]
        off += p.degree
    return RationalMatrix(rows)


def test_three_rotated_lehmer_copies_answer_their_subspaces():
    # three diagonal copies of the companion of LEHMER(ix) LEHMER(-ix)
    # (dim 60): the exponents answer in one 128-bit attempt, and so do the
    # class bases, which the float64 product of the excluded roots' factors
    # once left rank 12 where 6 is expected; the subspaces certify at a
    # radius whose ball is small in dimension 60
    rotated = _rotated(LEHMER)
    for copies in (1, 2):
        assert lyapunov_data(_companions([rotated] * copies)).w_plus().shape == \
            (2 * copies, 20 * copies)
    lyapunov_data.cache_clear()
    m = _companions([rotated] * 3)
    with mock.patch.object(exactlin, "_lyapunov_attempt",
                           wraps=exactlin._lyapunov_attempt) as spy:
        split = lyapunov_data(m)
    assert spy.call_count == 1 and split.precision_bits == 128
    assert [b.multiplicity for b in split.blocks] == [6, 48, 6]
    assert (split.w_plus().shape, split.w_zero().shape, split.w_minus().shape) == \
        ((6, 60), (48, 60), (6, 60))
    report = certify_structural_subspaces(m, 1.5)
    assert len(report) == 7 and all(c.passed for c in report.values())


@pytest.mark.parametrize("m, multiplicities", [
    (RationalMatrix([[2, 1], [1, 1]]) ** 17, [1, 1]),
    (RationalMatrix.companion(IntPolynomial([1, 1, -4, 0, 1])) ** 14, [1, 1, 1, 1]),
    (RationalMatrix.companion(IntPolynomial([1, -2, -1, 1])) ** 45, [1, 1, 1]),
])
def test_exponents_answer_in_one_attempt_without_bases(m, multiplicities):
    # high powers: the exact classes answer at 128 bits in one attempt, and
    # so do rho, chi and the functionals, which read no class basis
    from nilmix.nilalg import abelian_algebra
    from nilmix.rates import rho_chi
    lyapunov_data.cache_clear()
    with mock.patch.object(exactlin, "_lyapunov_attempt",
                           wraps=exactlin._lyapunov_attempt) as spy:
        split = lyapunov_data(m)
    assert spy.call_count == 1 and split.precision_bits == 128
    assert [b.multiplicity for b in split.blocks] == multiplicities
    rep = rho_chi(abelian_algebra(m.dim), m)
    assert rep.chi == min(abs(b.exponent) for b in split.blocks)
    funcs = lyapunov_functionals([m])
    assert [f.exponents[0] for f in funcs] == [b.exponent for b in split.blocks]


@pytest.mark.parametrize("k, bits", [(115, 256), (150, 256), (300, 512)])
def test_cat_powers_escalate_when_a_root_disc_reaches_zero(k, bits):
    # at 128 bits the small root of CAT^k (below 1e-48) sits in a disc around
    # 0: a modulus not bounded away from 0 is a PrecisionError, so the
    # precision doubles until the disc excludes 0; the joint blocks read h's
    # roots at the precision the splitting reached, so the functionals and
    # the density count answer too
    m = RationalMatrix([[2, 1], [1, 1]]) ** k
    split = lyapunov_data(m)
    assert split.precision_bits == bits
    assert [b.exponent for b in split.blocks] == \
        [pytest.approx(-k * 0.9624236501192069, rel=1e-15),
         pytest.approx(k * 0.9624236501192069, rel=1e-15)]
    assert split.w_plus().shape == split.w_minus().shape == (1, 2)
    assert [f.exponents for f in lyapunov_functionals([m])] == \
        [(b.exponent,) for b in split.blocks]
    rep = density_estimate([m], 2, 20.0, 0.05)
    assert (rep.bad_points, rep.total_points) == (29, 1257)


def _unit_factors():
    """Monic irreducible integer factors of degree 2 to 4 with constant term
    +-1 and no root of unity, and the degree-4 Salem polynomial."""
    random = (st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                        st.sampled_from([1, -1]))
              .map(lambda t: IntPolynomial([t[1]] + t[0] + [1]))
              .filter(lambda q: _irreducible(q) and is_cyclotomic(q) is None))
    return st.one_of(st.just(SALEM4), random)


@st.composite
def _ergodic_matrices(draw):
    """Companions of q or q^2 (one Jordan block per root) for unit factors q,
    block-diagonal, the first block perhaps repeated, in dimension 2 to 6,
    conjugated by a product of unimodular elementary matrices."""
    polys = [q ** e for q, e in draw(st.lists(st.tuples(_unit_factors(), st.integers(1, 2)),
                                              min_size=1, max_size=3))]
    if draw(st.booleans()):
        polys.append(polys[0])
    assume(sum(p.degree for p in polys) <= 6)
    m = _companions(polys)
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, m.dim - 1), st.integers(0, m.dim - 1),
                                           st.sampled_from([-1, 1])), max_size=4)):
        if i != j:
            e = [[int(a == b) + c * (a == i and b == j) for b in range(m.dim)]
                 for a in range(m.dim)]
            m = RationalMatrix(e) * m * RationalMatrix(e).inverse()
    return m


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_ergodic_matrices())
def test_class_rows_lie_on_the_2048_bit_subspaces(m):
    # every (class, primary block) basis spans the generalized eigenspace of
    # the class's roots in the block, read as a kernel at 2048 bits
    split = lyapunov_data(m)
    exponents = split.exponents
    for (k, i), rows in split.bases.items():
        blk = split.primary.blocks[i]
        basis = class_reference.class_subspace(m, blk.factor, blk.multiplicity,
                                               exponents[k], exponents)
        assert rows.shape == (len(basis), m.dim)
        assert np.allclose(rows @ rows.T, np.eye(len(rows)), rtol=0, atol=1e-14)
        assert class_reference.distance(rows, basis) <= 1e-12


_BLOCKS = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
_IMAGES = {"x": lambda q: q, "-x": _negated, "ix": _rotated, "x^3": _cubed}


@_BLOCKS
@given(blocks=st.lists(st.tuples(_factors(3).filter(lambda q: q.nums[0]),  # invertible
                                  st.sampled_from(sorted(_IMAGES)))
                       # x^3 on degree <= 3 only, for the run time of the 2048-bit
                       # moduli; companion(LEHMER(x^3)) is pinned below
                       .filter(lambda b: b[1] != "x^3" or b[0].degree <= 3),
                       min_size=1, max_size=3))
def test_merged_classes_agree_with_2048_bit_moduli(blocks):
    # a product of companion blocks of random factors and their x -> -x,
    # x -> ix and x -> x^3 images: the classes are the moduli equal at 2048
    # bits, with their multiplicities, wherever 2048 bits separate the
    # distinct moduli
    polys = [_IMAGES[image](q) for q, image in blocks]
    moduli = sorted(m for p in polys for m in _moduli_2048(p))
    groups = []
    with mpmath.workprec(2048):
        for m in moduli:
            if groups and m - groups[-1][0] < mpmath.ldexp(1, -2000):
                groups[-1][1] += 1
            else:
                assume(not groups or m - groups[-1][0] > mpmath.ldexp(1, -100))
                groups.append([m, 1])
    split = lyapunov_data(_companions(polys))
    assert [b.multiplicity for b in split.blocks] == [k for _, k in groups]
    for b, (m, _) in zip(split.blocks, groups):
        assert abs(b.exponent - float(mpmath.log(m))) <= b.exponent_err + 1e-12


def test_lehmer_cubed_has_three_classes():
    # the cube roots of LEHMER's roots: three of each real root's modulus
    # and the 24 of its unit-circle roots; the squared-modulus kernel has
    # degree 153, and its root counts answer in seconds
    split = lyapunov_data(RationalMatrix.companion(_cubed(LEHMER)))
    assert [b.multiplicity for b in split.blocks] == [3, 24, 3]


def test_negated_degree_12_factors_share_moduli():
    # q and q(-x) have the same squared-modulus polynomial, so the root
    # counts pair their moduli; the one of all products z_i z_j (degree 144)
    # is refused by factor_over_q for this q (20 factors modulo 7)
    q = IntPolynomial([5, 0, -1, -5, 5, 6, 5, -5, -1, 4, 2, -5, 1])
    split = lyapunov_data(_companions([q, _negated(q)]))
    assert [b.multiplicity for b in split.blocks] == [4, 4, 4, 4, 4, 2, 2]


_ROTATED_ROOTS = [IntPolynomial([1, 0, 0, -4, 0, 0, 1]),                # x^6 - 4x^3 + 1
                  IntPolynomial([1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 1])]    # x^10 - 3x^5 + 1


@pytest.mark.parametrize("q, k", zip(_ROTATED_ROOTS, (3, 5)))
def test_rotated_equal_moduli_form_one_class(q, k):
    # the k roots of each modulus differ by rotations through 2 pi / k, and
    # their double moduli differ by a few ulps: the merge that screened by
    # double intervals split them (x1, x2, x3 and x2, x3, x5)
    split = lyapunov_data(RationalMatrix.companion(q))
    assert [b.multiplicity for b in split.blocks] == [k, k]
    with mpmath.workprec(2048):
        logs = sorted({float(mpmath.log(m)) for m in _moduli_2048(q)})
    assert len(logs) == 2
    # plus a few ulps: the error bounds the multiprecision modulus, not the
    # double it is reported as (ROADMAP item 3)
    for b, log in zip(split.blocks, logs):
        assert abs(b.exponent - log) <= b.exponent_err + 8 * math.ulp(log)


@pytest.mark.parametrize("q", _ROTATED_ROOTS)
def test_families_on_rotated_equal_moduli_answer(q):
    # each root's log|mu| must match exactly one Lyapunov class
    m = RationalMatrix.companion(q)
    funcs = lyapunov_functionals([m])
    assert [len(f.exponents) for f in funcs] == [1, 1]
    report = density_estimate([m], 2, 20.0, 0.05)
    assert (report.total_points, report.bad_points) == (1257, 29)


def test_analyze_reports_one_row_per_modulus(tmp_path):
    rows = [[int(x) for x in row] for row in RationalMatrix.companion(_ROTATED_ROOTS[0]).rows]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"system": {"dim": 6, "generators": [rows]}}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "exponents.csv").read_text().splitlines()
    assert lines[0] == "exponent,error,multiplicity"
    assert [line.split(",")[2] for line in lines[1:]] == ["3", "3"]
