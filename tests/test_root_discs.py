"""Root records on isolating discs, and the one image rule that decides
every root question.

`exactlin.factor_roots` gives each root of an irreducible factor a disc
that holds exactly that root.  The conjugate partner, modulus one and
equal moduli across x -> -x are each read off by `exactlin._holder`: the
one disc that meets the image of a root's disc under an exact symmetry.
The discs are checked against roots recomputed at twice the precision,
the refusals (overlapping discs, no convergence) against inputs whose
roots lie too close, and the decisions against the three float matchers
that `exactlin` used before, kept in `root_reference`, on cyclotomic,
Salem, Lehmer, x -> -x related and random irreducible factors.
"""

from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import root_reference as ref
from nilmix import exactlin
from nilmix.exactlin import (
    IntPolynomial,
    PrecisionError,
    RationalMatrix,
    _holder,
    _merge_modulus_classes,
    _prove_equal_modulus,
    cyclotomic_polynomial,
    factor_over_q,
    factor_roots,
    is_cyclotomic,
    lyapunov_data,
)

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
    return q.compose_neg().monic()


def _entries(records) -> list:
    """The merge's root entries, as the Lyapunov splitting builds them."""
    return [{"fi": fi, "ri": ri, "mod": 1.0 if one else abs(r),
             "err": 0.0 if one else err, "one": one}
            for fi, rec in enumerate(records)
            for ri, ((r, err), one) in enumerate(zip(rec.roots, rec.unit))]


def _classes(entries, primary, records):
    try:
        return [[(e["fi"], e["ri"]) for e in cls]
                for cls in _merge_modulus_classes(entries, primary, records)]
    except PrecisionError:
        return "PrecisionError"


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
    qs = list(dict.fromkeys(pair))     # one primary block per distinct factor
    primary = SimpleNamespace(blocks=[SimpleNamespace(factor=q) for q in qs])
    records = [factor_roots(q, 128) for q in qs]
    entries = _entries(records)
    for e1 in entries:
        for e2 in entries:
            if e1 is not e2:
                assert (_prove_equal_modulus(e1, e2, primary, records)
                        == ref._prove_equal_modulus(e1, e2, primary, records))
    new = _classes(entries, primary, records)
    with mock.patch.object(exactlin, "_prove_equal_modulus", ref._prove_equal_modulus):
        assert _classes(entries, primary, records) == new


@ROOTS
@given(q=_factors(16))
def test_each_disc_holds_exactly_one_root(q):
    rec = factor_roots(q, 128)
    with mpmath.workprec(256):
        unit = mpmath.ldexp(1, -(128 + exactlin._DISC_BITS))
        roots = mpmath.polyroots([int(c) for c in reversed(q.coeffs)], maxsteps=400,
                                 extraprec=256)
        for (x, y, r), (centre, radius) in zip(rec.discs, rec.roots):
            assert r * unit >= radius
            near = [z for z in roots if abs(z - mpmath.mpc(x, y) * unit) <= r * unit]
            assert len(near) == 1


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
    discs = [(0, 0, 1), (3, 0, 1)]
    assert _holder(discs, (0, 1, 0)) == 0
    assert _holder(discs, (2, 0, 0)) == 1
    assert _holder(discs, (1, 0, 1)) is None          # meets both
    assert _holder(discs, (0, 5, 1)) is None          # meets neither
    assert _holder(discs, None) is None


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
    assert not any(_prove_equal_modulus(e1, e2, primary, records)
                   for e1 in entries[:2] for e2 in entries[2:])
    assert _classes(entries, primary, records) == "PrecisionError"


def test_overlapping_discs_are_refused():
    # roots near 1e-15 about 1e-37 apart: at 128 bits the discs overlap
    q = _mignotte(15)
    with pytest.raises(PrecisionError, match="overlap"):
        factor_roots(q, 128)
    assert factor_roots(q, 256).partner == (0, 1, 2)


def test_no_convergence_is_a_precision_error():
    # polyroots does not converge on this input at 128 bits; at 256 it does
    q = _mignotte(20)
    with pytest.raises(PrecisionError, match="converge"):
        factor_roots(q, 128)
    rec = factor_roots(q, 256)
    assert rec.partner == (0, 1, 2)
    for i, (x1, y1, r1) in enumerate(rec.discs):
        for x2, y2, r2 in rec.discs[i + 1:]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    # the splitting escalates past it, and refuses (the double moduli of the
    # two small roots coincide) with a PrecisionError, not NoConvergence
    with pytest.raises(PrecisionError):
        lyapunov_data(RationalMatrix.companion(q), 128)
