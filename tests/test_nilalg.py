import random
from fractions import Fraction

import mpmath
import pytest

from nilmix import nilalg
from nilmix.catalog import CAT, CUBIC, block_diag, get_system
from nilmix.exactlin import IntPolynomial, PrecisionError, RationalMatrix, lyapunov_data
from nilmix.nilalg import (
    NilpotentAlgebra,
    abelian_algebra,
    abelianization_action,
    central_series,
    classify,
    cyclotomic_part,
    filiform4_algebra,
    find_regular_element,
    heisenberg_algebra,
    intersect_spans,
    lyapunov_functionals,
    n2_of_family,
    validate_algebra,
    validate_automorphism,
)

from conftest import CHI_CAT

HEIS_M = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_heisenberg_valid():
    diag = validate_algebra(heisenberg_algebra())
    assert diag.ok
    assert heisenberg_algebra().step == 2


def test_abelian_valid():
    diag = validate_algebra(abelian_algebra(2))
    assert diag.ok
    assert abelian_algebra(2).step == 1


def test_malcev_violation_detected():
    bad = NilpotentAlgebra.from_sparse(2, (2,), {(0, 1): {0: 1}})
    diag = validate_algebra(bad)
    assert not diag.ok
    assert any("malcev" in f for f in diag.failures())


def test_jacobi_violation_detected():
    # [e1,e2]=e4, [e1,e3]=e4, [e2,e3]=e4 with a twist that breaks Jacobi:
    # make [e1,[e2,e3]] land outside the span of the other two terms
    entries = {(0, 1): {3: 1}, (0, 2): {3: 1}, (1, 2): {0: 0, 3: 1}, (0, 3): {2: 1}}
    bad = NilpotentAlgebra.from_sparse(4, (3, 1), entries)
    diag = validate_algebra(bad)
    assert not diag.ok


def test_central_series_dims():
    assert [len(b) for b in central_series(heisenberg_algebra())] == [3, 1, 0]
    assert [len(b) for b in central_series(abelian_algebra(2))] == [2, 0]
    assert [len(b) for b in central_series(filiform4_algebra())] == [4, 2, 1, 0]


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_heisenberg_automorphism_valid():
    assert validate_automorphism(heisenberg_algebra(), HEIS_M).ok


def test_identity_automorphism_valid():
    assert validate_automorphism(heisenberg_algebra(), RationalMatrix.identity(3)).ok


def test_swap_fails_bracket():
    swap = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    diag = validate_automorphism(heisenberg_algebra(), swap)
    assert not diag.ok
    assert any("bracket" in name for name, (ok, _) in diag.checks.items() if not ok)


def test_non_unimodular_rejected():
    m = RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert not validate_automorphism(heisenberg_algebra(), m).ok


def test_abelianization_heisenberg():
    assert abelianization_action(heisenberg_algebra(), HEIS_M) == CAT


def test_abelianization_identity_unipotent():
    fil = filiform4_algebra()
    m = get_system("filiform4").matrix
    ab = abelianization_action(fil, m)
    assert ab == RationalMatrix.identity(2)


def test_abelianization_functorial():
    heis = heisenberg_algebra()
    m2 = HEIS_M * HEIS_M
    assert abelianization_action(heis, m2) == \
        abelianization_action(heis, HEIS_M) * abelianization_action(heis, HEIS_M)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_cat():
    cls = classify(abelian_algebra(2), CAT)
    assert cls.ergodic and cls.type_name == "irrational"
    assert cls.n_z2 == []


def test_classify_heisenberg():
    cls = classify(heisenberg_algebra(), HEIS_M)
    assert cls.ergodic and cls.type_name == "rational"
    assert cls.n_z2 == [(Fraction(0), Fraction(0), Fraction(1))]


def test_classify_parabolic_not_ergodic():
    cls = classify(abelian_algebra(2), RationalMatrix([[1, 1], [0, 1]]))
    assert not cls.ergodic
    assert cls.type_name == "rational"


def test_classify_splitting_fills_space():
    for name in ("catmap", "cubic3", "heisenberg-cat", "filiform4"):
        system = get_system(name)
        cls = classify(system.algebra, system.matrix)
        assert len(cls.n_z1) + len(cls.n_z2) == system.algebra.dim


def test_ergodicity_power_stable():
    for name in ("catmap", "cubic3", "heisenberg-cat", "filiform4"):
        system = get_system(name)
        base = classify(system.algebra, system.matrix).ergodic
        for q in (2, 3, 5):
            assert classify(system.algebra, system.matrix ** q).ergodic == base


# ---------------------------------------------------------------------------
# commuting families and regular elements
# ---------------------------------------------------------------------------

def test_intersect_spans():
    a = [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
    b = [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))]
    inter = intersect_spans(a, b, 3)
    assert inter == [(Fraction(0), Fraction(1), Fraction(0))]


def test_intersect_spans_against_nullspace_oracle():
    import random

    import sympy

    from nilmix.nilalg import _span_rows

    rng = random.Random(5)

    def random_span(dim, k):
        return _span_rows([tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
                           for _ in range(k)])

    def oracle(a, b, dim):
        if not a or not b:
            return []
        ma = sympy.Matrix([list(map(sympy.Rational, v)) for v in a]).T
        mb = sympy.Matrix([list(map(sympy.Rational, v)) for v in b]).T
        null = ma.row_join(-mb).nullspace()
        vecs = []
        for n in null:
            x = ma * n[:ma.shape[1], 0]
            if any(x):
                vecs.append(tuple(Fraction(str(v)) for v in x))
        return _span_rows(vecs)

    for _ in range(25):
        dim = rng.choice([2, 3, 4, 5])
        a = random_span(dim, rng.randint(1, dim))
        b = random_span(dim, rng.randint(1, dim))
        assert _span_rows(intersect_spans(a, b, dim)) == oracle(a, b, dim)


def test_n2_family_product():
    system = get_system("product-t2xt2")
    core = n2_of_family(list(system.generators))
    assert core == []


def test_regular_element_rank_one_cat():
    reg = find_regular_element(abelian_algebra(2), [CAT])
    assert reg.z == (1,)
    assert reg.core_basis == []
    assert reg.certificate_margin > 0.9


def test_regular_element_rank_one_heis():
    reg = find_regular_element(heisenberg_algebra(), [HEIS_M])
    assert reg.z == (1,)
    assert reg.core_basis == [(Fraction(0), Fraction(0), Fraction(1))]


def test_regular_element_cubic_pair():
    system = get_system("cubic-rank2")
    reg = find_regular_element(system.algebra, list(system.generators))
    assert reg.core_basis == []
    assert reg.certificate_margin > 0
    assert all(v > 0 for v in reg.functional_values)
    assert all(s > 0 for s in reg.pair_separations)


def test_regular_element_product_pair_needs_shrink():
    system = get_system("product-t2xt2")
    reg = find_regular_element(system.algebra, list(system.generators))
    assert reg.core_basis == []
    # both coordinates must act: single-generator times leave a core
    assert all(c != 0 for c in reg.z)
    assert reg.certificate_margin > 0


def test_noncommuting_rejected():
    a = RationalMatrix([[1, 1], [0, 1]])
    b = RationalMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        find_regular_element(abelian_algebra(2), [a, b])


def test_functionals_cubic_pair():
    system = get_system("cubic-rank2")
    funcs = lyapunov_functionals(list(system.generators))
    assert len(funcs) == 3
    # each functional evaluates the pair (log|root|, log|root - 1|)
    firsts = sorted(f.exponents[0] for f in funcs)
    from conftest import CUBIC_EXPONENTS
    for got, ref in zip(firsts, CUBIC_EXPONENTS):
        assert got == pytest.approx(ref, abs=1e-9)


def test_functionals_single_generator_defective_ok():
    # unipotent Jordan block: one zero functional, the nilpotency check
    # accepts the defective block
    funcs = lyapunov_functionals([RationalMatrix([[1, 1], [0, 1]])])
    assert len(funcs) == 1 and funcs[0].is_zero()


# ---------------------------------------------------------------------------
# Lyapunov functionals from exact joint blocks
# ---------------------------------------------------------------------------

ONE = RationalMatrix.identity(1)
I2 = RationalMatrix.identity(2)
# CAT + 1, CAT^2 + 1: the common root-of-unity core is the third axis
CORE_FAMILY = (block_diag(CAT, ONE), block_diag(CAT * CAT, ONE))
# generators whose plain sum (weights 1, 1) is 2 CAT + 3 I: a double eigenvalue
# 3 on which the joint eigenvalues (phi^2, phi^-2) and (phi^-2, phi^2) coincide
UNSEPARATED = (block_diag(CAT, CAT), block_diag(CAT, CAT.inverse()))


def _weighted_eig_functionals(generators, precision_bits=128):
    """Reference only: the former rank > 1 routine, mpmath.eig on the
    37-weighted sum with Rayleigh quotients and fixed tolerances."""
    dim = generators[0].dim

    def to_mp(g):
        return mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                              for row in g.rows])

    with mpmath.workdps(max(30, precision_bits // 3)):
        combo = mpmath.zeros(dim, dim)
        for i, g in enumerate(generators):
            combo += 37 ** i * to_mp(g)
        _, vecs = mpmath.eig(combo)
        seen = []
        for idx in range(dim):
            v = vecs[:, idx]
            exps = []
            for g in generators:
                gv = to_mp(g) * v
                lam = (sum(gv[i] * mpmath.conj(v[i]) for i in range(dim))
                       / sum(v[i] * mpmath.conj(v[i]) for i in range(dim)))
                assert mpmath.norm(gv - lam * v) / mpmath.norm(v) < 1e-20
                exps.append(float(mpmath.log(abs(lam))))
            rounded = tuple(0.0 if abs(e) < 1e-25 else e for e in exps)
            if not any(all(abs(a - b) <= 1e-12 for a, b in zip(rounded, k)) for k in seen):
                seen.append(rounded)
    return seen


def _seeded_conjugates(gens, seed):
    rng = random.Random(seed)
    n = gens[0].dim
    p = RationalMatrix.identity(n)
    for _ in range(n + 3):
        i, j = rng.sample(range(n), 2)
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i][j] = rng.choice([-1, 1])
        p = p * RationalMatrix(rows)
    inv = p.inverse()
    return tuple(p * g * inv for g in gens)


_C_PAIR = (CUBIC, CUBIC - RationalMatrix.identity(3))
_T2_PAIR = (block_diag(CAT, CAT), block_diag(I2, CAT))


@pytest.mark.parametrize("gens", [
    get_system("product-t2xt2").generators,
    get_system("cubic-rank2").generators,
    _seeded_conjugates(_C_PAIR, 3),
    _seeded_conjugates(_C_PAIR, 11),
    _seeded_conjugates(_T2_PAIR, 5),
    _seeded_conjugates(_T2_PAIR, 17),
    UNSEPARATED,
], ids=["product-t2xt2", "cubic-rank2", "conj-cubic-3", "conj-cubic-11",
        "conj-t2-5", "conj-t2-17", "cat-cat-inverse"])
def test_functionals_match_weighted_eig_reference(gens):
    funcs = lyapunov_functionals(list(gens))
    ref = _weighted_eig_functionals(list(gens))
    assert len(funcs) == len(ref)
    for f in funcs:
        assert sum(all(abs(a - b) <= 1e-12 for a, b in zip(f.exponents, r))
                   for r in ref) == 1
        assert 0.0 <= f.err < 1e-30


def test_core_family_has_one_exact_zero_functional():
    funcs = lyapunov_functionals(list(CORE_FAMILY))
    zeros = [f for f in funcs if f.is_zero()]
    assert len(zeros) == 1 and zeros[0].err == 0.0
    assert len(funcs) == 3


def test_core_family_regular_element():
    reg = find_regular_element(abelian_algebra(3), list(CORE_FAMILY))
    assert reg.z == (1, 0)
    assert reg.core_basis == [(0, 0, 1)]
    assert reg.certificate_margin == pytest.approx(0.9624236501192069, abs=1e-12)


@pytest.mark.parametrize("name", ["catmap", "cubic3", "heisenberg-cat", "filiform4"])
def test_single_generator_functionals_are_the_lyapunov_classes(name):
    m = get_system(name).matrix
    funcs = lyapunov_functionals([m])
    assert [(f.exponents, f.err) for f in funcs] == \
        [((b.exponent,), b.exponent_err) for b in lyapunov_data(m).blocks]


def test_functionals_are_memoized_and_frozen():
    gens = list(get_system("cubic-rank2").generators)
    funcs = lyapunov_functionals(gens)
    assert lyapunov_functionals(tuple(gens)) is funcs
    with pytest.raises(AttributeError):
        funcs[0].err = 1.0


def test_unseparating_weights_fail_the_nilpotency_check(monkeypatch):
    monkeypatch.setattr(nilalg, "_WEIGHT", 1)
    nilalg._functionals.cache_clear()
    with pytest.raises(ArithmeticError, match="does not separate") as info:
        lyapunov_functionals(list(UNSEPARATED))
    assert not isinstance(info.value, PrecisionError)
    nilalg._functionals.cache_clear()
