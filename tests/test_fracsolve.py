import json
import math
import struct
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilmix import cli, fracsolve
from nilmix.cli import main
from nilmix.fourier import ExactComplex, FourierObservable, real_cosine, real_sine
from nilmix.fracsolve import (
    ObstructionError,
    project_torus_factor,
    schrodinger_threshold,
    sobolev_norm,
    solve_fractional,
    split_small_divisor,
    threshold_sweep,
)

import threshold_reference
from conftest import GOLDEN_SOLVE_HALF, PHI_INV

GOLDEN = [(1.0, PHI_INV)]


def obs(d, entries):
    return FourierObservable(d, entries)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_observable_roundtrip_json():
    f = obs(2, {(1, 0): 1 + 2j, (-3, 4): 0.5j})
    g = FourierObservable.loads(f.dumps())
    assert dict(g.items()) == dict(f.items())


def test_observable_rejects_unknown_fields():
    with pytest.raises(ValueError):
        FourierObservable.from_json_dict({"dim": 2, "coeffs": [], "extra": 1})


def test_real_helpers_are_real():
    for f in (real_cosine(2, (1, 0)), real_sine(2, (2, -1))):
        for z, c in f.items():
            mirror = f[tuple(-x for x in z)]
            assert mirror == c.conjugate()


def test_product_is_convolution():
    c = real_cosine(1, (1,))
    sq = c.product(c)
    # cos^2 = 1/2 + cos(2.)/2
    assert sq[(0,)] == ExactComplex(Fraction(1, 2))
    assert sq[(2,)] == ExactComplex(Fraction(1, 4))


def test_integral_of_powers():
    c = real_cosine(1, (1,))
    assert complex(c.power(4).integral()).real == pytest.approx(3 / 8)
    s = real_sine(1, (1,))
    assert complex(s.power(3).integral()) == 0


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_torus_factor_axis():
    f = obs(2, {(2, 0): 1.0, (0, 3): 2.0})
    fixed, rest = project_torus_factor(f, [[0, 1]])
    assert fixed.frequencies() == [(2, 0)]
    assert rest.frequencies() == [(0, 3)]


def test_project_zero():
    fixed, rest = project_torus_factor(obs(2, {}), [[0, 1]])
    assert len(fixed) == 0 and len(rest) == 0


def test_project_oblique_mode():
    fixed, rest = project_torus_factor(obs(2, {(1, 1): 1.0}), [[0, 1]])
    assert len(fixed) == 0 and rest.frequencies() == [(1, 1)]


def test_projection_partition_exact():
    f = obs(2, {(1, 1): 1 + 1j, (2, 0): 2.0, (0, 0): 3.0, (0, 5): 1j})
    fixed, rest = project_torus_factor(f, [[0, 1]])
    assert set(fixed.frequencies()) | set(rest.frequencies()) == set(f.frequencies())
    assert not set(fixed.frequencies()) & set(rest.frequencies())


# ---------------------------------------------------------------------------
# selector split
# ---------------------------------------------------------------------------

def test_split_thresholds():
    f = obs(2, {(0, 1): 1.0, (2, 1): 1.0, (0, 0): 0.5})
    sp = split_small_divisor(f, GOLDEN)
    assert sp.small.frequencies() == [(0, 1)]     # |phi^-1| < 1
    assert sp.large.frequencies() == [(2, 1)]     # |2 + phi^-1| >= 1
    assert sp.zero_mode.frequencies() == [(0, 0)]


def test_selector_property():
    rng = np.random.default_rng(3)
    dirs = [(1.0, PHI_INV), (0.25, -1.3)]
    f = obs(2, {tuple(z): 1.0 for z in rng.integers(-9, 10, size=(40, 2)) if any(z)})
    sp = split_small_divisor(f, dirs)
    for z, idx in zip(f.frequencies(), sp.selector):
        dots = [abs(z[0] * v[0] + z[1] * v[1]) for v in dirs]
        assert dots[idx] >= sum(dots) / len(dirs) - 1e-15


def test_partition_exactness():
    rng = np.random.default_rng(5)
    f = obs(2, {tuple(z): complex(*rng.normal(size=2))
                for z in rng.integers(-20, 21, size=(60, 2))})
    sp = split_small_divisor(f, GOLDEN)
    rebuilt = sp.large + sp.small + sp.zero_mode
    assert dict(rebuilt.items()) == dict(f.items())
    assert not set(sp.large.frequencies()) & set(sp.small.frequencies())


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_solve_golden_unit_mode():
    sol = solve_fractional(obs(2, {(0, 1): 1.0}), GOLDEN, 0.5)
    phi = sol.per_direction[0].phi
    assert complex(phi[(0, 1)]).real == pytest.approx(GOLDEN_SOLVE_HALF, abs=1e-12)
    assert sol.residual < 1e-15


def test_solve_obstruction():
    with pytest.raises(ObstructionError) as err:
        solve_fractional(obs(2, {(1, -1): 1.0}), [(1, 1)], 0.5)
    assert err.value.frequency == (1, -1)


def test_solve_signed_integer_order():
    f = obs(2, {(1, 0): 1.0, (0, 1): 2.0, (3, -1): 1j})
    sol = solve_fractional(f, GOLDEN, 1, mode="signed")
    for z, c in f.items():
        d = 1j * 2 * math.pi * (z[0] * GOLDEN[0][0] + z[1] * GOLDEN[0][1])
        assert complex(sol.per_direction[0].phi[z]) * d == pytest.approx(complex(c))


def test_signed_mode_rejects_fractional_order():
    with pytest.raises(ValueError):
        solve_fractional(obs(2, {(0, 1): 1.0}), GOLDEN, 0.5, mode="signed")


def test_modulus_signed_norm_identity():
    # for integer order the modulus-form and signed-form solutions have
    # identical coefficient magnitudes, hence identical norms
    rng = np.random.default_rng(11)
    f = obs(2, {tuple(z): complex(*rng.normal(size=2))
                for z in rng.integers(-9, 10, size=(30, 2)) if any(z)})
    m = solve_fractional(f, GOLDEN, 2, mode="modulus")
    s = solve_fractional(f, GOLDEN, 2, mode="signed")
    assert m.per_direction[0].norm == pytest.approx(s.per_direction[0].norm, rel=1e-13)


def test_solver_linearity():
    rng = np.random.default_rng(13)
    keys = [tuple(z) for z in rng.integers(-8, 9, size=(25, 2)) if any(z)]
    f = obs(2, {z: complex(*rng.normal(size=2)) for z in keys})
    g = obs(2, {z: complex(*rng.normal(size=2)) for z in keys[::2]})
    a, b = 2.0 - 1.0j, 0.25j
    combo = f.scaled(a) + g.scaled(b)
    sol_combo = solve_fractional(combo, GOLDEN, 0.75)
    sol_f = solve_fractional(f, GOLDEN, 0.75)
    sol_g = solve_fractional(g, GOLDEN, 0.75)
    lhs = sol_combo.per_direction[0].phi
    rhs = sol_f.per_direction[0].phi.scaled(a) + sol_g.per_direction[0].phi.scaled(b)
    for z in set(lhs.frequencies()) | set(rhs.frequencies()):
        assert complex(lhs[z]) == pytest.approx(complex(rhs[z]), rel=1e-12, abs=1e-15)


def test_mean_drop_warns():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        solve_fractional(obs(2, {(0, 0): 1.0, (0, 1): 1.0}), GOLDEN, 0.5)
    assert any("mean" in str(w.message) for w in got)


def test_reconstruction_random():
    rng = np.random.default_rng(23)
    f = obs(2, {tuple(z): complex(*rng.normal(size=2))
                for z in rng.integers(-30, 31, size=(120, 2)) if any(z)})
    sol = solve_fractional(f, GOLDEN, 0.5)
    assert sol.reconstruction_ok(f)
    # every solution coefficient lives on its selector class
    selector = dict(zip(f.frequencies(), sol.split.selector))
    for d in sol.per_direction:
        for z in d.phi.frequencies():
            assert selector[z] == d.index


def test_direction_length_must_match_the_lattice():
    # zip would cut [1.0] to the first coordinate: a "solution" with residual 0
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0})
    for call in (lambda: split_small_divisor(f, [[1.0]]),
                 lambda: solve_fractional(f, [[1.0]], 0.5),
                 lambda: solve_fractional(f, [(1.0, PHI_INV), (1.0, 0.5, 0.2)], 0.5),
                 lambda: sobolev_norm(f, 1, [[1.0]]),
                 lambda: project_torus_factor(f, [[1]])):
        with pytest.raises(ValueError, match="2 entries"):
            call()


def test_zero_direction_is_refused_up_front():
    # a float zero divided by its norm, an integer one found no selector
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0})
    for zero in ((0.0, 0.0), (0, 0), (0.0, -0.0)):
        with pytest.raises(ValueError, match="zero direction"):
            solve_fractional(f, [(1.0, PHI_INV), zero], 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_direction_entries_are_refused(bad):
    # a NaN entry solved to NaN phis with residual 0.0; an infinite one
    # multiplied 0 by inf
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0})
    for call in (lambda: split_small_divisor(f, [[bad, 1.0]]),
                 lambda: solve_fractional(f, [[bad, 1.0]], 0.5),
                 lambda: sobolev_norm(f, 1, [[bad, 1.0]]),
                 lambda: project_torus_factor(f, [[bad, 1.0]])):
        with pytest.raises(ValueError, match="direction entries must be finite"):
            call()


@pytest.mark.parametrize("big", [10 ** 400, Fraction(10 ** 400)], ids=["int", "fraction"])
@pytest.mark.parametrize("call", [lambda f, v: split_small_divisor(f, v),
                                  lambda f, v: solve_fractional(f, v, 0.5),
                                  lambda f, v: sobolev_norm(f, 1, v)],
                         ids=["split", "solve", "sobolev"])
def test_direction_entries_beyond_the_doubles_are_refused(call, big):
    # the float conversion overflows: a bare OverflowError, or a Sobolev norm
    # blaming the coefficients; diophantine_certificate refuses it alike
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError, match="^a direction entry is beyond the double range$"):
        call(f, [(big, 1)])


def test_huge_direction_entries_are_not_resonant():
    # ||v||^2 = 2e320 is beyond the doubles, ||v|| is not; every |z.v| is at
    # least 1e160, far from the resonance locus
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0, (2, 3): 0.5})
    sol = solve_fractional(f, [(1e160, 1e160)], 0.5)
    assert sol.reconstruction_ok(f)


def test_signed_fractional_order_is_refused_up_front():
    # only the mean is there, so no mode is ever inverted
    with pytest.raises(ValueError, match="integer order"):
        solve_fractional(obs(2, {(0, 0): 1.0}), GOLDEN, 1.5, mode="signed")


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_sobolev_single_mode():
    f = obs(2, {(3, 4): 1.0})
    assert sobolev_norm(f, 1) == pytest.approx(math.sqrt(1 + 4 * math.pi ** 2 * 25))


def test_sobolev_s0_is_l2():
    rng = np.random.default_rng(2)
    f = obs(2, {tuple(z): complex(*rng.normal(size=2))
                for z in rng.integers(-6, 7, size=(20, 2))})
    assert sobolev_norm(f, 0) == pytest.approx(math.sqrt(f.l2_sq()))


def test_partial_norm_transverse_mode():
    f = obs(2, {(0, 5): 1.0})
    for s in (0.5, 1, 3):
        assert sobolev_norm(f, s, directions=[(1, 0)]) == pytest.approx(1.0)


def test_partial_below_full_unit_direction():
    # a single unit direction satisfies |z.v| <= ||z||, so the partial weight
    # never exceeds the full weight
    norm = math.hypot(1.0, PHI_INV)
    unit = [(1.0 / norm, PHI_INV / norm)]
    rng = np.random.default_rng(9)
    f = obs(2, {tuple(z): complex(*rng.normal(size=2))
                for z in rng.integers(-9, 10, size=(30, 2))})
    assert sobolev_norm(f, 2, directions=unit) <= sobolev_norm(f, 2) + 1e-12


@pytest.mark.parametrize("s, direction", [(1, (1e200, 1.0)), (0.5, (3e153, 0.0))])
def test_sobolev_directional_weight_beyond_the_doubles(s, direction):
    # (z.v)^2 = 1e400 overflows, and so does the weight 1 + 4 pi^2 (3e153)^2:
    # the norm refuses both, as it refuses an overflowing full-form sum
    f = obs(2, {(1, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ArithmeticError, match=rf"^Sobolev norm of order {s}: the \(weighted\) "
                                              "squared coefficient moduli overflow a double$"):
        sobolev_norm(f, s, [direction])


# ---------------------------------------------------------------------------
# line-model threshold
# ---------------------------------------------------------------------------

def test_threshold_quarter_convergent():
    rep = schrodinger_threshold(lambda x: 1.0, 0.25, 1e-6)
    assert rep.verdict == "convergent"
    # analytic: 2 * 2 * (1 - sqrt(h))
    assert rep.value == pytest.approx(4 * (1 - math.sqrt(1e-6)), rel=1e-4)


def test_threshold_half_log_divergent():
    for h in (1e-4, 1e-6):
        rep = schrodinger_threshold(lambda x: 1.0, 0.5, h)
        assert rep.verdict == "divergent-log"
        assert rep.value / math.log(1 / h) == pytest.approx(2.0, rel=1e-3)


def test_threshold_power_divergent():
    rep = schrodinger_threshold(lambda x: 1.0, 0.75, 1e-4)
    assert rep.verdict == "divergent-power"
    # analytic: I(h) = 2 (h^{-1/2} - 1) / (1/2): check against refinement
    h, v = rep.refinement[0]
    assert v == pytest.approx(4 * (h ** -0.5 - 1), rel=1e-3)


def test_threshold_vanishing_profile_above_half():
    rep = schrodinger_threshold(lambda x: x * x, 0.75, 1e-4)
    assert rep.verdict == "convergent"
    # integrand x^4 |x|^{-3/2}: analytic 2 (1 - h^{7/2}) / (7/2)
    assert rep.value == pytest.approx(4 / 7, rel=1e-4)


def test_threshold_monotone_in_cutoff():
    vals = [schrodinger_threshold(lambda x: 1.0, 0.3, h).value
            for h in (1e-2, 1e-3, 1e-4)]
    assert vals[0] <= vals[1] <= vals[2]


def test_threshold_sampled_profile():
    xs = np.linspace(-1, 1, 4001)
    rep = schrodinger_threshold(list(zip(xs, xs ** 2)), 0.75, 1e-3)
    assert rep.verdict == "convergent"


def test_threshold_sweep_computes_each_cell_once(tmp_path):
    # the default sweep (3 cutoffs x the refinements h, h/4, h/16) walks one
    # dyadic ladder with 64 distinct cells; each refinement level integrates
    # every cell still refining in one profile call, from (64, 32) points up to
    # (46, 1024) and (2, 2048): 7 calls for the 111 616 points that took 362
    # calls with one call per level of each cell
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"profile": "bump"}))
    bump, points = cli._bump, []

    def counted(x):
        points.append(len(x))
        return bump(x)

    with mock.patch.dict(cli._PROFILES, bump=counted):
        assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(points) == 7
    assert sum(points) == 111616
    assert max(points) <= 1 << 16 == fracsolve._MAX_POINTS


def test_sampled_profiles_share_cells():
    # the same samples, in any order and as lists or tuples, integrate the same cells
    xs = np.linspace(-1, 1, 401)
    samples = list(zip(xs, np.cos(xs)))
    first = schrodinger_threshold(samples, 0.5, 1e-3)
    again = schrodinger_threshold([tuple(p) for p in reversed(samples)], 0.5, 1e-3)
    assert again.refinement == first.refinement


def test_threshold_reads_the_profile_at_every_call():
    # no cell outlives a call: after the closed-over amplitude doubles, the
    # value is exactly four times the first (scaling by 2 rounds nothing)
    amplitude = np.array([1.0])

    def profile(x):
        return amplitude[0] * np.ones_like(x)

    first = schrodinger_threshold(profile, 0.25, 1e-2).value
    amplitude[0] = 2.0
    assert schrodinger_threshold(profile, 0.25, 1e-2).value == 4.0 * first


@pytest.mark.parametrize("r, h", [(25, 1e-6), (400, 1e-2)])
def test_threshold_refuses_non_finite_values(r, h):
    # |x|^{-2r} overflows on the refinements (r = 25) or at h itself (r = 400):
    # the sweep raises, before numpy's overflow warning or a verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=f"order {r} at cutoff {h}:"):
            schrodinger_threshold(lambda x: 1.0, r, h)


def test_threshold_refuses_a_square_beyond_the_doubles():
    # 1e200^2 overflows Python's pow: the sweep raises ArithmeticError naming
    # the order and the cutoff, not a bare OverflowError
    with pytest.raises(ArithmeticError, match="order 0.25 at cutoff 0.01:") as info:
        threshold_sweep([(-1, 1e200), (1, 1e200)], (0.25, 0.5), (1e-2,))
    assert type(info.value) is ArithmeticError


def test_a_square_overflow_stops_only_its_cell():
    # g(x)^2 overflows on |x| < 2^-6 only, in the same profile calls as the
    # other cells: the cutoffs above keep the reference's bits, the one below
    # reads inf (which threshold_sweep refuses)
    def g(x):
        return np.where(np.abs(x) < 2.0 ** -6, 1e200, np.cos(x))

    orders, cutoffs = (0.25, 0.75), (0.5, 2.0 ** -5, 0.1)
    got = fracsolve._dyadic_integrals(g, orders, cutoffs + (1e-3,))
    assert got[-1] == (math.inf, math.inf)
    for h, vals in zip(cutoffs, got):
        assert [_bits(v) for v in vals] == [_bits(threshold_reference.dyadic_integral(
            g, r, h, fracsolve._REL_TOL, fracsolve._MAX_POINTS)) for r in orders]


_XS = np.linspace(-1, 1, 81)
# below |x| ~ 1e-3 the cells of "oscillating" refine up to the 2^16-point cap
_PROFILES = {**cli._PROFILES,
             "sampled": list(zip(_XS.tolist(), ((1 - _XS * _XS) * (_XS + 2)).tolist())),
             "oscillating": lambda x: np.sin(1.0 / x)}


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_CUTOFFS = (st.sampled_from([1e-2, 1e-4, 1e-6]) | st.floats(1e-6, 0.9)
            | st.integers(1, 20).map(lambda k: 2.0 ** -k)
            | st.floats(0.5, 1.0, exclude_max=True))


@settings(max_examples=30, deadline=None)
@example([0.75, 0.25, 0.75], [1e-4], "oscillating", fracsolve._MAX_POINTS)
@example([0.75, 0.25], [1e-4], "oscillating", 1000)
@example([0.5, 0.1], [0.5, 2.0 ** -7, 1e-4, 2.0 ** -7], "sampled", 32)
@example([0.25], [0.75, 1e-3, 0.5, 0.75], "bump", fracsolve._MAX_POINTS)
@given(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.05, 1.2),
                min_size=1, max_size=4),
       st.lists(_CUTOFFS, min_size=1, max_size=4),
       st.sampled_from(sorted(_PROFILES)),
       st.sampled_from([32, 1000, fracsolve._MAX_POINTS]))
def test_threshold_sweep_matches_one_ladder_per_order(orders, cutoffs, name, cap):
    # cap bounds both a cell's point count and the points of one profile call
    g = fracsolve._profile_callable(_PROFILES[name])
    points = []

    def profile(x):
        points.append(len(x))
        return g(x)

    with mock.patch.object(fracsolve, "_MAX_POINTS", cap):
        sweep = threshold_sweep(profile, orders, cutoffs)
        single = schrodinger_threshold(_PROFILES[name], orders[0], cutoffs[0])
    assert max(points) <= cap
    assert len(sweep) == len(cutoffs)
    for h, reports in zip(cutoffs, sweep):
        hs = [h, h / 4.0, h / 16.0]
        assert len(reports) == len(orders)
        for r, rep in zip(orders, reports):
            vals = [threshold_reference.dyadic_integral(g, r, hk, fracsolve._REL_TOL, cap)
                    for hk in hs]
            want = fracsolve._report(r, hs, vals)
            assert [_bits(v) for _, v in rep.refinement] == [_bits(v) for v in vals]
            assert (rep.order, rep.cutoff, rep.verdict, rep.details) == \
                (r, h, want.verdict, want.details)
    assert [_bits(v) for _, v in single.refinement] == \
        [_bits(v) for _, v in sweep[0][0].refinement]
