import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from nilmix import rates
from nilmix.catalog import CAT, CUBIC, get_system
from nilmix.exactlin import RationalMatrix
from nilmix.nilalg import abelian_algebra, heisenberg_algebra, lyapunov_functionals
from nilmix.rates import (
    TimeTuple,
    density_estimate,
    holder_rate,
    order2_envelope,
    rho_chi,
    theta,
)

from conftest import CHI_CAT, CHI_CUBIC, RHO_CUBIC
from density_reference import shifted_ball_brute, shifted_ball_counts

HEIS_M = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
ABELIAN2 = abelian_algebra(2)
ABELIAN3 = abelian_algebra(3)
HEIS = heisenberg_algebra()


# ---------------------------------------------------------------------------
# rho, chi
# ---------------------------------------------------------------------------

def test_rho_chi_cat():
    rep = rho_chi(ABELIAN2, CAT)
    assert rep.rho == pytest.approx(CHI_CAT, abs=1e-9)
    assert rep.chi == pytest.approx(CHI_CAT, abs=1e-9)
    assert rep.delta == 0


def test_rho_chi_heisenberg():
    rep = rho_chi(HEIS, HEIS_M)
    assert rep.rho == pytest.approx(CHI_CAT, abs=1e-9)
    assert rep.chi == pytest.approx(CHI_CAT, abs=1e-9)
    assert rep.delta == 1


def test_rho_chi_cubic():
    rep = rho_chi(ABELIAN3, CUBIC)
    assert rep.rho == pytest.approx(RHO_CUBIC, abs=1e-9)
    assert rep.chi == pytest.approx(CHI_CUBIC, abs=1e-9)


def test_rho_chi_rejects_non_ergodic():
    with pytest.raises(ValueError):
        rho_chi(ABELIAN2, RationalMatrix([[1, 1], [0, 1]]))


def test_sobolev_orders_per_layer():
    # abelian torus: one layer of size dim, so s(r) = r * dim
    rep = rho_chi(ABELIAN2, CAT)
    per_layer, s_of_r = rep.sobolev_orders(0.5)
    assert per_layer == [1.0] and s_of_r == 1.0
    # the 3-dim step-2 algebra has layers (2, 1): costs (2r, r), max 2r
    rep = rho_chi(HEIS, HEIS_M)
    per_layer, s_of_r = rep.sobolev_orders(1.5)
    assert per_layer == [3.0, 1.5] and s_of_r == 3.0
    with pytest.raises(ValueError):
        rep.sobolev_orders(0.0)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_envelope_cat_irrational():
    env = order2_envelope(ABELIAN2, CAT, 3, 0.01)
    assert env.delta == 0
    assert env.rate2 is None
    assert env.rate1 == pytest.approx((CHI_CAT - 0.01) * 3, abs=1e-9)
    assert env.bound(0.0, 2.0) == pytest.approx(2.0)


def test_envelope_heisenberg_two_terms():
    env = order2_envelope(HEIS, HEIS_M, 1, 0.01)
    assert env.delta == 1
    assert env.rate1 == pytest.approx(CHI_CAT - 0.01, abs=1e-9)
    assert env.rate2 == pytest.approx(CHI_CAT / 2 - 0.01, abs=1e-9)
    assert env.bound(0.0, 1.0, 2.0) == pytest.approx(3.0)


def test_envelope_rejects_bad_eps():
    with pytest.raises(ValueError):
        order2_envelope(ABELIAN2, CAT, 1, 2.0)
    with pytest.raises(ValueError):
        order2_envelope(ABELIAN2, CAT, 1, 0.0)


def test_envelope_rates_positive_for_valid_eps():
    for eps in (1e-6, 0.1, 0.4):
        env = order2_envelope(HEIS, HEIS_M, 0.5, eps)
        assert all(r > 0 for r in env.rates)


# ---------------------------------------------------------------------------
# Hoelder rate
# ---------------------------------------------------------------------------

def test_gamma_cat_half():
    rep = rho_chi(ABELIAN2, CAT)
    expected = 0.5 * rep.rho0 / (4 * 3)
    assert holder_rate(ABELIAN2, CAT, 0.5) == pytest.approx(expected, abs=1e-12)
    assert holder_rate(ABELIAN2, CAT, 0.5) == pytest.approx(0.0100252464, abs=1e-9)


def test_gamma_heisenberg_half():
    assert holder_rate(HEIS, HEIS_M, 0.5) == pytest.approx(0.0075189348, abs=1e-9)


def test_gamma_monotone_and_capped():
    rep = rho_chi(ABELIAN2, CAT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = [holder_rate(ABELIAN2, CAT, s) for s in (0.1, 0.3, 0.5, 0.9, 2.0, 10.0)]
        cap = holder_rate(ABELIAN2, CAT, 2 * rep.s0)
    assert vals == sorted(vals)
    assert vals[-1] == pytest.approx(rep.rho0 / 2, abs=1e-12)
    # cap attained exactly from s = 2 s0 on
    assert cap == pytest.approx(rep.rho0 / 2)


def test_gamma_small_s_vanishes():
    assert holder_rate(ABELIAN2, CAT, 1e-9) < 1e-10


def test_gamma_warns_above_one():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        holder_rate(ABELIAN2, CAT, 1.5)
    assert len(got) == 1


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_rank_one():
    rep = theta(ABELIAN2, [CAT], TimeTuple.of((0,), (7,)))
    assert rep.value == pytest.approx(CHI_CAT, abs=1e-9)
    assert all(flag for _, _, flag in rep.per_pair)


def test_theta_scale_invariance():
    tup = TimeTuple.of((0,), (3,), (10,))
    base = theta(ABELIAN2, [CAT], tup).value
    for t in (2, 3, 7):
        assert theta(ABELIAN2, [CAT], tup.scaled(t)).value == pytest.approx(base, abs=1e-12)


def test_theta_degenerate_tuple():
    with pytest.raises(ValueError):
        theta(ABELIAN2, [CAT], TimeTuple.of((1,), (1,)))


def test_theta_hyperplane_direction_flagged():
    system = get_system("product-t2xt2")
    # difference (0, 1) kills the functionals carried by the first block
    tup = TimeTuple.of((0, 0), (0, 7))
    rep = theta(system.algebra, list(system.generators), tup)
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert not all(flag for _, _, flag in rep.per_pair)


def test_theta_positive_implies_regular_pairs():
    system = get_system("cubic-rank2")
    tup = TimeTuple.of((0, 0), (3, 1), (-2, 5))
    rep = theta(system.algebra, list(system.generators), tup)
    if rep.value > 0:
        assert all(flag for _, _, flag in rep.per_pair)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_rank_one_diagonal_oracle():
    rep = density_estimate([CAT], 2, 200, 0.05)
    diagonal = sum(1 for t in range(-300, 301) if 2 * t * t <= 200 * 200)
    assert rep.bad_points == diagonal
    assert rep.good_fraction == pytest.approx(1 - diagonal / rep.total_points)
    assert rep.good_fraction >= 0.995


def test_density_monotone_radius():
    vals = [density_estimate([CAT], 2, r, 0.05).good_fraction
            for r in (10, 50, 200)]
    assert vals == sorted(vals)


def test_density_exceeds_inverse_radius_bound():
    for r in (20, 50, 120):
        rep = density_estimate([CAT], 2, r, 0.1)
        assert rep.good_fraction > 1 - 5 / r


def test_density_direct_vs_weighted_cross_check():
    # n = 2 runs the difference-weighted counter; n = 2 with tiny radius can
    # be replayed by the direct enumerator via n = 2 on a 2-ball with the
    # same generators encoded twice (structural cross-check on small balls)
    rep = density_estimate([CAT], 2, 9, 0.2)
    # direct recount
    import itertools
    bad = ok = 0
    for z1 in range(-9, 10):
        for z2 in range(-9, 10):
            if z1 * z1 + z2 * z2 > 81:
                continue
            if z1 == z2:
                bad += 1
            ok += 1
    assert rep.total_points == ok
    assert rep.bad_points == bad


def test_density_n3_direct():
    rep = density_estimate([CAT], 3, 12, 0.2)
    assert rep.method == "direct enumeration"
    # oracle: fraction of (z1, z2, z3) with all coordinates distinct
    import itertools
    bad = total = 0
    for p in itertools.product(range(-12, 13), repeat=3):
        if sum(x * x for x in p) > 144:
            continue
        total += 1
        if p[0] == p[1] or p[0] == p[2] or p[1] == p[2]:
            bad += 1
    assert rep.total_points == total and rep.bad_points == bad


def test_density_trivial_eps():
    rep = density_estimate([CAT], 2, 30, 1.0)
    assert rep.delta == 0.0
    assert rep.thick_fraction == 1.0


def test_density_cubic_rank2():
    reps = [density_estimate(list(get_system("cubic-rank2").generators), 2, r,
                             0.05) for r in (25, 50)]
    assert reps[0].good_fraction <= reps[1].good_fraction
    assert reps[1].good_fraction >= 0.95


def test_density_radius_rounds_like_certify():
    # sqrt(3) ** 2 is 2.9999999999999996; the ball of radius sqrt(3) holds
    # all 27 points of {-1, 0, 1}^3
    rep = density_estimate([CAT], 3, math.sqrt(3), 0.2)
    assert rep.total_points == 27


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shifted_ball_counts_match_integer_brute_force(dim):
    # half-integral centres w / 2 and quarter-integral radii q / 4: the
    # coset histograms and the old float recursion are both exact here
    rng = random.Random(dim)
    hs, qs = [], []
    for _ in range(150):
        h = [rng.randint(-12, 12) for _ in range(dim)]
        s = rng.randint(0, 14)
        # perfect squares put lattice points exactly on the sphere
        for q in (rng.randint(-8, 200), s * s, s * s - 1, 0, -1, -4):
            hs.append(h)
            qs.append(q)
    ws = np.array(hs, dtype=np.int64)
    rho = np.array(qs, dtype=float) / 4.0
    want = [shifted_ball_brute(h, q) for h, q in zip(hs, qs)]
    assert rates._coset_counts(ws, rho).tolist() == want
    assert shifted_ball_counts(ws / 2.0, rho).tolist() == want


@pytest.mark.parametrize("name", ["product-t2xt2", "cubic-rank2"])
def test_bad_mask_matches_exact_test(name):
    gens = list(get_system(name).generators)
    funcs = [f for f in lyapunov_functionals(gens) if not f.is_zero()]
    func_arr = np.array([f.exponents for f in funcs], dtype=float)
    rng = random.Random(7)
    base = [(0, 1), (1, -1), (0, 0)] + [(rng.randint(-6, 6), rng.randint(-6, 6))
                                        for _ in range(8)]
    ws = sorted({(k * a, k * b) for a, b in base for k in (1, 2, -3)})
    got = rates._bad_mask(np.array(ws, dtype=np.int64), gens, func_arr).tolist()
    assert got == [rates._is_bad_difference(w, gens) for w in ws]
    assert got[ws.index((0, 0))]


def test_density_product_bad_points_oracle():
    # every (z1, z2) of the ball, each distinct difference decided by the
    # exact per-difference test: no prefilter, no shifted-ball counts
    gens = list(get_system("product-t2xt2").generators)
    rep = density_estimate(gens, 2, 6, 0.2)
    verdict = {}
    total = bad = 0
    for z in itertools.product(range(-6, 7), repeat=4):
        if sum(x * x for x in z) > 36:
            continue
        total += 1
        w = (z[0] - z[2], z[1] - z[3])
        if w not in verdict:
            verdict[w] = rates._is_bad_difference(w, gens)
        bad += verdict[w]
    assert (rep.total_points, rep.bad_points) == (total, bad)


def test_density_confirms_each_primitive_direction_once():
    gens = list(get_system("product-t2xt2").generators)
    with mock.patch.object(rates, "_is_bad_difference",
                           wraps=rates._is_bad_difference) as exact:
        density_estimate(gens, 2, 50, 0.05)
    keys = [c.args[0] for c in exact.call_args_list]
    assert sorted(keys) == [(0, 1), (1, -1)]


def test_density_n3_confirms_each_primitive_direction_once():
    # n >= 3 looks its pair differences up in the bad rows of the n = 2
    # difference set, decided once: no direction is confirmed twice
    gens = list(get_system("product-t2xt2").generators)
    with mock.patch.object(rates, "_is_bad_difference",
                           wraps=rates._is_bad_difference) as exact:
        density_estimate(gens, 3, 4, 0.05)
    keys = [c.args[0] for c in exact.call_args_list]
    assert sorted(keys) == [(0, 1), (1, -1)]


@pytest.mark.parametrize("name, want", [("product-t2xt2", 1055), ("cubic-rank2", 61)])
def test_density_bad_points_match_theta_flags(name, want):
    # every (z1, z2) of the ball at R = 6, decided by theta's per-pair
    # regularity flag: one theta call on all times of the rank-2 ball flags
    # every pair of distinct times; equal times are the bad diagonal
    gens = list(get_system(name).generators)
    times = [z for z in itertools.product(range(-6, 7), repeat=2) if z[0] ** 2 + z[1] ** 2 <= 36]
    index = {z: i for i, z in enumerate(times)}
    report = theta(abelian_algebra(4), gens, TimeTuple.of(*times))
    regular = {pair: flag for pair, _, flag in report.per_pair}
    bad = 0
    for z in itertools.product(range(-6, 7), repeat=4):
        if sum(x * x for x in z) > 36:
            continue
        i, j = sorted((index[z[:2]], index[z[2:]]))
        bad += i == j or not regular[(i, j)]
    assert bad == want
    assert density_estimate(gens, 2, 6, 0.2).bad_points == want


def test_bad_difference_divides_out_the_root_of_unity_core():
    # CAT + 1 and CAT^2 + 1 on Z^3 share the core e3, where both act as 1;
    # the one nonzero functional pair is +-(1, 2) log(lambda), so w is bad
    # iff w0 + 2 w1 = 0, though every combined matrix keeps the factor x - 1
    a = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    gens = [a, a * a]
    for w in itertools.product(range(-4, 5), repeat=2):
        if any(w):
            assert rates._is_bad_difference(w, gens) == (w[0] + 2 * w[1] == 0), w


# CAT + 1 and CAT^2 + 1: nonzero functionals +-chi_CAT (1, 2) and one exact zero
CORE_FAMILY = [RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
               RationalMatrix([[5, 3, 0], [3, 2, 0], [0, 0, 1]])]


def test_density_with_root_of_unity_core_runs_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = density_estimate(CORE_FAMILY, 2, 10, 0.05)
    assert 0 < rep.bad_points < rep.total_points
    assert 0 < rep.delta < 0.5
    assert rep.thick_fraction > 0.5


def test_importing_the_cli_loads_no_thread_pool():
    # start-up loads no pool, and a density call, delta(eps) included, starts
    # no thread and loads none
    script = """
import json, sys, threading
import nilmix.cli
pools = [m for m in ("concurrent.futures", "queue") if m in sys.modules]
threads = threading.active_count()
from nilmix.catalog import get_system
from nilmix.rates import density_estimate
density_estimate(list(get_system("cubic-rank2").generators), 2, 10, 0.05)
print(json.dumps([pools, threads, threading.active_count(),
                  "concurrent.futures" in sys.modules]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    pools, before, after, futures = json.loads(res.stdout)
    assert pools == [] and after == before and not futures


def test_theta_flags_exactly_the_wall_of_the_core_family():
    times = [(a, b) for a in range(-3, 4) for b in range(-2, 3)]
    rep = theta(ABELIAN3, CORE_FAMILY, TimeTuple.of(*times))
    assert all(math.isclose(abs(f.exponents[1]), 2 * abs(f.exponents[0]), rel_tol=1e-15)
               for f in rep.functionals)
    for (i, j), _, regular in rep.per_pair:
        w = [a - b for a, b in zip(times[i], times[j])]
        assert regular == (w[0] + 2 * w[1] != 0)
