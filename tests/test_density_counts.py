"""Differential tests of the density counters in `rates` against the code they
replaced (`density_reference`) and against brute force, plus the memory
bounds of the two large-ball paths."""

import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import nilmix
from nilmix import rates

from density_reference import (
    bisection_delta,
    offset_ball_count,
    shifted_ball_brute,
    shifted_ball_counts,
)


# ---------------------------------------------------------------------------
# shifted-ball counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coset_counts_match_the_recursion_on_quarter_radii(dim):
    # many rows of every parity class, radii up to the thousands
    rng = np.random.default_rng(dim)
    ws = rng.integers(-60, 61, size=(4000, dim))
    rho = rng.integers(-40, 12_000 // dim, size=4000) / 4.0
    got = rates._coset_counts(ws, rho)
    assert got.tolist() == shifted_ball_counts(ws / 2.0, rho).tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coset_counts_are_exact_for_float_radii(dim):
    # the thick count's radii are arbitrary doubles: the integer test
    # ||2x - w||^2 <= floor(4 rho) is the truth
    rng = random.Random(100 + dim)
    hs, rhos = [], []
    for _ in range(600 // dim):
        hs.append([rng.randint(-20, 20) for _ in range(dim)])
        rho = rng.uniform(-2.0, 60.0)
        # on a quarter-integer, or an ulp either side of one
        k = rng.randint(0, 240) / 4.0
        rhos += [rho, k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
        hs += [hs[-1]] * 3
    got = rates._coset_counts(np.array(hs, dtype=np.int64), np.array(rhos))
    assert got.tolist() == [shifted_ball_brute(h, math.floor(4 * r)) for h, r in zip(hs, rhos)]


def test_coset_counts_fix_the_float_recursion_on_a_crafted_row():
    # 4 rho is one ulp-scale step below 530, where the lattice points with
    # ||2x - w||^2 = 530 sit; the float recursion's sqrt rounds them in
    ws = np.array([[-3, -19]])
    rho = np.array([132.49999999999994])
    assert math.floor(4 * rho[0]) == 529
    assert shifted_ball_brute((-3, -19), 529) == 408
    assert rates._coset_counts(ws, rho).tolist() == [408]
    assert shifted_ball_counts(ws / 2.0, rho).tolist() == [410]


# ---------------------------------------------------------------------------
# whole balls
# ---------------------------------------------------------------------------

def _checks_ball_count(dim: int, r2: int) -> int:
    """perfbench/checks.ball_count's formula: the first dim - 1 coordinates'
    counts by squared norm, convolved from 1-d counts, times the number of
    last coordinates that still fit."""
    one = np.zeros(r2 + 1, dtype=np.int64)
    for x in range(-math.isqrt(r2), math.isqrt(r2) + 1):
        one[x * x] += 1
    head = np.zeros(r2 + 1, dtype=np.int64)
    head[0] = 1
    for _ in range(dim - 1):
        head = np.convolve(head, one)[: r2 + 1]
    last = np.array([2 * math.isqrt(r2 - s) + 1 for s in range(r2 + 1)], dtype=np.int64)
    return int(head @ last)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_ball_count_matches_both_references(dim):
    for r_sq in (0, 1, 2, 3, 7, 50, 101, 400):
        want = _checks_ball_count(dim, r_sq)
        assert rates._ball_count(dim, r_sq) == want == offset_ball_count(dim, r_sq)
    assert rates._ball_count(dim, 64) == len(rates._ball_points(dim, 64))


def _four_square_ball_count(r2: int) -> int:
    """Points of Z^4 with |x|^2 <= r2 by Jacobi's four-square theorem:
    r4(k) = 8 sum of the divisors d of k with 4 not dividing d."""
    r4 = np.zeros(r2 + 1, dtype=np.int64)
    for d in range(1, r2 + 1):
        if d % 4:
            r4[d::d] += 8 * d
    return 1 + int(r4.sum())


def test_ball_count_at_scale_is_an_exact_int():
    assert _four_square_ball_count(100) == _checks_ball_count(4, 100)
    got = rates._ball_count(4, 500 ** 2)
    assert type(got) is int and got == _four_square_ball_count(500 ** 2)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ball_points_is_the_filtered_cube(dim):
    for r_sq in (0, 1, 5, 18):
        b = math.isqrt(r_sq)
        cube = [x for x in itertools.product(range(-b, b + 1), repeat=dim)
                if sum(v * v for v in x) <= r_sq]
        got = rates._ball_points(dim, r_sq)
        assert got.dtype == np.int64 and got.shape == (len(cube), dim)
        assert [tuple(row) for row in got.tolist()] == cube


# ---------------------------------------------------------------------------
# delta(eps)
# ---------------------------------------------------------------------------

def _dyadic_margins(rng, size):
    """Margins on a 2^-12 grid, so that bisection midpoints hit them exactly,
    with NaNs and infinities mixed in."""
    m = rng.integers(0, 4097, size=size) / 4096.0
    m[rng.random(size) < 0.05] = np.nan
    m[rng.random(size) < 0.02] = np.inf
    return m


def _margin_cases():
    rng = np.random.default_rng(5)
    cases = [(np.array([0.3]), e) for e in (0.0, 0.5, 0.999)]
    cases += [(np.array([np.nan]), 0.0), (np.array([0.0]), 0.0)]
    for size in (7, 1000, 4096):
        ms = [rng.random(size), _dyadic_margins(rng, size), np.full(size, np.nan)]
        for m in ms:
            for eps in (0.0, 0.01, 0.05, 0.3, 0.999):
                cases.append((m, eps))
            for c in (1, size // 3, size - 1):
                exact = c / size
                for eps in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, 1.0)):
                    cases.append((m, eps))
    return cases


def test_margin_threshold_is_the_bisection():
    for margins, eps in _margin_cases():
        assert rates._margin_threshold(margins, eps) == bisection_delta(margins, eps), \
            (len(margins), eps)


# ---------------------------------------------------------------------------
# large balls in a memory-capped child
# ---------------------------------------------------------------------------

def _run_capped(gib: int, n: int, radius: float) -> dict:
    script = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({gib} << 30, {gib} << 30))
from nilmix.catalog import get_system
from nilmix.rates import density_estimate
rep = density_estimate(list(get_system("cubic-rank2").generators), {n}, {radius},
                       0.05, samples=10_000)
print(json.dumps(vars(rep)))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=240, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _points(r2: int) -> list:
    b = math.isqrt(r2)
    return [x * x + y * y for x in range(-b, b + 1) for y in range(-b, b + 1)
            if x * x + y * y <= r2]


def test_n3_direct_count_under_1_gib():
    # cubic-rank2 at n = 3, R = 8: 1 395 261 points of Z^6.  C and C - I are
    # independent units of a totally real cubic field, so only w = 0 is a bad
    # difference: by inclusion-exclusion the bad triples are
    # 3 #{z1 = z2} - 2 #{z1 = z2 = z3}
    rep = _run_capped(1, 3, 8)
    pair = sum(1 for a in _points(32) for c in _points(64) if 2 * a + c <= 64)
    triple = sum(1 for a in _points(21) if 3 * a <= 64)
    assert rep["total_points"] == _checks_ball_count(6, 64) == 1_395_261
    assert rep["bad_points"] == 3 * pair - 2 * triple == 30_321
    assert rep["method"] == "direct enumeration"


def test_rank2_count_at_radius_500_under_4_gib():
    # only w = 0 is bad (see above): the bad pairs are the diagonal
    rep = _run_capped(4, 2, 500)
    assert rep["total_points"] == _four_square_ball_count(500 ** 2)
    assert rep["bad_points"] == len(_points(125_000)) == 392_685
    assert 0.9 < rep["thick_fraction"] < 1.0
