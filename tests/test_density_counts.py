"""Differential tests of the density counters in `rates` against the code they
replaced (`density_reference`) and against brute force, plus the memory
bounds of the two large-ball paths."""

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
from nilmix.catalog import get_system
from nilmix.dioph import _first_sign, _half_ball

from density_reference import (
    cube_half_ball,
    full_ball_density,
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
    assert rates._ball_count(dim, 64) == 2 * len(_half_ball(dim, 64, np.int64)[0]) - 1


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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_ball_points_is_the_filtered_cube(dim):
    # the half ball is the canonical half of the cube, zero row first, in
    # int64 and in the narrowest dtype that holds it, with its exact squared
    # norms.  Rows inside the ball, canonical, strictly increasing and half
    # the ball's count are the half ball; the cube itself is built only up to
    # 10^6 points (not in d = 7 beyond r_sq = 15)
    # 128^2 and 32768^2 put +b one past the range of int8 and int16
    larger = {1: [128 ** 2, 32768 ** 2, 10 ** 6], 2: [128 ** 2, 20_000], 3: [400],
              4: [100]}.get(dim, [])
    for r_sq in [*range(25), *larger]:
        b = math.isqrt(r_sq)
        for dtype in (np.int64, np.min_scalar_type(-b - 1)):
            got, norms = _half_ball(dim, r_sq, dtype)
            assert got.dtype == dtype and got.flags.c_contiguous and not got[0].any()
            rows = got.astype(np.int64)
            assert norms.dtype == np.int64 and (norms == (rows * rows).sum(axis=1)).all()
            assert (norms <= r_sq).all() and (_first_sign(rows[1:]) > 0).all()
            assert (_first_sign(np.diff(rows, axis=0)) > 0).all()
            assert 2 * len(rows) - 1 == rates._ball_count(dim, r_sq)
            if (2 * b + 1) ** dim <= 10 ** 6:
                want = cube_half_ball(dim, r_sq)
                assert rows.shape == want.shape and (rows == want).all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("system", ["catmap", "cubic-rank2", "product-t2xt2"])
def test_half_ball_counts_match_the_full_ball(system, n, monkeypatch):
    # with delta from the report and then with delta = 0, at which every
    # nonzero point is thick
    gens = list(get_system(system).generators)
    counted = 0
    for zero_delta in (False, True):
        if zero_delta:
            monkeypatch.setattr(rates, "_admissible_delta", lambda normals, eps: 0.0)
        for radius in (0, 0.5, math.sqrt(3), 7, 12):
            try:
                rep = rates.density_estimate(gens, n, radius, 0.05)
            except ValueError:
                with pytest.raises(ValueError):
                    full_ball_density(gens, n, radius, 0.0)
                continue
            assert rep.delta == 0.0 or not zero_delta
            want = full_ball_density(gens, n, radius, rep.delta)
            assert (rep.bad_points, rep.thick_fraction) == want, (radius, zero_delta)
            counted += 1
    assert counted >= 6


def test_zero_delta_thick_fraction_beyond_the_direct_limit(monkeypatch):
    # the ball of radius 1000 in Z^2 is past _DIRECT_LIMIT, which bounds only
    # the grids of n >= 3: at delta = 0 its thick fraction is still exact
    monkeypatch.setattr(rates, "_admissible_delta", lambda normals, eps: 0.0)
    rep = rates.density_estimate(list(get_system("catmap").generators), 2, 1000, 0.05)
    assert rep.total_points == 3_141_549 > rates._DIRECT_LIMIT
    assert rep.thick_fraction == (rep.total_points - 1) / rep.total_points


# ---------------------------------------------------------------------------
# large balls in a memory-capped child
# ---------------------------------------------------------------------------

def _run_child(script: str, *args) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=240, env=env)


def _run_capped(gib: int, n: int, radius: float, system: str = "cubic-rank2") -> dict:
    script = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({gib} << 30, {gib} << 30))
from nilmix.catalog import get_system
from nilmix.rates import density_estimate
rep = density_estimate(list(get_system({system!r}).generators), {n}, {radius}, 0.05)
print(json.dumps(vars(rep)))
"""
    proc = _run_child(script)
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


def test_rank1_count_at_radius_1e4_under_2_gib():
    # catmap's one functional vanishes only at w = 0: the bad pairs are the
    # diagonal, 2 z^2 <= R^2.  The sorted coset norms grow with the 14 143
    # differences, not with R^2
    rep = _run_capped(2, 2, 1e4, "catmap")
    r2 = 10 ** 8
    assert rep["total_points"] == sum(2 * math.isqrt(r2 - x * x) + 1
                                      for x in range(-10 ** 4, 10 ** 4 + 1))
    assert rep["bad_points"] == 2 * math.isqrt(r2 // 2) + 1 == 14_143
    assert 0.9 < rep["thick_fraction"] < 1.0


@pytest.mark.parametrize("n, radius, reason", [
    (3, 1e4, "too many for direct enumeration"),
    (2, 5e7, "beyond the exact range of the lattice counts"),
    (2, 4e7, "too many to count pairs in memory"),
])
def test_oversized_density_is_refused_before_allocating(tmp_path, n, radius, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "catmap", "n": n, "radius": radius,
                               "eps": 0.05, "samples": 1000}))
    # under a 2 GiB cap, timed, and with the peak resident set of this process
    # image (ru_maxrss would carry the forking test runner's)
    script = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from nilmix.cli import main
start = time.perf_counter()
code = main(["density", "--config", sys.argv[1], "--out", sys.argv[2]])
seconds = time.perf_counter() - start
hwm = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")]
print(code, *hwm, seconds)
"""
    proc = _run_child(script, str(cfg), str(tmp_path / "out"))
    code, max_rss_kb, seconds = proc.stdout.split()
    err = json.loads(proc.stderr)
    assert int(code) == 1 and err["error"] == "ValueError"
    assert f"radius {radius:g}" in err["message"] and reason in err["message"]
    assert int(max_rss_kb) < 150_000
    assert float(seconds) < 5.0


def test_sorted_norms_extend_only_what_fits_under_2_gib():
    # three coordinates over a line much longer than the ball: the outer sum
    # of the disc's 31 417 norms with the line's 40 001 squares would take
    # 10 GB, while the ball of radius 100 holds 4 187 857 points
    script = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from nilmix.rates import _sorted_norms
norms = _sorted_norms([np.arange(-20000, 20001, dtype=np.int64)] * 3, 100 ** 2)
print(json.dumps([len(norms), int(norms[-1]), bool((np.diff(norms) >= 0).all())]))
"""
    proc = _run_child(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    size, top, ascending = json.loads(proc.stdout)
    assert size == sum(2 * math.isqrt(10 ** 4 - x * x - y * y) + 1
                       for x in range(-100, 101) for y in range(-100, 101)
                       if x * x + y * y <= 10 ** 4)
    assert top == 10 ** 4 and ascending


def test_n2_density_does_not_load_numpy_ma(tmp_path):
    # np.unique loads numpy.ma (~20 ms in a fresh process); the n = 2 count
    # finds its parity classes without it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "catmap", "n": 2, "radius": 50,
                               "samples": 10_000}))
    script = """
import sys
from nilmix.cli import main
assert main(["density", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("numpy.ma" in sys.modules)
"""
    proc = _run_child(script, str(cfg), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-1] == "False"
