import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from unittest import mock

import nilmix
from nilmix.catalog import CAT, CUBIC, get_system, random_ergodic_gl3
from nilmix import dioph
from nilmix.dioph import (
    _ipow_half,
    _lattice_ball,
    _radius_sq,
    _scan_full,
    _scan_pruned,
    _seed_radius,
    diophantine_certificate,
    type_i_subspace,
    certify_structural_subspaces,
)
from nilmix.exactlin import IntPolynomial, LyapunovSplitting, RationalMatrix, lyapunov_data
from nilmix.nilalg import heisenberg_algebra

from conftest import PHI_INV
from density_reference import cube_half_ball
import dioph_reference

import numpy as np


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_golden_direction():
    cert = diophantine_certificate([[1.0, PHI_INV]], 2, 1000)
    assert cert.passed
    assert cert.argmin == (0, 1)
    assert cert.c_emp == pytest.approx(PHI_INV, rel=1e-9)


def test_golden_stability():
    values = [diophantine_certificate([[1.0, PHI_INV]], 2, r).c_emp
              for r in (100, 1000, 10000)]
    assert max(values) - min(values) < 1e-9
    assert 0.60 <= values[0] <= 0.63


def test_exact_resonance():
    cert = diophantine_certificate([[1, 1]], 2, 10)
    assert not cert.passed
    assert cert.c_emp == 0
    assert cert.argmin == (1, -1)


def test_resonance_on_a_ball_edge_of_128():
    # isqrt(r_sq) = 128: about 51 900 points take the float full scan, whose
    # line screen must keep the line of the exact zero at (1, 128), on the
    # ball's edge
    cert = diophantine_certificate([[128, -1]], 2, 128.5)
    assert not cert.passed
    assert cert.c_emp == 0
    assert cert.argmin == (1, 128)


def test_one_dimensional():
    cert = diophantine_certificate([[1]], 1, 5)
    assert cert.passed and cert.c_emp == 1.0
    assert cert.argmin == (1,)
    assert cert.c_emp_sq_exact == 1


def test_monotone_in_radius_exact():
    vs = [[Fraction(2), Fraction(3)]]
    prev = None
    for r in (3, 5, 9, 15):
        cert = diophantine_certificate(vs, 2, r)
        if prev is not None:
            assert cert.c_emp_sq_exact <= prev
        prev = cert.c_emp_sq_exact


def test_linearity_in_scaling_exact():
    vs = [[Fraction(2), Fraction(3)], [Fraction(1), Fraction(-1)]]
    base = diophantine_certificate(vs, 2, 8)
    for t in (Fraction(2), Fraction(3, 2), Fraction(5)):
        scaled = diophantine_certificate([[t * x for x in v] for v in vs], 2, 8)
        assert scaled.c_emp_sq_exact == t * t * base.c_emp_sq_exact
        assert scaled.argmin == base.argmin


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        diophantine_certificate([], 2, 10)
    with pytest.raises(ValueError):
        diophantine_certificate([[0, 0]], 2, 10)
    with pytest.raises(ValueError):
        diophantine_certificate([[1, 0]], 2, 0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            diophantine_certificate([[1.0, bad]], 2, 10)
    for huge in (10 ** 400, Fraction(10 ** 400)):
        with pytest.raises(ValueError, match="beyond the double range"):
            diophantine_certificate([[huge, 1]], 2, 10)


def test_huge_entry_certifies_without_a_warning():
    # the float64 row norm of (1e300, 1) overflows: err is inf and every line is
    # kept, and no RuntimeWarning reaches the caller (the suite makes one an error)
    cert = diophantine_certificate([[1e300, 1.0]], 2, 10)
    assert (cert.argmin, cert.passed) == ((0, 1), True)
    assert cert.c_emp == pytest.approx(1.0)


def _fractions(v):
    """Float64 rows as the exact Fractions that the scans take."""
    return [[Fraction(float(x)) for x in r] for r in v]


def test_pruned_scan_matches_full_scan():
    rng = np.random.default_rng(7)
    for trial in range(6):
        v = rng.normal(size=(1, 3))
        v /= np.max(np.abs(v))
        vs = _fractions(v)
        full_val, full_arg, _ = _scan_full(vs, 3, 60.0)
        pr_val, pr_arg, count = _scan_pruned(vs, 3, 60.0, seed_radius=17.0)
        assert pr_arg == full_arg
        assert pr_val == full_val
        assert count == 10239


def test_pruned_scan_matches_full_scan_2d():
    vs = _fractions([[1.0, PHI_INV]])
    full_val, full_arg, _ = _scan_full(vs, 2, 700.0)
    pr_val, pr_arg, count = _scan_pruned(vs, 2, 700.0, seed_radius=25.0)
    assert pr_arg == full_arg and pr_val == full_val
    assert count == 980


def test_pruned_scan_near_rational_direction():
    # a direction nearly orthogonal to a large integer vector puts deep
    # near-minima far outside the seed ball; the pruned engine must still
    # reproduce the full scan exactly
    rng = np.random.default_rng(42)
    counts = [1558, 1536, 1535, 1566, 1535, 1535, 1540, 1536]   # the (d-1)-ball sweep's
    for trial in range(8):
        v = rng.normal(size=(1 + trial % 2, 3))
        v /= np.max(np.abs(v))
        if trial % 3 == 0:
            v[0] = np.array([1.0, 355.0 / 113.0, 0.5]) * (0.9 + 0.2 * rng.random())
        vs = _fractions(v)
        f_val, f_arg, _ = _scan_full(vs, 3, 70.0)
        p_val, p_arg, count = _scan_pruned(vs, 3, 70.0, seed_radius=9.0)
        assert p_arg == f_arg
        assert p_val == f_val
        assert count == counts[trial]


@pytest.mark.parametrize("dim, radius, seed_radius, counts", [
    (2, 700.0, 25.0, [980, 980, 980, 1680, 980]),
    (3, 60.0, 9.0, [1535, 1535, 1535, 2438, 1595]),
    (4, 22.0, 5.0, [1560, 1561, 1560, 6998, 2318]),
])
def test_pruned_scan_is_exactly_the_full_scan(dim, radius, seed_radius, counts):
    # the whole ball fits the full scan, so the shelled enumeration out of a
    # small seed ball must give the identical minimum and argmin, including
    # the lexicographic tie-break among exact zeros of resonant directions;
    # the counts are those of the (d-1)-ball sweep
    rng = np.random.default_rng(dim)
    cases = [rng.normal(size=(1, dim)), rng.normal(size=(2, dim)),
             np.round(rng.normal(size=(1, dim)) * 7) / 7 + rng.normal(size=(1, dim)) * 1e-5,
             rng.integers(-3, 4, size=(1, dim)) / 3 + np.eye(dim)[:1],
             np.array([[1.0, PHI_INV] + [0.0] * (dim - 2)])]
    for v, want in zip(cases, counts):
        vs = _fractions(v / np.max(np.abs(v)))
        full_val, full_arg, _ = _scan_full(vs, dim, radius)
        pr_val, pr_arg, count = _scan_pruned(vs, dim, radius, seed_radius)
        assert (pr_val, pr_arg, count) == (full_val, full_arg, want)


def _exact_scan(vs, dim, radius):
    """The full scan of rational rows, as diophantine_certificate runs it."""
    return _scan_full([[Fraction(x) for x in v] for v in vs], dim, radius)


@pytest.mark.parametrize("dim, vs, radius, seed_radius, want", [
    (2, [[41, 29]], 60.0, 6.0, 57),
    (3, [[7, 11, 13]], 14.0, 3.0, 76),
    (3, [[40, -17, 29], [3, 1, -2]], 14.0, 4.0, 132),
    (4, [[2, 3, 5, 7], [1, -1, 2, 0]], 8.0, 3.0, 330),
])
def test_pruned_scan_matches_exact_scan(dim, vs, radius, seed_radius, want):
    fsq, exact_arg, _ = _exact_scan(vs, dim, radius)
    val, arg, count = _scan_pruned([[Fraction(x) for x in v] for v in vs], dim, radius,
                                   seed_radius)
    assert arg == exact_arg
    assert val == fsq
    assert count == want


def _recursive_exact_scan(vs, dim, radius):
    # the former exact engine, kept as the reference: its own recursive
    # enumeration of the ball, Fraction arithmetic throughout
    r2 = Fraction(radius).limit_denominator(10**9) ** 2 if not float(radius).is_integer() \
        else Fraction(int(radius)) ** 2
    best = None
    count = 0

    def rec(prefix, norm_sq):
        nonlocal best, count
        if len(prefix) == dim:
            m = tuple(prefix)
            if norm_sq == 0 or next(x for x in m if x) < 0:
                return
            count += 1
            s = sum(abs(sum(Fraction(a) * b for a, b in zip(m, v))) for v in vs)
            key = (Fraction(norm_sq) ** dim * s * s, m)
            if best is None or key < best:
                best = key
            return
        rest = int(math.isqrt(int(r2 - norm_sq))) if r2 >= norm_sq else -1
        for x in range(-rest, rest + 1):
            rec(prefix + [x], norm_sq + x * x)

    rec([], Fraction(0))
    return best[0], best[1], count


_RESONANT = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
_WIDE = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))
# the largest integer radius whose ball holds at most 40 000 points
_MAX_RADIUS = {1: 20000, 2: 112, 3: 21, 4: 11}


@st.composite
def _exact_scan_inputs(draw):
    dim = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_RESONANT, _WIDE]))
    vs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=3))
    r = draw(st.integers(1, _MAX_RADIUS[dim]))
    # an integer radius, or one between sqrt(r^2) and sqrt(r^2 + 1): the
    # reference rounds a float radius its own way, so no point may lie near
    # the sphere
    radius = draw(st.sampled_from([r, math.sqrt(r * r + 0.5)]))
    return vs, dim, radius


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_exact_scan_inputs())
# exact zeros whose float64 value need not be 0 (fl(2/3) is not 2/3; a fused
# multiply-add makes 2 - 3 fl(2/3) = 2^-52): without its margin the screen
# would keep a later zero in place of the lexicographic argmin
@example(([[Fraction(1, 3), Fraction(2), Fraction(2, 3)]], 3, 9))
@example(([[Fraction(-1, 2), Fraction(4, 5), Fraction(-2, 7), Fraction(-3, 5)]], 4, 6))
def test_exact_scan_matches_recursive_reference(args):
    # resonant small rows put exact zeros inside the ball; wide rows need
    # every bit of their Fractions to order the survivors
    assert _exact_scan(*args) == _recursive_exact_scan(*args)


def test_exact_scan_uses_the_float_engines_ball():
    # r = sqrt(3) in d = 3: the ball holds the 27 points with ||m||^2 <= 3,
    # 13 of them canonical; the recursive scan's rounded radius kept 9
    vs = [[Fraction(1), Fraction(2, 3), Fraction(5)]]
    fsq, arg, count = _exact_scan(vs, 3, math.sqrt(3))
    assert count == 13
    assert count == _scan_full(_fractions(vs), 3, math.sqrt(3))[2]


def test_lattice_ball_arrays_are_read_only():
    lines = _lattice_ball(3, 5.0)
    assert len(lines) == 5
    for a in lines:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("dim, n_lines, n_points", [(1, 1, 512), (2, 489, 374998),
                                                    (3, 4995, 374930), (4, 16116, 373304)])
def test_seed_balls_hold_lines_not_points(dim, n_lines, n_points):
    # the prefixes, their squared norms, the two ends of each line and its
    # least norm power: 8 (d + 3) bytes a line, nothing a point
    lines = _lattice_ball(dim, _seed_radius(dim))
    lo, hi = lines[2:4]
    assert len(lo) == n_lines and int((hi - lo + 1).sum()) == n_points
    assert sum(a.nbytes for a in lines) == 8 * (dim + 3) * n_lines
    assert all(a.base is None or a.base.nbytes == a.nbytes for a in lines)


def _cube_ball(dim, radius):
    # the former ball builder, kept as the reference: the canonical half of
    # the cube cut to the ball, without its zero row
    return cube_half_ball(dim, _radius_sq(radius))[1:]


def _ball_points(dim, radius):
    """Every line of the cached ball expanded, in order, by the scan's own expansion."""
    pre, _, lo, hi, _ = _lattice_ball(dim, radius)
    end = np.cumsum(hi - lo + 1)
    li, y = dioph._expand(hi, np.arange(len(lo)), end, np.arange(end[-1]))
    return np.column_stack((pre[li], y)).astype(np.int64)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_lattice_ball_is_the_cube_ball(dim):
    # 128.5 and 32768.5: isqrt(r_sq) = 128 and 32768, powers of two on the
    # ball's edge
    edges = {1: (128.5, 32768.5), 2: (128.5,)}.get(dim, ())
    for radius in (1.0, math.sqrt(2), math.sqrt(3), 2.5, 6.0, 13.0 if dim < 5 else 7.0, *edges):
        grid = _ball_points(dim, radius)
        want = _cube_ball(dim, radius)
        assert grid.shape == want.shape and (grid == want).all()


def _directions(kind, rng, t, dim):
    v = rng.normal(size=(t, dim))
    if kind == "near-rational":
        v = np.round(v * 5) / 5 + rng.choice([-1e-9, 1e-9], size=v.shape)
    elif kind == "integer-resonant":
        v = rng.integers(-2, 3, size=(t, dim)).astype(float)
        v[:, 0] = 1.0
    elif kind == "large-norm":
        v = v * 1e8
    elif kind == "non-finite":
        # a finite entry whose float64 square overflows: the screen's error
        # bound is inf, no float64 value ranks a point, and the screen must
        # expand every line
        v[0, 0] *= 1e300
    elif kind == "fraction":
        # quotients not representable in float64
        return [[Fraction(int(rng.integers(-40, 41)), int(q))
                 for q in rng.choice([3, 7, 12, 97], size=dim)] for _ in range(t)]
    return _fractions(v)


def _overflow_allowed(kind):
    """The float64 products of an overflowing direction overflow on purpose."""
    return np.errstate(over="ignore", invalid="ignore") if kind == "non-finite" \
        else np.errstate()


@pytest.mark.parametrize("kind", ["random", "near-rational", "integer-resonant",
                                  "large-norm", "fraction", "non-finite"])
def test_screened_full_scan_is_the_longdouble_scan(kind, monkeypatch):
    # (named for the reference it had) the float64 screen with exact
    # survivors must return the very minimum, argmin and count of the exact
    # whole-ball scan, exact-zero ties of resonant directions included.  The expanded lines fit one block;
    # blocks of 7 rows also put the minimizers behind block boundaries (a
    # norm power one row off in later blocks passes with one block, not with 7)
    rng = np.random.default_rng(sum(map(ord, kind)))
    radii = {1: 200.0, 2: 40.5, 3: 11.0, 4: 6.5}
    blocks = (dioph._SCREEN_BLOCK, 7)
    for dim in (1, 2, 3, 4):
        for t in (1, 2, 3):
            for _ in range(2):
                vs = _directions(kind, rng, t, dim)
                radius = radii[dim] * (0.6 + 0.4 * rng.random())
                want = dioph_reference.full_scan(vs, dim, radius)
                for block in blocks:
                    monkeypatch.setattr(dioph, "_SCREEN_BLOCK", block)
                    with _overflow_allowed(kind):
                        got = _scan_full(vs, dim, radius)
                    assert got == want, (dim, vs, radius, block)


# squared radii whose balls hold a multiple of _SCREEN_BLOCK points or just
# more or fewer: 32768 = 2^15, 32772, 65532 and 65544 points in d = 2
@pytest.mark.parametrize("dim, r_sq, blocks", [
    (2, 20857, 1), (2, 20858, 2), (2, 41724, 2), (2, 41725, 3), (2, 44100, 3),
    (3, 900, 2), (4, 182, 3),
])
def test_screen_across_blocks_is_the_longdouble_scan(dim, r_sq, blocks, monkeypatch):
    # the blocked screen must keep every row that can attain the minimum,
    # wherever the block boundaries cut the ball; an overflowing direction
    # expands every line, so its points fill exactly `blocks` blocks
    radius = math.sqrt(r_sq)
    assert _radius_sq(radius) == r_sq
    count = len(_ball_points(dim, radius))
    assert -(-count // dioph._SCREEN_BLOCK) == blocks
    evaluations = []
    expand = dioph._expand
    monkeypatch.setattr(dioph, "_expand", lambda hi, keep, end, rows:
                        evaluations.append(len(rows)) or expand(hi, keep, end, rows))
    rng = np.random.default_rng(r_sq)
    for kind in ("random", "near-rational", "integer-resonant", "non-finite"):
        for t in (1, 2, 3):
            vs = _directions(kind, rng, t, dim)
            evaluations.clear()
            with _overflow_allowed(kind):
                got = _scan_full(vs, dim, radius)
            assert got == dioph_reference.full_scan(vs, dim, radius), (kind, vs)
            if kind == "non-finite":
                # every point of the ball in blocks, then the kept rows
                assert sum(evaluations[:-1]) == count and len(evaluations) == blocks + 1


def test_exact_screen_across_blocks(monkeypatch):
    # the expanded lines of these scans stay under one block, so blocks of 7
    # rows make the screen cross boundaries: a rational direction against the
    # recursive reference and integer directions against the whole-ball one
    monkeypatch.setattr(dioph, "_SCREEN_BLOCK", 7)
    evaluations = []
    expand = dioph._expand
    monkeypatch.setattr(dioph, "_expand", lambda hi, keep, end, rows:
                        evaluations.append(len(rows)) or expand(hi, keep, end, rows))
    vs = [[Fraction(41, 7), Fraction(-29, 3)]]
    assert _exact_scan(vs, 2, 112.0) == _recursive_exact_scan(vs, 2, 112.0)
    assert len(evaluations) > 3
    evaluations.clear()
    vs = [[1, 2, 3], [2, -1, 5]]
    fsq, arg, count = _exact_scan(vs, 3, 21.0)
    assert len(evaluations) > 3
    assert dioph_reference.full_scan(vs, 3, 21.0) == (fsq, arg, count)


def test_screen_keeps_the_rows_float64_misranks():
    # fl(2/3) lies below 2/3, so with y = 2/3 the exact f(1, -1) = 2 |1 - y|
    # = 2/3 = f(0, 1) = y, a tie that the lexicographic rule gives to (0, 1),
    # while float64 ranks (1, -1) strictly above (0, 1); with y' = 2/3 + 2^-60
    # exactly, f(1, -1) < f(0, 1) and float64 ranks them the other way
    for y, want in ((Fraction(2, 3), (0, 1)), (Fraction(2, 3) + Fraction(1, 2 ** 60), (1, -1))):
        vs = [[Fraction(1), y]]
        assert _scan_full(vs, 2, 2.0) == dioph_reference.full_scan(vs, 2, 2.0)
        assert _scan_full(vs, 2, 2.0)[1] == want


def test_screen_keeps_few_rows_for_extended_precision(monkeypatch):
    # the golden direction on the d = 2 seed ball: a float64 bound loose
    # enough to pass most of the 374998 points would only show as a slowdown
    sizes = []
    minimum = dioph._minimum
    monkeypatch.setattr(dioph, "_minimum",
                        lambda pts, vs, dim: sizes.append(len(pts)) or minimum(pts, vs, dim))
    val, arg, count = _scan_full(_fractions([[1.0, PHI_INV]]), 2, _seed_radius(2))
    assert (arg, count) == ((0, 1), 374998)
    assert len(sizes) == 1 and sizes[0] <= 300


def _structural_sets():
    """The distinct normalized block_max, block_min, w_plus and w_minus rows
    of catmap, cubic3, two random conjugates and companion(x^4 - 4x^2 + x + 1)."""
    sets = {}
    for m in (CAT, CUBIC, random_ergodic_gl3(0), random_ergodic_gl3(1),
              RationalMatrix.companion(IntPolynomial([1, 1, -4, 0, 1]))):
        split = lyapunov_data(m)
        for rows in (split.block_max(), split.block_min(), split.w_plus(), split.w_minus()):
            vs = dioph._normalize_rows(rows)
            sets[vs.shape, vs.tobytes()] = vs
    return list(sets.values())


def test_line_screen_on_the_seed_balls_is_the_longdouble_scan(monkeypatch):
    # the structural direction sets on their seed balls, as certify scans
    # them: (named for the reference it had) the very minimum, argmin and
    # count of the exact whole-ball scan, with at most 1 % of the lines
    # expanded and at most 3000 rows left for the exact evaluation, so a
    # weakened line bound fails here instead of showing only as a slowdown
    expanded, rows = [], []
    expand, minimum = dioph._expand, dioph._minimum
    monkeypatch.setattr(dioph, "_expand", lambda hi, keep, end, r: expanded.append(len(keep))
                        or expand(hi, keep, end, r))
    monkeypatch.setattr(dioph, "_minimum",
                        lambda pts, vs, dim: rows.append(len(pts)) or minimum(pts, vs, dim))
    sets = _structural_sets()
    assert sorted(vs.shape for vs in sets) == [(1, 2)] * 2 + [(1, 3)] * 6 + [(1, 4)] * 2 \
        + [(2, 3)] * 3 + [(2, 4)] * 2
    for vs in sets:
        dim = vs.shape[1]
        radius = _seed_radius(dim)
        vs = _fractions(vs)
        expanded.clear()
        rows.clear()
        assert _scan_full(vs, dim, radius) == dioph_reference.full_scan(vs, dim, radius), vs
        assert max(expanded) <= len(_lattice_ball(dim, radius)[2]) // 100, (vs, expanded)
        assert rows == [rows[0]] and rows[0] <= 3000, (vs, rows)


@pytest.mark.parametrize("vs", [[[0.0, 0.0, 1.0], [1.0, PHI_INV, 0.0]],
                                [[1.0, PHI_INV, 0.0, 0.0], [0.0, 0.0, 1.0, PHI_INV]]],
                         ids=["heisenberg-cat", "product-t2xt2"])
def test_pruned_screen_keeps_few_rows(vs, monkeypatch):
    # golden rows as the certify pins scan them at R = 200: the pruned scan
    # admits 62 814 candidates, which all reached the evaluation unscreened.
    # The float64 screen must leave at most 3000 rows for the exact evaluation
    sizes = []
    minimum = dioph._minimum
    monkeypatch.setattr(dioph, "_minimum",
                        lambda pts, rows, dim: sizes.append(len(pts)) or minimum(pts, rows, dim))
    dim = len(vs[0])
    seed = _scan_full(_fractions(vs), dim, _seed_radius(dim))
    sizes.clear()
    fsq, arg, count = _scan_pruned(_fractions(vs), dim, 200.0, _seed_radius(dim))
    assert count - seed[2] == 62814
    assert len(sizes) == 2 and max(sizes) <= 3000, sizes


@st.composite
def _certificate_inputs(draw):
    dim = draw(st.integers(1, 4))
    t = draw(st.integers(1, 3))
    entry = draw(st.sampled_from([_ENTRY, _RESONANT, _WIDE]))
    vs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=t, max_size=t))
    assume(all(any(x != 0 for x in v) for v in vs))
    radius = draw(st.floats(1.0, {1: 60.0, 2: 16.0, 3: 7.0, 4: 4.5}[dim]))
    return vs, dim, radius, draw(st.floats(1.0, 3.0))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_certificate_inputs(), st.booleans())
@example(([[1.0, PHI_INV]], 2, 15.5, 2.0), True)
@example(([[Fraction(2, 3), Fraction(1)], [Fraction(1), Fraction(-1)]], 2, 9.0, 1.5), True)
@example(([[1.0, 2.225073858507203e-309]], 2, 1.0, 1.0), False)   # -1 / v[-1] overflows
def test_certificate_is_the_exact_whole_ball_minimum(args, pruned):
    # float and rational directions, on either engine (the pruned one out of
    # a small seed ball): the argmin and verdict of the exact whole-ball
    # scan; a rational set reports its f^2 and sqrt(float(f^2)), a float set
    # the correctly rounded sqrt(f^2) rounded down once more
    vs, dim, radius, seed_radius = args
    limit = 0 if pruned else dioph._FULL_SCAN_LIMIT
    with mock.patch.object(dioph, "_FULL_SCAN_LIMIT", limit), \
            mock.patch.object(dioph, "_seed_radius", lambda d: seed_radius), \
            mock.patch.object(dioph, "_scan_pruned", wraps=dioph._scan_pruned) as scan:
        cert = diophantine_certificate(vs, dim, radius)
    assert scan.called == pruned
    rational = all(isinstance(x, Fraction) for v in vs for x in v)
    fsq, arg, count = dioph_reference.full_scan(vs if rational else _fractions(vs), dim, radius)
    assert (cert.argmin, cert.passed) == (arg, fsq != 0)
    if rational:
        assert cert.c_emp_sq_exact == fsq and cert.c_emp == math.sqrt(float(fsq))
    else:
        assert cert.c_emp_sq_exact is None
        assert cert.c_emp == dioph._sqrt_nearest(fsq) * dioph._FLOAT_DOWN
        assert Fraction(cert.c_emp) ** 2 <= fsq
    if not pruned:
        assert cert.points_scanned == count


@settings(max_examples=400, deadline=None)
@given(st.builds(lambda n, d, e: Fraction(n, d) * Fraction(2) ** e, st.integers(1, 2 ** 120),
                 st.integers(1, 2 ** 120), st.integers(-2150, 2050)))
# f^2 of w_plus of random_ergodic_gl3(8) and (0) (conjugates of cubic3) at
# R = 1000, where sqrt(float(f^2)) is one ulp low, and one where it is one ulp high
@example(Fraction(1412835309879874747221336576522841, 5192296858534827628530496329220096))
@example(Fraction(113351635801329151057867176651225, 324518553658426726783156020576256))
@example(Fraction(876530370897624792988863517373089, 1298074214633706907132624082305024))
# exact midpoints, ties to even (down, then up), and the least subnormal
@example((1 + Fraction(1, 2 ** 53)) ** 2)
@example((1 + Fraction(3, 2 ** 53)) ** 2)
@example(Fraction(1, 2 ** 2148))
def test_sqrt_nearest_is_correctly_rounded(q):
    # q lies between the squares of the midpoints from the root to its two
    # neighbouring doubles, and on a midpoint the root's last bit is even
    assume(Fraction(1, 2 ** 2148) <= q < Fraction(2) ** 2046)
    y = dioph._sqrt_nearest(q)
    below = Fraction(y) + Fraction(math.nextafter(y, 0.0))
    above = Fraction(y) + Fraction(math.nextafter(y, math.inf))
    assert below * below <= 4 * q <= above * above
    if 4 * q in (below * below, above * above):
        assert int(Fraction(y) / Fraction(math.ulp(y))) % 2 == 0


def test_resonant_float_direction():
    # a float direction with a plane of exact zeros (~R^2 lattice points):
    # the sweep scanned 474890 points in 1.08 s; the enumeration must match
    # it and stay faster
    start = time.perf_counter()
    cert = diophantine_certificate([[1.0, 1.0, 0.0]], 3, 300)
    elapsed = time.perf_counter() - start
    assert (cert.points_scanned, cert.argmin, cert.passed) == (474890, (0, 0, 1), False)
    assert elapsed < 1.0


def test_oversized_scan_is_refused_before_allocating():
    start = time.perf_counter()
    with pytest.raises(MemoryError, match=r"d=3 to R=1e\+06 .* candidates"):
        diophantine_certificate([[1.0, 1.0, 0.0]], 3, 1e6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dim, radius", [(2, 1e300), (3, 1e103), (4, 1e78)])
def test_radius_beyond_the_double_range_is_refused(dim, radius):
    # R^d overflows a double: refused like any over-large scan, not an OverflowError
    start = time.perf_counter()
    with pytest.raises(MemoryError, match=rf"d={dim} to R={re.escape(f'{radius:g}')} .* candidates"):
        diophantine_certificate([[1.0, PHI_INV] + [0.0] * (dim - 2)], dim, radius)
    assert time.perf_counter() - start < 1.0


def test_certifies_under_a_4_gib_address_space():
    # the child alone runs under RLIMIT_AS = 4 GiB: cubic3 at R = 1e4 and the
    # dim-4 companion of x^4 - 4x^2 + x + 1 at R = 1000 certify every subspace
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from nilmix.catalog import CUBIC
from nilmix.dioph import certify_structural_subspaces
from nilmix.exactlin import IntPolynomial, RationalMatrix
dim4 = RationalMatrix.companion(IntPolynomial([1, 1, -4, 0, 1]))
for m, radius in ((CUBIC, 1e4), (dim4, 1000)):
    report = certify_structural_subspaces(m, radius)
    assert report and all(c.passed for c in report.values()), report
print("ok")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmix.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=240, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# structural subspace sweeps
# ---------------------------------------------------------------------------

def test_structural_cat():
    report = certify_structural_subspaces(CAT, 1000)
    for name in ("block_max", "block_min", "w_plus", "w_minus"):
        assert report[name].passed
        assert report[name].c_emp == pytest.approx(PHI_INV, rel=1e-6)


def test_structural_cubic():
    report = certify_structural_subspaces(CUBIC, 200)
    assert all(cert.passed for cert in report.values())
    assert len([k for k in report if k.startswith("class[")]) == 3


def test_structural_rejects_non_ergodic():
    with pytest.raises(ValueError):
        certify_structural_subspaces(RationalMatrix([[1, 1], [0, 1]]), 10)
    with pytest.raises(ValueError):
        certify_structural_subspaces(RationalMatrix([[2, 0], [0, 1]]), 10)


def test_structural_merged_classes_across_factors():
    # negation-related factors share their eigenvalue moduli exactly, so the
    # modulus classes span two rational blocks; the sweep must restrict each
    # class to each block and still certify
    from nilmix.exactlin import IntPolynomial, lyapunov_data
    q = IntPolynomial([1, -3, 1]) * IntPolynomial([1, 3, 1])
    m = RationalMatrix.companion(q)
    split = lyapunov_data(m)
    assert [(b.multiplicity, b.primary_factors) for b in split.blocks] == \
        [(2, (0, 1)), (2, (0, 1))]
    report = certify_structural_subspaces(m, 60)
    assert len([k for k in report if k.startswith("class[")]) == 4
    assert all(cert.passed for cert in report.values())


def test_structural_classes_keep_their_own_rows_in_each_block():
    # conjugated by P, the two blocks of C(x^2-3x+1) + C(x^2+3x+1) are not
    # orthogonal, so each merged class must be restricted to a block by the
    # rows it built there, not by projecting all of its rows: one row per
    # block for block_max and block_min, one direction per class key
    from unittest import mock
    from nilmix.catalog import block_diag
    from nilmix.exactlin import IntPolynomial, _invariance_residual, lyapunov_data
    p = RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    m = p * block_diag(RationalMatrix.companion(IntPolynomial([1, -3, 1])),
                       RationalMatrix.companion(IntPolynomial([1, 3, 1]))) * p.inverse()
    assert m.is_unimodular_integer()
    split = lyapunov_data(m)
    m_f = m.to_float()
    for rows in (split.block_max(), split.block_min()):
        assert rows.shape == (2, 4)
        for row, blk in zip(rows, split.primary.blocks):
            assert _invariance_residual(m_f, row[None]) <= 1e-9
            span = np.array([[float(x) for x in v] for v in blk.basis])
            coords, *_ = np.linalg.lstsq(span.T, row, rcond=None)
            assert np.linalg.norm(span.T @ coords - row) <= 1e-9
    report = certify_structural_subspaces(m, 30)
    assert [np.shape(report[k].directions) for k in report if k.startswith("class[")] == \
        [(1, 2)] * 4


def test_structural_cat_power_17_keeps_the_cat_directions():
    # CAT^17 has CAT's eigenvectors; its class bases leave an invariance
    # residual of 2.1e-9, accepted below 1e-9 |CAT^17|_2, and every
    # subspace certifies with CAT's constant 1/phi
    report = certify_structural_subspaces(CAT ** 17, 100)
    assert all(cert.passed for cert in report.values())
    for cert in report.values():
        assert cert.c_emp == pytest.approx(PHI_INV, rel=1e-9)


@pytest.mark.parametrize("coeffs, k", [([1, 1, -4, 0, 1], 14), ([1, -2, -1, 1], 45)],
                         ids=["quartic^14", "cubic^45"])
def test_structural_powers_keep_the_base_constants(coeffs, k):
    # a power has its base matrix's eigenvectors, and its class bases are
    # built inside its primary blocks at the working precision: every
    # subspace certifies with the base matrix's constant (the keys differ
    # only in the exponents, which scale by k)
    base = RationalMatrix.companion(IntPolynomial(coeffs))
    want = certify_structural_subspaces(base, 30)
    got = certify_structural_subspaces(base ** k, 30)
    assert len(got) == len(want)
    for c, w in zip(got.values(), want.values()):
        assert c.passed and c.c_emp == pytest.approx(w.c_emp, rel=1e-9)


def test_structural_salem_unit_modulus_class():
    # ergodic but not hyperbolic: the self-reciprocal quartic with a complex
    # pair on the unit circle; even the neutral class certifies inside its
    # block, and the four ambient subspaces stay Diophantine
    from nilmix.exactlin import IntPolynomial
    m = RationalMatrix.companion(IntPolynomial([1, -3, 3, -3, 1]))
    report = certify_structural_subspaces(m, 60)
    assert all(cert.passed for cert in report.values())
    assert any("+0.000000" in k for k in report)


def test_structural_random_conjugates_small_radius():
    for seed in range(4):
        m = random_ergodic_gl3(seed)
        assert m.is_unimodular_integer()
        report = certify_structural_subspaces(m, 60)
        assert all(cert.passed for cert in report.values())


# ---------------------------------------------------------------------------
# integer shell forms, exact norm sums and the per-call memo
# ---------------------------------------------------------------------------

_ENTRY = st.one_of(
    st.floats(-1.0, 1.0),
    # near-rational: k / q off by a few ulps to 1e-9
    st.builds(lambda k, q, e: k / q + e, st.integers(-7, 7), st.integers(1, 7),
              st.floats(-1e-9, 1e-9)),
    st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([1.0, -1.0]), st.floats(-12, -6)),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def _shell_inputs(draw, min_dim=2, max_dim=6):
    dim = draw(st.integers(min_dim, max_dim))
    ax = draw(st.integers(0, dim - 1))
    piv = draw(st.sampled_from([1.0, -1.0]) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
    row = [draw(_ENTRY) for _ in range(dim)]
    row[ax] = piv
    u = [Fraction(float(x)) / Fraction(piv) for x in row]
    c = 10.0 ** draw(st.floats(-12, 1))
    seed_radius = draw(st.floats(8.0, 512.0))
    radius = seed_radius * (1e5 / seed_radius) ** draw(st.floats(0.0, 1.0))
    return u, ax, c, seed_radius, radius


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_shell_inputs())
def test_integer_shell_forms_are_the_fraction_forms(args):
    got = dioph._shell_forms(*args)
    want = dioph_reference.shell_forms(*args)
    assert len(got) == len(want)
    for (lo, hi, basis, dn, mu), (lo_w, hi_w, basis_w, dn_w, mu_w) in zip(got, want):
        assert (lo, hi) == (lo_w, hi_w)
        assert basis.dtype == basis_w.dtype and (basis == basis_w).all()
        assert dn.tobytes() == dn_w.tobytes() and mu.tobytes() == mu_w.tobytes()


def _box_bounds(forms):
    """Each shell's box bound, as the pruned scan sizes its enumeration."""
    return [float(np.prod(np.floor(2 * (np.sqrt((1 + dioph._ENUM_SLACK) / dn)
                                        + dioph._ENUM_SLACK)) + 1)) for *_, dn, _ in forms]


def _recorded_enumerations(monkeypatch):
    """The shell count of every `_enumerate` call and the shell index it returned."""
    calls, enumerate_ = [], dioph._enumerate

    def record(dn, mu):
        xs, shell = enumerate_(dn, mu)
        calls.append((len(dn), shell))
        return xs, shell

    monkeypatch.setattr(dioph, "_enumerate", record)
    return calls


# the golden direction in d = 2 (eight shells in groups of 1, 1 and 6) and a
# near-rational direction in d = 4 (groups of 2, 1 and 1, two shells beyond the block)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_shell_inputs(1, 4), st.one_of(st.integers(1, 4096), st.just(dioph._SCREEN_BLOCK)))
@example(([Fraction(1), Fraction(PHI_INV)], 0, 500.0, 25.0, 3000.0), 400)
@example(([Fraction(1), Fraction(355, 113), Fraction(1, 2), Fraction(0.3)], 1, 5.0, 5.0, 40.0), 400)
def test_grouped_enumeration_is_one_enumeration_per_shell(args, block):
    # after each row's shell filter the grouped enumeration yields exactly the
    # rows of one per-shell enumeration, shell by shell in order; consecutive
    # shells share a call while their box bounds sum to at most the block
    forms = dioph._shell_forms(*args)
    bounds = _box_bounds(forms)
    assume(sum(bounds) <= 2e5)
    other_axes = [j for j in range(len(args[0])) if j != args[1]]
    with mock.patch.object(dioph, "_SCREEN_BLOCK", block), \
            mock.patch.object(dioph, "_enumerate", wraps=dioph._enumerate) as enum:
        got = np.vstack(dioph._shell_points(forms, bounds, other_axes))
    want = np.vstack(dioph_reference.shell_points(forms, other_axes))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()
    k = 0
    for call in enum.call_args_list:
        n = len(call.args[0])
        assert n == 1 or sum(bounds[k:k + n]) <= block
        assert k + n == len(forms) or sum(bounds[k:k + n + 1]) > block
        k += n
    assert k == len(forms)


def test_each_pruned_scan_is_one_enumeration(monkeypatch):
    # the four pruned scans of cubic3 at R = 1000 each enumerate all of their
    # shells in one call, which carries each row's shell index
    calls = _recorded_enumerations(monkeypatch)
    with mock.patch.object(dioph, "_scan_pruned", wraps=dioph._scan_pruned) as pruned:
        certify_structural_subspaces(CUBIC, 1000)
    assert pruned.call_count == len(calls) == 4
    assert all(n > 1 and isinstance(shell, np.ndarray) for n, shell in calls)


def test_a_shell_beyond_the_block_is_enumerated_alone(monkeypatch):
    # a plane of exact zeros in d = 4: the first shell's box bound, 175 616,
    # exceeds the block, so it and each later shell go alone, without shell indices
    calls = _recorded_enumerations(monkeypatch)
    cert = diophantine_certificate([[1.0, 1.0, 0.0, 0.0]], 4, 30)
    assert (cert.points_scanned, cert.argmin, cert.passed) == (413347, (0, 0, 0, 1), False)
    forms = dioph._shell_forms([Fraction(1), Fraction(1), Fraction(0), Fraction(0)], 0,
                               1e-300, _seed_radius(4), 30)
    assert _box_bounds(forms)[0] > dioph._SCREEN_BLOCK
    assert calls == [(1, 0)] * len(calls) and len(calls) > 1


@pytest.mark.parametrize("dim, radius", [(1, 5000.0), (2, 300.0), (3, 45.5), (4, 19.0),
                                         (5, 10.0), (6, 6.5)])
def test_lattice_ball_norm_powers_are_the_row_sums(dim, radius):
    # each line's squared norm is its prefix's, its last coordinate reaches
    # isqrt(r_sq - ||p||^2), and its least norm power is raised from
    # max(||p||^2, 1) (y >= 1 on the zero prefix)
    pre, nsq, lo, hi, low_pow = _lattice_ball(dim, radius)
    r_sq = _radius_sq(radius)
    sums = [sum(int(x) ** 2 for x in p) for p in pre]
    assert nsq.tolist() == sums
    assert hi.tolist() == [math.isqrt(r_sq - n) for n in sums]
    assert lo[0] == 1 and (lo[1:] == -hi[1:]).all()
    assert low_pow.tobytes() == _ipow_half(np.maximum((pre * pre).sum(axis=1), 1.0), dim).tobytes()


def test_normalized_rows_are_divided_float_by_float():
    rng = np.random.default_rng(5)
    cases = [rng.normal(size=(3, 4)), np.array([[2.0, -2.0, 0.0, -0.0]]),
             np.array([[-0.0, 1e-300, -3.0, 3.0], [0.1, 0.2, 0.3, -0.3]])]
    for rows in cases:
        want = np.array(dioph_reference.normalize_rows(rows))
        assert dioph._normalize_rows(rows).tobytes() == want.tobytes()


def _scans(m, radius):
    """The report of one structural certify and the direction sets it scanned."""
    with mock.patch.object(dioph, "_scan_pruned", wraps=dioph._scan_pruned) as pruned, \
            mock.patch.object(dioph, "_scan_full", wraps=dioph._scan_full) as full:
        report = certify_structural_subspaces(m, radius)
    # every scan here is pruned, and each seeds itself with one full scan
    assert full.call_count == pruned.call_count
    sets = [(np.shape(c.args[0]), np.array(c.args[0], dtype=np.float64).tobytes())
            for c in pruned.call_args_list]
    return report, sets


@pytest.mark.parametrize("m, n_subspaces, n_scans", [
    (CAT, 6, 2), (CUBIC, 7, 4),
    (RationalMatrix.companion(IntPolynomial([1, 1, -4, 0, 1])), 8, 6),
], ids=["catmap", "cubic3", "quartic"])
def test_each_distinct_direction_set_is_scanned_once_per_call(m, n_subspaces, n_scans):
    report, sets = _scans(m, 1000)
    assert len(report) == n_subspaces
    assert len(sets) == len(set(sets)) == n_scans
    assert len({id(cert) for cert in report.values()}) == n_scans
    for cert in report.values():
        assert diophantine_certificate(cert.directions, cert.dim_ambient, cert.radius) == cert
    # nothing is kept across calls: a second call scans the same sets again
    again, sets_again = _scans(m, 1000)
    assert sets_again == sets and again == report


def test_last_bit_neighbours_are_scanned_apart():
    # block_min and w_minus are one set of rows on catmap; moved one ulp
    # apart by hand, they are two sets of bits and are scanned apart
    lo = dioph._normalize_rows(lyapunov_data(CAT).w_minus())
    nudged = lo.copy()
    nudged[0, 0] = np.nextafter(lo[0, 0], 0.0)
    with mock.patch.object(LyapunovSplitting, "w_minus", lambda self: lo.copy()), \
            mock.patch.object(LyapunovSplitting, "block_min", lambda self: nudged):
        report, sets = _scans(CAT, 1000)
    x, x_moved = report["w_minus"].directions[0][0], report["block_min"].directions[0][0]
    assert abs(x - x_moved) == math.ulp(x)
    assert report["block_min"] is not report["w_minus"]
    assert report["block_max"] is report["w_plus"]
    assert len(sets) == len(set(sets)) == 3


def test_signed_zeros_are_scanned_once():
    # on product-t2xt2 block_max is w_plus and block_min is w_minus; with the
    # signs of their zero entries flipped by hand they still normalize to the
    # same bits (the normalized rows carry no -0.0), so each pair is scanned once
    def flipped(rows):
        return np.where(rows == 0.0, -rows, rows)

    with mock.patch.object(LyapunovSplitting, "block_max", lambda self: flipped(self.w_plus())), \
            mock.patch.object(LyapunovSplitting, "block_min",
                              lambda self: flipped(self.w_minus())):
        report, sets = _scans(get_system("product-t2xt2").matrix, 200)
    assert report["w_plus"] is report["block_max"]
    assert report["w_minus"] is report["block_min"]
    assert len(sets) == len(set(sets)) == 2


# ---------------------------------------------------------------------------
# layer-lifted certificates
# ---------------------------------------------------------------------------

def test_type_i_center_line():
    heis = heisenberg_algebra()
    cert = type_i_subspace(heis, 2, [[0, 0, 1]], [[0, 0, 1]], 50)
    assert cert.passed and cert.c_emp == 1.0


def test_type_i_unstable_line():
    heis = heisenberg_algebra()
    cert = type_i_subspace(heis, 1, [[1.0, PHI_INV, 0.0]],
                           [[1, 0, 0], [0, 1, 0]], 1000)
    assert cert.passed
    assert cert.c_emp == pytest.approx(PHI_INV, rel=1e-9)


def test_type_i_resonant_slope_fails():
    heis = heisenberg_algebra()
    cert = type_i_subspace(heis, 1, [[1, 1, 0]], [[1, 0, 0], [0, 1, 0]], 30)
    assert not cert.passed and cert.c_emp == 0


def test_type_i_rejects_escaping_candidate():
    heis = heisenberg_algebra()
    with pytest.raises(ValueError):
        # candidate has a layer-1 component but claims layer 2
        type_i_subspace(heis, 2, [[1, 0, 1]], [[0, 0, 1]], 10)


def test_type_i_exact_coordinates_need_not_be_integers():
    heis = heisenberg_algebra()
    cert = type_i_subspace(heis, 1, [[1, 1, 0]], [[2, 0, 0], [0, 3, 0]], 30)
    assert cert.directions == [[Fraction(1, 2), Fraction(1, 3)]]
    assert all(type(x) is Fraction for x in cert.directions[0])


@pytest.mark.parametrize("candidate, ambient, message", [
    ([[1, 0, 0]], [[1, 0, 0], [2, 0, 0]], "ambient basis is degenerate"),
    ([[1, 1, 0]], [[1, 0, 0]], "not inside the ambient span"),
    # both at once: the degenerate ambient is named first
    ([[0, 1, 0]], [[1, 0, 0], [2, 0, 0]], "ambient basis is degenerate"),
    ([[1, 0, 0], [Fraction(1, 2), Fraction(1, 7), 0]], [[1, 0, 0]], "not inside the ambient span"),
])
def test_type_i_exact_refusals(candidate, ambient, message):
    with pytest.raises(ValueError, match=message):
        type_i_subspace(heisenberg_algebra(), 1, candidate, ambient, 10)


@pytest.mark.parametrize("layer", [0, -1, 3])
def test_type_i_refuses_a_layer_outside_the_algebra(layer):
    # layer 0 would wrap round to the last layer and certify the centre line
    with pytest.raises(ValueError, match=r"layer .* is not in 1\.\.2"):
        type_i_subspace(heisenberg_algebra(), layer, [[0, 0, 1]], [[0, 0, 1]], 50)
