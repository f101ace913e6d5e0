"""The Monte Carlo margin table of `rates.density_estimate`.

The table is drawn and reduced in blocks of `rates._MARGIN_BLOCK` rows and
memoized per (int seed, samples, dim_total, normals); these tests hold it
to the whole-array pass it replaced (`density_reference`), bit for bit, and
check that a delta(eps) sweep over one seed draws its samples once.  A
worker thread draws the next block while this one is reduced: its errors
reach the caller, and it never outlives the call.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmix import rates
from nilmix.catalog import get_system
from nilmix.dioph import _half_ball
from nilmix.nilalg import lyapunov_functionals

from density_reference import whole_array_directions, whole_array_margins

_BLOCK = rates._MARGIN_BLOCK


def _unit_rows(seed: int, count: int, dim: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _table(seed, samples, dim_total, normals):
    return rates._margin_table.__wrapped__(seed, samples, dim_total, normals.tobytes(),
                                           normals.shape)


# samples below, at and just past the first few multiples of the block
_SAMPLES = st.one_of(
    st.integers(1, 3 * _BLOCK + 2),
    st.builds(lambda k, off: k * _BLOCK + off, st.integers(1, 3), st.integers(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), samples=_SAMPLES, dim_total=st.integers(1, 12),
       count=st.integers(0, 20), normal_seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_table_is_the_whole_array_pass(seed, samples, dim_total, count, normal_seed):
    normals = _unit_rows(normal_seed, count, dim_total)
    got = rates._sample_margins(seed, samples, dim_total, normals)
    want = whole_array_margins(seed, samples, dim_total, normals)
    assert got.dtype == np.float64 and got.shape == (samples,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1 << 12, 1 << 16])
def test_table_does_not_depend_on_the_block_size(monkeypatch, block):
    normals = _unit_rows(3, 12, 6)
    want = whole_array_margins(17, 300_001, 6, normals)
    monkeypatch.setattr(rates, "_MARGIN_BLOCK", block)
    assert _table(17, 300_001, 6, normals).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, r_sq", [(2, 20_000), (4, 100), (6, 25), (8, 12)])
def test_lattice_directions_are_the_whole_array_pass(dim, r_sq):
    # more points than one block; dim 8 is where numpy's row sum turns pairwise
    points = _half_ball(dim, r_sq, np.int64)[0][1:]
    assert len(points) > _BLOCK
    normals = _unit_rows(dim, 3 * dim, dim)
    got = rates._unit_margins(lambda start, stop: points[start:stop].astype(float),
                              len(points), normals)
    assert got.tobytes() == whole_array_directions(points, normals).tobytes()


def test_tables_drawn_on_many_threads_at_once_are_the_whole_array_pass(monkeypatch):
    # small blocks and a short switch interval make every hand-off between a
    # table's reducer and its drawing worker a chance for a race, and more
    # tables than cores are drawn at once: a block drawn into the buffer
    # still being reduced, or out of turn, moves the doubles
    monkeypatch.setattr(rates, "_MARGIN_BLOCK", 64)
    normals = _unit_rows(9, 10, 5)
    want = {seed: whole_array_margins(seed, 20_000, 5, normals).tobytes() for seed in range(6)}
    got = {}

    def run(seed):
        got[seed] = _table(seed, 20_000, 5, normals).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_table_is_read_only():
    normals = _unit_rows(5, 4, 4)
    for seed in (23, None):
        table = rates._sample_margins(seed, 1000, 4, normals)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


_REAL_DEFAULT_RNG = np.random.default_rng


class _CountingRng:
    """default_rng(seed) whose standard_normal counts the rows it draws."""

    rows = 0

    def __init__(self, seed):
        self._rng = _REAL_DEFAULT_RNG(seed)

    def standard_normal(self, size=None, out=None):
        _CountingRng.rows += len(out) if size is None else size[0]
        return self._rng.standard_normal(size, out=out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def drawn(monkeypatch):
    """The rows drawn from standard_normal so far, on an empty memo."""
    rates._margin_table.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", _CountingRng)
    _CountingRng.rows = 0
    yield lambda: _CountingRng.rows
    rates._margin_table.cache_clear()


def _density(system, n=2, eps=0.05, samples=20_000, seed=11):
    gens = list(get_system(system).generators)
    return rates.density_estimate(gens, n, 4, eps, samples=samples, seed=seed)


def test_an_eps_sweep_draws_its_samples_once(drawn):
    sweep = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
    deltas = [_density("catmap", eps=eps).delta for eps in sweep]
    assert drawn() == 20_000
    # the same doubles as one whole-array pass per eps
    gens = list(get_system("catmap").generators)
    funcs = [f for f in lyapunov_functionals(gens) if not f.is_zero()]
    normals = np.array(rates._hyperplane_normals(funcs, 2))
    margins = whole_array_margins(11, 20_000, 2, normals)
    assert deltas == [rates._margin_threshold(margins, eps) for eps in sweep]
    assert deltas == sorted(deltas)


@pytest.mark.parametrize("change", [
    {"seed": 12}, {"samples": 20_001}, {"n": 3}, {"system": "product-t2xt2"}])
def test_a_changed_key_draws_again(drawn, change):
    # cubic-rank2 and product-t2xt2 both sample the sphere of R^4 at n = 2,
    # against different normals
    base = {"system": "cubic-rank2", "n": 2, "samples": 20_000, "seed": 11}
    _density(**base)
    _density(**base, eps=0.1)
    assert drawn() == 20_000
    changed = {**base, **change}
    _density(**changed)
    assert drawn() == 20_000 + changed["samples"]


def test_seed_none_is_never_memoized(drawn):
    _density("catmap", seed=None)
    _density("catmap", seed=None)
    assert drawn() == 40_000
    assert rates._margin_table.cache_info().currsize == 0


def test_large_tables_are_not_memoized(drawn, monkeypatch):
    monkeypatch.setattr(rates, "_MEMO_SAMPLES", 1000)
    _density("catmap", samples=1001)
    _density("catmap", samples=1001)
    _density("catmap", samples=1000)
    _density("catmap", samples=1000)
    assert drawn() == 2 * 1001 + 1000
    assert rates._margin_table.cache_info().currsize == 1


def test_a_failed_draw_is_raised_and_leaves_no_thread(drawn, monkeypatch):
    err = MemoryError("the second block")

    class FailingRng(_CountingRng):
        def standard_normal(self, size=None, out=None):
            if drawn() == _BLOCK:
                raise err
            return super().standard_normal(size, out=out)

    threads = threading.active_count()
    monkeypatch.setattr(np.random, "default_rng", FailingRng)
    with pytest.raises(MemoryError) as info:
        _density("catmap", samples=3 * _BLOCK)
    assert info.value is err and drawn() == _BLOCK
    assert rates._margin_table.cache_info().currsize == 0
    assert threading.active_count() == threads
    monkeypatch.setattr(np.random, "default_rng", _CountingRng)
    _density("catmap", samples=3 * _BLOCK)
    assert drawn() == _BLOCK + 3 * _BLOCK
    assert rates._margin_table.cache_info().currsize == 1
    assert threading.active_count() == threads


def test_importing_the_cli_loads_no_thread_pool():
    # the prefetch imports its thread pool on first use, so start-up pays nothing
    script = ("import sys, nilmix.cli\n"
              "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
