"""delta(eps) of `rates.density_estimate` in closed form.

One slab {|<u, v>| < x} of the unit sphere of R^D has measure
I_(x^2)(1/2, (D - 1)/2) (u_1^2 of a uniform u is Beta(1/2, (D - 1)/2)).
`rates._admissible_delta` reports the largest delta on the 2^-48 grid with
K I_((delta / ||v||)^2) <= eps, for K bad normals distinct up to sign: the
union of K slabs measures at most K times one.  These tests hold it to
mpmath's `betainc` at 110 digits, and to an independent Monte Carlo draw.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nilmix import rates
from nilmix.catalog import CAT, get_system, system_names
from nilmix.nilalg import lyapunov_functionals
from nilmix.rates import density_estimate

_STEP = Fraction(1, 2 ** 48)


def _normals(system: str, n: int) -> np.ndarray:
    gens = list(get_system(system).generators)
    funcs = [f for f in lyapunov_functionals(gens) if not f.is_zero()]
    return np.array(rates._hyperplane_normals(funcs, n)).reshape(-1, n * len(gens))


def _distinct(normals: np.ndarray) -> list:
    """The rows up to sign, each made first-nonzero-positive, as tuples of
    Fractions."""
    rows = set()
    for row in normals.tolist():
        sign = next((1 if x > 0 else -1 for x in row if x != 0), 1)
        rows.add(tuple(Fraction(sign * x) for x in row))
    return sorted(rows)


def _measure(dim: int, x) -> mpmath.mpf:
    """I_(x^2)(1/2, (dim - 1)/2): one slab of half-width x on the sphere of
    R^dim."""
    return mpmath.betainc(mpmath.mpf(1) / 2, mpmath.mpf(dim - 1) / 2, 0, x * x,
                          regularized=True)


_SLAB_COUNTS = {("catmap", 2): 1, ("catmap", 3): 3, ("catmap", 4): 6,
                ("product-t2xt2", 2): 2, ("cubic-rank2", 2): 3}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("system", system_names())
def test_delta_is_the_betainc_bound_on_the_grid(system, n):
    normals = _normals(system, n)
    rows = _distinct(normals)
    count, dim = len(rows), normals.shape[1]
    assert count == _SLAB_COUNTS.get((system, n), count)
    assert len(normals) == count            # each normal is emitted once up to sign
    if not rows:                            # nothing is bad: the top of the grid
        assert rates._admissible_delta(normals, 0.05) == 1 - 2.0 ** -48
        return
    with mpmath.workdps(110):
        norm_sq = min(sum(x * x for x in r) for r in rows)
        norm = mpmath.sqrt(mpmath.mpf(norm_sq.numerator) / norm_sq.denominator)
        for eps in (0.01, 0.05, 0.3, 0.999):
            delta = rates._admissible_delta(normals, eps)
            assert Fraction(delta) % _STEP == 0 and 0 < delta < 1
            low = count * _measure(dim, mpmath.mpf(delta) / norm)
            high = count * _measure(dim, (mpmath.mpf(delta) + mpmath.mpf(2) ** -48) / norm)
            assert low <= eps < high, (eps, delta)
            if count == 1:
                # the inverse of the one slab's measure, rounded down to the grid
                x = mpmath.findroot(lambda t: _measure(dim, t) - eps, (0, 1), solver="anderson")
                assert delta == mpmath.floor(x * norm * 2 ** 48) / 2 ** 48


@pytest.mark.parametrize("system, radius", [("catmap", 50), ("cubic-rank2", 25)])
def test_eps_zero_gives_delta_zero(system, radius):
    # every slab of positive width has positive measure, so only delta = 0
    # keeps the bad neighbourhood's measure at 0; every nonzero point is thick
    rep = density_estimate(list(get_system(system).generators), 2, radius, 0.0)
    assert rep.delta == 0.0
    assert rep.thick_fraction == (rep.total_points - 1) / rep.total_points


def test_catmap_delta_is_the_arcsine_inverse():
    # one normal (1, -1)/sqrt(2) in R^2: the slab measures (2/pi) arcsin delta,
    # so delta(eps) = sin(pi eps / 2), rounded down to the grid
    bound = math.sin(math.pi * 0.02 / 2)
    assert round(bound, 7) == 0.0314108
    delta = density_estimate([CAT], 2, 50, 0.02).delta
    assert bound - 2.0 ** -47 < delta <= bound


# (system, n, eps): K = 1, 1, 2, 3, 3 and 18 slabs in R^2, R^2, R^4, R^4, R^3, R^8
_DRAWN = [("catmap", 2, 0.02), ("catmap", 2, 0.3), ("product-t2xt2", 2, 0.05),
          ("cubic-rank2", 2, 0.05), ("catmap", 3, 0.1), ("cubic-rank2", 4, 0.05)]


@pytest.mark.parametrize("system, n, eps", _DRAWN)
def test_drawn_directions_respect_the_reported_delta(system, n, eps):
    # one explicit draw of 2 * 10^5 uniform directions: the share within
    # delta of some bad hyperplane is at most eps plus three standard errors,
    # and at least what the widest single slab holds
    normals = _normals(system, n)
    delta = rates._admissible_delta(normals, eps)
    draws = 200_000
    u = np.random.default_rng(20_240_601).standard_normal((draws, normals.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    share = float(np.mean(np.abs(u @ normals.T).min(axis=1) < delta))
    error = 3 * math.sqrt(eps * (1 - eps) / draws)
    count = len(_distinct(normals))
    assert eps / count - error <= share <= eps + error, (share, delta)
    if count == 1:
        assert abs(share - eps) <= error
