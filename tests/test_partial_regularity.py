"""Order-two decay under partial regularity on the cat map.

The paper's first consequence: order-two correlations decay exponentially
for observables that are regular along the stable or unstable direction
only, with no transverse derivatives.  Here f_k = (1 + (k.e_s)^2)^(-s/2)
is regular of order s along the stable direction e_s alone, and
g_k = (1 + (k.e_u)^2)^(-s/2) along the unstable direction e_u alone; both
are cut to the box |k|_inf <= 200 without the mean.  Then <f o A^n, g>
decays at the rate s lambda, lambda = 2 log phi the top Lyapunov exponent.

f's coefficients do not decay along e_u, so its l2 norm grows with the box
and the radius is pinned.  The window of n ends before the truncation shows
in the log-ratios: the next one, from n = 7 to 8, overshoots s lambda by
10 % at s = 2.
"""

import math

import numpy as np
import pytest

from nilmix.catalog import CAT
from nilmix.correlate import correlation2
from nilmix.exactlin import lyapunov_data
from nilmix.fourier import FourierObservable

from conftest import CHI_CAT

_R = 200
_WINDOW = range(8)          # n = 0, ..., 7


@pytest.fixture(scope="module")
def box():
    modes = [(a, b) for a in range(-_R, _R + 1) for b in range(-_R, _R + 1) if a or b]
    split = lyapunov_data(CAT)
    return modes, np.array(modes, dtype=float), split.w_minus()[0], split.w_plus()[0]


def _regular_along(box, e, s) -> FourierObservable:
    """(1 + (k.e)^2)^(-s/2) on the box: regular of order s along e only."""
    modes, points, _, _ = box
    return FourierObservable(2, dict(zip(modes, ((1 + (points @ e) ** 2) ** (-s / 2)).tolist())))


@pytest.mark.parametrize("s", [2, 3, 4])
def test_decay_along_the_stable_and_unstable_directions(box, s):
    _, _, e_s, e_u = box
    f, g = _regular_along(box, e_s, s), _regular_along(box, e_u, s)
    values = [abs(complex(correlation2(f, g, CAT, n))) for n in _WINDOW]
    ratios = [math.log(a / b) for a, b in zip(values, values[1:])]
    # the log-ratios rise toward s lambda and end within 10 % of it
    assert ratios == sorted(ratios) and ratios[0] > 0
    assert abs(ratios[-1] - s * CHI_CAT) <= 0.1 * s * CHI_CAT, ratios

    # the swapped pairing, f along e_u and g along e_s, does not decay
    swapped = [abs(complex(correlation2(g, f, CAT, n))) for n in range(5)]
    assert all(v > swapped[0] for v in swapped[1:]), swapped
