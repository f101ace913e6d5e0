"""The directional margins of lattice points in `rates.density_estimate`.

The n >= 3 thick count reduces the lattice directions in blocks of
`rates._MARGIN_BLOCK` rows; these tests hold the blocked pass to the
whole-array pass it replaced (`density_reference`), bit for bit.
"""

import numpy as np
import pytest

from nilmix import rates
from nilmix.dioph import _half_ball

from density_reference import whole_array_directions

_BLOCK = rates._MARGIN_BLOCK


def _unit_rows(seed: int, count: int, dim: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("dim, r_sq", [(2, 20_000), (4, 100), (6, 25), (8, 12)])
def test_lattice_directions_are_the_whole_array_pass(dim, r_sq):
    # more points than one block; dim 8 is where numpy's row sum turns pairwise
    points = _half_ball(dim, r_sq, np.int64)[0][1:]
    assert len(points) > _BLOCK
    normals = _unit_rows(dim, 3 * dim, dim)
    got = rates._unit_margins(lambda start, stop: points[start:stop].astype(float),
                              len(points), normals)
    assert got.tobytes() == whole_array_directions(points, normals).tobytes()
