"""Byte pins of `certify` on the pruned scan engine.

The certify pins in `test_spectral_pins.py` run at radius 30, where every
ball is scanned in full.  These run where the pruned engine decides the
minimum (seed scan, LLL-reduced shell forms, enumeration): the structural
subspaces at the default radius 1000 of one-, two- and four-dimensional
blocks, two nilpotent systems at radius 200, and the golden direction
at radius 1e4.  Each compares the sha256 of `report.json` and
`certificates.csv` with a recorded digest.
"""

import pytest

from conftest import PHI_INV
from test_spectral_pins import _companion, _inline, _run

_CASES = {
    "certify-catmap-R1000": {"system": "catmap"},
    "certify-cubic3-R1000": {"system": "cubic3"},
    "certify-cubic-rank2-R1000": {"system": "cubic-rank2"},
    # x^4 - 4x^2 + x + 1: one irreducible four-dimensional block
    "certify-quartic-R1000": _inline(_companion([1, 1, -4, 0, 1]), "quartic"),
    "certify-heisenberg-cat-R200": {"system": "heisenberg-cat", "radius": 200},
    "certify-product-t2xt2-R200": {"system": "product-t2xt2", "radius": 200},
    "certify-golden-R10000": {"directions": [[1.0, PHI_INV]], "dim_ambient": 2,
                              "radius": 1e4},
}

_DIGESTS = {
    "certify-catmap-R1000": {
        "certificates.csv":
            "0bd96f791f04c7df674fd1fc8143ef956bb97f4645069948a422751bab25e834",
        "report.json":
            "6ed62d02a3f9b56289bd0edd216c523b9191ee48bd152f5bf79212c10dbae9fa",
    },
    "certify-cubic3-R1000": {
        "certificates.csv":
            "8f1cb177cab4c5da9a43a55a6a72756974c2957f5643bd0c7683cbab54aca6c1",
        "report.json":
            "c055cd7b0e8a11f5e21839ceb2ca62d03d08ccd9ce474e95ee46b6f950f8bd55",
    },
    "certify-cubic-rank2-R1000": {
        "certificates.csv":
            "8f1cb177cab4c5da9a43a55a6a72756974c2957f5643bd0c7683cbab54aca6c1",
        "report.json":
            "6610b1deb3759e659e72b6243bf2d2bc6ee484e883fb04f820f5ebefa0663a3a",
    },
    "certify-quartic-R1000": {
        "certificates.csv":
            "1ebee1298eb81515f71f5c2b96b426857d4f1aa1add08fbe4f5584f8de532b4b",
        "report.json":
            "d5b9ccdfae475962f4974aaac38641be77156a1a2389b27fb19a0dd121aeca04",
    },
    "certify-heisenberg-cat-R200": {
        "certificates.csv":
            "a2451c270249c9fad8fe6e82b36eb8008cab066d31604856e5c2967ca9e85ef7",
        "report.json":
            "2f5fdb418e16fcda73ed18d51dc4bfa250344b12ddd07f36e46811f87c719336",
    },
    "certify-product-t2xt2-R200": {
        "certificates.csv":
            "de3e35f0787377473f01290001bde511e139c1466fb9c5463de0c2c64bd56276",
        "report.json":
            "8f90d346850d58979ed4dad5739bfffabcfa2955eb00126216e5a548434164e0",
    },
    "certify-golden-R10000": {
        "certificates.csv":
            "57370988113bea54f66d272df60d79aa090f80fe1f1b0a17d0ad4a2bcccbd739",
        "report.json":
            "0ab2b5aa5bc9de1d3925cc0ff7dd6e03c157e20daf7c6ca046436acda1446d4f",
    },
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_pruned_certify_outputs_are_pinned(tmp_path, capsys, name):
    assert _run(tmp_path, capsys, "certify", _CASES[name]) == _DIGESTS[name]
