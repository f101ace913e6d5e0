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
            "59471e71fd35ad28593ff01d977871eca24a8f5baabe23fa076c299890ba1320",
        "report.json":
            "25691fadb300257a3bf1dcaa28c18113d1206b20688b8649ee87c665f16d0511",
    },
    "certify-cubic3-R1000": {
        "certificates.csv":
            "79664953a2745bf35511cd83524c3c180c3c8e572854adb2e17aac18da790ca0",
        "report.json":
            "e00890f06965a3d39f224b94f86b3931527dafc06ec2e02af4ab0f0c19f109d7",
    },
    "certify-cubic-rank2-R1000": {
        "certificates.csv":
            "79664953a2745bf35511cd83524c3c180c3c8e572854adb2e17aac18da790ca0",
        "report.json":
            "0de0bd1572b4878d212fe48d0cc4542e71b21690002f056b828250610c3d9ffe",
    },
    "certify-quartic-R1000": {
        "certificates.csv":
            "37bbf5afde6700afc6ac98f716b49dc30f3b7f59f36729ac31189317844cc4ac",
        "report.json":
            "7e0080e3cacb6d9bfe43acc73c7ceeb3b7856daa99684f2d84d62c9db9b14b5e",
    },
    "certify-heisenberg-cat-R200": {
        "certificates.csv":
            "6939a8eb472d81759513e38f554fd622808f87ffac66b4bbbebb05e04b84bf92",
        "report.json":
            "d0f98dc42e4e27c03d782f841ce3a479147acbfdb0b54adf7fd1ead735862534",
    },
    "certify-product-t2xt2-R200": {
        "certificates.csv":
            "235a3c56cc8d6f5e0903177a6043ed0ace8ec53c3534154834eeff532e207b2b",
        "report.json":
            "751395399e3f7a648cd4a30441b4d1b2160e1f9fb6a6df9ef90d381a5f40f659",
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
