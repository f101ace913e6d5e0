"""Byte pins of the density command's outputs.

Each case runs one `density` through `cli.main` and compares the sha256 of
report.json and density.csv with a recorded digest.  The cases cover the
n = 2 difference-weighted count (rank 1 and rank 2, the thick count
included), the n = 3 direct enumeration, a sweep of delta(eps), the vacuous
eps = 1 and an n = 4 case whose directions live in dimension 8.  The
configs keep their `samples` key and a `--seed`, which the command accepts,
checks and records (report.json embeds both) while delta(eps) is in closed
form.  A change to how lattice points are counted or how delta(eps) is
found must leave these bytes alone.
"""

import hashlib
import json

import pytest

from nilmix.cli import main

_CASES = {
    "catmap-n2-R200": ({"system": "catmap", "n": 2, "radius": 200,
                        "samples": 200_000}, 101),
    "catmap-eps0.02": ({"system": "catmap", "n": 2, "radius": 50, "eps": 0.02,
                        "samples": 100_000}, 202),
    "catmap-eps0.1": ({"system": "catmap", "n": 2, "radius": 50, "eps": 0.1,
                       "samples": 100_000}, 202),
    "catmap-eps0.3": ({"system": "catmap", "n": 2, "radius": 50, "eps": 0.3,
                       "samples": 100_000}, 202),
    "cubic-rank2-R50": ({"system": "cubic-rank2", "n": 2, "radius": 50,
                         "samples": 100_000}, 303),
    "cubic-rank2-R100": ({"system": "cubic-rank2", "n": 2, "radius": 100,
                          "samples": 100_000}, 304),
    "product-t2xt2-R25": ({"system": "product-t2xt2", "n": 2, "radius": 25,
                           "samples": 100_000}, 405),
    "catmap-n3-R6": ({"system": "catmap", "n": 3, "radius": 6, "samples": 50_000}, 506),
    "catmap-n3-R12": ({"system": "catmap", "n": 3, "radius": 12, "samples": 50_000}, 512),
    "cubic-rank2-eps1": ({"system": "cubic-rank2", "n": 2, "radius": 40, "eps": 1.0,
                          "samples": 1000}, 607),
    # dim_total 8: numpy's row norm sums pairwise from 8 terms on
    "cubic-rank2-n4-R3": ({"system": "cubic-rank2", "n": 4, "radius": 3, "eps": 0.05,
                           "samples": 50_000}, 9),
}

_DIGESTS = {
    'catmap-eps0.02': {
        'density.csv':
            '292a1dfac227f6e39095e6ab8dac91ea4c376e26eabbe11210d4e7617ac0f6e8',
        'report.json':
            '17d520075df73209cc75d97fa8d64c9d76e008719d7e275bb05d7de34fef3832',
    },
    'catmap-eps0.1': {
        'density.csv':
            '93c0a776db3333d36b952898c21480c37ecb0273ff96a5ae50294023e56e085e',
        'report.json':
            '95a3cf8bb598af7e865fd5e820861e6c37f75b75ed7c878a93c30565e049cb11',
    },
    'catmap-eps0.3': {
        'density.csv':
            'fa221bfcaf608f8c281342c9e0ad0e59c2b41f0805f55d851106b82e5d9d73d6',
        'report.json':
            'c99deec23237453edbc850d4d36afb0f417517bcc736e659bd8ca5bb32993dc9',
    },
    'catmap-n2-R200': {
        'density.csv':
            'e2f4c4dd0e1a05dc3937a28e25dc2e3b1742ed45cfc0507e8d3767c4d9ec5f2d',
        'report.json':
            '5a1dd1f7881246f3fb6ec92c256a2f8f2dee46a195c271ec34c594905be3087a',
    },
    'catmap-n3-R12': {
        'density.csv':
            '70f2de2cdd8af0ee9c006e9d3800870762cd3b6a1144cbf2f6a85af38b5051c0',
        'report.json':
            '3c3300399e330a487022114158c93456d49818bfccb33aae70e704bc1173102f',
    },
    'catmap-n3-R6': {
        'density.csv':
            'a7f5702e867089025385fe83f5ceee5cf2dc835de01e0aae39d5b2982f113f69',
        'report.json':
            'fe4396af2eca22d85ed9c43568458fb6458c12db85b98db45a7c4d01fcaf0604',
    },
    'cubic-rank2-R100': {
        'density.csv':
            '0a221a41204ab52573c38eb5d2e840e4b06ee4df55741b17d54c1657e414ed6b',
        'report.json':
            'c0f4767352c1cc6335d8e709be3adcac40f8c00a64f7c0c58cce4604c3c4414d',
    },
    'cubic-rank2-R50': {
        'density.csv':
            '654d9531bc68bf26fed1db563a3cf9c791accb00e0014e23e136d951adb08b45',
        'report.json':
            '714bc274c3295839e5db9063ea8d034df7278b0ab74c66840f9b5fc47f60ced9',
    },
    'cubic-rank2-eps1': {
        'density.csv':
            'bc32d123e64d5dd374a8112c9ff25f0633fc106b8d5dbef3c17e84a206bfc493',
        'report.json':
            '9fad99b879ba1376f888801c6e4f109c938f4fb567cdfa49ad73a5d27f9f6e14',
    },
    'cubic-rank2-n4-R3': {
        'density.csv':
            'c592c93df3e0a24637b32024a0893ded39385ebff8970267c09b81413056361d',
        'report.json':
            '4cbc26297fa7c065249726e559cde661797dd070f5574eac89d464bfa18be6e7',
    },
    'product-t2xt2-R25': {
        'density.csv':
            '03b7fe375de4eeb61d2842fab449a20f5f18d1ac2ca4ea4b1df41279a867fc91',
        'report.json':
            'c985ca4b7cc523539bccee20220a671e15f2316835fd252bd873b2a9650d132c',
    },
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_density_outputs_are_pinned(tmp_path, name):
    cfg, seed = _CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["density", "--config", str(path), "--out", str(out),
                 "--seed", str(seed)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == _DIGESTS[name]
