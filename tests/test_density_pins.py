"""Byte pins of the density command's outputs.

Each case runs one `density` through `cli.main` with a fixed Monte Carlo
seed and compares the sha256 of report.json and density.csv with a recorded
digest.  The cases cover the n = 2 difference-weighted count (rank 1 and
rank 2, the thick count included), the n = 3 direct enumeration, a sweep of
delta(eps) over one seed, the vacuous eps = 1 and an n = 4 case whose
Monte Carlo directions live in dimension 8.  A change to how lattice
points are counted or how delta(eps) is found must leave these bytes alone.
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
            '13ab0b486ec9541f2e1fd48724426606d98cb2c92029687df9c0024fe978f36b',
        'report.json':
            '7b86c6a3bfa3469613a3081ebe8038549041da996f99f6de02e1546d80f7e20c',
    },
    'catmap-eps0.1': {
        'density.csv':
            '3573de9b2392397f253fac877ca61c270df41ef1eeaa806ea9a54849e39677b0',
        'report.json':
            '959fdba3bebfe16533e246471bd7703a5c163d1d7ca0f3b80426701ed21833be',
    },
    'catmap-eps0.3': {
        'density.csv':
            '36badfc4f1d102fba741f34f8d4ff69221f9ca0a12c771ff72d5d12d5b88c485',
        'report.json':
            '516e064a76dd157c9797c34c23f74323927714399daa8b6c86241264d34d9396',
    },
    'catmap-n2-R200': {
        'density.csv':
            'f51377ff49dc10af613190b86e359ed1c390e9e2ebd56aa542e0f590e03534c2',
        'report.json':
            '19bf06a6a15ab6e1ffa3aa7294d8170059af79f8c981541641d859a1d8b055d5',
    },
    'catmap-n3-R12': {
        'density.csv':
            '5bf7b0f229b3455c3bde0da2c98468b7f0dea75cca72b8bead5510191a0ea371',
        'report.json':
            '4c13d68e2a7c6032a7ea19e2afbe5400e7119d1516a9ec10166d2c0f7f04c777',
    },
    'catmap-n3-R6': {
        'density.csv':
            '511b97185942c81feb0bd132b8231443c7ddb47601e951782b7a23b48ac94644',
        'report.json':
            '80b7af100876701aeeb48a64f611cdc31686e42a2328b27caf0ce3808b34fa5e',
    },
    'cubic-rank2-R100': {
        'density.csv':
            'a98816f8da563afa83a78f0f70e3c688a327c3a6826f6ee0499e15d952a3711b',
        'report.json':
            '5deaa75c36c8f12796c8b6954388b97ad24bf5209b234976a4dc53248b92b557',
    },
    'cubic-rank2-R50': {
        'density.csv':
            '6547945d1a8ca54396500e90bdd411fe1baaa6ca07668990b6cbccc2d19d0ead',
        'report.json':
            'ade3b69300f03d3d08746ee11a0be2142065e4a97130e3e640fece0d0aa0bce4',
    },
    'cubic-rank2-eps1': {
        'density.csv':
            'bc32d123e64d5dd374a8112c9ff25f0633fc106b8d5dbef3c17e84a206bfc493',
        'report.json':
            '9fad99b879ba1376f888801c6e4f109c938f4fb567cdfa49ad73a5d27f9f6e14',
    },
    'cubic-rank2-n4-R3': {
        'density.csv':
            'd46a37d982e0297933724999421283fc6801a312edc3c16e7202d1929249de1b',
        'report.json':
            'b9c145d81ede106f586fcc5aeac54f4e898788dcd07d649766aa32361bd17540',
    },
    'product-t2xt2-R25': {
        'density.csv':
            'f67e56f6a8c0f1f28e2ce93de74748b8770a6624a5d129bda4e7a0efae95be94',
        'report.json':
            '2780e69aa81fb1b39738e086785c44068cf7d391e50888b54959dbba10f33767',
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
