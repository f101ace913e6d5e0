"""Byte pins of the mixing commands' outputs.

Each case runs one `solve`, `correlate`, `counterexample` or `threshold`
through `cli.main` on small seeded observables or profiles made here, and
compares the sha256 of every file it writes (report.json and the CSV
table) with a recorded digest.  Observables are given inline or, in the
`-file` cases, as paths to JSON files; one more test runs two calls in a
row on one observable file.  A change to how observables are read, stored
or solved, or to how threshold profiles are evaluated, must leave these
bytes alone.
"""

import hashlib
import itertools
import json
import math
import random
import warnings

import pytest

from nilmix.cli import main

from conftest import PHI_INV


def _observable(seed: int, dim: int, radius: int, mean: bool = False) -> dict:
    """Random complex coefficients decaying like e^{-0.4 |z|} on a box, with
    some signed-zero components; the zero mode only when asked for."""
    rng = random.Random(seed)
    entries = []
    for z in itertools.product(range(-radius, radius + 1), repeat=dim):
        if (not any(z) and not mean) or rng.random() < 0.3:
            continue
        amp = math.exp(-0.4 * math.sqrt(sum(x * x for x in z)))
        re, im = rng.uniform(-1, 1) * amp, rng.uniform(-1, 1) * amp
        roll = rng.random()
        if roll < 0.1:
            re = -0.0
        elif roll < 0.2:
            im = -0.0
        entries.append({"z": list(z), "re": re, "im": im})
    return {"dim": dim, "coeffs": entries}


def _profile_csv() -> str:
    """Samples of (1 - x^2)(x + 2) on x = k/20, k = -20..20, by float products only."""
    xs = [k / 20 for k in range(-20, 21)]
    return "".join(f"{x!r},{(1 - x * x) * (x + 2)!r}\n" for x in xs)


def _observable_file(seed: int, dim: int, radius: int) -> str:
    return json.dumps(_observable(seed, dim, radius))


# files written into the working directory before a case runs
_FILES = {
    "threshold-profile-csv": {"profile.csv": _profile_csv()},
    "solve-file": {"f.json": _observable_file(12, 2, 5)},
    "correlate-powers-files": {"f.json": _observable_file(13, 2, 4),
                               "g.json": _observable_file(14, 2, 4)},
}

_CASES = {
    "solve-modulus-system": ("solve", {
        "system": "catmap", "observable": _observable(1, 2, 4), "r": 0.5}),
    "solve-modulus-two-directions": ("solve", {
        "observable": _observable(2, 2, 5), "r": 0.5,
        "directions": [[1.0, PHI_INV], [0.3, -1.1]]}),
    "solve-file": ("solve", {"system": "catmap", "observable": "f.json", "r": 0.75}),
    "correlate-powers-files": ("correlate", {
        "system": "catmap", "observables": ["f.json", "g.json"], "powers": [0, 1, 2, 3]}),
    "solve-signed": ("solve", {
        "observable": _observable(3, 2, 4, mean=True), "r": 2, "mode": "signed",
        "directions": [[1.0, PHI_INV]]}),
    "correlate-powers": ("correlate", {
        "system": "catmap", "observables": [_observable(4, 2, 4), _observable(5, 2, 4)],
        "powers": [0, 1, 2, 3, 4, 5]}),
    "correlate-times": ("correlate", {
        "system": "catmap",
        "observables": [_observable(6, 2, 2), _observable(7, 2, 2, mean=True),
                        _observable(8, 2, 2)],
        "times": [[[0], [1], [2]], [[0], [2], [3]], [[1], [1], [0]], [[0], [0], [0]]]}),
    "counterexample-max-gap": ("counterexample", {
        "kind": "max-gap", "system": "catmap", "observable": _observable(9, 2, 2),
        "observable2": _observable(10, 2, 2, mean=True), "n": 2,
        "powers": [1, 2, 3, 4, 5]}),
    "counterexample-max-gap-exact": ("counterexample", {
        "kind": "max-gap", "powers": [1, 2, 3, 4, 5, 6]}),
    "counterexample-no-uniform-bound": ("counterexample", {
        "kind": "no-uniform-bound", "system": "product-t2xt2",
        "observable": _observable(11, 2, 3), "powers": [1, 2, 3, 4]}),
    "threshold-one": ("threshold", {"profile": "one"}),
    "threshold-square": ("threshold", {"profile": "square"}),
    "threshold-bump": ("threshold", {"profile": "bump"}),
    "threshold-cutoffs": ("threshold", {"profile": "bump", "cutoffs": [1e-4, 0.3, 1e-4, 0.5]}),
    "threshold-profile-csv": ("threshold", {"profile_csv": "profile.csv"}),
}

_DIGESTS = {
    'correlate-powers': {
        'correlations.csv':
            'e0249c20d49a3ac3d0c6207c5b663730c1e23e99de78d274d8345cec8267c127',
        'report.json':
            'c88453e68a5a9b6d39e6edc21def600f0854e920811efb602b23a2e72caa3e1f',
    },
    'correlate-powers-files': {
        'correlations.csv':
            '6522c1010f865b39235d8ce4d8281fc6defd3393732e43d4602439cc81ceb2da',
        'report.json':
            '2a22eab4c72877c2412f46a60494def2195a2f5a7d8fad6039ea40d053935507',
    },
    'correlate-times': {
        'correlations.csv':
            'dc28d209c97cca199678bd4a6059b020ed03242e38e094bb00f877ee754baf38',
        'report.json':
            '528e1873643056e1b59778b801901ea57cb0e24e265bef7c786caae2152df1a8',
    },
    'counterexample-max-gap': {
        'counterexample.csv':
            '8fca6d4070629c2e2774c70f8e4477008f22859f5b3948123f2cfafdde33aa09',
        'report.json':
            '1cae9980aadf10b9f9fb3f96b8977ce34f0e8bba24d385dc3bc7dbee7cfe0f9c',
    },
    'counterexample-max-gap-exact': {
        'counterexample.csv':
            '7dd4c7e4530adbecc81396dbbf29fc46829498ee7ae7378b3b2edf9bb84af601',
        'report.json':
            '3f41f7312a0949e5e0f4be79dacfb9ccdd283bdd99762fd51320b5690a5a14f5',
    },
    'counterexample-no-uniform-bound': {
        'counterexample.csv':
            '3460f3f822613bb2e1f4592b503e871ddd5c5169247b91d08e8d349eec742e9f',
        'report.json':
            '6d7932f17840440a1ae79423f10e53ae57cdd9eff5bd37916a4a92cd63fa9c4e',
    },
    'solve-file': {
        'report.json':
            '05f7e4a018e5378b22e6dfeb7a72326cc046d7e4b7c488c94f1aed02f93e58ec',
        'solution.csv':
            '3030825eb220c4c1a2bad23955f99cd46f751090393e4916cb9c92785abf8d1d',
    },
    'solve-modulus-system': {
        'report.json':
            'ba02bf5205f5f4d6a8444a8b904f4f6697a925ded52304ae296c51898b0582c5',
        'solution.csv':
            '64b19b9679adc77ac07eefe676a57b78c170536d7516f9efee5d25387bd8de4a',
    },
    'solve-modulus-two-directions': {
        'report.json':
            '4c488473115333ecb3cb5d8c139ae56f3a2f83edfa41bbb908c063a5702d9016',
        'solution.csv':
            'e880f38324c9ac30a6e7a62d649fe81bffe5ba30a3606f11db359bb79a5078fb',
    },
    'solve-signed': {
        'report.json':
            '26de269ddba659e4087b699f905ce37550a96bfd5e764c5b107e3f9af57e46a3',
        'solution.csv':
            '5f0e84ef12c2d72240b0072bed751e047742b066de0f4d4d5ae9c893035d9c88',
    },
    'threshold-bump': {
        'report.json':
            '2de82c4d2efa2e14f097ac3d5ce54a45d83a6640d31d1ff85300134b25c99f94',
        'threshold.csv':
            '88501a1157ed5b252d3f2b44cd8d84800a6a7bf1f4c7477b9979c7bd595c456c',
    },
    'threshold-cutoffs': {
        'report.json':
            'd882eaa68177db2ea09f3d1410fa0f845df9b46a84c569cecf072d7f6550c55a',
        'threshold.csv':
            '740992b7c662b140f40308dd70e934ac5c8e49068047dd25c95ab4f86ab5080a',
    },
    'threshold-one': {
        'report.json':
            'e7339135e5fbbd85ba5bf3c36f064ec8d927a8d74321e4dc0224ed32493b4c89',
        'threshold.csv':
            '7dbf12c23a4325c9d5bb0315db67190adb0ee66e2a6c092596bc76de95c7995a',
    },
    'threshold-profile-csv': {
        'report.json':
            'a85dc4943b1fe68599d48ad7393a7f3f52d7e85675f832d4784ff9fdbe516de3',
        'threshold.csv':
            'db54f400eb2373c9f5ec11da598a7fc7a8fbd1e5e936ac6ff89bb8395cd78f51',
    },
    'threshold-square': {
        'report.json':
            'e4996ac25fd0e1186b9dd490e92a7e53bf30c44b48a29f6a07007f811e09c760',
        'threshold.csv':
            '240ad7fac64829c6d93ca4f7dd1ca673b4fbbfc9e1846704cd53a2149fca53b2',
    },
}

_CONSECUTIVE_DIGESTS = (
    {'report.json': '73f7a5d7a58fcf7380188196e15a130a828a6b501a7180790b69e52475c6d40e',
     'solution.csv': 'c1f089bc4fbbf5f1289b39c6a20e4a3ad93a7332a1788c700d5a1402c00ba3d2'},
    {'correlations.csv': '35a10e38710765eea4d0f1c3b3bb72720a817cae3ab57241e10dc1d81a16789e',
     'report.json': 'e06b010b298e0507e4e70deda4d266463c6ca38d74060876d834f9cdcdca926a'},
)


def _digests(tmp_path, command: str, cfg: dict, out: str) -> dict:
    """Run one command on cfg and return the sha256 of each file it writes."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # solve-signed drops a mean
        assert main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / out).iterdir())}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_mixing_outputs_are_pinned(tmp_path, monkeypatch, name):
    command, cfg = _CASES[name]
    monkeypatch.chdir(tmp_path)                  # files are named by relative paths
    for fname, text in _FILES.get(name, {}).items():
        (tmp_path / fname).write_text(text)
    assert _digests(tmp_path, command, cfg, "out") == _DIGESTS[name]


def test_one_observable_file_in_consecutive_calls(tmp_path, monkeypatch):
    # the second call reads the file the first call read: its bytes are pinned too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.json").write_text(_observable_file(15, 2, 4))
    solve = _digests(tmp_path, "solve", {
        "observable": "h.json", "r": 0.5, "directions": [[1.0, PHI_INV]]}, "out-solve")
    correlate = _digests(tmp_path, "correlate", {
        "system": "catmap", "observables": ["h.json", "h.json"], "powers": [0, 1, 2]},
        "out-correlate")
    assert (solve, correlate) == _CONSECUTIVE_DIGESTS
