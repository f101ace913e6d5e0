"""Byte pins of the spectral commands' outputs.

Each case runs one `analyze`, `rates` or `certify` through `cli.main` and
compares the sha256 of every file it writes (report.json and the CSV
table) with a recorded digest; a refused case pins its exit code and the
structured error it prints.  The inputs are the catalog systems and
integer conjugates of companion products chosen to reach every root
decision: conjugate pairs, a repeated factor, two factors related by
x -> -x (equal moduli across factors), Lehmer's polynomial (roots proven
on the unit circle) and equal moduli that no symmetry of one factor maps
to each other (golden against x^4 + 3x^2 + 1, proven on the squared-modulus
polynomial).  A change to how roots are isolated or classes merged must
leave these bytes alone, and every case answers at 128 bits.
"""

import hashlib
import json
import math
from unittest import mock

import mpmath
import pytest

from nilmix import exactlin
from nilmix.catalog import system_names
from nilmix.cli import main


def _companion(coeffs: list) -> list:
    """Companion matrix of a monic polynomial, ascending coefficients."""
    n = len(coeffs) - 1
    return [[int(i == j + 1) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)]


def _block_diag(*blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def _matmul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _conjugate(m: list, p: list, p_inv: list) -> list:
    return _matmul(_matmul(p, m), p_inv)


def _inline(m: list, name: str) -> dict:
    return {"system": {"name": name, "dim": len(m), "generators": [m]}}


# unimodular P = [[1,1,0,0],[0,1,1,0],[0,0,1,1],[1,0,0,2]] and its inverse
_P4 = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]
_P4_INV = [[2, -2, 2, -1], [-1, 2, -2, 1], [1, -1, 2, -1], [-1, 1, -1, 1]]
_P6 = [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0],
       [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]
_P6_INV = [[(-1) ** (j - i) if j >= i else 0 for j in range(6)] for i in range(6)]

_LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
_SYSTEMS = {
    # x^2 - 3x + 1 and x^2 + 3x + 1 = (x^2 - 3x + 1)(-x): negated root sets
    "negated-pair": _conjugate(_block_diag(_companion([1, -3, 1]), _companion([1, 3, 1])),
                               _P4, _P4_INV),
    # (x^3 - x^2 - 2x + 1)^2: one factor of multiplicity two
    "repeated-cubic": _conjugate(_block_diag(_companion([1, -2, -1, 1]),
                                             _companion([1, -2, -1, 1])), _P6, _P6_INV),
    "lehmer": _companion(_LEHMER),
    # x^2 - x - 1 and x^4 + 3x^2 + 1: the moduli phi^(+-1) of golden's roots
    # are those of +-i phi^(+-1), three roots each
    "escalation": _conjugate(_block_diag(_companion([-1, -1, 1]),
                                         _companion([1, 0, 3, 0, 1])), _P6, _P6_INV),
}

_CASES = {}
for _name in system_names():
    _CASES[f"analyze-{_name}"] = ("analyze", {"system": _name})
    _CASES[f"rates-{_name}"] = ("rates", {"system": _name})
for _name, _m in _SYSTEMS.items():
    _CASES[f"analyze-{_name}"] = ("analyze", _inline(_m, _name))
for _name in ("negated-pair", "repeated-cubic"):
    _CASES[f"rates-{_name}"] = ("rates", _inline(_SYSTEMS[_name], _name))
for _name in ("catmap", "cubic3"):
    _CASES[f"certify-{_name}"] = ("certify", {"system": _name, "radius": 30})

_DIGESTS = {
    'analyze-catmap': {
        'exponents.csv':
            '310761b3eceb72f2becb92c3e799325d2aaedeef53fbf7d860c3ec306ae24bdc',
        'report.json':
            '1278086d28af8b303c08af918aeb91d5d9a019fa3b8eb30ad477533c5cdc88ff',
    },
    'analyze-cubic-rank2': {
        'exponents.csv':
            '8b4d979c589f39c9a57261e8bf16309db3ee93308076e787c9b5fe67b07521d7',
        'report.json':
            '4a7d547274eaf88ba4770d2568564893e8c9948a818a0ecb39d011c030c6de9f',
    },
    'analyze-cubic3': {
        'exponents.csv':
            '8b4d979c589f39c9a57261e8bf16309db3ee93308076e787c9b5fe67b07521d7',
        'report.json':
            '53fc842c3b16ab30c9cbae491ea66c39f4e06efd3f0390931da7c69cf923efc9',
    },
    'analyze-escalation': {
        'exponents.csv':
            '4b4434707c23c6e0e38540f8944018f2e96cc57ed107ffa4ffe371696f34d9fc',
        'report.json':
            'c2a646c69bcee973d774c9ea17384fa6f6e32f576359d79d1fa8c325b476e8f7',
    },
    'analyze-filiform4': {
        'exponents.csv':
            '6575f97a7d8f7cf4a6837259d639edd65bd4651c58a94e135687c93e354be86a',
        'report.json':
            '79d7bc932ed72d1d8d36fddb7d20b2364533d43944f779bcd7d8572142b372a5',
    },
    'analyze-heisenberg-cat': {
        'exponents.csv':
            '5aac88353c3adef05246e84360e3c45bfcd73640152da545ca32b804a6dd1239',
        'report.json':
            'a8958ecddf4e77aa0998fdead8311668917e824db7ea9b99872a611cc87849a6',
    },
    'analyze-lehmer': {
        'exponents.csv':
            '23dfa64f6e3dd412475e39f4200c2244777fafc594a8a1bf031137340f931555',
        'report.json':
            'd4b5c2b833988378c216520495294188d97586b78d39cf367354d0ac640c9c2f',
    },
    'analyze-negated-pair': {
        'exponents.csv':
            'c0b00b2762c0d526da7f93bade83969b34e7bb54f27139bc68a4ca81da8c70d0',
        'report.json':
            '7b5b830f72d12a7b9ae9ac54923252c7ad34636ed5b9073a020bbdd49addfdef',
    },
    'analyze-product-t2xt2': {
        'exponents.csv':
            'c0b00b2762c0d526da7f93bade83969b34e7bb54f27139bc68a4ca81da8c70d0',
        'report.json':
            'd53455bf86ba0d1e657087acf21c824a3a18cb15dbf0cd8c7163ce2d807b53de',
    },
    'analyze-repeated-cubic': {
        'exponents.csv':
            '22aff00ee5e06caf2137b396f995f673cd764a84c3fa4b1560c518dd0618bf2a',
        'report.json':
            '8ce41e55ef2861c03e64a1713bac96933a1e85e190c44aed9d492508f3bb64ce',
    },
    'certify-catmap': {
        'certificates.csv':
            '0bd96f791f04c7df674fd1fc8143ef956bb97f4645069948a422751bab25e834',
        'report.json':
            'a44b60751f8de198423a70f6537d7c10afb3eae0c011c04a6284b78b96a49938',
    },
    'certify-cubic3': {
        'certificates.csv':
            '8f1cb177cab4c5da9a43a55a6a72756974c2957f5643bd0c7683cbab54aca6c1',
        'report.json':
            'e48cedd602e66c81defe7f4899ff8260b66bec3f49ed2f1129653b053e7424f8',
    },
    'rates-catmap': {
        'rates.csv':
            '056e8e72bc76e4366a501327d0aa7c1e44622a3226d73a3053266add435e8791',
        'report.json':
            'a982e2d3448d0891bc021da7f3c5d50e75f5c76e6b940db41721d30b95dcbaec',
    },
    'rates-cubic-rank2': {
        'rates.csv':
            'b6b9c56561558da2c89cead6caabce7c7a88b31af6a92be609fa969604a19a72',
        'report.json':
            '7d312bef2deb6dd81b302a6e0242382c1ed17a958b25c39a23a4466fc7efadc7',
    },
    'rates-cubic3': {
        'rates.csv':
            'b6b9c56561558da2c89cead6caabce7c7a88b31af6a92be609fa969604a19a72',
        'report.json':
            '00d8cf167790779ef698dfcb6cc76f8fb4dfab36aba7f2b74baf8ad7f478c818',
    },
    'rates-filiform4': {
        'exit': 1,
        'stderr':
            '{"error": "ValueError", "message": "automorphism is not ergodic"}\n',
    },
    'rates-heisenberg-cat': {
        'rates.csv':
            '567ce6f886c91f98810a24e3535f5a33e4c19345564e529dedc1dcce4b281a3e',
        'report.json':
            'e0cd319fda10b8cc8b58ddb202fa59a2a4c83b501941e9b3d8055e2ad8d2c2d1',
    },
    'rates-negated-pair': {
        'rates.csv':
            '67897e02db7e1e817f52e68927bbfb4602662fa015a0d7b57ae151e5fc3427ee',
        'report.json':
            '4887dd3b4cbdb2e45a98cdf19f0711ec5344dcca194d3cb98b14b8c72dd92e34',
    },
    'rates-product-t2xt2': {
        'rates.csv':
            '67897e02db7e1e817f52e68927bbfb4602662fa015a0d7b57ae151e5fc3427ee',
        'report.json':
            'c1c63a44f3f324469c81425a79e9bc2a4c59fdaf3685e58c8bd98d48250c78e5',
    },
    'rates-repeated-cubic': {
        'rates.csv':
            'e8aa88ae0a3b13ed2422ebacff6eede61894e005da8011f3e0eb1d6806c78254',
        'report.json':
            '432a39d97969f2c60146dec7e812f801f9bf7d9d4b046c3b99ac0220f002892b',
    },
}


def _run(tmp_path, capsys, command: str, cfg: dict) -> dict:
    """Run one command on cfg: the sha256 of each file written, or the exit
    code and the structured error of a refusal."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    if code != 0:
        return {"exit": code, "stderr": capsys.readouterr().err}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_conjugators_are_inverse():
    for p, p_inv in ((_P4, _P4_INV), (_P6, _P6_INV)):
        assert _matmul(p, p_inv) == [[int(i == j) for j in range(len(p))]
                                     for i in range(len(p))]


@pytest.mark.parametrize("name", sorted(_CASES))
def test_spectral_outputs_are_pinned(tmp_path, capsys, name):
    command, cfg = _CASES[name]
    assert _run(tmp_path, capsys, command, cfg) == _DIGESTS[name]


def test_escalation_reads_log_phi_three_times_each_way(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_CASES["analyze-escalation"][1]))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["result"]["exponents"]
    assert [row["multiplicity"] for row in rows] == [3, 3]
    with mpmath.workprec(2048):
        log_phi = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        for row, sign in zip(rows, (-1, 1)):
            # the error bounds the multiprecision exponent; the reported double
            # is the mean of three rounded logs, a few ulps from it
            slack = row["error"] + 4 * math.ulp(row["exponent"])
            assert abs(row["exponent"] - sign * log_phi) <= slack


@pytest.mark.parametrize("name", sorted(n for n, (cmd, _) in _CASES.items()
                                        if cmd in ("analyze", "rates")))
def test_every_splitting_answers_at_128_bits(tmp_path, capsys, name):
    # a work counter: a merge that cannot decide equal moduli escalates the
    # precision, and the escalation case once took five attempts, 128 to 2048 bits
    command, cfg = _CASES[name]
    exactlin.lyapunov_data.cache_clear()
    attempt = exactlin._lyapunov_attempt
    with mock.patch.object(exactlin, "_lyapunov_attempt", side_effect=attempt) as spy:
        _run(tmp_path, capsys, command, cfg)
    assert {c.args[2] for c in spy.call_args_list} <= {128}
    if name == "analyze-escalation":
        assert spy.call_count == 1
