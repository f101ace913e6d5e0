import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilmix import cli, fourier
from nilmix.cli import main
from nilmix.exactlin import RationalMatrix
from nilmix.fracsolve import solve_fractional
from nilmix.nilalg import NilpotentAlgebra


def run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / "config.json"
    if isinstance(cfg, bytes):      # the config file's raw bytes
        cfg_path.write_bytes(cfg)
    else:
        cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return code, report, out


def test_analyze_heisenberg(tmp_path):
    code, report, out = run(tmp_path, "analyze", {"system": "heisenberg-cat"})
    assert code == 0
    r = report["result"]
    assert r["ergodic"] is True
    assert r["type"] == "rational"
    assert r["root_of_unity_core"] == [["0", "0", "1"]]
    assert (out / "exponents.csv").exists()


def test_analyze_embeds_provenance(tmp_path):
    code, report, _ = run(tmp_path, "analyze", {"system": "catmap"}, extra=("--seed", "7"))
    assert code == 0
    assert report["precision_bits"] == 128
    assert report["seed"] == 7
    assert report["config"] == {"system": "catmap"}
    assert report["version"]


def test_precision_is_not_an_option(tmp_path, capsys):
    # the library raises its own working precision; the command line sets none
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "analyze", {"system": "catmap"}, extra=("--precision", "160"))
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "--precision" not in capsys.readouterr().out


def test_calls_in_one_process_parse_independently(tmp_path, capsys):
    # main's parser is built once per process: a rejected argument between
    # two calls leaves nothing behind for the second
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
    code, report, _ = run(tmp_path / "first", "analyze", {"system": "catmap"},
                          extra=("--seed", "7"))
    assert code == 0 and report["seed"] == 7
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(tmp_path / "first" / "config.json"),
              "--seed", "seven"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    code, report, _ = run(tmp_path / "second", "rates", {"system": "catmap", "s": 0.5})
    assert code == 0
    assert report["command"] == "rates" and report["seed"] is None


@pytest.mark.parametrize("seed", ["-5", "-1", str(2 ** 64), hex(2 ** 64)])
def test_seed_outside_u64_is_refused(tmp_path, capsys, seed):
    # the seed is a u64: anything else is refused by the parser, with exit 2
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "density", {"system": "catmap", "radius": 5, "samples": 1000},
            extra=("--seed", seed))
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1), "0x10"])
def test_seed_inside_u64_is_reported(tmp_path, seed):
    cfg = {"system": "catmap", "radius": 5, "samples": 1000}
    code, report, _ = run(tmp_path, "density", cfg, extra=("--seed", seed))
    assert code == 0 and report["seed"] == int(seed, 0)


def test_rates_catmap_gamma(tmp_path):
    code, report, _ = run(tmp_path, "rates", {"system": "catmap", "s": 0.5})
    assert code == 0
    assert report["result"]["gamma"] == pytest.approx(0.0100252464, abs=1e-9)


def test_unknown_field_exits_2(tmp_path):
    code, _, _ = run(tmp_path, "rates", {"system": "catmap", "nope": 1})
    assert code == 2


def test_malformed_json_exits_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("not json at all")
    code = main(["correlate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2


_HEIS = {"name": "inline-heis", "dim": 3, "layers": [2, 1],
         "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1}],
         "generators": [[[2, 1, 0], [1, 1, 0], [0, 0, 1]]]}


_COS = {"dim": 2, "coeffs": [{"z": [1, 0], "re": 0.5, "im": 0.0},
                             {"z": [-1, 0], "re": 0.5, "im": 0.0}]}
_SOLVE = {"observable": {"dim": 2, "coeffs": [{"z": [0, 1], "re": 1.0, "im": 0.0}]},
          "directions": [[1.0, 0.6180339887498949]], "r": 0.5}


def _solve_on(entries: list, dim=2) -> dict:
    return {**_SOLVE, "observable": {"dim": dim, "coeffs": entries}}


def _correlate_times(times) -> dict:
    return {"system": "catmap", "observables": [_COS, _COS], "times": times}


def _profile(tmp, text: str) -> str:
    path = tmp / "profile.csv"
    path.write_text(text)
    return str(path)


def _latin1_observable(tmp) -> str:
    """An observable file whose one non-ASCII byte is Latin-1, not UTF-8."""
    path = tmp / "latin1.json"
    path.write_bytes('{"dim": 2, "coeffs": [], "name": "caf\xe9"}'.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("command, make_cfg", [
    ("analyze", lambda tmp: {"system": {**_HEIS, "brackets": [{"i": 0, "j": 1, "k": 2}]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS,
                                        "generators": [[[2.5, 1, 0], [1, 1, 0], [0, 0, 1]]]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "generators": [[[2, 1, 0], [1, 1, 0]]]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "generators": [[[2, 1], [1, 1]]]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "brackets": [
        {"i": 0.5, "j": 1, "k": 2, "value": 1}]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "brackets": [
        {"i": 0, "j": 5, "k": 2, "value": 1}]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "brackets": 5}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "layers": "x"}}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "layers": [2, True]}}),
    ("solve", lambda tmp: {"observable": str(tmp / "missing.json"),
                           "directions": [[1.0, 0.5]]}),
    ("threshold", lambda tmp: {"profile_csv": str(tmp / "missing.csv")}),
    ("density", lambda tmp: {"system": "catmap", "n": 2.5, "radius": 5, "samples": 1000}),
    ("counterexample", lambda tmp: {"kind": "max-gap", "powers": [1.7, 2]}),
    ("density", lambda tmp: {"system": "catmap", "radius": "abc", "samples": 1000}),
    ("certify", lambda tmp: {"system": "catmap", "radius": "abc"}),
    ("threshold", lambda tmp: {"orders": ["a"]}),
    ("analyze", lambda tmp: {"system": {"dim": 2, "generators": [[[1, 1], [0, 1]],
                                                                  [[1, 0], [1, 1]]]}}),
    ("rates", lambda tmp: {"system": {"dim": 2, "generators": [[[2, 0], [0, 1]]]}}),
    ("analyze", lambda tmp: {"system": {**_HEIS,
                                        "generators": [[[2, 1, 0], [1, 1, 0], [0, 0, -1]]]}}),
    ("threshold", lambda tmp: {"profile_csv": _profile(tmp, "0,1\n")}),
    ("threshold", lambda tmp: {"profile_csv": _profile(tmp, "-1,1\n0,nan\n1,1\n")}),
    ("threshold", lambda tmp: {"profile_csv": 0}),
    ("threshold", lambda tmp: {"profile_csv": 1}),
    ("threshold", lambda tmp: {"profile_csv": 2}),
    ("threshold", lambda tmp: {"profile_csv": True}),
    ("threshold", lambda tmp: {"profile": ["one"]}),
    ("threshold", lambda tmp: {"profile": {"name": "one"}}),
    ("correlate", lambda tmp: _correlate_times([[[0], [1.5]]])),
    ("correlate", lambda tmp: _correlate_times([[[0], [True]]])),
    ("correlate", lambda tmp: _correlate_times([5])),
    ("correlate", lambda tmp: _correlate_times([[[0], ["x"]]])),
    ("solve", lambda tmp: {**_SOLVE, "mode": "foo"}),
    ("solve", lambda tmp: {**_SOLVE, "directions": [[1.0, "0.618"]]}),
    ("solve", lambda tmp: {**_SOLVE, "directions": 5}),
    ("certify", lambda tmp: {"directions": [[1, "x"]], "dim_ambient": 2, "radius": 10}),
    ("certify", lambda tmp: {"directions": 5, "dim_ambient": 2, "radius": 10}),
    ("threshold", lambda tmp: {"cutoffs": [2]}),
    ("threshold", lambda tmp: {"cutoffs": [0]}),
    ("threshold", lambda tmp: {"orders": [-1]}),
    ("threshold", lambda tmp: {"orders": [0]}),
    ("counterexample", lambda tmp: {"kind": "max-gap", "n": 1, "powers": [1, 2]}),
    ("correlate", lambda tmp: {**_correlate_times([[[0], [1]]]), "budget": 0}),
    ("correlate", lambda tmp: {**_correlate_times([[[0], [1]]]), "budget": -5}),
    ("certify", lambda tmp: {"system": "cat", "radius": 10}),
    ("solve", lambda tmp: _solve_on([{"z": "12", "re": 1.0}])),
    ("solve", lambda tmp: _solve_on([{"z": [1.5, 0], "re": 1.0}])),
    ("solve", lambda tmp: _solve_on([{"z": [True, 0], "re": 1.0}])),
    ("solve", lambda tmp: _solve_on([{"z": [1, 0], "re": 1.0}], dim=2.7)),
    ("solve", lambda tmp: _solve_on([{"z": [1, 0], "re": float("nan")}])),
    ("solve", lambda tmp: _solve_on([{"z": [1, 0], "re": True}])),
    ("solve", lambda tmp: _solve_on([{"z": [1, 0], "re": 1.0}, {"z": [1, 0], "re": 2.0}])),
    ("solve", lambda tmp: _solve_on([{"z": [2 ** 62, 0], "re": 1.0}])),
    ("solve", lambda tmp: {**_SOLVE, "directions": [[1.0]]}),
    ("solve", lambda tmp: {**_SOLVE, "mode": "signed", "r": 1.5}),
    ("solve", lambda tmp: {"system": "cubic3", "observable": _SOLVE["observable"]}),
    ("solve", lambda tmp: _solve_on([{"z": [1, 0], "re": 10 ** 400}])),
    ("rates", lambda tmp: {"system": "catmap", "s": 10 ** 400}),
    ("density", lambda tmp: {"system": "catmap", "radius": -3, "samples": 1000}),
    ("density", lambda tmp: {"system": "catmap", "radius": 5, "samples": 0}),
    ("density", lambda tmp: {"system": "catmap", "radius": 5, "samples": -5}),
    ("density", lambda tmp: {"system": "catmap", "radius": 5, "eps": -0.1, "samples": 1000}),
    ("density", lambda tmp: {"system": "catmap", "n": 1, "radius": 5, "samples": 1000}),
    ("rates", lambda tmp: {"system": "catmap", "s": 0}),
    ("rates", lambda tmp: {"system": "catmap", "r": -1}),
    ("rates", lambda tmp: {"system": "catmap", "eps": 0}),
    ("certify", lambda tmp: {"system": "catmap", "radius": 0.5}),
    ("certify", lambda tmp: {"directions": [[1.0, 0.5]], "dim_ambient": 2, "radius": 0}),
    ("solve", lambda tmp: {**_SOLVE, "radius": 0.5}),
    ("analyze", lambda tmp: {"system": {**_HEIS, "brackets": [
        {"i": 0, "j": 1, "k": 2, "value": "1/0"}]}}),
    ("analyze", lambda tmp: {"system": {"dim": True, "layers": [1], "generators": [[[1]]]}}),
    ("analyze", lambda tmp: {"system": {"dim": 2, "generators": [[[2, 1], [1, True]]]}}),
    ("analyze", lambda tmp: {"system": {"dim": 2, "generators": [[["2", 1], [1, 1]]]}}),
    ("analyze", lambda tmp: {"system": {"dim": 2, "generators": [[["4/2", 1], [1, 1]]]}}),
    ("analyze", lambda tmp: {"system": {"dim": 60, "generators": [[[1]]]}}),
    ("analyze", lambda tmp: '{"system": "caf\xe9"}'.encode("latin-1")),
    ("solve", lambda tmp: {"observable": _latin1_observable(tmp),
                           "directions": [[1.0, 0.5]]}),
    ("certify", lambda tmp: {"directions": [[0.0, 0.0]], "dim_ambient": 2}),
    ("certify", lambda tmp: {"directions": [[1.0, 0.5]], "dim_ambient": 3}),
    ("solve", lambda tmp: {**_SOLVE, "directions": [[0.0, 0.0]]}),
], ids=["bracket-without-value", "non-integer-entry", "non-square-generator",
        "generator-size-not-dim", "fractional-bracket-index",
        "bracket-index-out-of-range", "brackets-not-a-list", "layers-not-a-list",
        "bool-layer", "missing-observable-file", "missing-profile-csv",
        "fractional-n", "fractional-powers", "string-density-radius",
        "string-certify-radius", "string-orders", "noncommuting-generators",
        "non-unimodular-generator", "bracket-not-preserved", "one-row-profile",
        "nan-profile", "profile-csv-fd-0", "profile-csv-fd-1", "profile-csv-fd-2",
        "bool-profile-csv", "list-profile", "dict-profile", "fractional-time", "bool-time",
        "time-tuple-not-a-list",
        "string-time", "unknown-solve-mode", "string-solve-direction",
        "solve-directions-not-a-list", "string-certify-direction",
        "certify-directions-not-a-list", "cutoff-above-one", "zero-cutoff",
        "negative-order", "zero-order", "max-gap-n-1", "zero-budget",
        "negative-budget", "unknown-catalog-name", "string-frequency",
        "fractional-frequency", "bool-frequency", "fractional-observable-dim",
        "nan-coefficient", "bool-coefficient", "repeated-frequency",
        "frequency-of-2-to-the-62", "short-solve-direction", "signed-fractional-order",
        "observable-dim-not-system-dim", "coefficient-beyond-float",
        "rates-s-beyond-float", "negative-density-radius", "zero-samples",
        "negative-samples", "negative-eps", "density-n-1", "rates-zero-s",
        "rates-negative-r", "rates-zero-eps", "certify-radius-below-1",
        "certify-directions-radius-0", "solve-radius-below-1", "bracket-value-over-zero",
        "bool-dim", "bool-generator-entry", "string-generator-entry",
        "fraction-string-generator-entry", "generator-shape-not-large-dim",
        "non-utf8-config", "non-utf8-observable-file", "certify-zero-direction",
        "certify-direction-not-dim-ambient", "solve-zero-direction"])
def test_invalid_config_exits_2(tmp_path, monkeypatch, command, make_cfg):
    built = []
    from_sparse = NilpotentAlgebra.from_sparse
    monkeypatch.setattr(NilpotentAlgebra, "from_sparse", staticmethod(
        lambda dim, *args: built.append(dim) or from_sparse(dim, *args)))
    code, report, _ = run(tmp_path, command, make_cfg(tmp_path))
    assert code == 2
    assert report is None
    for fd in (0, 1, 2):        # an integer profile_csv is not opened as a descriptor
        os.fstat(fd)
    # generators of the wrong shape are refused before the dim-60 algebra,
    # whose build and check take ~20 s, is built
    assert 60 not in built


def _solve_file(tmp_path, obs_path, out="out"):
    """Run solve on the observable file at obs_path; the exit code and report."""
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"observable": str(obs_path), "directions": [[1.0, 0.5]]}))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / out)])
    report = tmp_path / out / "report.json"
    return code, json.loads(report.read_text()) if code == 0 else None


def test_observable_file_is_parsed_once_per_text(tmp_path):
    cli._parsed_observable.cache_clear()
    obs = tmp_path / "f.json"
    obs.write_text(json.dumps(_COS))
    with mock.patch.object(fourier, "_checked", wraps=fourier._checked) as checked:
        first = _solve_file(tmp_path, obs, "out1")
        second = _solve_file(tmp_path, obs, "out2")
    assert checked.call_count == 1
    assert first == second and first[0] == 0


def test_rewritten_observable_file_is_read_again(tmp_path):
    # same size and mtime, other text: the memo keys on the text itself
    obs = tmp_path / "f.json"
    obs.write_text(json.dumps(_COS))
    stat = obs.stat()
    code, before = _solve_file(tmp_path, obs)
    obs.write_text(json.dumps(_COS).replace('"re": 0.5', '"re": 0.7'))
    os.utime(obs, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (obs.stat().st_size, obs.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    code2, after = _solve_file(tmp_path, obs)
    assert code == code2 == 0
    assert after["result"]["norms"] != before["result"]["norms"]


def test_malformed_observable_file_is_refused_every_time(tmp_path, capsys):
    obs = tmp_path / "f.json"
    obs.write_text('{"dim": 2, "coeffs": [{"z": [1, 0], "re": true}]}')
    errors = []
    for _ in range(2):
        assert _solve_file(tmp_path, obs) == (2, None)
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "bad observable under 'observable'" in errors[0]
    obs.write_text(json.dumps(_COS))
    assert _solve_file(tmp_path, obs)[0] == 0


def test_observable_memo_has_a_fixed_size(tmp_path):
    cli._parsed_observable.cache_clear()
    for k in range(2 * cli._OBSERVABLE_MEMO):
        obs = tmp_path / f"f{k}.json"
        obs.write_text(json.dumps(_solve_on([{"z": [1, k], "re": 1.0}])["observable"]))
        assert _solve_file(tmp_path, obs)[0] == 0
        assert cli._parsed_observable.cache_info().currsize <= cli._OBSERVABLE_MEMO
    assert cli._parsed_observable.cache_info().currsize == cli._OBSERVABLE_MEMO


def test_integral_float_generator_entries_run(tmp_path):
    code, report, _ = run(tmp_path, "analyze",
                          {"system": {"dim": 2, "generators": [[[2.0, 1], [1, 1.0]]]}})
    assert code == 0
    assert report["result"]["ergodic"] is True


@pytest.mark.parametrize("dim, generators", [(0, [[]]), (-1, [[[1]]])])
def test_inline_dim_below_1_is_refused(tmp_path, capsys, dim, generators):
    code, report, _ = run(tmp_path, "analyze",
                          {"system": {"dim": dim, "generators": generators}})
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == f"config error: bad 'dim' {dim}: must be a positive integer\n"


def test_analyze_family_with_root_of_unity_core(tmp_path):
    # CAT + 1 and CAT^2 + 1 share the core e3: one exact zero functional
    gens = [[[2, 1, 0], [1, 1, 0], [0, 0, 1]], [[5, 3, 0], [3, 2, 0], [0, 0, 1]]]
    code, report, _ = run(tmp_path, "analyze", {"system": {"dim": 3, "generators": gens}})
    assert code == 0
    reg = report["result"]["regular_element"]
    assert reg["z"] == [1, 0]
    assert reg["margin"] == pytest.approx(0.9624236501192069, abs=1e-12)


def test_computation_error_exits_1(tmp_path):
    # solving across an exact resonance raises an obstruction -> exit 1
    cfg = {"observable": {"dim": 2, "coeffs": [{"z": [1, -1], "re": 1.0, "im": 0.0}]},
           "directions": [[1.0, 1.0]], "r": 0.5}
    code, _, _ = run(tmp_path, "solve", cfg)
    assert code == 1


def test_certify_catmap(tmp_path):
    code, report, out = run(tmp_path, "certify", {"system": "catmap", "radius": 100})
    assert code == 0
    assert report["result"]["all_passed"] is True
    header = (out / "certificates.csv").read_text().splitlines()[0]
    assert header == "subspace,c_emp,argmin,passed"


def test_solve_roundtrip(tmp_path):
    cfg = {"observable": {"dim": 2, "coeffs": [{"z": [0, 1], "re": 1.0, "im": 0.0}]},
           "directions": [[1.0, 0.6180339887498949]], "r": 0.5}
    code, report, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert report["result"]["reconstruction_ok"] is True
    assert (out / "solution.csv").exists()


def _reference_rows(index, phi) -> str:
    """solution.csv's rows of one direction as one f-string per mode formats them."""
    return "".join(f"{index},{' '.join(map(str, z))},{re!r},{im!r}\n" for z, re, im
                   in zip(phi.freqs.tolist(), phi.re.tolist(), phi.im.tolist()))


_EDGE_PARTS = [-0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1, 1.7976931348623157e308]


@st.composite
def _solution_blocks(draw):
    dim = draw(st.integers(1, 4))
    coord = st.integers(-(2 ** 62 - 1), 2 ** 62 - 1)
    zs = draw(st.lists(st.tuples(*[coord] * dim), max_size=10, unique=True))
    part = st.one_of(st.sampled_from(_EDGE_PARTS),
                     st.floats(allow_nan=False, allow_infinity=False))
    re, im = (draw(st.lists(part, min_size=len(zs), max_size=len(zs))) for _ in "ri")
    freqs = np.array(zs, dtype=np.int64).reshape(len(zs), dim)
    return draw(st.integers(0, 12)), fourier.FourierObservable._of(
        dim, freqs, np.array(re, dtype=np.float64), np.array(im, dtype=np.float64), False)


@settings(max_examples=200, deadline=None)
@given(_solution_blocks())
@example((3, fourier.FourierObservable._of(2, np.zeros((0, 2), dtype=np.int64),
                                           np.zeros(0), np.zeros(0), False)))
@example((0, fourier.FourierObservable._of(
    4, np.array([[2 ** 62 - 1, -(2 ** 62 - 1), 0, -1]]), np.array([-0.0]),
    np.array([5e-324]), False)))
def test_solution_rows_are_the_per_mode_format(block):
    # one % format per direction writes the bytes of str(int) and repr(float)
    index, phi = block
    assert cli._solution_rows(index, phi) == _reference_rows(index, phi)


def test_solution_csv_is_the_per_mode_format(tmp_path):
    cfg = {"observable": {"dim": 2, "coeffs": [{"z": z, "re": re, "im": im} for z, re, im in
                                               (([1, 0], 1.0, -0.0), ([0, 1], 1e22, 5e-324),
                                                ([2, 3], 0.1, 1e16), ([-5, 7], -2.5, 0.0))]},
           "directions": [[1.0, 0.6180339887498949], [0.25, -1.0]], "r": 0.5}
    code, _, out = run(tmp_path, "solve", cfg)
    assert code == 0
    f = fourier.FourierObservable.from_json_dict(cfg["observable"])
    sol = solve_fractional(f, [tuple(v) for v in cfg["directions"]], 0.5)
    assert (out / "solution.csv").read_text() == "direction_index,frequency,re,im\n" + "".join(
        _reference_rows(d.index, d.phi) for d in sol.per_direction)


def test_solve_with_direction_entries_of_1e200(tmp_path):
    # the sum of the squared entries overflows; the modes are far from resonant
    cfg = {"observable": {"dim": 2, "coeffs": [{"z": z, "re": 1.0, "im": 0.0}
                                               for z in ([1, 0], [0, 1], [2, 3])]},
           "directions": [[1e200, 1e200]], "r": 0.5}
    code, report, _ = run(tmp_path, "solve", cfg)
    assert code == 0
    assert report["result"]["reconstruction_ok"] is True


def test_threshold_runs(tmp_path):
    cfg = {"profile": "one", "orders": [0.25, 0.5], "cutoffs": [1e-4]}
    code, report, _ = run(tmp_path, "threshold", cfg)
    assert code == 0
    verdicts = {(r["r"], r["verdict"]) for r in report["result"]["runs"]}
    assert (0.25, "convergent") in verdicts
    assert (0.5, "divergent-log") in verdicts


@pytest.mark.parametrize("cfg", [{"profile": "one", "orders": [25]},
                                 {"orders": [400], "cutoffs": [0.01]}])
def test_threshold_non_finite_value_exits_1(tmp_path, capsys, cfg):
    # |x|^{-2r} overflows to inf: no verdict and no Infinity in report.json,
    # and numpy's overflow warning does not fire first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, _ = run(tmp_path, "threshold", cfg)
    assert (code, report) == (1, None)
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ArithmeticError"
    assert f"order {float(cfg['orders'][0])} at cutoff" in error["message"]


def test_threshold_square_beyond_the_doubles_exits_1(tmp_path, capsys):
    # 1e200^2 overflows Python's pow: exit 1 with a message naming the order
    csv_path = tmp_path / "profile.csv"
    csv_path.write_text("-1,1e200\n1,1e200\n")
    code, report, _ = run(tmp_path, "threshold", {"profile_csv": str(csv_path),
                                                  "orders": [0.25], "cutoffs": [0.01]})
    assert (code, report) == (1, None)
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ArithmeticError"
    assert "order 0.25 at cutoff 0.01" in error["message"]


@pytest.mark.parametrize("re, z, r, order", [(1e200, [5, 3], 0.5, 1.0), (1.0, [50, 30], 40, 80.0)])
def test_solve_square_beyond_the_doubles_exits_1(tmp_path, capsys, re, z, r, order):
    # (1e200)^2, or the weight (1 + 4 pi^2 ||z||^2)^80 of the order-80 norm,
    # overflows Python's pow: exit 1 with a message naming the norm
    cfg = {"system": "catmap", "r": r,
           "observable": {"dim": 2, "coeffs": [{"z": [0, 1], "re": re, "im": 0.0},
                                               {"z": z, "re": 0.0, "im": 1.0}]}}
    code, report, _ = run(tmp_path, "solve", cfg)
    assert (code, report) == (1, None)
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ArithmeticError"
    assert error["message"] == (f"Sobolev norm of order {order}: the (weighted) squared "
                                "coefficient moduli overflow a double")


@pytest.mark.parametrize("mode", ["modulus", "signed"])
def test_solve_symbol_beyond_the_doubles_exits_1(tmp_path, capsys, mode):
    # |2 pi z.v|^300 at z = (50, 30) overflows Python's pow (a float in
    # modulus mode, a complex in signed mode): exit 1 naming the order, the
    # mode and the frequency, not a bare OverflowError
    cfg = {"system": "catmap", "r": 300, "mode": mode,
           "observable": {"dim": 2, "coeffs": [{"z": [0, 1], "re": 1.0, "im": 0.0},
                                               {"z": [50, 30], "re": 0.0, "im": 1.0}]}}
    code, report, _ = run(tmp_path, "solve", cfg)
    assert (code, report) == (1, None)
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "ArithmeticError",
                     "message": f"{mode} symbol of order 300.0 at frequency (50, 30) "
                                "overflows a double"}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("mode, z, at", [({"powers": [1, 0]}, [1, 0], "power 0"),
                                         ({"times": [[[1], [2]], [[0], [0]]]}, [-1, 0],
                                          "times [(0,), (0,)]")])
def test_correlate_non_finite_value_exits_1(tmp_path, capsys, mode, z, at):
    # (1e200)^2 overflows a double: exit 1 naming the power or the time tuple,
    # where report.json held "re": Infinity, which is not JSON.  The two-point
    # sum pairs f_k with conj(g_k), the n-point one f_k with g_(-k)
    f, g = ({"dim": 2, "coeffs": [{"z": w, "re": 1e200, "im": 0.0}]} for w in ([1, 0], z))
    code, report, out = run(tmp_path, "correlate", {"system": "catmap",
                                                     "observables": [f, g], **mode})
    assert code == 1
    for path in out.rglob("report.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "ArithmeticError",
                     "message": f"correlation at {at} overflows a double"}


def test_solve_directions_from_system(tmp_path):
    # without explicit directions the expanding splitting of the system's
    # first generator is used
    cfg = {"system": "catmap", "r": 0.5,
           "observable": {"dim": 2, "coeffs": [{"z": [0, 1], "re": 1.0, "im": 0.0},
                                               {"z": [5, 3], "re": 0.0, "im": 1.0}]}}
    code, report, _ = run(tmp_path, "solve", cfg)
    assert code == 0
    assert report["result"]["reconstruction_ok"] is True
    assert report["result"]["certificate_c_emp"] > 0


def test_threshold_profile_csv(tmp_path):
    import numpy as np
    csv_path = tmp_path / "profile.csv"
    xs = np.linspace(-1, 1, 801)
    csv_path.write_text("\n".join(f"{x},{x * x}" for x in xs) + "\n")
    cfg = {"profile_csv": str(csv_path), "orders": [0.75], "cutoffs": [1e-3]}
    code, report, _ = run(tmp_path, "threshold", cfg)
    assert code == 0
    assert report["result"]["runs"][0]["verdict"] == "convergent"


def test_correlate_fit_rate_beyond_the_doubles_exits_1(tmp_path, capsys):
    # e^(fit_rate * gap) overflows a double: exit 1 naming the rate and the gap;
    # g holds (M^T)^p (1, 0) with coefficient 10^-p, so power p correlates to 10^-p
    f = {"dim": 2, "coeffs": [{"z": [1, 0], "re": 1.0, "im": 0.0}]}
    g = {"dim": 2, "coeffs": [{"z": z, "re": 10.0 ** -p, "im": 0.0}
                              for p, z in enumerate([[1, 0], [2, 1], [5, 3], [13, 8]])]}
    cfg = {"system": "catmap", "observables": [f, g], "powers": [0, 1, 2, 3], "fit_rate": 1000}
    code, report, _ = run(tmp_path, "correlate", cfg)
    assert (code, report) == (1, None)
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError"
    assert error["message"].startswith("rate 1000.0 at gap 3.0: ")
    assert "overflows a double" in error["message"]


def test_correlate_two_point(tmp_path):
    cos_mode = {"dim": 2, "coeffs": [{"z": [1, 0], "re": 0.5, "im": 0.0},
                                     {"z": [-1, 0], "re": 0.5, "im": 0.0}]}
    cfg = {"system": "catmap", "observables": [cos_mode, cos_mode],
           "powers": [0, 1, 2]}
    code, report, out = run(tmp_path, "correlate", cfg)
    assert code == 0
    entries = report["result"]["entries"]
    assert entries[0]["re"] == pytest.approx(0.5)
    assert entries[1]["re"] == pytest.approx(0.0)
    lines = (out / "correlations.csv").read_text().splitlines()
    assert lines[0] == "times,gap,maxgap,re,im,abs"


def test_density_report(tmp_path):
    cfg = {"system": "catmap", "n": 2, "radius": 40, "eps": 0.1, "samples": 5000}
    code, report, _ = run(tmp_path, "density", cfg)
    assert code == 0
    assert report["result"]["good_fraction"] > 0.95


def test_counterexample_commands(tmp_path):
    code, report, _ = run(tmp_path, "counterexample",
                          {"kind": "max-gap", "system": "catmap", "n": 2,
                           "powers": [1, 30]})
    assert code == 0
    assert report["result"]["entries"][-1]["re"] == pytest.approx(0.25, abs=1e-10)

    code, report, _ = run(tmp_path, "counterexample",
                          {"kind": "no-uniform-bound", "powers": [1, 10]})
    assert code == 0
    vals = [e["re"] for e in report["result"]["entries"]]
    assert vals == pytest.approx([1.0, 1.0])

    # the default exact observable beside a float observable2 from the config
    shifted_cos = {"dim": 2, "coeffs": [{"z": [0, 0], "re": 1.0, "im": 0.0},
                                        {"z": [1, 0], "re": 0.5, "im": 0.0},
                                        {"z": [-1, 0], "re": 0.5, "im": 0.0}]}
    code, report, _ = run(tmp_path, "counterexample",
                          {"kind": "max-gap", "observable2": shifted_cos,
                           "powers": [1, 30]})
    assert code == 0
    assert report["result"]["entries"][-1]["re"] == pytest.approx(0.75, abs=1e-10)


def test_inline_system(tmp_path):
    cfg = {"system": {"name": "inline-heis", "dim": 3, "layers": [2, 1],
                      "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1}],
                      "generators": [[[2, 1, 0], [1, 1, 0], [0, 0, 1]]]}}
    code, report, _ = run(tmp_path, "analyze", cfg)
    assert code == 0
    assert report["result"]["type"] == "rational"


def test_reruns_are_byte_identical(tmp_path):
    cfg = {"system": "catmap", "n": 2, "radius": 30, "eps": 0.1, "samples": 4000}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["density", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "11"]) == 0
        outs.append((out / "report.json").read_text() + (out / "density.csv").read_text())
    assert outs[0] == outs[1]


def test_identical_rerun_rewrites_no_file(tmp_path):
    # a rename over an existing file can force a flush to disk: a rerun into
    # the same directory leaves every file that already holds its bytes alone,
    # and a changed config still replaces the report
    assert run(tmp_path, "analyze", {"system": "catmap"})[0] == 0
    out = tmp_path / "out"
    for path in out.iterdir():      # back-date, so that any rewrite moves the mtime
        os.utime(path, ns=(0, 10 ** 9))
    before = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.iterdir()}
    assert run(tmp_path, "analyze", {"system": "catmap"})[0] == 0
    assert {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.iterdir()} == before
    assert not list(out.glob(".tmp-nilmix-*"))
    code, report, _ = run(tmp_path, "analyze", {"system": "heisenberg-cat"})
    assert code == 0 and report["config"] == {"system": "heisenberg-cat"}
    assert (out / "report.json").stat().st_ino != before["report.json"][0]
    assert not list(out.glob(".tmp-nilmix-*"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_files_take_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert run(tmp_path, "analyze", {"system": "catmap"})[0] == 0
    finally:
        os.umask(old)
    out = tmp_path / "out"
    assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == {
        "report.json": mode, "exponents.csv": mode}


def test_writing_a_report_never_calls_umask(tmp_path):
    # reading the umask sets it for a moment, and a file another thread
    # creates meanwhile would ignore it
    with mock.patch.object(os, "umask", side_effect=AssertionError("os.umask called")) as spy:
        assert run(tmp_path, "analyze", {"system": "catmap"})[0] == 0
    assert spy.call_count == 0


def test_a_taken_temp_name_is_drawn_again(tmp_path):
    # another writer's temp file is left alone, and a fresh name is drawn
    taken = tmp_path / (".tmp-nilmix-" + "00" * 8)
    taken.write_text("another writer's")
    names = [b"\0" * 8, b"\1" * 8]
    with mock.patch.object(os, "urandom", side_effect=names) as spy:
        cli._atomic_write(str(tmp_path / "report.json"), "{}\n")
    assert spy.call_count == 2
    assert (tmp_path / "report.json").read_text() == "{}\n"
    assert taken.read_text() == "another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "report.json"]


_NO_SYMPY_SCRIPT = """
import json, sys
from nilmix.cli import main
for name in ("sympy", "mpmath"):
    assert name not in sys.modules, f"import nilmix.cli loaded {name}"
for i, (command, cfg) in enumerate(json.loads(sys.argv[2])):
    path = f"{sys.argv[1]}/config{i}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", path, "--out", f"{sys.argv[1]}/out{i}"]) == 0, command
for name in ("sympy", "mpmath"):
    assert name not in sys.modules, f"a command loaded {name}"
"""


def test_commands_never_import_sympy(tmp_path):
    # sympy and mpmath are only the tests' references: a fresh process runs
    # four commands that factor characteristic polynomials, certify their
    # roots and pick correlate's moduli
    cos_mode = {"dim": 2, "coeffs": [{"z": [1, 0], "re": 0.5, "im": 0.0},
                                     {"z": [-1, 0], "re": 0.5, "im": 0.0}]}
    runs = [("analyze", {"system": "heisenberg-cat"}),
            ("certify", {"system": "cubic3", "radius": 20}),
            ("density", {"system": "product-t2xt2", "n": 2, "radius": 6, "eps": 0.1,
                         "samples": 200}),
            ("correlate", {"system": "catmap", "observables": [cos_mode, cos_mode],
                           "powers": [0, 1, 2]})]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT, str(tmp_path), json.dumps(runs)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("name", ["catmap", "cubic-rank2", "cubic3", "heisenberg-cat",
                                  "product-t2xt2"])
def test_only_certify_builds_float_class_bases(tmp_path, name):
    # exponents, classes and densities are exact: analyze, rates and density
    # on the ergodic catalog systems (rates refuses filiform4) build no float
    # class basis; certify scans the bases, so it builds them
    from nilmix import exactlin
    exactlin.lyapunov_data.cache_clear()
    commands = [("analyze", {"system": name}), ("rates", {"system": name}),
                ("density", {"system": name, "radius": 5, "samples": 1000})]
    with mock.patch.object(exactlin, "_class_basis", wraps=exactlin._class_basis) as spy:
        for command, cfg in commands:
            assert run(tmp_path, command, cfg)[0] == 0, command
        assert spy.call_count == 0
        assert run(tmp_path, "certify", {"system": "catmap", "radius": 100})[0] == 0
    assert spy.call_count > 0


@pytest.mark.parametrize("k", [740, 800])
def test_cat_powers_beyond_double_range_are_refused(tmp_path, capsys, k):
    # CAT^740's large root exceeds the largest double, and so does CAT^800's,
    # whose small root is below the smallest: both are refused at once, with
    # no report, rather than reported as an infinite exponent
    cat = (RationalMatrix([[2, 1], [1, 1]]) ** k).to_int_array()
    code, report, _ = run(tmp_path, "analyze", {"system": {"dim": 2, "generators": [cat]}})
    assert code == 1 and report is None
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ResolutionError" and "float64 range" in error["message"]


def test_inline_cat_power_17_runs(tmp_path):
    # the class bases of CAT^17 leave an invariance residual of 2.1e-9, above
    # an absolute 1e-9 but far below 1e-9 |CAT^17|_2
    cat17 = [[9227465, 5702887], [5702887, 3524578]]
    system = {"dim": 2, "generators": [cat17]}
    for command, extra in (("analyze", {}), ("rates", {}), ("certify", {"radius": 100})):
        code, report, _ = run(tmp_path, command, {"system": system, **extra})
        assert code == 0, command
    assert report["result"]["all_passed"] is True
