import json
import math
import os

import pytest

from nilmix.cli import main


def run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / "config.json"
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
    code, report, _ = run(tmp_path, "analyze", {"system": "catmap"},
                          extra=("--precision", "160", "--seed", "7"))
    assert code == 0
    assert report["precision_bits"] == 160
    assert report["seed"] == 7
    assert report["config"] == {"system": "catmap"}
    assert report["version"]


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


def _profile(tmp, text: str) -> str:
    path = tmp / "profile.csv"
    path.write_text(text)
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
], ids=["bracket-without-value", "non-integer-entry", "non-square-generator",
        "generator-size-not-dim", "fractional-bracket-index",
        "bracket-index-out-of-range", "brackets-not-a-list", "layers-not-a-list",
        "bool-layer", "missing-observable-file", "missing-profile-csv",
        "fractional-n", "fractional-powers", "string-density-radius",
        "string-certify-radius", "string-orders", "noncommuting-generators",
        "non-unimodular-generator", "bracket-not-preserved", "one-row-profile",
        "nan-profile"])
def test_invalid_config_exits_2(tmp_path, command, make_cfg):
    code, report, _ = run(tmp_path, command, make_cfg(tmp_path))
    assert code == 2
    assert report is None


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


def test_threshold_runs(tmp_path):
    cfg = {"profile": "one", "orders": [0.25, 0.5], "cutoffs": [1e-4]}
    code, report, _ = run(tmp_path, "threshold", cfg)
    assert code == 0
    verdicts = {(r["r"], r["verdict"]) for r in report["result"]["runs"]}
    assert (0.25, "convergent") in verdicts
    assert (0.5, "divergent-log") in verdicts


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
