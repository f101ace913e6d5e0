"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q

They check that the tracer is transparent, that the seed drives the
inputs, and that the output checks catch a wrong answer.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def traced():
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        yield rec
    finally:
        uninstall()


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:   # compared by type and message below
        return "raised", (type(exc), str(exc))


def test_wrappers_return_and_raise_like_the_originals():
    from nilmix import cli, dioph, exactlin, fourier, nilalg

    poly = exactlin.IntPolynomial([1, 0, -4, 0, 1])
    m = exactlin.RationalMatrix(workloads.block_diag(
        workloads.companion(workloads.GOLDEN), workloads.companion([1, 0, 3, 0, 1])))
    cubic = exactlin.RationalMatrix(workloads.companion(workloads.CUBIC))
    obs = json.dumps(workloads.real_observable(random.Random(3), 2, 3.0, 0.1))
    cases = [
        (lambda: exactlin.factor_over_q, (poly,)),
        (lambda: exactlin.lyapunov_data, (m,)),                       # PrecisionError
        (lambda: nilalg.classify, (nilalg.abelian_algebra(3), cubic)),
        (lambda: dioph.diophantine_certificate, ([(1.0, workloads.PHI_INV)], 2, 0.5)),
        (lambda: dioph.diophantine_certificate, ([(1.0, workloads.PHI_INV)], 2, 50.0)),
        (lambda: fourier.FourierObservable.loads, (obs,)),
    ]
    before = [_outcome(get(), *args) for get, args in cases]
    originals = [get() for get, _ in cases] + [cli.main]
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        assert all(get() is not orig for (get, _), orig in zip(cases, originals))
        assert cli.main is not originals[-1]
        after = [_outcome(get(), *args) for get, args in cases]
    finally:
        uninstall()
    assert [get() for get, _ in cases] + [cli.main] == originals
    assert [kind for kind, _ in before] == ["ok", "raised", "ok", "raised", "ok", "ok"]
    for (kind_a, a), (kind_b, b) in zip(before, after):
        assert kind_a == kind_b
        if hasattr(a, "coeffs"):        # FourierObservable: compare the modes
            assert (a.dim, a.coeffs) == (b.dim, b.coeffs)
        else:
            assert repr(a) == repr(b)
    assert before[1][1][0].__name__ == "PrecisionError"
    names = [s[tracing.NAME] for s in rec.spans]
    assert "exactlin.lyapunov_data" in names and "fourier.FourierObservable.loads" in names
    failed = [s for s in rec.spans if s[tracing.ERROR]]
    assert {s[tracing.NAME] for s in failed} >= {"exactlin.lyapunov_data",
                                                 "dioph.diophantine_certificate"}


def test_from_imports_are_patched_and_self_times_add_up(traced, tmp_path):
    from nilmix import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "cubic3"}))
    traced.op = "analyze"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    spans = traced.spans
    assert spans[0][tracing.NAME] == "cli.main" and spans[0][tracing.PARENT] == -1
    # lyapunov_data is reached through cli's from-import, factor_over_q
    # through exactlin's own namespace
    names = {s[tracing.NAME] for s in spans}
    assert {"exactlin.lyapunov_data", "exactlin.factor_over_q", "nilalg.classify"} <= names
    m = tracing.layer_metrics(spans)
    total = spans[0][tracing.END] - spans[0][tracing.START]
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(total, rel=1e-9)
    assert m["trace.spans"] == len(spans)
    assert m["exactlin.lyapunov_data.calls"] >= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_drives_the_inputs(name):
    a, b, c = (workloads.build(name, s) for s in (1, 1, 2))
    dump = lambda wl: json.dumps([(op.id, op.config, op.seed) for op in wl.ops]
                                 + [wl.files], sort_keys=True)
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)
    assert [op.id for op in a.ops] == [op.id for op in c.ops]


def test_ergodic_gl3_matches_the_catalog():
    from nilmix.catalog import random_ergodic_gl3

    for seed in range(5):
        assert random_ergodic_gl3(seed).to_int_array() == workloads.ergodic_gl3(seed)


def _run_op(op, wl, tmp_path):
    from nilmix import cli

    for rel, content in wl.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(json.dumps(content))
    cfg = tmp_path / f"{op.id}.json"
    cfg.write_text(json.dumps(op.config))
    out = tmp_path / op.id
    argv = [op.command, "--config", str(cfg), "--out", str(out)]
    if op.seed is not None:
        argv += ["--seed", str(op.seed)]
    assert cli.main(argv) == 0
    return json.loads((out / "report.json").read_text())


def _op(wl, prefix):
    return next(op for op in wl.ops if op.id.startswith(prefix))


@pytest.mark.parametrize("workload, prefix, path, delta", [
    ("certify", "certify-exact", ("certificate", "argmin", 0), 1),
    ("certify", "certify-exact", ("certificate", "points"), 1),
    ("certify", "certify-golden-R10000", ("certificate", "argmin", 1), 1),
    ("density", "density-catmap-R200", ("bad_points",), 1),
    ("density", "density-catmap-n3", ("bad_points",), -1),
    ("spectral", "analyze-product3", ("exponents", 0, "exponent"), 1e-3),
    ("mixing", "correlate-powers0", ("entries", 2, "re"), 1e-6),
    ("mixing", "solve0", ("residual",), 1e-3),
])
def test_checks_catch_a_wrong_answer(workload, prefix, path, delta, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.build(workload, workloads.DEFAULT_SEED)
    op = _op(wl, prefix)
    report = _run_op(op, wl, tmp_path)
    checks.check_op(op, report, wl.files)           # the real answer passes
    wrong = copy.deepcopy(report)
    node = wrong["result"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    with pytest.raises(checks.CheckFailure):
        checks.check_op(op, wrong, wl.files)


def test_workload_checks_catch_falling_densities():
    wl = workloads.build("density", workloads.DEFAULT_SEED)
    results = {op.id: {"good_fraction": 0.99, "delta": 0.1} for op in wl.ops}
    checks.check_workload(wl.ops, results)
    results["density-cubic-rank2-R100"]["good_fraction"] = 0.98
    with pytest.raises(checks.CheckFailure):
        checks.check_workload(wl.ops, results)
