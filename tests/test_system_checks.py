"""The checks of a nilpotent system: the tensor checks in `nilalg` against
the per-element reference in `system_reference`, and where the CLI runs
them.

Every algebra and matrix, valid or not, must get the same `Diagnostics`
from both: the same checks in the same order, the same verdicts and
detail strings (so the same first offender), the same failures, and the
same central-series bases.  The algebras are the standard families with
rational constants, random sparse tensors, and either of these with
planted defects: a changed constant, a one-sided constant that breaks
antisymmetry, layer dims that do not sum to the dimension, zero or
negative layer dims that do.  The matrices
are random integer and rational ones, unimodular or not, rational
matrices that preserve a Heisenberg bracket, and catalog automorphisms
conjugated by elementary matrices, which can break the bracket.

A system is checked once per process, where it enters: an inline one when
the CLI first loads it, a catalog one only when analyze first reports its
checks.  The memos that keep them key on the config's values, never on an
object, and keep no failure.
"""

import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import system_reference as ref
from nilmix import cli, nilalg, rates
from nilmix.catalog import get_system, system_names
from nilmix.cli import main
from nilmix.exactlin import RationalMatrix, _int_einsum, _integral
from nilmix.nilalg import NilpotentAlgebra, check_commuting

CHECKS = settings(max_examples=300, deadline=None)

# the last three make many of the checks' contractions exceed 2^63, so
# that they run in Python ints
_VALUES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                           Fraction(-3, 4), Fraction(5, 3), Fraction((1 << 40) + 1, 3),
                           Fraction(-(1 << 40) - 1, 3), Fraction(1 << 61)])


@st.composite
def compositions(draw, n: int) -> list:
    """Positive layer dims summing to n (a single zero layer for n = 0)."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [n])] if n else [0]


@st.composite
def algebras(draw) -> NilpotentAlgebra:
    kind = draw(st.sampled_from(["abelian", "heisenberg", "filiform", "sparse"]))
    if kind == "abelian":
        n, entries = draw(st.integers(0, 6)), {}
        layers = [n]
    elif kind == "heisenberg":
        half = draw(st.integers(1, 2))
        n, layers = 2 * half + 1, [2 * half, 1]
        entries = {(i, half + i): {2 * half: draw(_VALUES)} for i in range(half)}
    elif kind == "filiform":
        n = draw(st.integers(3, 6))
        layers = [2] + [1] * (n - 2)
        entries = {(0, i): {i + 1: draw(_VALUES)} for i in range(1, n - 1)}
    else:
        n = draw(st.integers(1, 6))
        layers = draw(compositions(n))
        index = st.integers(0, n - 1)
        entries = {}
        for i, j, k in draw(st.lists(st.tuples(index, index, index), max_size=5)):
            entries.setdefault((i, j), {})[k] = draw(_VALUES)
    algebra = NilpotentAlgebra.from_sparse(n, layers, entries)
    # each entry and its antisymmetric partner, in order: a later (j, i)
    # entry overwrites an earlier (i, j) one
    written = {}
    for (i, j), comp in entries.items():
        for k, value in comp.items():
            written[i, j, k], written[j, i, k] = value, -value
    c = np.array(ref.constants(algebra), dtype=object).reshape((n,) * 3)
    assert all(c[t] == written.get(t, 0) for t in itertools.product(range(n), repeat=3))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["entry", "one-sided", "layers", "zero-layer",
                                       "negative-layer"]))
        if defect == "layers":
            layers = draw(st.lists(st.integers(-1, 4), max_size=4))
        elif defect == "zero-layer":
            layers.insert(draw(st.integers(0, len(layers))), 0)
        elif defect == "negative-layer":
            # the same sum, with a negative first layer
            layers = [-1, layers[0] + 1] + layers[1:] if layers else [-1, 1]
        elif n:
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            value = draw(_VALUES | st.just(Fraction(0)))
            c[i, j, k] = value
            if defect == "entry":
                c[j, i, k] = -value
    return NilpotentAlgebra(n, tuple(layers), *_integral(c))


def _elementary(n: int, i: int, j: int, s: int) -> RationalMatrix:
    return RationalMatrix([[int(a == b) + s * (a == i and b == j) for b in range(n)]
                           for a in range(n)])


@st.composite
def conjugated_catalog(draw) -> tuple:
    """A catalog algebra and one of its generators conjugated by elementary
    matrices (an automorphism of the same algebra only when the conjugation
    preserves the bracket)."""
    system = get_system(draw(st.sampled_from(system_names())))
    m = draw(st.sampled_from(system.generators))
    n = m.dim
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        e = _elementary(n, i, j, draw(st.sampled_from([-2, -1, 1, 2])))
        m = e * m * e.inverse()
    return system.algebra, m


@st.composite
def matrices(draw, n: int) -> RationalMatrix:
    """A random n x n matrix (sometimes of another size): integer entries, or
    rational ones, unimodular or not."""
    n = max(1, n + draw(st.sampled_from([0] * 8 + [-1, 1])))
    entry = st.integers(-3, 3) | _VALUES if draw(st.booleans()) else st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # rows of a unit lower triangular matrix, permuted, one negated: unimodular
        lower = [[int(i == j) if j >= i else draw(st.integers(-2, 2)) for j in range(n)]
                 for i in range(n)]
        rows = [lower[p] for p in draw(st.permutations(range(n)))]
        rows[0] = [draw(st.sampled_from([1, -1])) * x for x in rows[0]]
    return RationalMatrix(rows)


@st.composite
def heisenberg_automorphisms(draw) -> tuple:
    """The Heisenberg algebra [e0, e1] = q e2 and a rational matrix
    [[A, 0], [v, det A]], which preserves its bracket."""
    q = draw(_VALUES)
    part = st.integers(-3, 3) | _VALUES
    (a, b), (c, d), v = (draw(st.lists(part, min_size=2, max_size=2)) for _ in range(3))
    algebra = NilpotentAlgebra.from_sparse(3, (2, 1), {(0, 1): {2: q}})
    return algebra, RationalMatrix([[a, b, 0], [c, d, 0], [*v, a * d - b * c]])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as e:
        return type(e), str(e)


@contextlib.contextmanager
def _contraction_paths():
    """Names, as a hypothesis event, the dtypes of the exact contractions
    that the checks inside make: int64, Python ints (object) or both."""
    kinds = set()

    def spy(*args, **kwargs):
        out = _int_einsum(*args, **kwargs)
        kinds.add(out.dtype.name)
        return out

    with mock.patch.object(nilalg, "_int_einsum", spy):
        yield
    event(f"contractions in {' and '.join(sorted(kinds)) or 'none'}")


def _same_diagnostics(new, old):
    assert list(new.checks.items()) == list(old.checks.items())
    assert new.failures() == old.failures()
    assert new.ok == old.ok


@CHECKS
@given(algebras())
@example(NilpotentAlgebra.from_sparse(3, (2, 1), {(0, 1): {2: 1 << 62}}))
@example(NilpotentAlgebra.from_sparse(0, (0,), {}))
# the (1, 0) entry overwrites the (0, 1) one, whose denominator then goes
@example(NilpotentAlgebra.from_sparse(3, (2, 1), {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: 1}}))
def test_algebra_checks_match_the_reference(algebra):
    # one read-only tensor of numerators over den, in lowest terms: int64
    # exactly when twice each numerator fits
    nums = algebra.nums
    assert not nums.flags.writeable and nums.shape == (algebra.dim,) * 3
    assert algebra.den > 0 and math.gcd(algebra.den, *nums.flat) == 1
    assert (nums.dtype == np.int64) == all(2 * abs(int(x)) < 1 << 63 for x in nums.flat)
    with _contraction_paths():
        diag = nilalg.validate_algebra(algebra)
    _same_diagnostics(diag, ref.validate_algebra(algebra))
    # the series is built and kept exactly when it is checked
    assert (diag.series is not None) == ("central_series" in diag.checks)
    if diag.series is not None:
        assert diag.series == ref.central_series(algebra)
    assert _outcome(nilalg.central_series, algebra) == _outcome(ref.central_series, algebra)


@CHECKS
@given(st.data())
def test_automorphism_checks_match_the_reference(data):
    source = data.draw(st.sampled_from(["catalog", "heisenberg", "random"]))
    if source == "catalog":
        algebra, m = data.draw(conjugated_catalog())
    elif source == "heisenberg":
        algebra, m = data.draw(heisenberg_automorphisms())
    else:
        algebra = data.draw(algebras())
        m = data.draw(matrices(algebra.dim))
    with _contraction_paths():
        diag = nilalg.validate_automorphism(algebra, m)
    _same_diagnostics(diag, ref.validate_automorphism(algebra, m))


def test_first_offenders_are_named():
    # two antisymmetry offenders, (0, 0) and (1, 2): the row-major first is named
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][2] = c[1][2][0] = Fraction(1)
    diag = nilalg.validate_algebra(NilpotentAlgebra(3, (3,), *_integral(c)))
    assert diag.checks["antisymmetry"] == (False, "offending pair (0, 0)")
    swap = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    diag = nilalg.validate_automorphism(nilalg.heisenberg_algebra(), swap)
    assert diag.checks["bracket_preserved"] == (False, "[Me_0, Me_1] != M[e_0, e_1]")


def test_abelian_bracket_check_contracts_nothing():
    # only bracket inputs and outputs enter the contractions: none on a torus
    m = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    for algebra, calls in ((nilalg.abelian_algebra(3), 0), (nilalg.heisenberg_algebra(), 3)):
        with mock.patch.object(nilalg, "_int_einsum", wraps=_int_einsum) as spy:
            assert nilalg.validate_automorphism(algebra, m).ok
        assert spy.call_count == calls


@pytest.mark.parametrize("name", system_names())
def test_catalog_systems_pass_the_full_check(name):
    # classify and the rates trust the catalog, so it is checked here
    system = get_system(name)
    assert system.algebra.diagnostics.ok, system.algebra.diagnostics.failures()
    assert ref.validate_algebra(system.algebra).ok
    assert system.generator_failures == []
    assert all(ref.validate_automorphism(system.algebra, g).ok for g in system.generators)
    check_commuting(system.generators)


# ---------------------------------------------------------------------------
# where the checks run
# ---------------------------------------------------------------------------

_SPIED = ("validate_algebra", "central_series", "validate_automorphism", "check_commuting")


@pytest.fixture
def spies():
    """A counting wrapper around each check, in every nilmix module that
    holds it."""
    modules = [m for name, m in sys.modules.items() if name.startswith("nilmix")]
    originals = {name: getattr(nilalg, name) for name in _SPIED}
    spied = {name: mock.Mock(wraps=fn) for name, fn in originals.items()}
    with contextlib.ExitStack() as stack:
        for name, fn in originals.items():
            for module in modules:
                if getattr(module, name, None) is fn:
                    stack.enter_context(mock.patch.object(module, name, spied[name]))
        yield spied


def _run(tmp_path, command, cfg) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _clear_memos():
    cli._checked_algebra.cache_clear()
    cli._checked_system.cache_clear()


def _checks_after(tmp_path, spies, runs) -> list:
    """The call count of each spied check over the commands runs, each of
    which must succeed."""
    for spy in spies.values():
        spy.reset_mock()
    for command, cfg in runs:
        assert _run(tmp_path, command, cfg) == 0
    return [spy.call_count for spy in spies.values()]


def test_inline_analyze_checks_once(tmp_path, spies):
    # a rank-2 family on the Heisenberg algebra: CAT + 1 and CAT^2 + 1
    system = {"dim": 3, "layers": [2, 1], "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1}],
              "generators": [[[2, 1, 0], [1, 1, 0], [0, 0, 1]],
                             [[5, 3, 0], [3, 2, 0], [0, 0, 1]]]}
    _clear_memos()
    assert _run(tmp_path, "analyze", {"system": system}) == 0
    assert spies["validate_algebra"].call_count == 1
    assert spies["central_series"].call_count == 1
    assert spies["validate_automorphism"].call_count == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert report["central_series_dims"] == [3, 1, 0]
    assert all(report["algebra_checks"].values())
    # checked once per process: the same system again is not checked again
    runs = [("analyze", {"system": system}), ("rates", {"system": system}),
            ("analyze", {"system": system})]
    assert _checks_after(tmp_path, spies, runs) == [0] * len(_SPIED)


def test_catalog_analyze_checks_once_and_rates_not_at_all(tmp_path, spies):
    get_system.cache_clear()
    assert _run(tmp_path, "analyze", {"system": "product-t2xt2"}) == 0
    assert spies["validate_algebra"].call_count == 1
    assert spies["central_series"].call_count == 1
    assert spies["validate_automorphism"].call_count == 2
    assert _checks_after(tmp_path, spies, [("rates", {"system": "cubic3"})]) == [0] * len(_SPIED)
    runs = [("analyze", {"system": "product-t2xt2"}), ("rates", {"system": "product-t2xt2"}),
            ("analyze", {"system": "product-t2xt2"})]
    assert _checks_after(tmp_path, spies, runs) == [0] * len(_SPIED)


def _inline(generators, brackets=(), layers=None, **fields) -> dict:
    dim = len(generators[0])
    return {"system": {"dim": dim, "layers": layers or [dim], "brackets": list(brackets),
                       "generators": generators, **fields}}


_CAT3 = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
_HEIS = dict(layers=[2, 1], brackets=[{"i": 0, "j": 1, "k": 2, "value": 1}])


def test_bracket_order_is_part_of_the_algebra_key():
    # a later (1, 0) entry overwrites an earlier (0, 1) one, and the other way round
    pair = [{"i": 0, "j": 1, "k": 2, "value": 1}, {"i": 1, "j": 0, "k": 2, "value": 2}]
    _clear_memos()
    nums = []
    for brackets in (pair, pair[::-1]):
        system = cli._load_system(_inline([_CAT3], brackets, layers=[2, 1]))
        entries = {}
        for b in brackets:
            entries.setdefault((b["i"], b["j"]), {})[b["k"]] = b["value"]
        built = NilpotentAlgebra.from_sparse(3, (2, 1), entries)
        assert np.array_equal(system.algebra.nums, built.nums)
        assert system.algebra.den == built.den
        nums.append(system.algebra.nums)
    assert not np.array_equal(*nums)


def test_integral_float_entries_share_the_system_and_strings_are_refused(tmp_path, capsys):
    _clear_memos()
    reports = []
    for two in (2, 2.0):
        assert _run(tmp_path, "analyze", _inline([[[two, 1], [1, 1]]])) == 0
        reports.append(json.loads((tmp_path / "out" / "report.json").read_text())["result"])
    assert reports[0] == reports[1]
    assert cli._checked_system.cache_info().currsize == 1
    capsys.readouterr()
    assert _run(tmp_path, "analyze", _inline([[["2", 1], [1, 1]]])) == 2
    assert capsys.readouterr().err == ("config error: bad generator entry '2': "
                                       "must be an integer\n")


@pytest.mark.parametrize("cfg, check, message", [
    (_inline([[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], **_HEIS), "validate_automorphism",
     "generators are not lattice automorphisms"),
    # a bracket into the first layer
    (_inline([_CAT3], _HEIS["brackets"], layers=[3]), "validate_algebra",
     "inline algebra invalid"),
    (_inline([[[1, 1], [0, 1]], [[1, 0], [1, 1]]]), "check_commuting",
     "generators do not commute"),
], ids=["bracket-not-preserved", "invalid-algebra", "noncommuting"])
def test_a_failing_system_is_refused_every_time(tmp_path, capsys, spies, cfg, check, message):
    _clear_memos()
    errors = []
    for _ in range(3):
        spies[check].reset_mock()
        assert _run(tmp_path, "analyze", cfg) == 2
        assert spies[check].call_count >= 1          # checked again: nothing was stored
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2] and message in errors[0]
    assert cli._checked_system.cache_info().currsize == 0


def test_toral_systems_of_one_dim_share_one_algebra_check(tmp_path, spies):
    _clear_memos()
    for m in ([[2, 1], [1, 1]], [[3, 2], [1, 1]]):
        assert _run(tmp_path, "analyze", _inline([m])) == 0
    assert spies["validate_algebra"].call_count == 1
    assert spies["validate_automorphism"].call_count == 2


def test_heisenberg_and_abelian_algebras_are_checked_apart(tmp_path, spies):
    _clear_memos()
    dims = []
    for extra in (_HEIS, {}):
        assert _run(tmp_path, "analyze", _inline([_CAT3], **extra)) == 0
        dims.append(json.loads((tmp_path / "out" / "report.json").read_text())
                    ["result"]["central_series_dims"])
    assert spies["validate_algebra"].call_count == 2
    assert dims == [[3, 1, 0], [3, 0]]


def test_system_memos_have_a_fixed_size():
    _clear_memos()
    for n in range(1, 2 * cli._SYSTEM_MEMO + 1):   # one algebra and system per dim
        cli._load_system(_inline([[[int(i == j) for j in range(n)] for i in range(n)]]))
        for memo in (cli._checked_algebra, cli._checked_system):
            assert memo.cache_info().currsize == min(n, cli._SYSTEM_MEMO)


_NONCOMMUTING = [RationalMatrix([[1, 1], [0, 1]]), RationalMatrix([[1, 0], [1, 1]])]


def test_rates_refuse_noncommuting_families():
    algebra = nilalg.abelian_algebra(2)
    with pytest.raises(ValueError, match="commute"):
        rates.theta(algebra, _NONCOMMUTING, rates.TimeTuple.of((0, 0), (1, 0)))
    with pytest.raises(ValueError, match="commute"):
        rates.density_estimate(_NONCOMMUTING, 2, 3.0, 0.1)


_ANALYZE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nilmix.cli import main
code = main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]])
# the peak RSS of this image (ru_maxrss would also count the forking parent)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_large_abelian_system_is_checked_in_seconds(tmp_path):
    # the Jacobi sum contracts only over indices that are both a bracket
    # output and a bracket input; an abelian algebra has none, so a dim-60
    # system with one identity generator is no longer dominated by dim^5
    # products; its dim^4 arrays are int64
    n = 60
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": {"dim": n, "generators": [identity]}}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilalg.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _ANALYZE, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env=env)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 12
    assert int(proc.stdout.split()[-1]) < 300 * 1024       # VmHWM in KiB
    report = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert all(report["algebra_checks"].values())


def test_oversized_dim_is_refused_before_the_algebra_is_built(tmp_path):
    # dim 100 would build dim^4 = 10^8-entry arrays for the tensor
    # checks; the refusal comes before NilpotentAlgebra.from_sparse
    n = 100
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": {"dim": n, "generators": [identity]}}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilalg.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _ANALYZE, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env=env)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr[-2000:]
    error = json.loads(proc.stderr)
    assert error["error"] == "MemoryError" and "dim 100" in error["message"]
    assert elapsed < 10
    assert int(proc.stdout.split()[-1]) < 200 * 1024       # VmHWM in KiB
