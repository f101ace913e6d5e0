"""The array observables and solver against the dict-based reference.

Every operation of `FourierObservable` and the small-divisor solver is
compared with `dict_reference` (the dict store and per-mode loops) bit for
bit: floats by their bytes, so that -0.0 and 0.0 differ, and exact
coefficients by equality.  Also the read-only arrays and the one check of
outside input.
"""

import json
import math
import struct
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dict_reference as ref
from nilmix import fourier
from nilmix.cli import main
from nilmix.fourier import ExactComplex, FourierObservable
from nilmix.fracsolve import (
    ObstructionError,
    project_torus_factor,
    sobolev_norm,
    solve_fractional,
    split_small_divisor,
)

from conftest import PHI_INV

COMMON = settings(max_examples=60, deadline=None)

_parts = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-3, 3, allow_nan=False, allow_infinity=False),
                   st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False))
_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def pairs(draw, dim=None, exact=None, bound=4, max_modes=8):
    """An array observable and its dict twin, from the same mapping."""
    dim = draw(st.integers(1, 3)) if dim is None else dim
    exact = draw(st.booleans()) if exact is None else exact
    coeffs = {}
    for _ in range(draw(st.integers(0, max_modes))):
        z = tuple(draw(st.integers(-bound, bound)) for _ in range(dim))
        if exact:
            coeffs[z] = ExactComplex(draw(_fractions), draw(_fractions))
        else:
            coeffs[z] = complex(draw(_parts), draw(_parts))
    return FourierObservable(dim, coeffs, exact), ref.DictObservable(dim, coeffs, exact)


def _bits(x):
    return struct.pack("<d", x)


def _same_value(a, b):
    if isinstance(a, ExactComplex) or isinstance(b, ExactComplex):
        return isinstance(a, ExactComplex) and isinstance(b, ExactComplex) and a == b
    return (_bits(a.real), _bits(a.imag)) == (_bits(b.real), _bits(b.imag))


def _same_scalar(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and _bits(a) == _bits(b)
    return type(a) is type(b) and a == b


def assert_same(new, old):
    assert (new.dim, new.exact) == (old.dim, old.exact)
    assert new.frequencies() == old.frequencies()
    assert all(_same_value(a, b) for (_, a), (_, b) in zip(new.items(), old.items()))
    assert new.freqs.dtype == np.int64


@COMMON
@given(pairs(dim=2), pairs(dim=2))
def test_algebra_matches_the_dict_store(p, q):
    (f, fr), (g, gr) = p, q
    assert_same(f, fr)
    assert_same(f + g, fr + gr)
    assert_same(f - g, fr - gr)
    assert_same(f.conjugate(), fr.conjugate())
    assert_same(f.product(g), fr.product(gr))
    assert_same(f.to_float(), fr.to_float())
    assert _same_scalar(f.l2_sq(), fr.l2_sq())
    assert _same_scalar(f.max_abs(), fr.max_abs())


@COMMON
@given(pairs(max_modes=5), st.sampled_from([2, 3]))
def test_power_matches_the_dict_store(p, n):
    f, fr = p
    assert_same(f.power(n), fr.power(n))


@COMMON
@given(pairs(), st.one_of(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3), st.sampled_from([-1, 0, 2, -0.0]), _fractions,
    st.builds(ExactComplex, _fractions, _fractions)))
def test_scaled_matches_the_dict_store(p, a):
    f, fr = p
    if isinstance(a, ExactComplex) and not f.exact:
        a = complex(a)
    assert_same(f.scaled(a), fr.scaled(a))


@COMMON
@given(pairs())
def test_json_round_trip_matches_the_dict_store(p):
    f, fr = p
    assert f.dumps() == fr.dumps()
    back = FourierObservable.loads(f.dumps())
    assert_same(back, ref.DictObservable(fr.dim, {z: complex(c) for z, c in fr.items()}))


_DIRECTIONS = {
    1: [[(1.0,)], [(0.37,)], [(2,)], [(0.5,), (-1.25,)], [(0.0,)]],
    2: [[(1.0, PHI_INV)], [(1.0, PHI_INV), (0.25, -1.3)], [(1, 2)], [(2, Fraction(1, 3))],
        [(1.0, 0.3), (0.2, -0.7), (-0.5, 0.45)], [(0.0, -0.1)]],
    3: [[(1.0, PHI_INV, 0.2)], [(1, -1, 0), (0.3, 0.1, -0.9)],
        [(0.3, 0.2, 0.1), (-0.2, 0.4, 0.05), (0.1, -0.1, 0.3)]],
}


@st.composite
def solver_cases(draw):
    dim = draw(st.integers(1, 3))
    f, fr = draw(pairs(dim=dim, bound=6, max_modes=12))
    dirs = draw(st.sampled_from(_DIRECTIONS[dim]))
    mode = draw(st.sampled_from(["modulus", "signed"]))
    r = draw(st.sampled_from([1, 2, 3] if mode == "signed" else [0.25, 0.5, 1, 2, 3.5]))
    return f, fr, dirs, r, mode


@COMMON
@given(solver_cases())
def test_split_matches_the_dict_store(case):
    f, fr, dirs, _, _ = case
    sp = split_small_divisor(f, dirs)
    large, small, zero, selector, dots = ref.split_small_divisor(fr, dirs)
    for new, old in ((sp.large, large), (sp.small, small), (sp.zero_mode, zero)):
        assert_same(new, old)
    on = sp.selector >= 0
    zs = [z for z, keep in zip(f.frequencies(), on) if keep]
    assert dict(zip(zs, sp.selector[on].tolist())) == selector
    assert [_bits(x) for x in sp.dots[on].tolist()] == [_bits(dots[z]) for z in zs]
    fixed, rest = project_torus_factor(f, dirs)
    old_fixed, old_rest = ref.project_torus_factor(fr, dirs)
    assert_same(fixed, old_fixed)
    assert_same(rest, old_rest)


def _outcome(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(), None
        except (ObstructionError, ValueError, ZeroDivisionError, OverflowError) as e:
            return None, (type(e), getattr(e, "frequency", None),
                          getattr(e, "direction_index", None))


@COMMON
@given(solver_cases())
def test_solver_matches_the_per_mode_loop(case):
    f, fr, dirs, r, mode = case
    new, err = _outcome(lambda: solve_fractional(f, dirs, r, mode))
    old, old_err = _outcome(lambda: ref.solve_fractional(fr, dirs, r, mode))
    assert err == old_err
    if err is not None:
        return
    phis, norms, small_norms, residual, dropped = old
    assert (new.dropped_mean, _bits(new.residual)) == (dropped, _bits(residual))
    for d, phi, norm, norm_small in zip(new.per_direction, phis, norms, small_norms):
        assert_same(d.phi, phi)
        assert (_bits(d.norm), _bits(d.norm_small)) == (_bits(norm), _bits(norm_small))


@COMMON
@given(solver_cases(), st.sampled_from([0, 0.5, 1, 2, 2.25]))
def test_sobolev_norm_matches_the_dict_store(case, s):
    f, fr, dirs, _, _ = case
    assert _bits(sobolev_norm(f, s)) == _bits(ref.sobolev_norm(fr, s))
    assert _bits(sobolev_norm(f, s, dirs)) == _bits(ref.sobolev_norm(fr, s, dirs))


def test_split_adds_the_divisors_exactly_rounded():
    # left to right these add to 1.0, exactly rounded to 0.9999999999999999
    dirs = [(0.9999999999999998,), (8.980702146154204e-17,), (7.634468418778232e-17,)]
    f = FourierObservable(1, {(1,): 1.0})
    sp = split_small_divisor(f, dirs)
    assert (len(sp.large), len(sp.small)) == (0, 1)
    assert_same(sp.small, ref.split_small_divisor(ref.DictObservable(1, {(1,): 1.0}), dirs)[1])


def test_squares_are_the_ieee_product():
    # glibc's pow(x, 2) rounds this modulus' square one ulp away from x * x;
    # the library squares by the IEEE product, correctly rounded on every libm
    c = 0.5474666735740321 + 0.8816578983073478j
    big = 3 * 2 ** 60 + 12345
    coeffs = {(big, 7): 1.0, (-big + 99, big // 3): 0.5 - 0.25j, (3, 1): c}
    f, fr = FourierObservable(2, coeffs), ref.DictObservable(2, coeffs)
    assert _bits(FourierObservable(2, {(3, 1): c}).l2_sq()) == _bits(abs(c) * abs(c))
    assert _bits(f.l2_sq()) == _bits(fr.l2_sq())
    for s in (0.5, 1, 3):
        assert _bits(sobolev_norm(f, s)) == _bits(ref.sobolev_norm(fr, s))
    assert f.support_radius() == math.sqrt((-big + 99) ** 2 + (big // 3) ** 2)


def test_arrays_are_read_only():
    f = FourierObservable(2, {(1, 0): 1.0, (0, 1): 2.0j})
    for g in (f, f + f, f.conjugate(), f.product(f), f.scaled(2), f.to_float(),
              split_small_divisor(f, [(1.0, PHI_INV)]).large,
              solve_fractional(f, [(1.0, PHI_INV)], 0.5).per_direction[0].phi):
        for a in (g.freqs, g.re, g.im):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


def test_product_refuses_to_wrap_int64():
    f = FourierObservable(1, {(2 ** 62 - 1,): 1.0})
    assert f.power(2).frequencies() == [(2 ** 63 - 2,)]
    with pytest.raises(OverflowError):
        f.power(3)


@pytest.mark.parametrize("data", [
    {"dim": 2, "coeffs": [{"z": "12", "re": 1.0}]},
    {"dim": 2, "coeffs": [{"z": [1.5, 0], "re": 1.0}]},
    {"dim": 2, "coeffs": [{"z": [True, 0], "re": 1.0}]},
    {"dim": 2.7, "coeffs": [{"z": [1, 0], "re": 1.0}]},
    {"dim": 2, "coeffs": [{"z": [1, 0], "re": float("nan")}]},
    {"dim": 2, "coeffs": [{"z": [1, 0], "re": True}]},
    {"dim": 2, "coeffs": [{"z": [1, 0], "re": 1.0}, {"z": [1, 0], "re": 2.0}]},
    {"dim": 2, "coeffs": [{"z": [2 ** 62, 0], "re": 1.0}]},
    {"dim": 2, "coeffs": [{"z": [1, 0, 0], "re": 1.0}]},
    {"dim": 0, "coeffs": []},
    {"dim": 2, "coeffs": {"z": [1, 0]}},
], ids=["string-z", "fractional-z", "bool-z", "fractional-dim", "nan-re", "bool-re",
        "repeated-z", "huge-z", "long-z", "zero-dim", "coeffs-not-a-list"])
def test_outside_input_is_refused(data):
    with pytest.raises(ValueError):
        FourierObservable.from_json_dict(data)


def test_mapping_input_is_refused():
    for dim, coeffs in ((2, {(1, 0): float("inf")}), (2, {(1, 0): True}),
                        (2, {(1,): 1.0}), (2, {(-2 ** 62, 0): 1.0}), (1.5, {})):
        with pytest.raises(ValueError):
            FourierObservable(dim, coeffs)
    assert FourierObservable(2, {(2 ** 62 - 1, 0.0): 1}).frequencies() == [(2 ** 62 - 1, 0)]


def test_one_solve_checks_its_observable_once(tmp_path):
    obs = {"dim": 2, "coeffs": [{"z": [a, b], "re": 1.0 / (1 + a * a + b * b), "im": 0.0}
                                for a in range(-3, 4) for b in range(-3, 4) if a or b]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"system": "catmap", "observable": obs, "r": 0.5}))
    calls = []

    def counted(*args):
        calls.append(args[0])
        return checked(*args)

    checked = fourier._checked
    with mock.patch.object(fourier, "_checked", counted):
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [2]
