"""The whole-list check of outside observable input against the
per-element reference in `checker_reference`.

Every input, well formed or not, must get the same verdict from both: the
same arrays when accepted (floats compared by their bytes, so that -0.0
and 0.0 differ), the same exception type and message when refused.  The
strategies lean on the edges of each rule: bools, strings and None where a
number belongs, NaN and infinities, ints just beyond the float max,
frequency coordinates about 2^62 and 2^63, integral and fractional floats
as coordinates, wrong lengths, repeated frequencies, extra keys, entries
that are not objects, and the numpy scalars a mapping may hold.
"""

import math
import sys
from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings, strategies as st

import checker_reference as ref
from nilmix import fourier

CHECKS = settings(max_examples=300, deadline=None)

_FMAX = sys.float_info.max
_BIG = int(_FMAX)
# ints about the float max (those in (max, max + 2^970) round down to it),
# and coordinates about +-2^62 and +-2^63
_fmax_ints = [s * (_BIG + k) for s in (1, -1) for k in (0, 1, 2 ** 969, 2 ** 970)]
_pow2_ints = [s * (2 ** e + k) for s in (1, -1) for e in (62, 63) for k in (-1, 0, 1)]

_numpy_scalars = st.one_of(
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.int64, st.integers(-3, 3)),
    st.builds(np.uint64, st.integers(0, 2 ** 64 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float64, st.integers(-3, 3)),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.bool_, st.booleans()),
)
_junk = st.one_of(st.booleans(), st.text(max_size=2), st.none(),
                  st.lists(st.integers(0, 2), max_size=2))

# the values a defect plants: where a coefficient part or a frequency
# coordinate belongs, or in place of a frequency or an entry
_odd_parts = st.one_of(
    st.integers(-10, 10), st.floats(), st.sampled_from(_fmax_ints),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, _FMAX, -_FMAX, 2 ** 1024]),
    _numpy_scalars, _junk)
_odd_coords = st.one_of(
    st.integers(-3, 3).map(float), st.sampled_from(_pow2_ints),
    st.sampled_from(_pow2_ints).map(float), st.floats(),
    st.sampled_from([0.5, -2.5, 1e300, math.nan, math.inf, -math.inf]),
    _numpy_scalars, _junk)
_odd_things = st.one_of(_junk, st.integers(), st.dictionaries(st.sampled_from("zx"),
                                                              st.integers(0, 2)))


@st.composite
def wire_data(draw):
    """A well formed observable in the wire format with up to four
    defects planted in it, each at a drawn place: an odd coordinate, part
    or dim, a frequency of another length or kind, a repeated frequency,
    a missing or an extra key, an entry that is not an object."""
    dim = draw(st.integers(1, 3))
    zs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
                       min_size=1, max_size=8, unique_by=tuple))
    parts = st.floats(allow_nan=False, allow_infinity=False)
    entries = [{"z": z, "re": draw(parts), "im": draw(parts)} for z in zs]
    data = {"dim": dim, "coeffs": entries}
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.sampled_from(entries))
        if not isinstance(e, dict):
            continue
        kind = draw(st.sampled_from(["coord"] * 6 + ["part"] * 6 + [
                                     "tuple", "length", "frequency", "repeat",
                                     "missing", "extra-key", "entry", "dim", "top"]))
        if kind == "coord" and isinstance(e.get("z"), list) and e["z"]:
            e["z"][draw(st.integers(0, len(e["z"]) - 1))] = draw(_odd_coords)
        elif kind == "part":
            e[draw(st.sampled_from(["re", "im"]))] = draw(_odd_parts)
        elif kind == "tuple" and isinstance(e.get("z"), list):
            e["z"] = tuple(e["z"])
        elif kind == "length" and isinstance(e.get("z"), list):
            e["z"] = e["z"][1:] if draw(st.booleans()) else e["z"] + [0]
        elif kind == "frequency":
            e["z"] = draw(_odd_things)
        elif kind == "repeat":
            e["z"] = draw(st.sampled_from(zs))
        elif kind == "missing" and e:
            del e[draw(st.sampled_from(sorted(e)))]
        elif kind == "extra-key":
            e[draw(st.sampled_from(["x", "zz", "RE"]))] = 1.0
        elif kind == "entry":
            entries[entries.index(e)] = draw(_odd_things)
        elif kind == "dim":
            data["dim"] = draw(st.sampled_from([0, -1, 2.0, 2.5, True, "2", None, math.inf,
                                                np.int64(dim), np.float64(dim)]))
        elif kind == "top":
            roll = draw(st.integers(0, 2))
            if roll == 0:
                data["extra"] = 1
            elif roll == 1:
                data["coeffs"] = draw(_junk)
            else:
                data.pop("coeffs", None)    # a second "top" defect may have removed it
    return data if draw(st.integers(0, 39)) != 20 else draw(_junk)


def _outcome(json_parts, checked, *args):
    """Accepted arrays (dtype, shape and bytes, or values for object
    arrays), or the refusal's exception type and message."""
    try:
        dim, freqs, re, im = checked(*(json_parts(*args) if json_parts else args))
    except Exception as e:     # noqa: BLE001 -- the two must refuse alike
        return type(e), str(e)
    arrays = [(a.dtype.str, a.shape, a.tobytes() if a.dtype != object else a.tolist())
              for a in (freqs, re, im)]
    return dim, arrays


@CHECKS
@given(wire_data())
# abs() of np.int64(-2^63) overflows; the part beyond the float range refuses
@example({"dim": 1, "coeffs": [{"z": [0], "re": 2 ** 1024 + 1, "im": np.int64(-2 ** 63)},
                               {"z": [1], "re": 0.0, "im": 0.0}]})
def test_wire_format_check_matches_the_reference(data):
    got = _outcome(fourier._json_parts, lambda *p: fourier._checked(*p, False), data)
    want = _outcome(ref.json_parts, lambda *p: ref.checked(*p, False), data)
    assert got == want


@st.composite
def mapping_parts(draw):
    """The constructor's lists from a mapping: keys of ints or numpy
    scalars, now and then an odd one, and floats or Fractions for parts."""
    dim = draw(st.integers(1, 3))
    exact = draw(st.booleans())
    coord = st.one_of(st.integers(-4, 4), st.builds(np.int64, st.integers(-4, 4)),
                      st.builds(np.int32, st.integers(-4, 4)))
    keys = draw(st.lists(st.tuples(*[coord] * dim), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if keys:
            i, j = draw(st.integers(0, len(keys) - 1)), draw(st.integers(0, dim - 1))
            keys[i] = keys[i][:j] + (draw(_odd_coords),) + keys[i][j + 1:]
    part = st.fractions(max_denominator=9) if exact else \
        st.floats(allow_nan=False, allow_infinity=False)
    re = draw(st.lists(part, min_size=len(keys), max_size=len(keys)))
    im = draw(st.lists(part, min_size=len(keys), max_size=len(keys)))
    return dim, keys, re, im, exact


@CHECKS
@given(mapping_parts())
def test_mapping_check_matches_the_reference(parts):
    assert _outcome(None, fourier._checked, *parts) == _outcome(None, ref.checked, *parts)


def test_edge_values_get_the_reference_verdict():
    # the edges the strategies above aim at, each checked once by name
    for coords, message in (
            ([2 ** 62 - 1, 0], None),
            ([-(2 ** 62 - 1), 0], None),
            ([2 ** 62, 0], "below 2^62"),
            ([-2 ** 62, 0], "below 2^62"),
            ([2 ** 63, 0], "below 2^62"),
            ([np.int64(-2 ** 63), 0], "below 2^62"),
            ([np.uint64(2 ** 63), 0], "below 2^62"),
            ([float(2 ** 62), 0], "below 2^62"),
            ([1e300, 0], "below 2^62"),
            ([3.0, np.float64(-2.0)], None),
            ([0.5, 0], "must be integers"),
            ([math.inf, 0], "must be integers"),
            ([True, 0], "must be integers"),
            ([np.bool_(False), 0], "must be integers")):
        data = {"dim": 2, "coeffs": [{"z": coords, "re": 1.0}]}
        want = _outcome(ref.json_parts, lambda *p: ref.checked(*p, False), data)
        assert _outcome(fourier._json_parts, lambda *p: fourier._checked(*p, False),
                        data) == want
        assert (want[0] is ValueError and message in want[1]) if message else want[0] == 2
    for part, ok in ((_FMAX, True), (-_BIG, True), (_BIG + 1, False),
                     (2 ** 1024, False), (math.nan, False), (-math.inf, False)):
        data = {"dim": 1, "coeffs": [{"z": [1], "re": part, "im": 0}]}
        assert fourier._all_numbers([part, 0]) is ok
        assert _outcome(fourier._json_parts, lambda *p: fourier._checked(*p, False),
                        data) == _outcome(ref.json_parts,
                                          lambda *p: ref.checked(*p, False), data)


def test_malformed_wire_entries_keep_their_messages():
    # the parts are read by one C-level map per key; each defect is still
    # refused with the message the per-entry reader gave
    entries_msg = "'coeffs' must be a list of entries with keys z, re, im"
    parts_msg = "coefficient parts 're', 'im' must be finite numbers"
    for coeffs, message in (
            ([{"z": [1], "re": 1.0}, [[1], 1.0, 0.0]], entries_msg),
            ([{"z": [1], "re": 1.0}, "z"], entries_msg),
            ([{"z": [1], "re": 1.0, "phase": 0.0}], entries_msg),
            ([{"z": [1], "re": True}], parts_msg),
            ([{"z": [1], "re": 1.0, "im": False}], parts_msg),
            ([{"z": [1], "re": "1.0"}], parts_msg),
            ([{"z": [1], "im": "0"}], parts_msg)):
        data = {"dim": 1, "coeffs": coeffs}
        for json_parts in (fourier._json_parts, ref.json_parts):
            try:
                json_parts(data)
            except ValueError as e:
                assert str(e) == message
            else:
                raise AssertionError(f"{json_parts.__module__} accepted {coeffs!r}")


def test_missing_wire_parts_read_as_zero():
    coeffs = [{"z": [1, 0], "re": 2.5}, OrderedDict([("im", -1.5), ("z", [0, 1])]),
              OrderedDict([("z", [2, 2])]), {"im": 3.0, "z": [-1, 4], "re": 0.25}]
    dim, zs, re, im = fourier._json_parts({"dim": 2, "coeffs": coeffs})
    assert (dim, zs) == (2, [[1, 0], [0, 1], [2, 2], [-1, 4]])
    assert (re, im) == ([2.5, 0.0, 0.0, 0.25], [0.0, -1.5, 0.0, 3.0])
    assert [type(x) for x in re + im] == [float] * 8
    f = fourier.FourierObservable.from_json_dict({"dim": 2, "coeffs": coeffs})
    assert f.coeffs == {(-1, 4): 0.25 + 3j, (0, 1): -1.5j, (1, 0): 2.5 + 0j}
