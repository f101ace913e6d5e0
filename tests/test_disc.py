"""The integer root disc, `exactlin.Disc`, and the one home of its format.

Each map of a disc (conjugate, inverse, squared modulus, polynomial
evaluation) must hold the exact image of every point of the disc it came
from.  The points are taken on the boundary, inside and at the centre of
discs at 128 and 256 bits, among them discs whose boundary passes through
0, and mapped at 2048 bits.  `inverse` refuses exactly the discs that
reach 0, and `meets` is the exact comparison of the distance of the
centres with the sum of the radii.

The scale 2^-(prec + _DISC_BITS) of the disc coordinates is known to
`Disc` and to `_certified_roots`, which makes the discs, only: no other
code in src/nilmix reads `_DISC_BITS`, and no function takes both a disc
and a precision.
"""

import ast
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import given, settings, strategies as st

from nilmix.exactlin import Disc

SRC = Path(__file__).resolve().parents[1] / "src" / "nilmix"
MAPS = settings(max_examples=100, deadline=None)

# exact points on the unit circle, ((1 - t^2) / (1 + t^2), 2t / (1 + t^2))
_UNIT = [(Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
         for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1, 3),
                   Fraction(-3), Fraction(5, 7), Fraction(-7, 5))] + [(Fraction(-1), Fraction(0))]


def _magnitude(draw, lo: int, hi: int) -> int:
    """An integer in [2^(e-1), 2^e], e drawn from lo..hi (0 or 1 for e = 0),
    so the magnitudes spread over the range whatever the low bits."""
    e = draw(st.integers(lo, hi))
    return draw(st.integers(1 << e - 1, 1 << e) if e else st.integers(0, 1))


@st.composite
def _discs(draw) -> Disc:
    """Discs at 128 or 256 bits: centre parts and radii of every magnitude
    from 0 to 2^8 and 2^6, or a disc whose boundary passes through 0 (centre
    and radius a scaled Pythagorean triple, so |c|^2 = r^2 exactly)."""
    prec = draw(st.sampled_from([128, 256]))
    bits = prec + 64
    sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 50))
        n = draw(st.integers(0, m))
        a = _magnitude(draw, 1, bits - 12)
        x, y, r = a * (m * m - n * n), a * 2 * m * n, a * (m * m + n * n)
        x, y = (sy * y, sx * x) if draw(st.booleans()) else (sx * x, sy * y)
        return Disc(x, y, r, prec)
    x, y = sx * _magnitude(draw, 0, bits + 8), sy * _magnitude(draw, 0, bits + 8)
    return Disc(x, y, _magnitude(draw, 0, bits + 6), prec)


def _mp(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def _points(disc: Disc, t: Fraction) -> list:
    """Points of disc in units of 1 at 2048 bits: the centre, the boundary at
    the exact unit vectors and farthest from and nearest to 0, and points at
    t and t / 2 of the radius (0 <= t <= 1)."""
    x, y, r, _ = disc
    unit = mpmath.ldexp(1, -disc.bits)
    c = mpmath.mpc(x, y)
    far = c / abs(c) if x or y else mpmath.mpc(1, 0)
    dirs = [mpmath.mpc(_mp(u), _mp(v)) for u, v in _UNIT] + [far, -far]
    out = [c * unit] + [(c + r * d) * unit for d in dirs]
    return out + [(c + s * r * d) * unit for s in (_mp(t), _mp(t) / 2)
                  for d in dirs[::3]]


def _holds(image: Disc, w) -> bool:
    """Whether w (in units of 1) lies in image, up to 2^-1000 of one disc
    unit, far below every outward rounding of the maps (at least one unit)."""
    dist = abs(w * mpmath.ldexp(1, image.bits) - mpmath.mpc(image.x, image.y))
    return dist <= image.r + mpmath.ldexp(1, -1000)


def _horner(nums: tuple, z):
    out = mpmath.mpc(0)
    for c in reversed(nums):
        out = out * z + c
    return out


@MAPS
@given(disc=_discs(), nums=st.lists(st.integers(-100, 100), min_size=1, max_size=6).map(tuple),
       t=st.fractions(0, 1))
def test_disc_maps_hold_the_2048_bit_images(disc, nums, t):
    x, y, r, prec = disc
    with mpmath.workprec(2048):
        points = _points(disc, t)
        images = {"conjugate": (disc.conjugate(), mpmath.conj),
                  "squared_modulus": (disc.squared_modulus(), lambda z: abs(z) ** 2),
                  "evaluate": (disc.evaluate(nums), lambda z: _horner(nums, z))}
        inverse = disc.inverse()
        assert (inverse is None) == (x * x + y * y - r * r <= 0)
        if inverse is not None:
            images["inverse"] = (inverse, lambda z: 1 / z)
        for name, (image, exact) in images.items():
            assert image.prec == prec, name
            for w in points:
                assert _holds(image, exact(w)), (name, w)


@MAPS
@given(a=_discs(), data=st.data())
def test_meets_is_the_exact_distance_comparison(a, data):
    # the second disc touches the first from outside along an exact
    # Pythagorean direction (p, q) / h, lies one unit nearer or farther, or
    # lies anywhere
    if data.draw(st.booleans()):
        p, q, h = data.draw(st.sampled_from([(1, 0, 1), (0, -1, 1), (3, 4, 5), (-5, 12, 13),
                                             (8, -15, 17), (-7, -24, 25)]))
        k = -(-a.r // h) + data.draw(st.integers(0, 1 << a.bits))
        shift = data.draw(st.sampled_from([0, -1, 1]))
        b = Disc(a.x + p * k + shift, a.y + q * k, h * k - a.r, a.prec)
    else:
        size = 1 << a.bits + 4
        b = Disc(data.draw(st.integers(-size, size)), data.draw(st.integers(-size, size)),
                 data.draw(st.integers(0, size)), a.prec)
    scale = Fraction(1, 1 << a.bits)
    dx, dy = (b.x - a.x) * scale, (b.y - a.y) * scale
    assert a.meets(b) == b.meets(a) == (dx * dx + dy * dy <= ((a.r + b.r) * scale) ** 2)


def _top_level_names(node: ast.AST, wanted) -> set:
    """The names of the module-level definitions (or <module>) in which a
    node satisfying wanted occurs."""
    out = set()
    for top in node.body:
        if any(wanted(n) for n in ast.walk(top)):
            out.add(getattr(top, "name", "<module>"))
    return out


def _is_disc(arg: ast.arg) -> bool:
    return "disc" in arg.arg.lower() or (arg.annotation is not None
                                         and "Disc" in ast.unparse(arg.annotation))


def _is_precision(arg: ast.arg) -> bool:
    return arg.arg.startswith("prec") or arg.arg == "bits"


def test_the_disc_format_has_one_home():
    readers, both = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        readers |= _top_level_names(tree, lambda n: isinstance(n, ast.Name)
                                    and n.id == "_DISC_BITS" and isinstance(n.ctx, ast.Load))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                if any(map(_is_disc, args)) and any(map(_is_precision, args)):
                    both.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert readers <= {"Disc", "_certified_roots"}
    assert both == []
