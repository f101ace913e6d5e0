"""The per-element checks of a nilpotent system that `nilalg` used before,
kept as the test reference.

`validate_algebra`, `central_series` and `validate_automorphism` walk the
structure constants one bracket at a time: a bilinear `bracket` of two
coordinate vectors, the Jacobi sum of each basis triple, the layer of each
basis vector.  The tensor checks in `nilalg` must give the same verdicts,
the same detail strings and the same central-series bases.
"""

import functools
import itertools
from fractions import Fraction

from nilmix.nilalg import Diagnostics, NilpotentAlgebra, _span_rows


@functools.lru_cache(maxsize=64)
def constants(algebra: NilpotentAlgebra) -> tuple:
    """The structure constants c[i][j][k] as nested tuples of Fractions."""
    return tuple(tuple(tuple(Fraction(x, algebra.den) for x in cs) for cs in plane)
                 for plane in algebra.nums.tolist())


def bracket(algebra: NilpotentAlgebra, v, w) -> tuple:
    """[v, w] = sum_{i,j} v_i w_j c[i][j]."""
    out = [Fraction(0)] * algebra.dim
    for i, plane in enumerate(constants(algebra)):
        for j, cs in enumerate(plane):
            if v[i] and w[j]:
                for k, c in enumerate(cs):
                    out[k] += v[i] * w[j] * c
    return tuple(out)


def layer_of(algebra: NilpotentAlgebra, index: int) -> int:
    """1-based layer number of basis vector index."""
    acc = 0
    for ell, d in enumerate(algebra.layer_dims, start=1):
        acc += d
        if index < acc:
            return ell
    raise IndexError(index)


def validate_algebra(algebra: NilpotentAlgebra) -> Diagnostics:
    """Check antisymmetry, Jacobi, layer (Malcev) ordering and nilpotency step."""
    diag = Diagnostics()
    n = algebra.dim
    if sum(algebra.layer_dims) != n:
        diag.record("layers", False, f"layer dims {algebra.layer_dims} do not sum to {n}")
        return diag
    diag.record("layers", True)
    c = constants(algebra)

    bad = next(((i, j) for i in range(n) for j in range(n)
                if any(c[i][j][k] != -c[j][i][k]
                       for k in range(n))), None)
    diag.record("antisymmetry", bad is None, f"offending pair {bad}" if bad else "")

    def jac(i, j, k):
        ei = [Fraction(int(t == i)) for t in range(n)]
        ej = [Fraction(int(t == j)) for t in range(n)]
        ek = [Fraction(int(t == k)) for t in range(n)]
        s1 = bracket(algebra, ei, bracket(algebra, ej, ek))
        s2 = bracket(algebra, ej, bracket(algebra, ek, ei))
        s3 = bracket(algebra, ek, bracket(algebra, ei, ej))
        return tuple(a + b + c for a, b, c in zip(s1, s2, s3))

    bad = next((t for t in itertools.combinations(range(n), 3)
                if any(x != 0 for x in jac(*t))), None)
    diag.record("jacobi", bad is None, f"offending triple {bad}" if bad else "")

    # bracket of layers p, q must land strictly deeper than max(p, q)
    bad = next(((i, j) for i in range(n) for j in range(n)
                if any(c[i][j][k] for k in range(n)
                       if layer_of(algebra, k) <= max(layer_of(algebra, i),
                                                      layer_of(algebra, j)))),
               None)
    diag.record("malcev_ordering", bad is None, f"offending pair {bad}" if bad else "")

    if diag.ok:
        series = central_series(algebra)
        declared = [
            _span_rows([[Fraction(int(t == s)) for t in range(n)]
                        for s in range(sum(algebra.layer_dims[: j]), n)])
            for j in range(len(algebra.layer_dims))
        ] + [[]]
        match = len(series) == len(declared) and all(
            _span_rows(a) == _span_rows(b) if a and b else (not a and not b)
            for a, b in zip(series, declared))
        diag.record("central_series", match,
                    "" if match else f"computed dims {[len(s) for s in series]}, "
                                     f"declared {[len(d) for d in declared]}")
        diag.record("step", True, f"step {algebra.step}")
    return diag


def central_series(algebra: NilpotentAlgebra) -> list:
    """Exact bases of the descending central series, ending with the empty basis."""
    n = algebra.dim
    full = [tuple(Fraction(int(t == s)) for t in range(n)) for s in range(n)]
    series = [_span_rows(full)]
    current = series[0]
    while current:
        nxt = []
        for v in current:
            for w in full:
                nxt.append(bracket(algebra, v, w))
        current = _span_rows(nxt)
        series.append(current)
        if len(series) > n + 2:
            raise ArithmeticError("central series does not terminate: not nilpotent")
    return series


def validate_automorphism(algebra: NilpotentAlgebra, m) -> Diagnostics:
    diag = Diagnostics()
    if m.dim != algebra.dim:
        diag.record("shape", False, f"matrix dim {m.dim} != algebra dim {algebra.dim}")
        return diag
    diag.record("shape", True)
    diag.record("integer", m.is_integer(), "non-integer entries" if not m.is_integer() else "")
    if m.is_integer():
        det = m.determinant()
        diag.record("unimodular", abs(det) == 1, f"determinant {det}")
    else:
        diag.record("unimodular", False, "not integer")

    n = algebra.dim
    c = constants(algebra)
    cols = [tuple(m.rows[r][col] for r in range(n)) for col in range(n)]
    bad = next(((i, j) for i, j in itertools.combinations(range(n), 2)
                if bracket(algebra, cols[i], cols[j]) != m.apply(c[i][j])),
               None)
    diag.record("bracket_preserved", bad is None,
                f"[Me_{bad[0]}, Me_{bad[1]}] != M[e_{bad[0]}, e_{bad[1]}]" if bad else "")
    return diag
