"""Nilpotent Lie algebras in Malcev coordinates and their lattice automorphisms.

The algebra is given by structure constants in an ordered basis that is
adapted to the descending central series (layers).  Automorphisms are
integer unimodular matrices in these coordinates that preserve the bracket
exactly.  The spectral classification (ergodicity, rational/irrational
type, stable/neutral/unstable data) is computed from the exact primary
decomposition of the linear part.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .exactlin import (
    _MEMO_SIZE,
    IntPolynomial,
    LyapunovSplitting,
    PrecisionError,
    PrimaryDecomposition,
    RationalMatrix,
    _rref,
    factor_roots,
    lyapunov_data,
    primary_decomposition,
    rational_kernel,
)

__all__ = [
    "NilpotentAlgebra",
    "Diagnostics",
    "SpectralClassification",
    "RegularElement",
    "abelian_algebra",
    "heisenberg_algebra",
    "filiform4_algebra",
    "validate_algebra",
    "central_series",
    "validate_automorphism",
    "abelianization_action",
    "classify",
    "cyclotomic_part",
    "intersect_spans",
    "action_matrix",
    "n2_of_family",
    "lyapunov_functionals",
    "find_regular_element",
]


# ---------------------------------------------------------------------------
# Algebra container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilpotentAlgebra:
    """Structure constants c[i][j][k] meaning [e_i, e_j] = sum_k c[i][j][k] e_k.

    layer_dims partitions the ordered basis into layers; layer j together
    with all deeper layers must span the j-th term of the descending
    central series.
    """

    dim: int
    brackets: tuple          # dim x dim x dim nested tuples of Fraction
    layer_dims: tuple        # e.g. (2, 1) for the 3-dim Heisenberg algebra

    @staticmethod
    def from_sparse(dim: int, layer_dims: Sequence[int], entries: dict) -> "NilpotentAlgebra":
        """entries maps (i, j) -> {k: value}; antisymmetric completion is applied."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), comp in entries.items():
            for k, v in comp.items():
                c[i][j][k] = Fraction(v)
                c[j][i][k] = -Fraction(v)
        frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
        return NilpotentAlgebra(dim, frozen, tuple(layer_dims))

    @cached_property
    def _nonzero(self) -> dict:
        """(i, j) -> its nonzero (k, c[i][j][k]), for every pair with one."""
        return {(i, j): tuple((k, c) for k, c in enumerate(cs) if c)
                for i, plane in enumerate(self.brackets) for j, cs in enumerate(plane) if any(cs)}

    def bracket(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> tuple:
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self._nonzero.items():
            for k, c in terms:
                out[k] += v[i] * w[j] * c
        return tuple(out)

    def basis_bracket(self, i: int, j: int) -> tuple:
        return self.brackets[i][j]

    def layer_of(self, index: int) -> int:
        """1-based layer number of basis vector index."""
        acc = 0
        for ell, d in enumerate(self.layer_dims, start=1):
            acc += d
            if index < acc:
                return ell
        raise IndexError(index)

    def layer_slice(self, layer: int) -> range:
        start = sum(self.layer_dims[: layer - 1])
        return range(start, start + self.layer_dims[layer - 1])

    @property
    def step(self) -> int:
        return len(self.layer_dims)


def abelian_algebra(dim: int) -> NilpotentAlgebra:
    return NilpotentAlgebra.from_sparse(dim, (dim,), {})


def heisenberg_algebra() -> NilpotentAlgebra:
    """[X, Y] = Z on basis (X, Y, Z)."""
    return NilpotentAlgebra.from_sparse(3, (2, 1), {(0, 1): {2: 1}})


def filiform4_algebra() -> NilpotentAlgebra:
    """[e1, e2] = e3, [e1, e3] = e4 on basis (e1, e2, e3, e4)."""
    return NilpotentAlgebra.from_sparse(4, (2, 1, 1), {(0, 1): {2: 1}, (0, 2): {3: 1}})


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------

@dataclass
class Diagnostics:
    checks: dict = field(default_factory=dict)   # name -> (bool, detail)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = (ok, detail)

    @property
    def ok(self) -> bool:
        return all(flag for flag, _ in self.checks.values())

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, (flag, detail) in self.checks.items() if not flag]

    def __repr__(self):
        status = "pass" if self.ok else "FAIL " + "; ".join(self.failures())
        return f"Diagnostics({status})"


def _span_rows(vectors: Sequence[Sequence[Fraction]]) -> list[tuple]:
    """Reduced row-echelon basis of the rational span."""
    red, pivots, _ = _rref(vectors)
    return [tuple(row) for row in red[: len(pivots)]]


def _in_span(v: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> bool:
    probe = _span_rows(list(basis) + [list(v)])
    return len(probe) == len(_span_rows(basis))


def validate_algebra(algebra: NilpotentAlgebra) -> Diagnostics:
    """Check antisymmetry, Jacobi, layer (Malcev) ordering and nilpotency step."""
    diag = Diagnostics()
    n = algebra.dim
    if sum(algebra.layer_dims) != n:
        diag.record("layers", False, f"layer dims {algebra.layer_dims} do not sum to {n}")
        return diag
    diag.record("layers", True)

    bad = next(((i, j) for i in range(n) for j in range(n)
                if any(algebra.brackets[i][j][k] != -algebra.brackets[j][i][k]
                       for k in range(n))), None)
    diag.record("antisymmetry", bad is None, f"offending pair {bad}" if bad else "")

    def jac(i, j, k):
        ei = [Fraction(int(t == i)) for t in range(n)]
        ej = [Fraction(int(t == j)) for t in range(n)]
        ek = [Fraction(int(t == k)) for t in range(n)]
        s1 = algebra.bracket(ei, algebra.bracket(ej, ek))
        s2 = algebra.bracket(ej, algebra.bracket(ek, ei))
        s3 = algebra.bracket(ek, algebra.bracket(ei, ej))
        return tuple(a + b + c for a, b, c in zip(s1, s2, s3))

    bad = next((t for t in itertools.combinations(range(n), 3)
                if any(x != 0 for x in jac(*t))), None)
    diag.record("jacobi", bad is None, f"offending triple {bad}" if bad else "")

    # bracket of layers p, q must land strictly deeper than max(p, q)
    bad = next(((i, j) for i in range(n) for j in range(n)
                if any(algebra.brackets[i][j][k] for k in range(n)
                       if algebra.layer_of(k) <= max(algebra.layer_of(i), algebra.layer_of(j)))),
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


def central_series(algebra: NilpotentAlgebra) -> list[list[tuple]]:
    """Exact bases of the descending central series, ending with the empty basis."""
    n = algebra.dim
    full = [tuple(Fraction(int(t == s)) for t in range(n)) for s in range(n)]
    series = [_span_rows(full)]
    current = series[0]
    while current:
        nxt = []
        for v in current:
            for w in full:
                nxt.append(algebra.bracket(v, w))
        current = _span_rows(nxt)
        series.append(current)
        if len(series) > n + 2:
            raise ArithmeticError("central series does not terminate: not nilpotent")
    return series


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def validate_automorphism(algebra: NilpotentAlgebra, m: RationalMatrix) -> Diagnostics:
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
    cols = [tuple(m.rows[r][c] for r in range(n)) for c in range(n)]
    bad = next(((i, j) for i, j in itertools.combinations(range(n), 2)
                if algebra.bracket(cols[i], cols[j]) != m.apply(algebra.basis_bracket(i, j))),
               None)
    diag.record("bracket_preserved", bad is None,
                f"[Me_{bad[0]}, Me_{bad[1]}] != M[e_{bad[0]}, e_{bad[1]}]" if bad else "")
    return diag


def abelianization_action(algebra: NilpotentAlgebra, m: RationalMatrix) -> RationalMatrix:
    """Exact induced matrix on the quotient by the derived subalgebra.

    In Malcev coordinates the derived subalgebra is spanned by the layers
    below the first, so the induced map is the leading layer-1 block.
    """
    d1 = algebra.layer_dims[0]
    for c in range(d1, algebra.dim):
        for r in range(d1):
            if m.rows[r][c] != 0:
                raise ValueError("matrix does not preserve the derived subalgebra")
    return RationalMatrix([row[:d1] for row in m.rows[:d1]])


# ---------------------------------------------------------------------------
# Spectral classification
# ---------------------------------------------------------------------------

def _blocks_span(pd: PrimaryDecomposition, root_of_unity: bool) -> list[tuple]:
    """Exact basis of the sum of the primary blocks with (or without)
    root-of-unity eigenvalues."""
    return _span_rows([v for blk in pd.blocks
                       if (blk.cyclotomic_order is not None) == root_of_unity
                       for v in blk.basis])


def cyclotomic_part(m: RationalMatrix) -> list[tuple]:
    """Exact basis of the sum of primary blocks with root-of-unity eigenvalues."""
    return _blocks_span(primary_decomposition(m), True)


def is_ergodic(algebra: NilpotentAlgebra, m: RationalMatrix) -> bool:
    """Ergodicity criterion: no root-of-unity eigenvalue on the abelianization."""
    ab = abelianization_action(algebra, m)
    return all(blk.cyclotomic_order is None for blk in primary_decomposition(ab).blocks)


@dataclass
class SpectralClassification:
    ergodic: bool
    rational_type: bool                  # True iff the root-of-unity core is nonzero
    n_z1: list                           # exact basis, no root-of-unity eigenvalues
    n_z2: list                           # exact basis, only root-of-unity eigenvalues
    w_minus: np.ndarray
    w_zero: np.ndarray
    w_plus: np.ndarray
    abelianization: RationalMatrix

    @property
    def type_name(self) -> str:
        return "rational" if self.rational_type else "irrational"


def classify(algebra: NilpotentAlgebra, m: RationalMatrix,
             precision_bits: int = 128) -> SpectralClassification:
    diag = validate_automorphism(algebra, m)
    if not diag.ok:
        raise ValueError(f"not a lattice automorphism: {diag.failures()}")
    pd = primary_decomposition(m)
    n_z2 = _blocks_span(pd, True)
    n_z1 = _blocks_span(pd, False)
    if len(n_z1) + len(n_z2) != algebra.dim:
        raise ArithmeticError("root-of-unity splitting does not fill the space")
    split = lyapunov_data(m, precision_bits)
    return SpectralClassification(
        ergodic=is_ergodic(algebra, m),
        rational_type=bool(n_z2),
        n_z1=n_z1,
        n_z2=n_z2,
        w_minus=split.w_minus(),
        w_zero=split.w_zero(),
        w_plus=split.w_plus(),
        abelianization=abelianization_action(algebra, m),
    )


# ---------------------------------------------------------------------------
# Commuting families, regular elements
# ---------------------------------------------------------------------------

def check_commuting(generators: Sequence[RationalMatrix]):
    for a, b in itertools.combinations(generators, 2):
        if a * b != b * a:
            raise ValueError("generators do not commute exactly")


def action_matrix(generators: Sequence[RationalMatrix], z: Sequence[int]) -> RationalMatrix:
    if len(z) != len(generators):
        raise ValueError("length mismatch")
    out = RationalMatrix.identity(generators[0].dim)
    for g, e in zip(generators, z):
        if e:
            out = out * (g ** int(e))
    return out


def intersect_spans(a: Sequence[tuple], b: Sequence[tuple], dim: int) -> list[tuple]:
    """Exact intersection of two rational spans (both given by bases)."""
    if not a or not b:
        return []
    # x = A^T c lies in span(b) iff x = B^T d for some d: (c, d) in ker [A^T | -B^T]
    mat = [[v[d] for v in a] + [-w[d] for w in b] for d in range(dim)]
    return _span_rows([tuple(sum(c * v[d] for c, v in zip(combo, a)) for d in range(dim))
                       for combo in rational_kernel(mat)])


def n2_of_family(generators: Sequence[RationalMatrix]) -> list[tuple]:
    """Exact common root-of-unity core of a commuting family.

    Equals the intersection of the cyclotomic parts of the generators:
    on that intersection every product of generators has only
    root-of-unity eigenvalues (simultaneous triangularization), and any
    single generator already confines it.
    """
    check_commuting(generators)
    dim = generators[0].dim
    core = cyclotomic_part(generators[0])
    for g in generators[1:]:
        core = intersect_spans(core, cyclotomic_part(g), dim)
        if not core:
            break
    return core


_WEIGHT = 37                  # generator i enters the separating sum with weight 37**i
_UNIT_ROUNDOFF = 2.0 ** -53   # of a double


@dataclass(frozen=True)
class Functional:
    """Lyapunov functional of a commuting family: z -> sum_i z_i * exponents[i]."""

    exponents: tuple          # one log-modulus per generator
    err: float

    def __call__(self, z: Sequence[float]) -> float:
        return float(sum(e * x for e, x in zip(self.exponents, z)))

    def is_zero(self) -> bool:
        return all(e == 0.0 for e in self.exponents) and self.err == 0.0


def lyapunov_functionals(generators: Sequence[RationalMatrix],
                         precision_bits: int = 128) -> tuple[Functional, ...]:
    """Distinct Lyapunov functionals of a commuting integer family.

    On each primary block of h = sum_i _WEIGHT**i g_i (a joint block) g_i is
    p_i(h) plus a nilpotent part; each certified root mu of the block's
    factor picks per generator the lyapunov_data(g_i) class of log|p_i(mu)|.
    A functional is a distinct class tuple, with the class exponents and the
    largest class error (proven modulus-one classes give an exact zero).
    Sorted by class indices; memoized per (generators, precision)."""
    return _functionals(tuple(generators), precision_bits)


@lru_cache(maxsize=_MEMO_SIZE)
def _functionals(gens: tuple, precision_bits: int) -> tuple[Functional, ...]:
    check_commuting(gens)
    splits = [lyapunov_data(g, precision_bits) for g in gens]
    h = reduce(operator.add, (g.scale(_WEIGHT ** i) for i, g in enumerate(gens)))
    tuples = set()
    for blk in primary_decomposition(h).blocks:
        h_b = restrict_to_span(h, blk.basis)
        pairing = [_pairing(h_b, restrict_to_span(g, blk.basis), blk.factor) for g in gens]
        for root in factor_roots(blk.factor, precision_bits).roots:
            tuples.add(tuple(_class_of(p, root, s) for p, s in zip(pairing, splits)))
    return tuple(Functional(tuple(s.blocks[c].exponent for c, s in zip(t, splits)),
                            max(s.blocks[c].exponent_err for c, s in zip(t, splits)))
                 for t in sorted(tuples))


def restrict_to_span(m: RationalMatrix, basis: Sequence[tuple]) -> RationalMatrix:
    """Exact matrix of m on an m-invariant span.  The basis (rational_kernel
    vectors or reduced echelon rows) has each vector equal to 1 at a column
    where the others vanish, so coordinates are read at those columns."""
    cols = [next(j for j, x in enumerate(v) if x == 1
                 and all(w[j] == 0 for k, w in enumerate(basis) if k != i))
            for i, v in enumerate(basis)]
    images = [m.apply(v) for v in basis]
    return RationalMatrix([[img[c] for img in images] for c in cols])


def _pairing(h_b: RationalMatrix, g_b: RationalMatrix, q: IntPolynomial) -> IntPolynomial:
    """The p, deg p < deg q, with g_b - p(h_b) nilpotent on the primary block
    of the irreducible factor q, from the (nondegenerate) trace system
    sum_j a_j tr(h_b^(j+k)) = tr(h_b^k g_b), k < deg q."""
    e = q.degree
    powers = list(itertools.accumulate([h_b] * (2 * e - 2), operator.mul,
                                       initial=RationalMatrix.identity(h_b.dim)))
    gram = RationalMatrix([[powers[j + k].trace() for j in range(e)] for k in range(e)])
    p = IntPolynomial(gram.inverse().apply([(powers[k] * g_b).trace() for k in range(e)]))
    if any(x for row in ((g_b - p.evaluate_matrix(h_b)) ** h_b.dim).rows for x in row):
        raise ArithmeticError("the weighted sum does not separate the joint eigenvalues")
    return p


def _class_of(p: IntPolynomial, root: tuple, split: LyapunovSplitting) -> int:
    """Index of the class of split holding log|p(mu)|, mu the certified root.

    |p(mu~) - p(mu)| <= P(|mu~| + d) - P(|mu~|), P with p's absolute
    coefficients and d the root error plus mu~'s rounding; Horner in doubles
    adds (4 deg p + 8) u P(|mu~| + d).  Class exponents are widened by their
    own rounding, 8 u (1 + |exponent|)."""
    mu, err = root
    u, r = _UNIT_ROUNDOFF, abs(mu)
    upper = sum(abs(float(c)) * (r + err + 2 * u * r) ** j for j, c in enumerate(p.coeffs))
    lower = sum(abs(float(c)) * r ** j for j, c in enumerate(p.coeffs))
    bound = upper - lower + (4 * p.degree + 8) * u * upper
    value = abs(p.evaluate(mu))
    if value <= bound:
        raise PrecisionError("joint eigenvalue not separated from zero")
    lo, hi = math.log(value - bound), math.log(value + bound)
    hits = [k for k, b in enumerate(split.blocks)
            if abs(b.exponent - min(max(b.exponent, lo), hi))
            <= b.exponent_err + 8 * u * (1 + abs(b.exponent))]
    if len(hits) != 1:
        raise PrecisionError(f"log|p(mu)| = {math.log(value):.6g} matches "
                             f"{len(hits)} Lyapunov classes; raise precision")
    return hits[0]


@dataclass
class RegularElement:
    z: tuple
    core_basis: list                      # exact basis of the root-of-unity core
    functional_values: list               # |chi(z)| per nonzero functional
    pair_separations: list                # |chi1(z) - chi2(z)| per distinct pair
    certificate_margin: float             # smallest certified distance to a hyperplane


_BAD_M_MARGIN = 16


def find_regular_element(algebra: NilpotentAlgebra,
                         generators: Sequence[RationalMatrix],
                         precision_bits: int = 128) -> RegularElement:
    """A regular integer time z whose root-of-unity part equals the core.

    Search: iteratively shrink the root-of-unity part of the current
    candidate by combinations m*z' + z with exact cyclotomic detection on
    the combined matrix (finitely many bad m per eigenvalue pair), then
    perturb along a regular direction to also avoid all Lyapunov and
    coincidence hyperplanes.
    """
    for g in generators:
        diag = validate_automorphism(algebra, g)
        if not diag.ok:
            raise ValueError(f"invalid generator: {diag.failures()}")
    ell = len(generators)
    dim = generators[0].dim
    target_dim = len(n2_of_family(generators))
    # finitely many combination scales m are bad for each eigenvalue pair
    m_limit = 4 * (4 * dim * dim + _BAD_M_MARGIN)
    directions = [tuple(int(i == j) for i in range(ell)) for j in range(ell)]

    def core_dim(z) -> int:
        return len(cyclotomic_part(action_matrix(generators, z)))

    def shrink(z, current):
        """The first m*zp + z with a smaller core, with that core's dim."""
        for zp in directions:
            inter = len(intersect_spans(cyclotomic_part(action_matrix(generators, z)),
                                        cyclotomic_part(action_matrix(generators, zp)), dim))
            if inter < current:    # else this direction cannot shrink the core
                for m in range(1, m_limit + 1):
                    cand = tuple(m * a + b for a, b in zip(zp, z))
                    if any(cand) and core_dim(cand) == inter:
                        return cand, inter
        raise ArithmeticError("could not reach the common root-of-unity core; "
                              "enlarge the search bound")

    z = (1,) + (0,) * (ell - 1)
    current = core_dim(z)
    while current > target_dim:
        z, current = shrink(z, current)

    funcs = lyapunov_functionals(generators, precision_bits)
    nonzero = [f for f in funcs if not f.is_zero()]

    def profile(cand) -> tuple[list, list, float]:
        """|chi(cand)| per nonzero chi, pair separations, certified margin."""
        vals = [abs(f(cand)) for f in nonzero]
        seps = [abs(f1(cand) - f2(cand)) for f1, f2 in itertools.combinations(funcs, 2)]
        budget = max((f.err for f in funcs), default=0.0) * (sum(abs(c) for c in cand) + 1)
        return vals, seps, min(vals + seps, default=math.inf) - 4 * budget

    # z itself, else z perturbed along a small regular direction w: one
    # exists outside finitely many hyperplanes
    cands = itertools.chain([z], (tuple(n_mult * a + b for a, b in zip(z, w))
                                  for w in _small_vectors(ell, bound=3) if profile(w)[2] > 0
                                  for n_mult in range(1, 64)))
    chosen = next((c for c in cands if profile(c)[2] > 0 and core_dim(c) == target_dim), None)
    if chosen is None:
        raise PrecisionError("regular perturbation search failed; raise precision")
    vals, seps, margin = profile(chosen)
    return RegularElement(
        z=chosen,
        core_basis=cyclotomic_part(action_matrix(generators, chosen)),
        functional_values=vals,
        pair_separations=seps,
        certificate_margin=margin,
    )


def _small_vectors(ell: int, bound: int):
    vs = [v for v in itertools.product(range(-bound, bound + 1), repeat=ell) if any(v)]
    vs.sort(key=lambda v: (sum(abs(c) for c in v), v))
    return vs
