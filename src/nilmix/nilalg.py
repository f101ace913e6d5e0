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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactlin import (
    PrecisionError,
    PrimaryDecomposition,
    RationalMatrix,
    _rref,
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

    def bracket(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> tuple:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(v):
            if a == 0:
                continue
            for j, b in enumerate(w):
                if b == 0:
                    continue
                for k in range(self.dim):
                    cijk = self.brackets[i][j][k]
                    if cijk:
                        out[k] += a * b * cijk
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
    bad = None
    for i in range(n):
        for j in range(n):
            target = max(algebra.layer_of(i), algebra.layer_of(j))
            deeper = [t for t in range(n) if algebra.layer_of(t) > target]
            br = algebra.brackets[i][j]
            if any(br[k] != 0 for k in range(n) if k not in deeper):
                bad = (i, j)
                break
        if bad:
            break
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
    bad = None
    for i in range(n):
        for j in range(i + 1, n):
            lhs = algebra.bracket(cols[i], cols[j])
            rhs = m.apply(algebra.basis_bracket(i, j))
            if lhs != rhs:
                bad = (i, j)
                break
        if bad:
            break
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


@dataclass
class Functional:
    """Lyapunov functional of a commuting family: z -> sum_i z_i * exponents[i]."""

    exponents: tuple          # one log-modulus per generator
    err: float

    def __call__(self, z: Sequence[float]) -> float:
        return float(sum(e * x for e, x in zip(self.exponents, z)))

    def is_zero(self) -> bool:
        return all(e == 0.0 for e in self.exponents) and self.err == 0.0


def lyapunov_functionals(generators: Sequence[RationalMatrix],
                         precision_bits: int = 128) -> list[Functional]:
    """Distinct Lyapunov functionals of a commuting integer family."""
    check_commuting(generators)
    if len(generators) == 1:
        split = lyapunov_data(generators[0], precision_bits)
        return [Functional((b.exponent,), b.exponent_err) for b in split.blocks]

    dim = generators[0].dim
    prec_dps = max(30, precision_bits // 3)
    import mpmath
    with mpmath.workdps(prec_dps):
        combo = mpmath.zeros(dim, dim)
        weight = 1
        for g in generators:
            gm = g.to_mp(precision_bits)
            combo += weight * gm
            weight *= 37  # generic integer weights separate joint eigenvalues
        ev, vecs = mpmath.eig(combo)
        funcs: list[Functional] = []
        seen: list[tuple] = []
        for idx in range(dim):
            v = vecs[:, idx]
            tuple_exps = []
            worst_res = 0.0
            for g in generators:
                gm = g.to_mp(precision_bits)
                gv = gm * v
                # Rayleigh quotient; residual certifies the common eigenvector
                num = sum(gv[i] * mpmath.conj(v[i]) for i in range(dim))
                den = sum(v[i] * mpmath.conj(v[i]) for i in range(dim))
                lam = num / den
                res = mpmath.norm(gv - lam * v) / mpmath.norm(v)
                worst_res = max(worst_res, float(res))
                tuple_exps.append(float(mpmath.log(abs(lam))))
            if worst_res > 1e-20:
                raise PrecisionError(
                    "common eigenvector residual too large; family may be defective")
            rounded = tuple(0.0 if abs(e) < 1e-25 else e for e in tuple_exps)
            if not any(all(abs(a - b) <= 1e-12 for a, b in zip(rounded, k)) for k in seen):
                seen.append(rounded)
                funcs.append(Functional(rounded, 1e-24))
    # distinct functionals closer than the merge scale are a precision failure,
    # not a legitimate merge
    for f1, f2 in itertools.combinations(funcs, 2):
        gapv = max(abs(a - b) for a, b in zip(f1.exponents, f2.exponents))
        if gapv < 1e-9:
            raise PrecisionError("near-coincident Lyapunov functionals; raise precision")
    return funcs


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
    check_commuting(generators)
    for g in generators:
        diag = validate_automorphism(algebra, g)
        if not diag.ok:
            raise ValueError(f"invalid generator: {diag.failures()}")
    ell = len(generators)
    dim = generators[0].dim
    target = n2_of_family(generators)
    target_dim = len(target)
    m_bound = 4 * dim * dim + _BAD_M_MARGIN

    def core_dim(z) -> int:
        return len(cyclotomic_part(action_matrix(generators, z)))

    z = (1,) + (0,) * (ell - 1)
    current = core_dim(z)
    directions = [tuple(int(i == j) for i in range(ell)) for j in range(ell)]
    while current > target_dim:
        progress = False
        for zp in directions:
            inter = intersect_spans(
                cyclotomic_part(action_matrix(generators, z)),
                cyclotomic_part(action_matrix(generators, zp)), dim)
            if len(inter) >= current:
                continue  # this direction cannot shrink the core
            # finitely many combination scales are bad for each eigenvalue
            # pair; enlarge the bound once before giving up
            for bound in (m_bound, 4 * m_bound):
                for m in range(1, bound + 1):
                    cand = tuple(m * a + b for a, b in zip(zp, z))
                    if any(cand) and core_dim(cand) == len(inter):
                        z = cand
                        current = len(inter)
                        progress = True
                        break
                if progress:
                    break
            if progress:
                break
        if not progress:
            raise ArithmeticError("could not reach the common root-of-unity core; "
                                  "enlarge the search bound")

    funcs = lyapunov_functionals(generators, precision_bits)
    nonzero = [f for f in funcs if not f.is_zero()]

    def regular_margin(cand) -> float:
        vals = [abs(f(cand)) for f in nonzero]
        seps = [abs(f1(cand) - f2(cand))
                for f1, f2 in itertools.combinations(funcs, 2)]
        margin = min(vals + seps) if (vals or seps) else math.inf
        budget = max((f.err for f in funcs), default=0.0) * (sum(abs(c) for c in cand) + 1)
        return margin - 4 * budget

    if regular_margin(z) > 0:
        chosen = z
    else:
        chosen = None
        # a regular direction exists outside finitely many hyperplanes
        for w in _small_vectors(ell, bound=3):
            if regular_margin(w) > 0:
                for n_mult in range(1, 64):
                    cand = tuple(n_mult * a + b for a, b in zip(z, w))
                    if core_dim(cand) == target_dim and regular_margin(cand) > 0:
                        chosen = cand
                        break
                if chosen:
                    break
        if chosen is None:
            raise PrecisionError("regular perturbation search failed; raise precision")

    vals = [abs(f(chosen)) for f in nonzero]
    seps = [abs(f1(chosen) - f2(chosen)) for f1, f2 in itertools.combinations(funcs, 2)]
    return RegularElement(
        z=chosen,
        core_basis=cyclotomic_part(action_matrix(generators, chosen)),
        functional_values=vals,
        pair_separations=seps,
        certificate_margin=regular_margin(chosen),
    )


def _small_vectors(ell: int, bound: int):
    vs = [v for v in itertools.product(range(-bound, bound + 1), repeat=ell) if any(v)]
    vs.sort(key=lambda v: (sum(abs(c) for c in v), v))
    return vs
