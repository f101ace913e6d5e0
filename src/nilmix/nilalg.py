"""Nilpotent Lie algebras in Malcev coordinates and their lattice automorphisms.

The algebra is given by structure constants in an ordered basis that is
adapted to the descending central series (layers).  Automorphisms are
integer unimodular matrices in these coordinates that preserve the bracket
exactly.  The spectral classification (ergodicity, rational/irrational
type, root-of-unity core) is computed from the exact primary
decomposition of the linear part.

A system is checked once, where it enters (see README): classify,
find_regular_element, abelianization_action and the rates assume a
checked one; joint_blocks and correlation_n check that generators commute.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Optional, Sequence

import numpy as np

from .exactlin import (
    _MEMO_SIZE,
    IntPolynomial,
    PrecisionError,
    PrimaryDecomposition,
    RationalMatrix,
    _int_einsum,
    _integral,
    _rref,
    factor_roots,
    lyapunov_data,
    primary_decomposition,
    restrict_to_span,
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
    "action_matrix",
    "JointBlock",
    "JointBlocks",
    "joint_blocks",
    "lyapunov_functionals",
    "find_regular_element",
]


# ---------------------------------------------------------------------------
# Algebra container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NilpotentAlgebra:
    """Structure constants c = nums / den meaning [e_i, e_j] = sum_k c[i, j, k] e_k:
    nums is a read-only dim^3 integer array, in lowest terms over den > 0, int64
    when twice each entry fits (the antisymmetry sum), else Python ints.

    layer_dims partitions the ordered basis into layers; layer j together
    with all deeper layers must span the j-th term of the descending
    central series.  == is identity.
    """

    dim: int
    layer_dims: tuple        # e.g. (2, 1) for the 3-dim Heisenberg algebra
    nums: np.ndarray
    den: int = 1

    def __post_init__(self):
        g = math.gcd(self.den, *self.nums.flat)
        nums = _int_einsum("ijk->ijk", self.nums // g, sums=2)
        nums.flags.writeable = False
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_sparse(dim: int, layer_dims: Sequence[int], entries: dict) -> "NilpotentAlgebra":
        """entries maps (i, j) -> {k: value}, completed antisymmetrically; later entries win."""
        cells = [(i, j, k) for (i, j), comp in entries.items() for k in comp]
        given, den = _integral([Fraction(v) for comp in entries.values() for v in comp.values()])
        nums = np.zeros((dim, dim, dim), dtype=object)
        for (i, j, k), x in zip(cells, given):
            nums[i, j, k], nums[j, i, k] = x, -x
        return NilpotentAlgebra(dim, tuple(layer_dims), nums, den)

    @cached_property
    def diagnostics(self) -> Diagnostics:
        """validate_algebra's checks and central series, made once per algebra."""
        return validate_algebra(self)

    def layer_slice(self, layer: int) -> range:
        if not 1 <= layer <= self.step:
            raise ValueError(f"layer {layer} is not in 1..{self.step}")
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
    series: Optional[list] = None                # central series bases, once built

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = (ok, detail)

    @property
    def ok(self) -> bool:
        return all(flag for flag, _ in self.checks.values())

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, (flag, detail) in self.checks.items() if not flag]


def _span_rows(vectors: Sequence[Sequence[Fraction]]) -> list[tuple]:
    """Reduced row-echelon basis of the rational span."""
    red, last, pivots, _ = _rref(vectors)
    return [tuple(Fraction(x, last) for x in row) for row in red[: len(pivots)]]


def _first(mask: np.ndarray) -> Optional[tuple]:
    """The first True index of mask in row-major order, or None."""
    return next(map(tuple, np.argwhere(mask).tolist()), None)


def validate_algebra(algebra: NilpotentAlgebra) -> Diagnostics:
    """Check antisymmetry, Jacobi, layer (Malcev) ordering, the central series
    (kept in the result) and the nilpotency step as identities of the
    structure-constant tensor.  A failure names its first offending pair
    (i, j) in row-major order, or triple i < j < k in lexicographic order."""
    diag = Diagnostics()
    n = algebra.dim
    if sum(algebra.layer_dims) != n:
        diag.record("layers", False, f"layer dims {algebra.layer_dims} do not sum to {n}")
        return diag
    diag.record("layers", True)
    c = algebra.nums
    i, j, k = np.ogrid[:n, :n, :n]

    bad = _first((c + c.transpose(1, 0, 2) != 0).any(axis=2))
    diag.record("antisymmetry", bad is None, f"offending pair {bad}" if bad else "")

    # [e_i, [e_j, e_k]] = sum_l c[j, k, l] c[i, l, :], and its two cyclic shifts;
    # only an l that is both a bracket output and a bracket input contributes
    live = c.any(axis=(0, 1)) & c.any(axis=(0, 2))
    cyc = _int_einsum("jkl,ilm->ijkm", c[:, :, live], c[:, live, :], sums=3)
    jacobi = cyc + cyc.transpose(2, 0, 1, 3) + cyc.transpose(1, 2, 0, 3)
    bad = _first((jacobi != 0).any(axis=3) & (i < j) & (j < k))
    diag.record("jacobi", bad is None, f"offending triple {bad}" if bad else "")

    # bracket of layers p, q must land strictly deeper than max(p, q)
    ends = list(itertools.accumulate(algebra.layer_dims))
    layer = np.array([next(ell for ell, end in enumerate(ends) if t < end) for t in range(n)])
    shallow = layer[k] <= np.maximum(layer[i], layer[j])
    bad = _first(((c != 0) & shallow).any(axis=2))
    diag.record("malcev_ordering", bad is None, f"offending pair {bad}" if bad else "")

    if diag.ok:
        series = central_series(algebra)
        # layer j and all deeper ones span the coordinate vectors from its start on
        starts = itertools.accumulate(algebra.layer_dims, initial=0)
        declared = [series[0][max(s, 0):] for s in starts]
        match = series == declared
        diag.record("central_series", match,
                    "" if match else f"computed dims {[len(s) for s in series]}, "
                                     f"declared {[len(d) for d in declared]}")
        diag.record("step", True, f"step {algebra.step}")
        diag.series = series
    return diag


def central_series(algebra: NilpotentAlgebra) -> list[list[tuple]]:
    """Exact bases of the descending central series, from the (reduced)
    identity basis to the empty one; each step is one contraction with the
    structure-constant tensor."""
    n = algebra.dim
    c = algebra.nums
    series = [[tuple(int(t == s) for t in range(n)) for s in range(n)]]
    current = series[0]
    while current:
        v = _integral(current)[0]
        images = _int_einsum("ri,iwk->rwk", v, c).reshape(-1, n)
        current = _span_rows(images[images.any(axis=1)].tolist())
        series.append(current)
        if len(series) > n + 2:
            raise ArithmeticError("central series does not terminate: not nilpotent")
    return series


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def validate_automorphism(algebra: NilpotentAlgebra, m: RationalMatrix) -> Diagnostics:
    """Check that m is an integer unimodular matrix with m[e_i, e_j] =
    [m e_i, m e_j], both sides contractions of the structure-constant tensor;
    a failure names the first pair i < j in lexicographic order."""
    diag = Diagnostics()
    if m.dim != algebra.dim:
        diag.record("shape", False, f"matrix dim {m.dim} != algebra dim {algebra.dim}")
        return diag
    diag.record("shape", True)
    integer = m.is_integer()
    diag.record("integer", integer, "" if integer else "non-integer entries")
    det = m.determinant() if integer else None
    diag.record("unimodular", integer and abs(det) == 1,
                f"determinant {det}" if integer else "not integer")

    c, a, n = algebra.nums, m.nums, m.dim
    # [m e_i, m e_j]_k = sum_pq a[p, i] a[q, j] c[p, q, k] and (m [e_i, e_j])_k = sum_l
    # a[k, l] c[i, j, l], over m.den^2 and m.den: only bracket inputs p, q, outputs l count
    p, q, out = (c.any(axis=axes) for axes in ((1, 2), (0, 2), (0, 1)))
    bad = None
    if out.any():
        lhs = _int_einsum("iqk,qj->ijk", _int_einsum("pi,pqk->iqk", a[p], c[np.ix_(p, q)]), a[q])
        rhs = _int_einsum("kl,ijl->ijk", a[:, out] * m.den, c[:, :, out])
        i, j = np.ogrid[:n, :n]
        bad = _first((lhs != rhs).any(axis=2) & (i < j))
    diag.record("bracket_preserved", bad is None,
                f"[Me_{bad[0]}, Me_{bad[1]}] != M[e_{bad[0]}, e_{bad[1]}]" if bad else "")
    return diag


def abelianization_action(algebra: NilpotentAlgebra, m: RationalMatrix) -> RationalMatrix:
    """Exact induced matrix on the quotient by the derived subalgebra.

    An automorphism preserves the derived subalgebra, in Malcev coordinates
    the layers below the first: the induced map is the leading layer-1 block.
    """
    d1 = algebra.layer_dims[0]
    return RationalMatrix._of(m.nums[:d1, :d1], m.den)


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
    abelianization: RationalMatrix

    @property
    def type_name(self) -> str:
        return "rational" if self.rational_type else "irrational"


def classify(algebra: NilpotentAlgebra, m: RationalMatrix) -> SpectralClassification:
    """Spectral classification of m, which must be a lattice automorphism of
    algebra (validate_automorphism passes); it is not checked again here.
    Exact: it reads the primary decompositions of m and its abelianization,
    and no root (the exponents and subspaces are lyapunov_data's)."""
    pd = primary_decomposition(m)
    n_z2 = _blocks_span(pd, True)
    n_z1 = _blocks_span(pd, False)
    if len(n_z1) + len(n_z2) != algebra.dim:
        raise ArithmeticError("root-of-unity splitting does not fill the space")
    return SpectralClassification(
        ergodic=is_ergodic(algebra, m),
        rational_type=bool(n_z2),
        n_z1=n_z1,
        n_z2=n_z2,
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


_WEIGHT = 37                  # generator i enters the separating sum with weight 37**i


@dataclass(frozen=True)
class Functional:
    """Lyapunov functional of a commuting family: z -> sum_i z_i * exponents[i]."""

    exponents: tuple          # one log-modulus per generator
    err: float

    def __call__(self, z: Sequence[float]) -> float:
        return float(sum(e * x for e, x in zip(self.exponents, z)))

    def is_zero(self) -> bool:
        return all(e == 0.0 for e in self.exponents) and self.err == 0.0


@dataclass(frozen=True)
class JointBlock:
    """One primary block of the separating sum h: a joint block of the family."""

    basis: tuple              # exact basis of the block
    restricted: tuple         # g_i on the block, per generator (restrict_to_span)
    classes: tuple            # per certified root of the block's factor: the
                              # lyapunov_data(g_i) class index per generator
    core: bool                # every class of every root is proven modulus one


@dataclass(frozen=True)
class JointBlocks:
    """The spectral record of a commuting family: its joint blocks and the
    Lyapunov functionals read off their class tuples."""

    blocks: tuple             # JointBlock per primary block of h
    functionals: tuple        # Functional per distinct class tuple, sorted
    precision_bits: int       # the roots' precision: max over the generators' splittings

    @property
    def core(self) -> list[tuple]:
        """Exact basis of the family's root-of-unity core, the sum of the core
        blocks.  On a core block every p_i(mu) and each of its conjugates (the
        p_i of the block's other roots) is an algebraic integer of modulus one,
        hence a root of unity (Kronecker); on any other block some g_i has no
        root-of-unity eigenvalue."""
        return _span_rows([v for b in self.blocks if b.core for v in b.basis])


def joint_blocks(generators: Sequence[RationalMatrix]) -> JointBlocks:
    """Joint blocks of a commuting integer family.

    On each primary block of h = sum_i _WEIGHT**i g_i (a joint block) g_i is
    p_i(h) plus a nilpotent part; each certified root mu of the block's
    factor picks per generator the lyapunov_data(g_i) class of |p_i(mu)|,
    decided on mu's integer disc (LyapunovSplitting.class_of).
    A functional is a distinct class tuple, with the class exponents and the
    largest class error (proven modulus-one classes give an exact zero); a
    block is core when all its tuples give zero functionals.  The roots are
    read at the highest precision_bits that the generators' lyapunov_data
    reached.  Memoized per generator tuple."""
    return _joint_blocks(tuple(generators))


def lyapunov_functionals(generators: Sequence[RationalMatrix]) -> tuple[Functional, ...]:
    """Distinct Lyapunov functionals of a commuting integer family, sorted by
    class indices (rank 1 gives lyapunov_data's ascending classes)."""
    return joint_blocks(generators).functionals


@lru_cache(maxsize=_MEMO_SIZE)
def _joint_blocks(gens: tuple) -> JointBlocks:
    check_commuting(gens)
    splits = [lyapunov_data(g) for g in gens]
    prec = max(s.precision_bits for s in splits)
    h = reduce(operator.add, (g.scale(_WEIGHT ** i) for i, g in enumerate(gens)))

    def functional(t: tuple) -> Functional:
        return Functional(tuple(s.blocks[c].exponent for c, s in zip(t, splits)),
                          max(s.blocks[c].exponent_err for c, s in zip(t, splits)))

    blocks = []
    for blk in primary_decomposition(h).blocks:
        h_b = restrict_to_span(h, blk.basis)
        restricted = tuple(restrict_to_span(g, blk.basis) for g in gens)
        pairing = [_pairing(h_b, g_b, blk.factor) for g_b in restricted]
        classes = tuple(tuple(s.class_of(p, disc) for p, s in zip(pairing, splits))
                        for disc in factor_roots(blk.factor, prec).discs)
        blocks.append(JointBlock(blk.basis, restricted, classes,
                                 all(functional(t).is_zero() for t in classes)))
    tuples = sorted({t for b in blocks for t in b.classes})
    return JointBlocks(tuple(blocks), tuple(functional(t) for t in tuples), prec)


def _pairing(h_b: RationalMatrix, g_b: RationalMatrix, q: IntPolynomial) -> IntPolynomial:
    """The p, deg p < deg q, with g_b - p(h_b) nilpotent on the primary block
    of the irreducible factor q, from the (nondegenerate) trace system
    sum_j a_j tr(h_b^(j+k)) = tr(h_b^k g_b), k < deg q."""
    e = q.degree
    powers = list(itertools.accumulate([h_b] * (2 * e - 2), operator.mul,
                                       initial=RationalMatrix.identity(h_b.dim)))
    gram = RationalMatrix([[powers[j + k].trace() for j in range(e)] for k in range(e)])
    p = IntPolynomial(gram.inverse().apply([(powers[k] * g_b).trace() for k in range(e)]))
    if ((g_b - p.evaluate_matrix(h_b)) ** h_b.dim).nums.any():
        raise ArithmeticError("the weighted sum does not separate the joint eigenvalues")
    return p


@dataclass
class RegularElement:
    z: tuple
    core_basis: list                      # exact basis of the root-of-unity core
    functional_values: list               # |chi(z)| per nonzero functional
    pair_separations: list                # |chi1(z) - chi2(z)| per distinct pair
    certificate_margin: float             # smallest certified distance to a hyperplane


def find_regular_element(generators: Sequence[RationalMatrix]) -> RegularElement:
    """A regular integer time z whose root-of-unity part equals the core.

    Candidates are e_1, then n*w + e_1 along small directions w of positive
    margin; the first with a positive certified margin avoids all Lyapunov
    and coincidence hyperplanes.  Its root-of-unity part is the core: the
    margin keeps every nonzero functional off zero at z, so each non-core
    joint block has a root with |lambda_z| != 1 and, by Galois conjugation,
    no root of g^z there is a root of unity.  One exact check confirms it.
    The generators must be checked lattice automorphisms (not checked here);
    joint_blocks checks that they commute.
    """
    ell = len(generators)
    record = joint_blocks(generators)
    funcs = record.functionals
    nonzero = [f for f in funcs if not f.is_zero()]

    def profile(cand) -> tuple[list, list, float]:
        """|chi(cand)| per nonzero chi, pair separations, certified margin."""
        vals = [abs(f(cand)) for f in nonzero]
        seps = [abs(f1(cand) - f2(cand)) for f1, f2 in itertools.combinations(funcs, 2)]
        return vals, seps, min(vals + seps, default=math.inf) - _slack(funcs, cand)

    # e_1 itself, else e_1 perturbed along a small regular direction w: one
    # exists outside finitely many hyperplanes
    e_1 = (1,) + (0,) * (ell - 1)
    cands = itertools.chain([e_1], (tuple(n_mult * a + b for a, b in zip(e_1, w))
                                    for w in _small_vectors(ell, bound=3) if profile(w)[2] > 0
                                    for n_mult in range(1, 64)))
    chosen = next((c for c in cands if profile(c)[2] > 0), None)
    if chosen is None:
        raise PrecisionError("regular perturbation search failed")
    core = cyclotomic_part(action_matrix(generators, chosen))
    if len(core) != len(record.core):
        raise ArithmeticError(f"the root-of-unity part of z = {chosen} is not the family's core")
    return RegularElement(chosen, core, *profile(chosen))


def _slack(funcs, z) -> float:
    """The certified error of funcs and their differences at z: 4 max err (|z|_1 + 1)."""
    return 4 * max((f.err for f in funcs), default=0.0) * (sum(map(abs, z)) + 1)


def _small_vectors(ell: int, bound: int):
    vs = [v for v in itertools.product(range(-bound, bound + 1), repeat=ell) if any(v)]
    vs.sort(key=lambda v: (sum(abs(c) for c in v), v))
    return vs
