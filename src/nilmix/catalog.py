"""Built-in example systems: algebra + commuting generator list."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactlin import IntPolynomial, RationalMatrix
from .nilalg import (
    NilpotentAlgebra,
    abelian_algebra,
    filiform4_algebra,
    heisenberg_algebra,
    validate_automorphism,
)

__all__ = ["System", "get_system", "system_names", "random_ergodic_gl3", "block_diag"]

CAT = RationalMatrix([[2, 1], [1, 1]])
CUBIC_POLY = IntPolynomial([1, -2, -1, 1])       # x^3 - x^2 - 2x + 1, all roots real
CUBIC = RationalMatrix.companion(CUBIC_POLY)


def block_diag(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([list(row) + [0] * b.dim for row in a.rows]
                          + [[0] * a.dim + list(row) for row in b.rows])


@dataclass(frozen=True)
class System:
    name: str
    algebra: NilpotentAlgebra
    generators: tuple
    description: str

    @property
    def matrix(self) -> RationalMatrix:
        return self.generators[0]

    @cached_property
    def generator_failures(self) -> list[str]:
        """validate_automorphism's failures over the generators, made once."""
        return [f for g in self.generators
                for f in validate_automorphism(self.algebra, g).failures()]


def _catmap() -> System:
    return System("catmap", abelian_algebra(2), (CAT,),
                  "hyperbolic automorphism of the 2-torus")


def _cubic3() -> System:
    return System("cubic3", abelian_algebra(3), (CUBIC,),
                  "companion of x^3 - x^2 - 2x + 1 on the 3-torus (totally real)")


def _heisenberg_cat() -> System:
    m = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    return System("heisenberg-cat", heisenberg_algebra(), (m,),
                  "Heisenberg nilmanifold automorphism with a hyperbolic base block")


def _filiform4() -> System:
    m = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    return System("filiform4", filiform4_algebra(), (m,),
                  "unipotent automorphism of a 4-dimensional filiform nilmanifold")


def _product_t2xt2() -> System:
    b = block_diag(CAT, CAT)
    f = block_diag(RationalMatrix.identity(2), CAT)
    return System("product-t2xt2", abelian_algebra(4), (b, f),
                  "rank-2 product action on T^2 x T^2 with a non-ergodic generator")


def _cubic_rank2() -> System:
    return System("cubic-rank2", abelian_algebra(3),
                  (CUBIC, CUBIC - RationalMatrix.identity(3)),
                  "commuting unit pair of the totally real cubic field on the 3-torus")


_BUILDERS = {
    "catmap": _catmap,
    "cubic3": _cubic3,
    "heisenberg-cat": _heisenberg_cat,
    "filiform4": _filiform4,
    "product-t2xt2": _product_t2xt2,
    "cubic-rank2": _cubic_rank2,
}


def system_names() -> list[str]:
    return sorted(_BUILDERS)


def get_system(name: str) -> System:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown system {name!r}; available: {', '.join(system_names())}")


def random_ergodic_gl3(seed: int) -> RationalMatrix:
    """Random unimodular conjugate of the cubic companion by a product of six
    elementary matrices (same spectrum, hence ergodic)."""
    rng = random.Random(seed)
    p = RationalMatrix.identity(3)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        rows = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
        rows[i][j] = Fraction(rng.choice([-1, 1]))
        p = p * RationalMatrix(rows)
    return p * CUBIC * p.inverse()
