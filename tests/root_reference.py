"""The root decisions that `exactlin` made before its isolating discs, kept
as the test reference.

Each question had its own float matcher: a nearest-neighbour search for the
conjugate partner, an argmin over reciprocals for modulus one, and distance
tests with fixed `1e-12` slacks (plus an exact rule for two rational roots)
for equal moduli across a pair of roots.  On well-separated roots the one
image rule of `exactlin.Disc.holder` must give the same partners, the same unit
flags and the same class merges.  The functions read `(complex root, error)`
pairs, as `FactorRoots.roots` still holds them.

`_merge_modulus_classes` and `_modulus_relation` are the class merge as it
stood before the exact rule alone decided it: a root was compared only
with the classes whose double intervals `mod +- err` met its own, so two
equal moduli whose doubles differ by more than their errors were split
without a proof.  Where that merge does not refuse and splits no equal
moduli, `exactlin`'s classes must be the same.

`_squared_modulus_factors` and `_squared_modulus_root` are how that
relation placed |z|^2 before `exactlin` counted real roots: factor the
squared-modulus polynomial over Q (its irreducible factors are those of
M_q, whose roots are all products z_i z_j), isolate every root of every
factor with `factor_roots`, and name the one root disc that the |z|^2
disc meets.  Wherever this relation decides, `exactlin._modulus_relation`
must decide the same.
"""

from functools import lru_cache
from typing import Optional

import numpy as np

from nilmix.exactlin import (
    _MEMO_SIZE,
    IntPolynomial,
    PrecisionError,
    ResolutionError,
    factor_over_q,
    factor_roots,
    squared_modulus_polynomial,
)


def compose_neg(q: IntPolynomial) -> IntPolynomial:
    """q(-x)."""
    return IntPolynomial([-c if i % 2 else c for i, c in enumerate(q.coeffs)])


def _pair_conjugates(roots: list[tuple[complex, float]]) -> list[int]:
    """Index of the conjugate partner for each root (itself for real roots)."""
    n = len(roots)
    partner = [-1] * n
    used = [False] * n
    for i, (r, err) in enumerate(roots):
        if used[i]:
            continue
        if abs(r.imag) <= err:
            partner[i] = i
            used[i] = True
            continue
        best, bestd = None, None
        for j in range(n):
            if j == i or used[j]:
                continue
            d = abs(roots[j][0] - r.conjugate())
            if bestd is None or d < bestd:
                best, bestd = j, d
        if best is None or bestd > roots[best][1] + err:
            raise PrecisionError("could not certify conjugate pairing of roots")
        partner[i] = best
        partner[best] = i
        used[i] = used[best] = True
    return partner


def _prove_modulus_one(q: IntPolynomial, roots, partner, idx, cyc_order) -> bool:
    """Prove |root| == 1 exactly: cyclotomic factor, root at +-1, or a
    self-reciprocal factor whose reciprocal partner coincides with the conjugate."""
    if cyc_order is not None:
        return True
    r, err = roots[idx]
    if abs(abs(r) - 1.0) > err + 1e-12:
        return False
    if q.degree == 1:
        return abs(q.nums[0]) == abs(q.nums[1])
    if not q.is_self_reciprocal():
        return False
    if partner[idx] == idx:
        return False  # real root of modulus 1 would force degree-1 factor x -+ 1
    # reciprocal 1/r must be a root; |r| == 1 iff that root is conj(r)
    recip = 1.0 / r
    pj, perr = roots[partner[idx]]
    # isolation: nearest root to 1/r must be the conjugate partner
    dists = [abs(rr - recip) for rr, _ in roots]
    j = int(np.argmin(dists))
    return j == partner[idx] and dists[j] <= perr + err * 4 + 1e-12


def _prove_equal_modulus(e1, e2, primary, records) -> bool:
    if e1["one"] and e2["one"]:
        return True
    if e1["one"] != e2["one"]:
        return False
    q1 = primary.blocks[e1["fi"]].factor
    q2 = primary.blocks[e2["fi"]].factor
    r1, err1 = records[e1["fi"]].roots[e1["ri"]]
    r2, err2 = records[e2["fi"]].roots[e2["ri"]]
    if e1["fi"] == e2["fi"]:
        # conjugate pair within the same irreducible factor
        if records[e1["fi"]].partner[e1["ri"]] == e2["ri"]:
            return True
        # negation symmetry within an even/odd factor: r2 == -r1 or -conj(r1)
        return (compose_neg(q1) in (q1, q1.scale(-1))
                and min(abs(r1 + r2), abs(r1.conjugate() + r2)) <= err1 + err2 + 1e-12)
    # rational roots: exact comparison
    if q1.degree == 1 and q2.degree == 1:
        return abs(q1.nums[0] * q2.nums[1]) == abs(q2.nums[0] * q1.nums[1])
    # factors related by x -> -x have negated root sets (equal moduli)
    neg = compose_neg(q1)
    if neg in (q2, q2.scale(-1)):
        if abs(r1 + r2) <= err1 + err2 + 1e-12 or abs(r1.conjugate() + r2) <= err1 + err2 + 1e-12:
            return True
    return False


def _merge_modulus_classes(entries, primary, records):
    """Group roots into exact-equal-modulus classes; raise on unprovable overlap."""
    items = sorted(entries, key=lambda e: e["mod"])
    classes = []
    for e in items:
        placed = False
        for cls in classes:
            lo1, hi1 = e["mod"] - e["err"], e["mod"] + e["err"]
            lo2 = min(x["mod"] - x["err"] for x in cls)
            hi2 = max(x["mod"] + x["err"] for x in cls)
            if hi1 < lo2 or hi2 < lo1:
                continue
            below_double = False
            for member in cls:
                relation = _modulus_relation(e, member, primary, records)
                if relation:
                    placed = True
                    break
                below_double |= relation is False and member["mod"] == e["mod"]
            if placed:
                cls.append(e)
                break
            if below_double:
                raise ResolutionError(
                    f"moduli near {e['mod']:.6g} differ below double resolution")
            raise PrecisionError(
                f"modulus intervals overlap without provable equality near {e['mod']:.6g}")
        if not placed:
            classes.append([e])
    return classes


def _modulus_relation(e1, e2, primary, records) -> Optional[bool]:
    """True when |root 1| == |root 2| is proven, False when |root 1| != |root 2|
    is, None when neither.  Equal: both are proven on the unit circle, root 2
    is the conjugate of root 1, q2 = +-q1(-x) and the disc holding -root 1
    holds root 2 or its conjugate, or both squared moduli land on one root of
    one irreducible factor of M_q (_squared_modulus_root).  Unequal: the discs
    of the squared moduli are disjoint, or they land on different roots.  The
    symmetry shortcuts need no M_q, whose factorization is often refused at
    degree 12 and beyond (M_q has degree n^2)."""
    if e1["one"] or e2["one"]:
        return (e1["one"] and e2["one"]) or None
    rec1, rec2 = records[e1["fi"]], records[e2["fi"]]
    if e1["fi"] == e2["fi"] and rec1.partner[e1["ri"]] == e2["ri"]:
        return True
    q1, q2 = primary.blocks[e1["fi"]].factor, primary.blocks[e2["fi"]].factor
    if compose_neg(q1) in (q2, q2.scale(-1)):
        d = rec1.discs[e1["ri"]]
        k = d._replace(x=-d.x, y=-d.y).holder(rec2.discs)
        if k is not None and e2["ri"] in (k, rec2.partner[k]):
            return True
    images = [rec.discs[e["ri"]].squared_modulus() for rec, e in ((rec1, e1), (rec2, e2))]
    if images[1].holder(images[:1]) is None:
        return False
    keys = [_squared_modulus_root(q, image) for q, image in zip((q1, q2), images)]
    return None if None in keys else keys[0] == keys[1]


@lru_cache(maxsize=_MEMO_SIZE)
def _squared_modulus_factors(q: IntPolynomial) -> Optional[tuple]:
    """The irreducible factors of M_q, or None when factor_over_q refuses it."""
    try:
        return tuple(g for g, _ in factor_over_q(squared_modulus_polynomial(q)))
    except ArithmeticError:
        return None


def _squared_modulus_root(q: IntPolynomial, image) -> Optional[tuple]:
    """(g, k) when the disc image of |z|^2, z a root of q, meets exactly one
    root disc among all irreducible factors g of M_q: |z|^2 is then root k of
    g.  None when M_q is not factored, a factor's discs are refused or the
    image meets no disc or several."""
    factors = _squared_modulus_factors(q)
    if factors is None:
        return None
    try:
        recs = [(g, factor_roots(g, image.prec)) for g in factors]
    except PrecisionError:
        return None
    hit = image.holder([d for _, rec in recs for d in rec.discs])
    return None if hit is None else [(g, k) for g, rec in recs for k in range(len(rec.discs))][hit]
