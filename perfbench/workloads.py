"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python on integers and floats: run.py builds the
configs and observables without importing nilmix, so the program sees only
the generated JSON.  The same (workload, seed) always yields the same
operations, byte for byte.

Each operation is one ``nilmix <command> --config <file>`` call.  Besides
its config it names the output check to run on its ``report.json`` and the
parameters that check needs, and it lists the structured errors accepted as
a known refusal (the operation exits 1 with that error today; a future fix
that makes it succeed must still pass the check).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 1
WORKLOADS = ("spectral", "certify", "density", "mixing")
# nominal length of one pass in reference seconds at the parent commit; a
# run makes round(--seconds / this) passes, so every commit measured with
# the same --seconds gets samples of the same size
PASS_SECONDS = {"spectral": 5.0, "certify": 6.0, "density": 11.0, "mixing": 5.5}

# factor polynomials, ascending coefficients, all monic with constant +-1,
# irreducible over Q and without roots on the unit circle
Q1, Q2, Q3, Q4, Q5 = [1, -3, 1], [-1, -1, 1], [1, -4, 1], [-1, -3, 1], [1, -5, 1]
C1, C2, C3, C4 = [1, -2, -1, 1], [-1, -1, 0, 1], [1, -3, 0, 1], [-1, 0, -1, 1]
D1 = [1, 1, -4, 0, 1]                  # x^4 - 4x^2 + x + 1
# block-diagonal companion products of dimension 2..8; the last four repeat
# a factor.  Fixed, so every seed factors the same polynomials: the seed
# only draws the conjugating matrices.
PRODUCTS = [
    [Q1], [Q4], [C1], [C2], [Q2, Q3], [D1], [Q1, C2], [Q5, C3], [C1, C4], [Q2, D1],
    [Q3, Q4, Q5], [C2, D1], [Q2, Q5, C3], [Q1, C1, C3], [D1, Q3, Q4],
    [Q2, Q2], [C1, C1], [Q1, Q1, Q1], [D1, D1],
]
CUBIC = C1                             # x^3 - x^2 - 2x + 1, the catalog cubic
GOLDEN = [-1, -1, 1]                   # x^2 - x - 1
PHI_INV = 0.6180339887498949
CAT = [[2, 1], [1, 1]]


@dataclass
class Op:
    id: str
    command: str
    config: dict
    check: str                          # name of the check in checks.CHECKS
    expect: dict = field(default_factory=dict)
    seed: Optional[int] = None          # passed as ``--seed`` when set
    refusals: tuple = ()                # structured errors accepted as known refusals


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    files: dict                         # relative path -> JSON-able content


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def companion(coeffs: list) -> list:
    """Companion matrix of a monic polynomial (same layout as nilmix)."""
    n = len(coeffs) - 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -coeffs[i]
    return m


def block_diag(*blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def _elementary(n: int, i: int, j: int, a: int) -> list:
    e = identity(n)
    e[i][j] = a
    return e


def conjugator(rng: random.Random, n: int, steps: int) -> tuple:
    """Random unimodular P and its exact inverse, as products of elementary
    matrices I + a E_ij with a = +-1."""
    p, p_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        a = rng.choice([-1, 1])
        p = matmul(p, _elementary(n, i, j, a))
        p_inv = matmul(_elementary(n, i, j, -a), p_inv)
    return p, p_inv


def conjugate(m: list, pair: tuple) -> list:
    p, p_inv = pair
    return matmul(matmul(p, m), p_inv)


def ergodic_gl3(seed: int) -> list:
    """The matrix of ``nilmix.catalog.random_ergodic_gl3(seed)``: the catalog
    cubic conjugated by six seeded elementary matrices (the same draws)."""
    return conjugate(companion(CUBIC), conjugator(random.Random(seed), 3, 6))


def inline_system(generators: list, name: str, layers=None, brackets=None) -> dict:
    entry = {"name": name, "dim": len(generators[0]), "generators": generators}
    if layers is not None:
        entry["layers"] = layers
    if brackets is not None:
        entry["brackets"] = brackets
    return {"system": entry}


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def real_observable(rng: random.Random, dim: int, radius: float, decay: float) -> dict:
    """Mean-zero real trigonometric polynomial on the lattice ball of the
    given radius: c_{-z} = conj(c_z), amplitudes decaying like e^{-decay |z|}."""
    b = int(math.floor(radius))
    coeffs = {}
    for z in _box(dim, b):
        nsq = sum(x * x for x in z)
        if nsq == 0 or nsq > radius * radius or z in coeffs:
            continue
        amp = math.exp(-decay * math.sqrt(nsq))
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * amp
        coeffs[z] = c
        coeffs[tuple(-x for x in z)] = c.conjugate()
    return {"dim": dim,
            "coeffs": [{"z": list(z), "re": c.real, "im": c.imag}
                       for z, c in sorted(coeffs.items())]}


def _box(dim: int, b: int):
    if dim == 0:
        yield ()
        return
    for head in range(-b, b + 1):
        for tail in _box(dim - 1, b):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; use one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    ops, files = _BUILDERS[name](rng)
    ids = [op.id for op in ops]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate operation ids")
    return Workload(name, seed, ops, files)


_CATALOG = {  # name -> (first generator, ergodic, rank)
    "catmap": (CAT, True, 1),
    "cubic3": (companion(CUBIC), True, 1),
    "heisenberg-cat": ([[2, 1, 0], [1, 1, 0], [0, 0, 1]], True, 1),
    "filiform4": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], False, 1),
    "product-t2xt2": (block_diag(CAT, CAT), True, 2),
    "cubic-rank2": (companion(CUBIC), True, 2),
}


def _spectral(rng: random.Random):
    ops = []
    for name, (m, ergodic, rank) in _CATALOG.items():
        ops.append(Op(f"analyze-{name}", "analyze", {"system": name}, "analyze",
                      {"matrix": m, "ergodic": ergodic, "regular": rank > 1}))
        if ergodic:   # rates refuses non-ergodic input by design
            ops.append(Op(f"rates-{name}", "rates", {"system": name}, "rates",
                          {"matrix": m}))

    for k, blocks in enumerate(PRODUCTS):
        dim = sum(len(c) - 1 for c in blocks)
        m = conjugate(block_diag(*[companion(c) for c in blocks]),
                      conjugator(rng, dim, dim + 2))
        cfg = inline_system([m], f"product{k}")
        ops.append(Op(f"analyze-product{k}", "analyze", cfg, "analyze",
                      {"matrix": m, "ergodic": True, "regular": False}))
        if k % 2 == 0:
            cfg = dict(cfg, s=0.25 + 0.5 * rng.random(), eps=0.01)
            ops.append(Op(f"rates-product{k}", "rates", cfg, "rates", {"matrix": m}))

    # rank-2 commuting families, conjugated: the cubic unit pair and the
    # T^2 x T^2 product pair
    c = companion(CUBIC)
    c_minus_1 = [[c[i][j] - int(i == j) for j in range(3)] for i in range(3)]
    fams = [(c, c_minus_1), (block_diag(CAT, CAT), block_diag(identity(2), CAT))]
    for k in range(4):
        a, b = fams[k % 2]
        pair = conjugator(rng, len(a), len(a) + 3)
        gens = [conjugate(a, pair), conjugate(b, pair)]
        ops.append(Op(f"analyze-family{k}", "analyze", inline_system(gens, f"family{k}"),
                      "analyze", {"matrix": gens[0], "ergodic": True, "regular": True}))

    # Heisenberg automorphisms: hyperbolic A in SL2(Z) on the first layer,
    # a seeded shear into the centre
    for k in range(4):
        a = _hyperbolic_sl2(rng)
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        m = [[a[0][0], a[0][1], 0], [a[1][0], a[1][1], 0], [p, q, 1]]
        cfg = inline_system([m], f"heisenberg{k}", layers=[2, 1],
                            brackets=[{"i": 0, "j": 1, "k": 2, "value": 1}])
        ops.append(Op(f"analyze-heisenberg{k}", "analyze", cfg, "analyze",
                      {"matrix": m, "ergodic": True, "regular": False}))
        if k % 2 == 0:
            ops.append(Op(f"rates-heisenberg{k}", "rates", cfg, "rates", {"matrix": m}))

    # equal moduli across two different factors: escalates 128 -> 2048 bits,
    # then raises PrecisionError (known refusal)
    m = conjugate(block_diag(companion(GOLDEN), companion([1, 0, 3, 0, 1])),
                  conjugator(rng, 6, 4))
    ops.append(Op("analyze-escalation", "analyze", inline_system([m], "escalation"),
                  "analyze", {"matrix": m, "ergodic": True, "regular": False},
                  refusals=("PrecisionError",)))
    return ops, {}


def _hyperbolic_sl2(rng: random.Random) -> list:
    while True:
        m = identity(2)
        for _ in range(rng.randint(2, 4)):
            step = [[1, 1], [0, 1]] if rng.random() < 0.5 else [[1, 0], [1, 1]]
            m = matmul(m, step)
        if abs(m[0][0] + m[1][1]) > 2:
            return m


def _certify(rng: random.Random):
    ops = []
    structural = [("catmap", {"system": "catmap"}), ("cubic3", {"system": "cubic3"})]
    for k in range(2):
        s = rng.randrange(1 << 16)
        structural.append((f"ergodic{k}",
                           inline_system([ergodic_gl3(s)], f"ergodic-gl3-{s}")))
    for name, cfg in structural:
        ops.append(Op(f"certify-{name}", "certify", cfg, "certify_structural"))

    # quadratic irrational directions: the minimum sits at small |m|, so the
    # 1e4 ball must reproduce the small-ball value (the criterion-5 stability)
    slopes = [("golden", PHI_INV)]
    for i, k in enumerate(rng.sample([2, 3, 6, 7, 11, 13, 14, 15, 17, 19], 2)):
        slopes.append((f"slope{i}", math.sqrt(k) - math.isqrt(k)))
    for name, slope in slopes:
        for radius in (1e2, 1e4):
            ops.append(Op(f"certify-{name}-R{radius:g}", "certify",
                          {"directions": [[1.0, slope]], "dim_ambient": 2, "radius": radius},
                          "certify_quadratic",
                          {"golden": name == "golden"}))

    # integer directions: the exact Fraction engine on equal balls; small
    # entries put a resonance in the ball, large ones usually do not
    for k in range(5):
        top = 40 if k % 2 else 400
        vec = [rng.randint(1, top) for _ in range(3)]
        ops.append(Op(f"certify-exact{k}", "certify",
                      {"directions": [vec], "dim_ambient": 3, "radius": 13},
                      "certify_exact"))

    # dim-4 ergodic companion at the default radius: asks for a 59.7 GiB
    # grid today and fails under the address-space cap (known refusal)
    ops.append(Op("certify-dim4", "certify",
                  inline_system([companion(D1)], "dim4"),
                  "certify_structural", refusals=("MemoryError",)))
    return ops, {}


def _density(rng: random.Random):
    ops = []

    def mc_seed():
        return rng.randrange(1 << 32)

    ops.append(Op("density-catmap-R200", "density",
                  {"system": "catmap", "n": 2, "radius": 200, "samples": 200_000},
                  "density_catmap2", seed=mc_seed()))
    for radius in (25, 50, 100):
        ops.append(Op(f"density-cubic-rank2-R{radius}", "density",
                      {"system": "cubic-rank2", "n": 2, "radius": radius,
                       "samples": 200_000},
                      "density_generic", {"dim_total": 4}, seed=mc_seed()))
    for radius in (25, 50):
        ops.append(Op(f"density-product-t2xt2-R{radius}", "density",
                      {"system": "product-t2xt2", "n": 2, "radius": radius,
                       "samples": 100_000},
                      "density_generic", {"dim_total": 4}, seed=mc_seed()))
    # the n = 3 and delta(eps) operations are the short ones: twelve of
    # eighteen, so op_p50_s falls inside their cluster, not at its edge
    for radius in (5, 6, 7, 8, 10, 12):
        ops.append(Op(f"density-catmap-n3-R{radius}", "density",
                      {"system": "catmap", "n": 3, "radius": radius, "samples": 100_000},
                      "density_catmap3", seed=mc_seed()))
    # delta(eps) on one Monte Carlo seed: nondecreasing in eps
    shared = mc_seed()
    radius = rng.choice([40, 50, 60])
    eps_values = [0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.3]
    for k, eps in enumerate(sorted(rng.sample(eps_values, 6))):
        ops.append(Op(f"density-catmap-eps{k}", "density",
                      {"system": "catmap", "n": 2, "radius": radius, "eps": eps,
                       "samples": 200_000},
                      "density_catmap2", seed=shared))
    return ops, {}


def _mixing(rng: random.Random):
    ops, files = [], {}
    files["obs/big_f.json"] = real_observable(rng, 2, 47.0, 0.1)
    files["obs/big_g.json"] = real_observable(rng, 2, 47.0, 0.1)
    for k, (f, g) in enumerate([("big_f", "big_g"), ("big_f", "big_f")]):
        powers = list(range(1, 13))
        ops.append(Op(f"correlate-powers{k}", "correlate",
                      {"system": "catmap", "observables": [f"obs/{f}.json", f"obs/{g}.json"],
                       "powers": powers},
                      "correlate_powers",
                      {"f": f"obs/{f}.json", "g": f"obs/{g}.json", "matrix": CAT,
                       "powers": powers}))

    # n-point correlations: each op holds a time tuple and a shifted copy,
    # whose values must agree (the action preserves Haar measure)
    cases = [("catmap", 2, 9.8, 1, 3), ("catmap", 2, 9.8, 1, 4),
             ("cubic-rank2", 3, 4.2, 2, 3), ("product-t2xt2", 4, 2.5, 2, 3)]
    for k, (system, dim, radius, rank, n) in enumerate(cases):
        names = []
        for i in range(n):
            path = f"obs/corr{k}_{i}.json"
            files[path] = real_observable(rng, dim, radius, 0.3)
            names.append(path)
        # distinct, increasing times: the transported supports stay apart,
        # so the partial-sum tables have the same size for every seed
        base = [tuple(rng.randint(0, 1) for _ in range(rank))]
        for _ in range(n - 1):
            step = rng.choice([s for s in _box(rank, 1) if min(s) >= 0 and any(s)])
            base.append(tuple(t + d for t, d in zip(base[-1], step)))
        shift = tuple(rng.randint(1, 3) for _ in range(rank))
        moved = [tuple(t + s for t, s in zip(tup, shift)) for tup in base]
        ops.append(Op(f"correlate-times{k}", "correlate",
                      {"system": system, "observables": names,
                       "times": [[list(t) for t in base], [list(t) for t in moved]]},
                      "correlate_times", {"observables": names, "pairs": [[0, 1]]}))

    # small-divisor solver on ~2000-mode observables, both modes
    files["obs/solve2.json"] = real_observable(rng, 2, 25.3, 0.15)
    files["obs/solve3.json"] = real_observable(rng, 3, 7.8, 0.3)
    solves = [("catmap", "obs/solve2.json", r, "modulus") for r in (0.25, 0.5, 1, 2)]
    solves += [("catmap", "obs/solve2.json", r, "signed") for r in (1, 2)]
    solves += [("cubic3", "obs/solve3.json", r, "modulus") for r in (0.5, 1)]
    solves += [("cubic3", "obs/solve3.json", 1, "signed")]
    for k, (system, obs, r, mode) in enumerate(solves):
        ops.append(Op(f"solve{k}", "solve",
                      {"system": system, "observable": obs, "r": r, "mode": mode},
                      "solve", {"observable": obs}))
    slope = rng.choice([PHI_INV, math.sqrt(2) - 1, math.sqrt(3) - 1])
    ops.append(Op("solve-explicit", "solve",
                  {"directions": [[1.0, slope]], "observable": "obs/solve2.json",
                   "r": 0.5},
                  "solve", {"observable": "obs/solve2.json"}))

    for profile in ("one", "square", "bump"):
        ops.append(Op(f"threshold-{profile}", "threshold", {"profile": profile},
                      "threshold", {"profile": profile}))
    ops.append(Op("counterexample-max-gap", "counterexample",
                  {"kind": "max-gap", "powers": list(range(1, 41))},
                  "counterexample_maxgap"))
    ops.append(Op("counterexample-no-uniform-bound", "counterexample",
                  {"kind": "no-uniform-bound", "powers": list(range(1, 41))},
                  "counterexample_nub"))
    return ops, files


_BUILDERS = {"spectral": _spectral, "certify": _certify, "density": _density,
             "mixing": _mixing}
