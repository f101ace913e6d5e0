"""Reference only: the whole-ball exact scan, the pruned scan's shell forms,
its per-shell enumeration and the row normalization, as the library computed
them before.

`full_scan` evaluates the exact f^2 at every point of the cube-built half
ball, with no screen, and breaks ties by comparing the points as lists, so
they go to the lexicographically least point.

`dioph._shell_forms` builds each shell's Gram matrix on integers over one
common scale (n_hi q D^2, with u over one denominator D and 1/t^2 = p / q),
`dioph._enumerate` runs the Fincke-Pohst levels of several consecutive
shells in one pass, and `dioph._normalize_rows` divides whole arrays.  The
versions here build the form entry by entry in `Fraction`s and scale it by
the least common denominator, enumerate one shell per call, and divide one
Python float at a time; the differential tests require equal bytes.
"""

import math
from fractions import Fraction

import numpy as np

from nilmix.dioph import _ENUM_SLACK, _lll, _radius_sq

from density_reference import cube_half_ball


def full_scan(rows: list, dim: int, radius: float) -> tuple:
    """`(f^2, argmin, count)` of f(m) = ||m||^d sum_j |m . v_j| over the nonzero
    canonical points of the ball, for rows of ints or Fractions: f^2 is a
    Fraction, (||m||^2)^d (sum_j |m . W_j|)^2 / D^2 with W the rows scaled to
    integers by the lcm D of their denominators."""
    grid = cube_half_ball(dim, _radius_sq(radius))[1:]
    den = math.lcm(*(Fraction(x).denominator for r in rows for x in r))
    w = np.array([[int(Fraction(x) * den) for x in r] for r in rows], dtype=object)
    s = np.abs(grid.astype(object) @ w.T).sum(axis=1)
    key = (grid * grid).sum(axis=1).astype(object) ** dim * s * s
    least = key.min()
    return Fraction(least, den * den), tuple(min(grid[key == least].tolist())), len(grid)


def shell_forms(u: list, ax: int, c: float, seed_radius: float, radius: float) -> list:
    """`(n_lo, n_hi, basis, dn, mu)` of every dyadic shell, in `Fraction`s."""
    dim = len(u)
    rsq = _radius_sq(radius)
    h = [[int(i == j) for j in range(dim)] for i in range(dim)]
    forms, n_lo, hi = [], -1, float(seed_radius)
    while n_lo < rsq:
        n_hi = min(math.floor(hi * hi), rsq)
        lo = max(hi / 2, seed_radius)
        t = c / lo ** dim * (1 + _ENUM_SLACK) + hi * dim * 1e-11
        inv_t2 = Fraction(1.0 / (t * t))
        form = [[Fraction(int(i == j != ax), n_hi) + inv_t2 * u[i] * u[j]
                 for j in range(dim)] for i in range(dim)]
        scale = math.lcm(*(x.denominator for row in form for x in row))
        g = [[int(x * scale) for x in row] for row in form]
        gh = [[sum(g[i][q] * b[q] for q in range(dim)) for b in h] for i in range(dim)]
        warm = [[sum(a[i] * gh[i][j] for i in range(dim)) for j in range(dim)] for a in h]
        red, dets, lam = _lll(warm)
        h = [[sum(r[i] * h[i][j] for i in range(dim)) for j in range(dim)] for r in red]
        dn = np.array([float(Fraction(dets[i + 1], 2 * scale * dets[i]))
                       for i in range(dim)])
        mu = np.array([[float(Fraction(lam[i][j], dets[j + 1])) if j < i else 0.0
                        for j in range(dim)] for i in range(dim)])
        forms.append((n_lo, n_hi, np.array(h, dtype=np.int64), dn, mu))
        n_lo, hi = n_hi, 2 * hi
    return forms


def enumerate_shell(dn: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """One of each pair +-x of integer x with sum_i dn_i (x_i + sum_{k>i} mu_ki x_k)^2 <= 1,
    by Fincke-Pohst levels over the nodes of this one form."""
    n = len(dn)
    xs = np.zeros((1, n), dtype=np.int64)
    zero = np.ones(1, dtype=bool)
    part = np.zeros(1)
    cen = np.zeros((1, n))
    for i in range(n - 1, -1, -1):
        c = cen[:, i]
        w = np.sqrt(np.maximum(1.0 + _ENUM_SLACK - part, 0.0) / dn[i]) + _ENUM_SLACK
        lo = np.ceil(-c - w).astype(np.int64)
        lo[zero] = np.maximum(lo[zero], 0)
        cnt = np.maximum(np.floor(-c + w).astype(np.int64) - lo + 1, 0)
        node = np.repeat(np.arange(len(cnt)), cnt)
        x = lo[node] + np.arange(len(node)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        xs = xs[node]
        xs[:, i] = x
        if i:
            zero = zero[node] & (x == 0)
            part = part[node] + dn[i] * (x + c[node]) ** 2
            cen = cen[node] + x[:, None] * mu[i]
    return xs


def shell_points(forms: list, other_axes: list) -> list:
    """Each shell's enumerated points inside the shell, one enumeration per shell."""
    chunks = []
    for n_lo, n_hi, basis, dn, mu in forms:
        pts = enumerate_shell(dn, mu) @ basis
        n_sq = (pts[:, other_axes] ** 2).sum(axis=1)
        chunks.append(pts[(n_sq > n_lo) & (n_sq <= n_hi)])
    return chunks


def normalize_rows(rows) -> list:
    """Each row divided by its first largest-|coordinate| entry, float by float,
    with -0.0 made 0.0."""
    out = []
    for r in rows:
        j = int(np.argmax(np.abs(r)))
        out.append([float(x) / float(r[j]) + 0.0 for x in r])
    return out
