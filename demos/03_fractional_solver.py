"""Mode-wise inversion of fractional directional operators.

Frequencies split three ways: large divisors invert with a bounded
factor, small divisors borrow the Diophantine lower bound (the loss shows
up as a weighted-norm factor), and the zero mode is invariant.  An exact
resonance is the obstruction that stops everything.

Run:  python demos/03_fractional_solver.py
"""

import math

import numpy as np

from nilmix.dioph import diophantine_certificate
from nilmix.fourier import FourierObservable
from nilmix.fracsolve import ObstructionError, solve_fractional

PHI_INV = (math.sqrt(5) - 1) / 2
GOLDEN = [(1.0, PHI_INV)]

print("single mode at (0, 1), order 1/2 along the cat map's expanding line:")
f = FourierObservable(2, {(0, 1): 1.0})
sol = solve_fractional(f, GOLDEN, 0.5)
print(f"   phi_(0,1) = {complex(sol.per_direction[0].phi[(0, 1)]).real:.10f} "
      f"(= 1/sqrt(2 pi / phi)), residual {sol.residual:.2e}")

print("\nrandom mean-zero observable, support radius 20, all orders:")
rng = np.random.default_rng(1)
coeffs = {}
for _ in range(60):
    z = tuple(int(x) for x in rng.integers(-20, 21, size=2))
    if any(z) and z[0] ** 2 + z[1] ** 2 <= 400:
        coeffs[z] = complex(rng.normal(), rng.normal())
g = FourierObservable(2, coeffs)
cert = diophantine_certificate(GOLDEN, 2, 21)
for r in (0.25, 0.5, 1, 2):
    sol = solve_fractional(g, GOLDEN, r, certificate=cert)
    d = sol.per_direction[0]
    print(f"   r = {r:<5} residual {sol.residual:.2e}   "
          f"||phi_small|| = {d.norm_small:9.4f} <= "
          f"{d.predicted_small_bound:11.4f} (Diophantine bound)")

print("\ninteger order in signed form is the plain directional derivative:")
sol1 = solve_fractional(g, GOLDEN, 1, mode="signed")
z0 = sol1.per_direction[0].phi.frequencies()[0]
d = 1j * 2 * math.pi * (z0[0] + z0[1] * PHI_INV)
check = complex(sol1.per_direction[0].phi[z0]) * d - complex(g[z0])
print(f"   coefficient identity at {z0}: error {abs(check):.2e}")

print("\nresonant direction (1, 1) hits the obstruction:")
try:
    solve_fractional(FourierObservable(2, {(1, -1): 1.0}), [(1, 1)], 0.5)
except ObstructionError as e:
    print(f"   {e}")
