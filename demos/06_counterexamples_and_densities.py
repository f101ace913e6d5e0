"""Two sharpness demonstrations and the density of good time tuples.

1. Squared-pair series: with times (m, 2m) the 4-factor correlation of
   (f o a^m)^2 (f o a^{2m})^2 converges to a positive limit while the
   *largest* pairwise time gap grows: no bound in the max gap can hold
   for 4 or more factors.
2. Product-block series: a rank-2 action with one non-ergodic generator
   admits an invariant observable whose pair correlation is exactly
   constant while the time separation diverges: no uniform rate over all
   time directions.
3. Densities: both obstructions are confined to a null set of
   directions: the fraction of good time tuples goes to 1.

Run:  python demos/06_counterexamples_and_densities.py
"""

from nilmix.catalog import get_system
from nilmix.correlate import counterexample_maxgap, no_uniform_bound_demo
from nilmix.fourier import FourierObservable, real_cosine
from nilmix.rates import density_estimate

catmap = get_system("catmap")
f = real_cosine(2, (1, 0))
series = counterexample_maxgap(f, f, 2, catmap.matrix, [0, 1, 2, 5, 10, 30])
print("squared-pair series, f = cos(2 pi x1), times (m, 2m):")
print(f"   expected limit c * int f^2 = {complex(series.meta['expected_limit']).real}")
for e in series.entries:
    print(f"   m = {e.times[0][0]:>2}: value = {e.value.real:+.6f} "
          f"(max gap {e.max_gap:g})")

print("\nproduct-block series (rank 2, one non-ergodic generator):")
product = get_system("product-t2xt2")
g = FourierObservable(2, {(1, 0): 1.0})
print(f"   block observable on the first T^2: modes {g.frequencies()}, "
      f"||g||^2 = {sum(abs(c) ** 2 for _, c in g.items())}")
demo = no_uniform_bound_demo(list(product.generators), g, [1, 5, 10, 20, 40])
for e in demo.entries:
    print(f"   separation {e.gap:>4g}: value = {e.value.real:+.6f}")
print("   constant forever: the invariant block never mixes")

print("\ndensity of hyperplane-avoiding pairs (cat map, n = 2):")
for radius in (25, 50, 100, 200):
    rep = density_estimate([catmap.matrix], 2, radius, 0.05)
    print(f"   R = {radius:>3}: good fraction = {rep.good_fraction:.6f} "
          f"({rep.bad_points} bad of {rep.total_points})")

print("\nsame for the rank-2 cubic-unit action:")
cubic2 = get_system("cubic-rank2")
for radius in (25, 50, 100):
    rep = density_estimate(list(cubic2.generators), 2, radius, 0.05)
    print(f"   R = {radius:>3}: good fraction = {rep.good_fraction:.6f} "
          f"(delta({rep.eps}) = {rep.delta:.4f}, "
          f"thick fraction {rep.thick_fraction:.4f})")
