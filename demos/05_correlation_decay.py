"""Exact correlation decay on the cat map, by resonance summation.

Smooth observables (fast-decaying coefficients) mix super-exponentially:
log |corr(m)| shrinks by a factor ~ golden ratio per step, so the decay
beats every fixed exponential rate.  Trig polynomials decorrelate
*exactly* past a computable horizon.

Run:  python demos/05_correlation_decay.py
"""

import math

from nilmix.catalog import CAT
from nilmix.correlate import CorrelationSeries, correlation2, decay_fit
from nilmix.fourier import FourierObservable, real_cosine, real_sine

CHI = math.log((3 + math.sqrt(5)) / 2)

entries = {}
for a in range(-48, 49):
    for b in range(-48, 49):
        if 0 < a * a + b * b <= 48 * 48:
            entries[(a, b)] = math.exp(-0.5 * math.hypot(a, b))
f = FourierObservable(2, entries)
f = f.scaled(1.0 / math.sqrt(f.l2_sq()))

print(f"smooth mean-zero observable, {len(f)} modes, unit l2 norm, "
      f"f[(1, 0)] = {f[(1, 0)].real:.4f}")
print(f"spectral gap of the map: chi = {CHI:.6f}\n")
series = CorrelationSeries()
prev = None
for m in range(1, 9):
    v = abs(complex(correlation2(f, f, CAT, m)))
    series.append(((0,), (m,)), v)
    ratio = "" if prev is None else f"   log-ratio {math.log(v) / math.log(prev):.3f}"
    print(f"   m = {m}:  |corr| = {v:.3e}{ratio}")
    prev = v

fit = decay_fit(series, CHI)
print(f"\nleast-squares slope of log|corr| vs m: {fit.slope:.3f} "
      f"(envelope rate chi = {CHI:.3f}; slope far steeper = super-exponential)")
print(f"single-constant envelope at rate chi: C = {fit.c_fit:.3e}, "
      f"satisfied: {fit.envelope_satisfied}")

print("\ntrig polynomial horizon: cos(2 pi x1) + sin(2 pi x2) against itself")
g = real_cosine(2, (1, 0)) + real_sine(2, (0, 1))
print("   exact coefficients: " + ", ".join(f"{z}: {c}" for z, c in g.items()))
for m in range(0, 8):
    v = complex(correlation2(g, g, CAT, m))
    print(f"   m = {m}: corr = {v.real:+.6f}")
print("   (exact zeros: the transported frequencies left the support)")
