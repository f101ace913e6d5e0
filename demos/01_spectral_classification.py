"""Classify the catalog systems: ergodicity, spectral type, Lyapunov data.

Run:  python demos/01_spectral_classification.py
"""

from nilmix.catalog import get_system, system_names
from nilmix.exactlin import char_poly, factor_over_q, lyapunov_data
from nilmix.nilalg import central_series, classify, find_regular_element

for name in system_names():
    system = get_system(name)
    print(f"== {name}: {system.description}")
    dims = [len(b) for b in central_series(system.algebra)]
    print(f"   central series dims: {dims} (step {system.algebra.step})")

    m = system.matrix
    p = char_poly(m)
    print(f"   char poly of the first generator: {p}")
    print(f"   factors: {[(str(q), c) for q, c in factor_over_q(p)]}")

    cls = classify(system.algebra, m)
    print(f"   ergodic: {cls.ergodic}, type: {cls.type_name}, "
          f"root-of-unity core dim: {len(cls.n_z2)}")

    split = lyapunov_data(m)
    exps = ", ".join(f"{b.exponent:+.6f} (x{b.multiplicity})" for b in split.blocks)
    print(f"   exponents: {exps}")

    if len(system.generators) > 1:
        reg = find_regular_element(list(system.generators))
        print(f"   regular time for the full action: z = {reg.z} "
              f"(margin {reg.certificate_margin:.4f})")
    print()
