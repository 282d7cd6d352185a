#!/usr/bin/env python3
"""The analysis toolbox, verified numerically.

Zero counting by winding numbers, the zero-count vs sup bound on the disc,
small-value neighborhoods, supremum-comparison ratios, box doubling, and
the frequency-cluster L2 bound.  Includes the story of the two-variable gap
constant: the printed 1/18 fails; the sharp constant is 1/24.
"""

import numpy as np

from favlab import ifs, lemmas, spectral, verify

print("== zero counting by winding + quadrisection ==")
zeros = lemmas.count_zeros(lambda z: np.asarray(z) ** 2 - 1 / 16, 0.0, 0.5).zeros
print(f"  z^2 - 1/16 on |z|<1/2: count {len(zeros)}, zeros {np.round(zeros, 6)}")

print("\n== zero count vs log2(sup) on the unit disc ==")
rep = lemmas.blaschke_check(lambda z: 16 * (np.asarray(z) ** 2 - 1 / 16))
print(f"  16(z^2-1/16): M={rep.zero_count} <= log2(C)={rep.bound:.3f}  (C={rep.sup_bound:.1f})")

print("\n== small values hug the zeros ==")
rep = lemmas.small_value_cover_check(lambda z: 9 * (np.asarray(z) - 1 / 9), 0.1)
print(f"  9(z-1/9), delta=0.1: {rep.small_samples} small samples, "
      f"eps={rep.eps:.5f}, worst margin {rep.worst_margin:.5f} (<= 0 passes)")

print("\n== randomized sweeps (seeded, deterministic) ==")
for suite, trials in (("blaschke", 200), ("cover", 100), ("turan", 200), ("cetsq", 30)):
    out = verify.run_suite(suite, trials, seed=1)
    print(f"  {suite:9s}: worst {out['worst_case']:.4f}  pass={out['pass']}")

print("\n== box doubling for the slope-form sum ==")
tf = spectral.t_form(ifs.preset("gasket"))
for k in (0, 1, 3):
    r = lemmas.doubling_ratio(tf.poly(0.37), 5.0, k=k)
    print(f"  scale shift k={k}: full/half sup ratio {r:.4f} (>= 1 always)")

print("\n== the gap constant story ==")
print("  claim: |1+e^{ix}+e^{iy}|^2 >= a(|4cos^2 x - 1|^2 + |4cos^2 y - 1|^2)")
for a, label in ((1 / 18, "printed 1/18"), (1 / 24, "sharp 1/24")):
    gap = spectral.key_obs_check(a, 600)
    print(f"  a = {label}: min gap over the torus grid = {gap:+.6f}")
print("  equality at (0, pi) holds for 1/18, but the true ratio minimum is 1/24,")
print("  approached at the common zeros along the diagonal direction.")

print("\n== triple-angle ratio identity ==")
dev = spectral.sine_identity_check(10**6)
print(f"  max |sin 3x / sin x - (4cos^2 x - 1)| over 10^6 points: {dev:.2e}")

print("\n== lattice-distance slope of the normalized sum ==")
b = spectral.dist_bound_fit(tf, 400)
print(f"  largest b with |Phi(y)| <= 1 - b dist(y, Z^2) away from the lattice: {b:.4f}")
