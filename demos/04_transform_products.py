#!/usr/bin/env python3
"""The transform side: one exponential sum at geometric scales.

The transform of the depth-n projected measure is a product of n copies of
one normalized exponential sum phi evaluated at scales L^-k.  The product
splits into high / medium / low blocks, and the low block's small-value set
is covered by intervals around its localized zeros.
"""

import numpy as np

from favlab import ifs, lemmas, shadow, spectral

g = ifs.preset("gasket")

print("== the product equals the brute-force character sum ==")
for (theta, n, x) in ((0.0, 3, 5.0), (0.7, 5, 81.5)):
    prod = spectral.nu_hat_eval(spectral.phi_theta_poly(g, theta), n, x)
    proj = (ifs.piece_centers(g, n) * np.exp(-1j * theta)).real
    brute = np.mean(np.exp(-1j * proj * x))
    print(f"  theta={theta} n={n} x={x}: |product - sum| = {abs(prod-brute):.2e}")

print("\n== Plancherel cross-check against the exact space-side L2 ==")
for n in range(3):
    err = spectral.parseval_check(g, 0.3, n, radius=3.0 ** (n + 3), grid=200001)
    space = shadow.l2_norm_sq(shadow.multiplicity(g, n, 0.3))
    print(f"  n={n}: space side {space:.5f}, relative gap {err:.4f}")

print("\n== block split (slope form) ==")
phi = spectral.t_form(g).poly(0.5)
spec = spectral.ProductSpec(n=10, m=3, ell=6)
x = 3.0**8
p1, p2, ps, pf, _ = spectral.split_products(spec, phi, x)
print(f"  |P1|={abs(p1):.3e} |P2|={abs(p2):.3e} |Psharp|={abs(ps):.3e} |Pflat|={abs(pf):.3e}")
print(f"  Psharp*Pflat == P1: {abs(ps*pf - p1):.1e}")

print("\n== small values of the low block, slope 1/2 ==")
thr = 3.0**-spec.ell
cover = spectral.ssv_scan(phi, spec, thr, 200_000)
print(f"  grid scan at threshold 3^-{spec.ell}: {cover.count} components")
cert, zeros = lemmas.ssv_certified_cover(phi, spec)
print(f"  localized zeros of phi in the strip: {np.round(np.array(zeros), 5)}")
print(f"  certified interval cover: {cert.count} intervals of radius 3^(n-m-ell) = 3")
print("  (slope 1/2 has exact real zeros at 4pi/3 + 4pi k: the tiling structure)")

print("\n== orbit sampling of the corner-set zero recurrence ==")
for lam, label in ((0.0, "lambda = 0"), (2 * np.pi / 5, "lambda = 2pi/5"), (1.0, "lambda = 1")):
    s = spectral.ergodic_sample(lam, 2000)
    print(f"  {label}: {s.classification}, running average -> {s.running_average[-1]:.4f}")
