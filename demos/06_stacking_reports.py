#!/usr/bin/env python3
"""Combinatorial stacking: level sets of the running-max profile.

The stacked-level-set product inequality, the scan for directions whose
high-multiplicity set is abnormally small with the L2 ratios along them, the
depth-bootstrap decay of the shadow measure, and the scan for directions
where the medium-frequency block refuses to decay.
"""

import numpy as np

from favlab import ifs, spectral, stacks

g = ifs.preset("gasket")
c4 = ifs.preset("corner4")
grid = tuple(np.linspace(0.0, np.pi, 64, endpoint=False))

print("== stacked-level-set product inequality ==")
pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
for name, system in (("corner4", c4), ("gasket", g)):
    rep = stacks.product_inequality_report(system, 4, grid, pairs)
    print(f"  {name}: worst |F_4KM| / (K |F_K| |F_M|) = {rep.worst_ratio:.4f} at {rep.worst_at}")

print("\n== exceptional-direction scan ==")
for K in (2, 4, 8):
    rep = stacks.e_scan(g, 4, K, grid)
    print(f"  K={K}: {sum(rep.membership)}/{len(grid)} directions exceptional, "
          f"measure estimate {rep.measure_estimate:.4f}")
big = stacks.e_scan(g, 3, 28, grid)
print(f"  K=28 > 3^3: all directions exceptional by emptiness: {all(big.membership)}")

print("\n== L2 bound along exceptional directions ==")
ratios = [r for _, r in stacks.e_scan(g, 4, 8, grid).l2_ratios]
if not ratios:
    print("  no exceptional directions on this grid (vacuous)")
else:
    print(f"  max ||f_n||^2 / K over {len(ratios)} directions: {max(ratios):.4f}")

print("\n== depth bootstrap ==")
rep = stacks.bootstrap_report(c4, 0.2, 2, 4)
print(f"  shadow measures at depths {rep.depths}:")
print("   ", " ".join(f"{m:.5f}" for m in rep.measures))
print(f"  two-term fit: saturation {rep.geom_a:.4f}, decay rho {rep.geom_rho:.3f}, "
      f"residual {rep.residual:.2e}")

print("\n== directions where the medium block stays large ==")
spec = spectral.ProductSpec(8, 2, 4)
for tau in (0.05, 0.10):
    rep = stacks.bad_direction_scan(spectral.t_form(g), spec, tau, np.linspace(0, 1, 201))
    print(f"  tau={tau}: |H| = {rep.h_measure:.4f} (target ceiling L^(-ell/2) = {rep.bound:.4f})")
