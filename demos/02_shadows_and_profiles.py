#!/usr/bin/env python3
"""Project a depth-n set onto a direction and read off its multiplicity.

The profile counts, at each point of the projection line, how many depth-n
shadows cover it.  All measures below are exact sums over the profile's
cells, not quadrature.
"""

import math

import numpy as np

from favlab import ifs, shadow

g = ifs.preset("gasket")

print("== gasket, depth 1, angle 0 ==")
f = shadow.multiplicity(g, 1, 0.0)
for i, v in enumerate(f.values):
    print(f"  [{f.breakpoints[i]:+.5f}, {f.breakpoints[i+1]:+.5f}]  multiplicity {v}")
print(f"support  {shadow.support_measure(f):.9f}   (= 2/3 + sqrt3/3)")
print(f"mass     {shadow.mass(f):.9f}")
print(f"triple   {shadow.level_measure(f, 3):.9f}   (= 2/3 - sqrt3/3)")
print(f"int f^2  {shadow.l2_norm_sq(f):.9f}   (= 6 - 4 sqrt3/3)")

print("\n== exact stacking at angle pi/6 ==")
proj = np.sort((g.centers() * np.exp(-1j * np.pi / 6)).real)
print(f"two projected centers coincide: {proj[1]:.12f} == {proj[2]:.12f}")
for n in (1, 2, 3):
    f = shadow.multiplicity(g, n, np.pi / 6)
    fstar = shadow.pointwise_max([shadow.multiplicity(g, k, np.pi / 6) for k in range(n + 1)])
    print(f"  depth {n}: peak multiplicity {shadow.max_value(f)}, "
          f"running max profile peak {shadow.max_value(fstar)}")

print("\n== the four-corner set tiles at slope 1/2 ==")
c4 = ifs.preset("corner4")
theta = math.atan(0.5)
for n in range(5):
    f = shadow.multiplicity(c4, n, theta)
    print(f"  depth {n}: support {shadow.support_measure(f):.12f} "
          f"(target 3/sqrt5 = {3/math.sqrt(5):.12f}), "
          f"double-covered measure {shadow.level_measure(f, 2):.2e}")
print("the depth-n shadows abut exactly, so the projection never thins out.")
