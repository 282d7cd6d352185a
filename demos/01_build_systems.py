#!/usr/bin/env python3
"""Build self-similar systems and walk their piece tree.

A system is L centers with one ratio and one shape: the L homothety maps
z -> center + ratio*z applied to a root disc or square.  The two
canned systems are the three-disc gasket (radius-1/3 discs in the unit
disc) and the four-corner square set (ratio-1/4 squares in a unit square).
"""

from favlab import ifs

print("== presets ==")
for name in ("gasket", "corner4", "random-5-seed11"):
    system = ifs.preset(name)
    print(f"{name}: L={system.branching} shape={system.shape} "
          f"ratio={system.ratio:.4f} root_size={system.root_size}")

g = ifs.preset("gasket")
print("\ngasket level-1 centers (letters 0,1,2 <-> lower right, top, lower left):")
for i, c in enumerate(g.centers()):
    print(f"  {i}: {c:.6f}")

print("\npiece centers are nested affine sums: center(w) = sum ratio^(k-1) c_{w_k}")
for word in ([], [1], [1, 1], [1, 0, 2]):
    # The depth-n centers are one array in lexicographic word order, so the
    # word read as a base-L numeral is its index.
    index = 0
    for letter in word:
        index = index * g.branching + letter
    print(f"  word {word}: {ifs.piece_centers(g, len(word))[index]:.6f}")

print("\ndepth-n enumeration is lexicographic; counts are exactly L^n:")
for n in range(4):
    centers = ifs.piece_centers(g, n)
    print(f"  n={n}: {centers.size} pieces of size {ifs.piece_size(g, n):.6f}")

print("\nsystems serialize to a small JSON document:")
print(" ", ifs.system_to_json(ifs.preset("corner4")))

print("\ncontainment is validated; a map escaping the root region is rejected:")
try:
    ifs.build_system([0.9 + 0j, -0.9 + 0j], 0.5, ifs.DISC)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
