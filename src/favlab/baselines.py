"""Frozen empirical baselines for the unnamed absolute constants.

The classical statements verified here involve constants that are proved to
exist but never pinned down.  Each value below was measured once by
tools/freeze_baselines.py and frozen with the noted headroom; verification
suites treat them as regression ceilings, not as theory.
"""

# Sharp constant of the two-variable gap inequality
# |1+e^{ix}+e^{iy}|^2 >= a (|4cos^2 x - 1|^2 + |4cos^2 y - 1|^2): the ratio
# minimum sits in the limit at the common zeros along the diagonal and
# equals 1/24 (measured 1/23.99983 by refined grid descent; the quartic
# term along the critical direction is +11/12 u^4, so equality is never
# undershot).  The printed constant 1/18 fails on about 2% of the torus.
KEY_OBS_SHARP_A = 1.0 / 24.0

# Max Turan-style constant A over the randomized supremum-ratio suite
# (measured 0.617 over 500 trials; 20 is the agreed ceiling).
TURAN_A_CEILING = 20.0

# Max cluster-L2 ratio over the randomized frequency suite
# (measured 0.585 over 120 trials; 25 is the agreed ceiling).
CETSQ_RATIO_CEILING = 25.0

# Max of lhs / (k * points-per-unit-interval) over the same suite
# (single-scale corollary; measured 1.138 over 120 trials).
CET_COROLLARY_CEILING = 2.0

# Max box doubling ratio at lemmas.BOX_DENSITY: gasket sweep over 100 t values,
# 100 box centers in [1, 30], scale shifts k <= 5 (measured 3.0685; +10% headroom).
DOUBLING_RATIO_CEILING = 3.068519586659495 * 1.10

# Worst stacked-level-set ratio over corner4 and gasket, depth 4,
# 256 angles, (K, M) in {1,2,3}^2 (exact deterministic value).
PRODUCT_RATIO_BASELINE = 0.5

# Small-value components per L^m for the gasket block scan at
# (n, m, ell) = (10, 3, 6), threshold L^-ell, 200k-point x grid, measured
# over a fine t sweep including the exact-zero rationals (max 6 components
# = 0.2222 per L^m; +25% headroom).
SSV_COMPONENTS_PER_LM = (6.0 / 27.0) * 1.25

# Residual ceiling for the two-term bootstrap fit (corner4, theta 0.2 rad,
# base depth 2, four rounds; measured 0.000674).
BOOTSTRAP_RESIDUAL_CEILING = 0.002
