"""Kenyon's rational-slope oracles for the gasket, in integers.

In slope form the gasket's rescaled digits are {0, 1, t} (`spectral.t_form`
puts the three rescaled centers at (0, 0), (1, 0) and (0, 1)).  At t = p/q
the depth-n projected centers on the line of that slope are A + B·N, where
N runs over the integers sum_k 3^k d_k with d_k in {0, q, p}.  Two exact
consequences are checked here:

* Distinct-sum counts.  When p + q = 0 (mod 3), {0, q, p} is a complete
  residue system mod 3 and all 3^n sums are distinct; otherwise the fraction
  of distinct sums falls with n (Kenyon's measure-zero side), to the values
  listed in ROADMAP item 4.
* Integer-gap support.  Each depth-n shadow has length 2·3^-n, so the
  support is 2ρ + sum min(|B|·g, 2ρ) over the gaps g between sorted distinct
  N (ρ = 3^-n), and its components are the gaps wider than 2ρ plus one.
  The event sweep of `shadow.multiplicity` and the support recursion of
  `shadow.support_unions` must give the same measure and the same component
  count.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from favlab import ifs, shadow, spectral


def digit_sums(p: int, q: int, depth: int) -> np.ndarray:
    """The sorted distinct N = sum_{k<depth} 3^k d_k, d_k in {0, q, p}."""
    sums = np.zeros(1, dtype=np.int64)
    for k in range(depth):
        sums = np.unique(np.concatenate([sums, sums + q * 3**k, sums + p * 3**k]))
    return sums


def slope_line(t: float) -> tuple[float, float]:
    """(theta, s): the angle whose projection is proportional to a + t·b in
    slope coordinates, and s, the projection of the basis vector u_1 - u_0."""
    system = ifs.preset("gasket")
    assert spectral.t_form(system).extra == ()  # exactly the digits {0, 1, t}
    u = system.branching * system.centers()
    v2, v3 = u[1] - u[0], u[2] - u[0]
    # proj(v) = Re(v e^{-i theta}); solve proj(v3) = t proj(v2) for theta.
    theta = math.atan2(t * v2.real - v3.real, v3.imag - t * v2.imag) % math.pi
    s = (v2 * np.exp(-1j * theta)).real
    assert abs((v3 * np.exp(-1j * theta)).real - t * s) <= 1e-14
    return theta, s


@pytest.mark.parametrize("t", ["1/2", "2", "1/5", "4/5", "7/11", "5/7"])
def test_complete_residue_digits_give_distinct_sums(t):
    p, q = Fraction(t).numerator, Fraction(t).denominator
    assert (p + q) % 3 == 0
    for depth in range(11):
        assert digit_sums(p, q, depth).size == 3**depth


# Fraction of distinct sums at depths 6 and 10, to three digits (ROADMAP item 4).
FALLING = {"1": (0.088, 0.017), "1/3": (0.517, 0.300), "1/4": (0.517, 0.300),
           "3/4": (0.517, 0.300), "2/5": (0.807, 0.616)}


@pytest.mark.parametrize("t", sorted(FALLING))
def test_other_slopes_lose_distinct_sums(t):
    p, q = Fraction(t).numerator, Fraction(t).denominator
    assert (p + q) % 3 != 0
    frac = {n: digit_sums(p, q, n).size / 3**n for n in (6, 8, 10)}
    assert frac[6] > frac[8] > frac[10]
    assert (round(frac[6], 3), round(frac[10], 3)) == FALLING[t]


def components(f: shadow.StepFunction) -> int:
    """Maximal runs of cells with value >= 1."""
    covered = np.concatenate([[False], f.values >= 1, [False]])
    return int(np.count_nonzero(covered[1:] & ~covered[:-1]))


@pytest.mark.parametrize("depth", [6, 9])
@pytest.mark.parametrize("t", ["1/2", "1/5", "1/4", "1", "2/5"])
def test_sweep_support_matches_integer_gap_oracle(t, depth):
    p, q = Fraction(t).numerator, Fraction(t).denominator
    theta, s = slope_line(p / q)
    gaps = np.diff(digit_sums(p, q, depth)).astype(float)
    rho = 3.0**-depth
    width = abs(s) / (q * 3**depth) * gaps  # |B|·g
    # No gap is within 1e-9 of a contact, so the sweep's 1e-12 merge
    # tolerance cannot move a component boundary.
    assert np.all(np.abs(width - 2 * rho) > 1e-9 * rho)
    want = 2 * rho + np.minimum(width, 2 * rho).sum()
    f = shadow.multiplicity(ifs.preset("gasket"), depth, theta)
    assert abs(shadow.support_measure(f) - want) <= 1e-12 * want
    assert components(f) == 1 + np.count_nonzero(width > 2 * rho)
    u = shadow.support_unions(ifs.preset("gasket"), depth, theta)[depth]
    assert abs(u.measure - want) <= 1e-12 * want
    assert u.count == components(f)
