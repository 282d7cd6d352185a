"""Multiplicity profiles: sweep-line construction and exact measures.

The gasket depth-1 oracle is the explicit three-interval union: projected
centers 0 and +-sqrt(3)/6 at angle 0, each shadow of radius 1/3.
"""

import io
import math

import numpy as np
import pytest

import oracles
from favlab import ifs, shadow

SQ3 = math.sqrt(3.0)


def brute_profile(intervals, xs):
    """Independent pointwise multiplicity of an interval family."""
    out = np.zeros(xs.size, dtype=int)
    for lo, hi in intervals:
        out += (xs >= lo) & (xs <= hi)
    return out


def gasket_depth1_intervals(theta):
    g = ifs.preset("gasket")
    proj = (g.centers() * np.exp(-1j * theta)).real
    return [(p - 1 / 3, p + 1 / 3) for p in proj]


def test_project_piece_examples():
    unit_disc = oracles.Piece(center=0j, size=1.0, depth=0)
    assert oracles.project_piece(unit_disc, 1.234, ifs.DISC) == (-1.0, 1.0)

    # corner4 root: half-side 1/2, at the tiling slope the shadow is 3/sqrt(5)
    root = oracles.Piece(center=0j, size=0.5, depth=0)
    theta = math.atan(0.5)
    lo, hi = oracles.project_piece(root, theta, ifs.SQUARE)
    assert hi - lo == pytest.approx(3 / math.sqrt(5), abs=1e-12)

    g = ifs.preset("gasket")
    top = oracles.Piece(center=oracles.piece_center(g, [1]), size=1 / 3, depth=1)
    lo, hi = oracles.project_piece(top, 0.0, ifs.DISC)
    assert lo == pytest.approx(-1 / 3, abs=1e-12)
    assert hi == pytest.approx(1 / 3, abs=1e-12)


def test_depth0_profile():
    g = ifs.preset("gasket")
    f = shadow.multiplicity(g, 0, 0.7)
    assert list(f.values) == [1]
    assert shadow.mass(f) == pytest.approx(2.0, abs=0)
    assert shadow.support_measure(f) == pytest.approx(2.0, abs=0)
    assert shadow.l2_norm_sq(f) == pytest.approx(2.0, abs=0)


def test_gasket_depth1_angle0_closed_forms():
    g = ifs.preset("gasket")
    f = shadow.multiplicity(g, 1, 0.0)
    assert shadow.support_measure(f) == pytest.approx(2 / 3 + SQ3 / 3, abs=1e-9)
    assert shadow.mass(f) == pytest.approx(2.0, abs=1e-9)
    assert shadow.level_measure(f, 3) == pytest.approx(2 / 3 - SQ3 / 3, abs=1e-9)
    assert shadow.l2_norm_sq(f) == pytest.approx(6 - 4 * SQ3 / 3, abs=1e-9)
    # cross-check against a fine-grid count of the explicit intervals
    xs = np.linspace(-0.7, 0.7, 200001)
    brute = brute_profile(gasket_depth1_intervals(0.0), xs)
    assert abs(np.mean(brute == 3) * 1.4 - (2 / 3 - SQ3 / 3)) < 1e-3


def test_gasket_depth1_pi6_exact_double_stack():
    # two of the three projected centers coincide at this angle; the third
    # shadow still overlaps them, so the peak multiplicity is 3
    g = ifs.preset("gasket")
    proj = np.sort((g.centers() * np.exp(-1j * np.pi / 6)).real)
    assert proj[1] == pytest.approx(proj[2], abs=1e-15)
    f = shadow.multiplicity(g, 1, np.pi / 6)
    xs = np.linspace(-0.8, 0.6, 100001)
    brute = brute_profile(gasket_depth1_intervals(np.pi / 6), xs)
    assert shadow.max_value(f) == brute.max() == 3


def test_maximal_profile_pi6_matches_interval_oracle():
    g = ifs.preset("gasket")
    fstar = oracles.maximal_profile(g, range(3), np.pi / 6)
    # oracle: direct enumeration of all 9 depth-2 intervals plus coarser levels
    xs = np.linspace(-1.1, 1.1, 400001)
    best = np.zeros(xs.size, dtype=int)
    for depth in (0, 1, 2):
        half = (1 / 3) ** depth
        proj = (ifs.piece_centers(g, depth) * np.exp(-1j * np.pi / 6)).real
        level = brute_profile([(p - half, p + half) for p in proj], xs)
        np.maximum(best, level, out=best)
    assert shadow.max_value(fstar) == best.max() == 6
    # four depth-2 words project onto the same interval (the exact stack)
    proj2 = np.round((ifs.piece_centers(g, 2) * np.exp(-1j * np.pi / 6)).real, 12)
    _, counts = np.unique(proj2, return_counts=True)
    assert counts.max() == 4


def test_maximal_profile_dominates_each_depth():
    g = ifs.preset("gasket")
    for theta in (0.0, 0.4, 1.1):
        fstar = oracles.maximal_profile(g, range(4), theta)
        for n in range(4):
            f = shadow.multiplicity(g, n, theta)
            for x in 0.5 * (f.breakpoints[:-1] + f.breakpoints[1:]):
                assert oracles.value_at(fstar, x) >= oracles.value_at(f, x)


def test_maximal_profile_depth0_is_multiplicity():
    g = ifs.preset("gasket")
    assert oracles.maximal_profile(g, [0], 0.3) == shadow.multiplicity(g, 0, 0.3)


def test_corner4_tiling_direction():
    c4 = ifs.preset("corner4")
    theta = math.atan(0.5)
    for n in range(7):
        f = shadow.multiplicity(c4, n, theta)
        assert shadow.support_measure(f) == pytest.approx(3 / math.sqrt(5), abs=1e-8)
        assert shadow.level_measure(f, 2) <= 1e-8


def test_mass_identity_random_angles():
    rng = np.random.Generator(np.random.Philox(8))
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        for _ in range(12):
            n = int(rng.integers(0, 5))
            theta = float(rng.uniform(0, np.pi))
            f = shadow.multiplicity(system, n, theta)
            single = 2 * shadow.shadow_half_length(system, n, theta)
            expect = system.branching**n * single
            assert shadow.mass(f) == pytest.approx(expect, rel=1e-9)


def test_chebyshev_level_identity_exact():
    # mass >= support + (K-1)|{f >= K}| cell by cell: a cell of value v
    # contributes (v - [v>=1] - (K-1)[v>=K]) * length, nonnegative for all v
    rng = np.random.Generator(np.random.Philox(9))
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        for _ in range(20):
            n = int(rng.integers(0, 5))
            theta = float(rng.uniform(0, np.pi))
            f = shadow.multiplicity(system, n, theta)
            lengths = np.diff(f.breakpoints)
            for k in (1, 2, 3, 5):
                per_cell = (
                    f.values - (f.values >= 1) - (k - 1) * (f.values >= k)
                ) * lengths
                assert np.all(per_cell >= 0.0)
                assert per_cell.sum() >= 0.0


def test_cauchy_schwarz_support_bound():
    rng = np.random.Generator(np.random.Philox(10))
    for name in ("gasket", "corner4", "random-3-seed1"):
        system = ifs.preset(name)
        for _ in range(10):
            n = int(rng.integers(0, 5))
            theta = float(rng.uniform(0, np.pi))
            f = shadow.multiplicity(system, n, theta)
            lhs = shadow.support_measure(f) * shadow.l2_norm_sq(f)
            assert lhs >= shadow.mass(f) ** 2 - 1e-9


def test_canonicalization_idempotent():
    g = ifs.preset("gasket")
    f = shadow.multiplicity(g, 3, 0.37)
    again = shadow.step_function(f.breakpoints, f.values)
    assert again == f


def test_direction_continuity_bound():
    g = ifs.preset("gasket")
    n = 3
    thetas = np.linspace(0.2, 0.25, 21)
    sups = [shadow.support_measure(shadow.multiplicity(g, n, t)) for t in thetas]
    step = thetas[1] - thetas[0]
    for a, b in zip(sups, sups[1:]):
        assert abs(a - b) <= 2 * 3**n * step


def test_level_intervals_and_strict_levels():
    g = ifs.preset("gasket")
    f = shadow.multiplicity(g, 1, 0.0)
    sup = oracles.level_intervals(f, 1)
    assert sup.count == 1
    assert sup.measure == pytest.approx(shadow.support_measure(f), abs=0)
    # Values are integers, so the strict level {f > k} is level k + 1.
    assert float(np.diff(f.breakpoints)[f.values > 2].sum()) == shadow.level_measure(f, 2 + 1)
    assert shadow.level_measure(f, 3 + 1) == 0.0


def test_csv_round_trip():
    g = ifs.preset("gasket")
    f = shadow.multiplicity(g, 2, 1.0)
    buf = io.StringIO()
    shadow.write_step_csv(buf, f, 1.0, 2, "gasket")
    buf.seek(0)
    loaded, meta = shadow.read_step_csv(buf)
    assert loaded == f
    assert meta["system"] == "gasket"
    assert meta["n"] == "2"
    assert float(meta["theta"]) == 1.0


def test_empty_profile():
    f = shadow.step_function([], [])
    assert f.is_zero
    assert shadow.mass(f) == 0.0
    assert shadow.support_measure(f) == 0.0
