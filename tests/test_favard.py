"""Quadrature vs Monte Carlo vs membership descent, plus decay fits."""

import math
import time

import numpy as np
import pytest

from favlab import favard, ifs, shadow
from favlab.errors import DegenerateSeries, FavlabError

import oracles


def dense_grid_oracle(system, depth, points=100001):
    thetas = np.linspace(0.0, np.pi, points)
    vals = [
        shadow.support_measure(shadow.multiplicity(system, depth, t)) for t in thetas
    ]
    return np.trapezoid(vals, thetas) / np.pi


def test_unit_disc_is_two():
    g = ifs.preset("gasket")
    res = favard.favard_length(g, 0, favard.QuadratureConfig(grid_size=16))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.converged


def test_gasket_depth1_matches_dense_oracle():
    g = ifs.preset("gasket")
    cfg = favard.QuadratureConfig(grid_size=64, refinement_limit=8, target_rel_error=1e-6)
    res = favard.favard_length(g, 1, cfg)
    oracle = dense_grid_oracle(g, 1, points=20001)
    assert res.value == pytest.approx(oracle, rel=1e-5)


def test_monotone_decay_small_depths():
    g = ifs.preset("gasket")
    cfg = favard.QuadratureConfig(grid_size=64, refinement_limit=5, target_rel_error=1e-5)
    results = [favard.favard_length(g, n, cfg) for n in range(4)]
    for a, b in zip(results, results[1:]):
        assert b.value <= a.value + a.error_estimate + b.error_estimate


def test_corner4_quarter_turn_symmetry():
    # the square system repeats every quarter turn, so integrating the
    # shadow measure over [0, pi/2) and doubling matches the full average
    c4 = ifs.preset("corner4")
    n = 2
    for theta in (0.1, 0.8, 1.3):
        a = shadow.support_measure(shadow.multiplicity(c4, n, theta))
        b = shadow.support_measure(shadow.multiplicity(c4, n, theta + np.pi / 2))
        assert a == pytest.approx(b, abs=1e-9)
    thetas = np.linspace(0.0, np.pi, 4097)
    vals = np.array(
        [shadow.support_measure(shadow.multiplicity(c4, n, t)) for t in thetas]
    )
    full = np.trapezoid(vals, thetas) / np.pi
    half_idx = 2049  # thetas[2048] == pi/2
    half = 2.0 * np.trapezoid(vals[:half_idx], thetas[:half_idx]) / np.pi
    assert half == pytest.approx(full, rel=1e-6)


EQUIVALENCE_CASES = [
    (name, depth, grid, limit)
    for name in ("gasket", "corner4", "random-3-seed1")
    for depth in range(6)
    for grid, limit in ((16, 6), (64, 4), (128, 3), (256, 2))
] + [("gasket", depth, 9, 6) for depth in range(6)]


@pytest.mark.parametrize("name, depth, grid, limit", EQUIVALENCE_CASES)
def test_symmetry_domain_matches_full_domain_oracle(name, depth, grid, limit):
    # For odd q or an even grid the reduced rule computes the full-domain
    # trapezoid sums, so only rounding may differ.
    system = ifs.preset(name)
    cfg = favard.QuadratureConfig(grid_size=grid, refinement_limit=limit, target_rel_error=1e-6)
    got = favard.favard_length(system, depth, cfg)
    want = oracles.favard_full_domain(system, depth, cfg)
    assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
    assert (got.converged, got.grid) == (want.converged, want.grid)
    assert abs(got.error_estimate - want.error_estimate) <= 1e-12


def rebuilt(system, centers, shape=None):
    return ifs.build_system(
        centers, system.ratio, shape or system.shape, root_size=system.root_size
    )


def test_symmetry_domain_of_presets():
    assert favard._domain(ifs.preset("gasket"), 128) == (6, 64)
    assert favard._domain(ifs.preset("corner4"), 128) == (4, 32)
    for name in [f"random-3-seed{s}" for s in range(1, 21)] + [
        f"random-5-seed{s}" for s in range(1, 6)
    ]:
        assert favard._domain(ifs.preset(name), 128) == (1, 128), name


def test_symmetry_domain_of_built_systems():
    gasket = ifs.preset("gasket")
    # Rotated off the axis: the third turn stays, the reflection about 0 goes.
    turned = rebuilt(gasket, gasket.centers() * np.exp(0.1j))
    assert favard._domain(turned, 128) == (3, 128)
    pair = ifs.build_system([-0.5, 0.5], 0.5, ifs.DISC)
    assert favard._domain(pair, 128) == (2, 64)
    # Three-fold centers: a third turn keeps discs but not squares, so the
    # square system keeps only its reflection in the imaginary axis.
    tri = 0.4 * np.exp(1j * np.pi * (0.5 + 2.0 * np.arange(3) / 3.0))
    base = ifs.build_system(tri, 0.25, ifs.DISC)
    assert favard._domain(base, 128) == (6, 64)
    assert favard._domain(rebuilt(base, tri, ifs.SQUARE), 128) == (2, 64)
    # A symmetry must hold to 1e-12: moving one center by 1e-9 breaks all.
    assert favard._domain(rebuilt(gasket, gasket.centers() + [0, 1e-9, 0]), 128) == (1, 128)


def test_symmetry_detection_cost_stays_near_linear():
    # Only turns dividing the count of outermost centers are tried, and sets
    # are compared sorted; an all-pairs test of every turn took 1.6 s at
    # L = 600 and grows as L^3.
    system = ifs.preset("random-5000-seed1")
    start = time.process_time()
    assert favard._domain(system, 128) == (1, 128)
    assert time.process_time() - start < 2.0


def test_corner4_odd_grid_does_not_converge_falsely():
    # On [0, pi] an odd grid N gives T_N = T_2N for a pi/2-periodic shadow, so
    # the first refinement measured 0 and stopped 1% off at grid 9.
    c4 = ifs.preset("corner4")
    odd = favard.favard_length(c4, 2, favard.QuadratureConfig(grid_size=9))
    fine = favard.favard_length(c4, 2, favard.QuadratureConfig(grid_size=128))
    assert odd.error_estimate > 0
    assert abs(odd.value - fine.value) <= 1e-3


def test_unconverged_solve_reports_the_last_trapezoid_sum():
    # One refinement from grid 16 stops unconverged at grid 32.  Its value is
    # the grid-32 trapezoid sum, not the Richardson step (4 T_32 - T_16) / 3.
    def solve(grid, limit):
        cfg = favard.QuadratureConfig(grid_size=grid, refinement_limit=limit)
        return favard.favard_length(ifs.preset("gasket"), 4, cfg)

    coarse, fine, got = solve(16, 0), solve(32, 0), solve(16, 1)
    assert (got.converged, got.grid) == (False, 32)
    assert got.value == pytest.approx(fine.value, rel=1e-12, abs=0.0)
    assert got.error_estimate == pytest.approx(abs(fine.value - coarse.value), rel=1e-9)
    richardson = (4.0 * fine.value - coarse.value) / 3.0
    assert abs(got.value - richardson) == pytest.approx(got.error_estimate / 3.0, rel=1e-6)


def test_quadrature_config_validation():
    with pytest.raises(FavlabError):
        favard.QuadratureConfig(grid_size=4)
    with pytest.raises(FavlabError):
        favard.QuadratureConfig(target_rel_error=0.0)


def test_needle_hits_examples():
    g = ifs.preset("gasket")
    assert oracles.needle_hits(g, 1, 0.0, 0.0)
    assert not oracles.needle_hits(g, 1, 0.0, 0.9)
    assert not oracles.needle_hits(g, 3, 1.1, 1.2)  # outside the unit region


def test_needle_hits_agrees_with_profile_support():
    rng = np.random.Generator(np.random.Philox(12))
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        for _ in range(400):
            n = int(rng.integers(0, 4))
            theta = float(rng.uniform(0, np.pi))
            x = float(rng.uniform(-1, 1))
            f = shadow.multiplicity(system, n, theta)
            assert oracles.needle_hits(system, n, theta, x) == (
                oracles.value_at(f, x) > 0
            )


def test_batch_hits_matches_scalar():
    g = ifs.preset("corner4")
    rng = np.random.Generator(np.random.Philox(13))
    thetas = rng.uniform(0, np.pi, 300)
    xs = rng.uniform(-1, 1, 300)
    scalar = [oracles.needle_hits(g, 3, t, x) for t, x in zip(thetas, xs)]
    assert list(oracles.hits_batch(g, 3, thetas, xs)) == scalar
    assert list(favard._hits_batch(g, 3, thetas, xs)) == scalar


def scaled(system, factor):
    """The same system with every length multiplied by factor."""
    return ifs.build_system(
        factor * system.centers(),
        system.ratio,
        system.shape,
        label=system.label,
        root_size=factor * system.root_size,
    )


@pytest.mark.parametrize(
    "system",
    [
        ifs.preset("gasket"),
        ifs.preset("corner4"),
        ifs.preset("random-4-seed5"),
        scaled(ifs.preset("gasket"), 2.0),
    ],
    ids=["gasket", "corner4", "random-4-seed5", "gasket-root2"],
)
def test_batch_hits_matches_complex_descent_oracle(system):
    # The projected-residual descent must reach the same verdict as the
    # complex-node descent on every needle, at every depth.
    rng = np.random.Generator(np.random.Philox(29))
    window = 2.0 * system.root_size
    blocks = [
        (rng.uniform(0.0, np.pi, 3000), rng.uniform(-window, window, 3000)),
        (np.empty(0), np.empty(0)),  # no needle at all
        (rng.uniform(0.0, np.pi, 200), rng.choice([-1.0, 1.0], 200) * 1.5 * window),
        # Inside the root shadow; every gasket needle here dies at level 1.
        (np.zeros(50), np.full(50, 0.9 * system.root_size)),
        # Every needle alive at the root at random angles: the descent's
        # all-alive route, which reads the block without gathers.
        (rng.uniform(0.0, np.pi, 3000), rng.uniform(-1.0, 1.0, 3000) * 0.999 * system.root_size),
    ]
    for depth in range(13):
        for thetas, xs in blocks:
            want = oracles.hits_batch(system, depth, thetas, xs)
            got = favard._hits_batch(system, depth, thetas, xs)
            assert got.dtype == bool and got.shape == thetas.shape
            assert np.array_equal(got, want), depth
    if system.label == "gasket":
        assert not oracles.hits_batch(system, 1, *blocks[3]).any()


def exact_mismatches(system, depth, seed, trials=2000):
    reach = system.root_size * (np.sqrt(2.0) if system.shape == ifs.SQUARE else 1.0)
    (thetas, xs), = favard.needle_draws(seed, trials, max(1.0, float(reach)))
    want = [oracles.exact_needle_hits(system, depth, t, x) for t, x in zip(thetas, xs)]
    return int(np.count_nonzero(favard._hits_batch(system, depth, thetas, xs) != want))


@pytest.mark.parametrize("name, depth", [("gasket", 26), ("corner4", 21), ("random-3-seed1", 26)])
def test_batch_hits_match_exact_descent_at_the_precision_ceiling(name, depth):
    # Past the old 2^26-piece cap (gasket n=16, corner4 n=13): each level
    # divides the residual by r, so the float verdicts must still equal the
    # exact rational ones at the deepest depth the ceiling admits.
    system = ifs.preset(name)
    assert depth == math.floor(favard.NEEDLE_PRECISION_BITS / -math.log2(system.ratio))
    assert exact_mismatches(system, depth, seed=1) == 0


def test_exact_descent_sees_rounding_past_the_ceiling():
    # Four levels past the ceiling (r^-n = 2^50) rounding flips a few
    # corner4 verdicts in 2,000, so the oracle above is not vacuous.
    assert exact_mismatches(ifs.preset("corner4"), 25, seed=1) > 0


def edge_needles(system, depth, ks, on_band=True):
    """Needles at x = +-b (1 +- 2^-k), and at +-b when on_band, where
    b = rho S_n + R r^n bounds the depth-n set's projection, on the angles
    aligned with each center and their float neighbours.  A side is kept only
    where one center projects farthest: where two coincide, the surviving
    nodes double every level."""
    c, r, size = system.centers(), system.ratio, system.root_size
    b = np.abs(c).max() * (1.0 - r**depth) / (1.0 - r) + size * r**depth
    scales = [1.0] * on_band + [1.0 + sign * 2.0**-k for k in ks for sign in (-1.0, 1.0)]
    thetas, xs = [], []
    for z in c:
        theta = np.angle(z) % np.pi
        proj = np.cos(theta) * c.real + np.sin(theta) * c.imag
        for side in (1.0, -1.0):
            if np.count_nonzero(side * proj >= (side * proj).max() - 1e-9) > 1:
                continue
            for t in (np.nextafter(theta, -np.inf), theta, np.nextafter(theta, np.inf)):
                thetas += [t] * len(scales)
                xs += [side * b * f for f in scales]
    return np.array(thetas), np.array(xs)


EDGE_KS = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 34, 36, 38, 40, 44, 48, 52)
TIGHT_KS = [k for k in EDGE_KS if k >= 8]
EDGE_SYSTEMS = {
    "gasket": ifs.preset("gasket"),
    "random-3-seed1": ifs.preset("random-3-seed1"),
    "random-2-seed3": ifs.preset("random-2-seed3"),
    # rho / (1 - r) = root_size: the band never falls below the root disc.
    "tangent": ifs.build_system([2 / 3, -2 / 3], 1 / 3, ifs.DISC),
    # A center escaping the root by 5e-10, inside CONTAINMENT_TOLERANCE.
    "escaping": ifs.build_system([2 / 3 + 5e-10, -1 / 3 + 0.4j, -0.3 - 0.4j], 1 / 3, ifs.DISC),
}


def ceiling(system):
    return math.floor(favard.NEEDLE_PRECISION_BITS / -math.log2(system.ratio))


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_batch_hits_keep_the_reach_only_verdicts_at_the_attractor_band(name):
    # The descent prunes a node by its descendants' band; needles on both
    # sides of the band, from 2^-52 to 1/2 of it and on it, keep the verdicts
    # of the descent that tests every node against its own disc, bit for bit,
    # at depths 0-12 and, from 2^-8 in, at the precision ceiling.  (Deep
    # needles farther in meet the gasket's coinciding projections, where the
    # reach-only nodes double every level.)
    system = EDGE_SYSTEMS[name]
    verdicts = set()
    for depth, ks in [(n, EDGE_KS) for n in range(13)] + [(ceiling(system), TIGHT_KS)]:
        thetas, xs = edge_needles(system, depth, ks)
        got = favard._hits_batch(system, depth, thetas, xs)
        assert np.array_equal(got, oracles.reach_only_hits_batch(system, depth, thetas, xs)), depth
        verdicts.update(got.tolist())
    assert verdicts == {False, True}


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_batch_hits_match_complex_descent_near_the_attractor_band(name):
    # Within 2^-48 to 2^-4 of the band.  On the band, one ulp from it, and on
    # the gasket's piece edge -3b/4 = -7/18 at depth 3, the complex-node descent
    # rounds otherwise than the residual one (the reach-only one too), and
    # the exact descent sides with either.
    system = EDGE_SYSTEMS[name]
    for depth in range(13):
        thetas, xs = edge_needles(system, depth, [k for k in EDGE_KS if 4 <= k <= 48], False)
        got = favard._hits_batch(system, depth, thetas, xs)
        assert np.array_equal(got, oracles.hits_batch(system, depth, thetas, xs)), depth


@pytest.mark.parametrize("name", ["gasket", "random-3-seed1"])
def test_batch_hits_match_exact_descent_at_the_band_and_the_ceiling(name):
    # Where the band is tight (2^-48 to 2^-8 of it) at the deepest depth the
    # precision ceiling admits, the slack still covers every rounding.  One
    # ulp of b is 2^-12 of a depth-26 piece's reach, the rounding scale that
    # the ceiling admits, so needles on the band and one ulp from it (there
    # the reach-only descent differs from the exact one too) are left out.
    system = EDGE_SYSTEMS[name]
    thetas, xs = edge_needles(system, 26, [k for k in TIGHT_KS if k <= 48], False)
    want = [oracles.exact_needle_hits(system, 26, t, x) for t, x in zip(thetas, xs)]
    got = favard._hits_batch(system, 26, thetas, xs)
    assert np.array_equal(got, want)
    assert any(want) and not all(want)


@pytest.mark.parametrize("block", [7, favard.NEEDLE_BLOCK, 1 << 16])
@pytest.mark.parametrize("trials", [1, 3, 4, 5, 10, 13, 100003, 10**6])
def test_needle_draws_stream_equals_full_arrays(trials, block, monkeypatch):
    monkeypatch.setattr(favard, "NEEDLE_BLOCK", block)
    rng = np.random.Generator(np.random.Philox(21))
    thetas = rng.uniform(0.0, np.pi, size=trials)
    xs = rng.uniform(-1.5, 1.5, size=trials)
    blocks = list(favard.needle_draws(21, trials, 1.5))
    assert all(t.size == x.size <= block for t, x in blocks)
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), thetas)
    assert np.array_equal(np.concatenate([x for _, x in blocks]), xs)


@pytest.mark.parametrize(
    "preset, depth", [("gasket", 8), ("corner4", 6), ("random-4-seed5", 6)]
)
def test_buffon_estimate_is_block_invariant(preset, depth, monkeypatch):
    # corner4 takes the per-needle square reach, the others the scalar disc one.
    system = ifs.preset(preset)
    results = set()
    for block in (7, 1 << 13, 1 << 16):
        monkeypatch.setattr(favard, "NEEDLE_BLOCK", block)
        results.add(favard.buffon_estimate(system, depth, 20003, seed=41))
    assert len(results) == 1


def test_buffon_depth0_exact_and_deterministic():
    g = ifs.preset("gasket")
    est, err = favard.buffon_estimate(g, 0, 5000, seed=3)
    assert est == 2.0 and err == 0.0
    a = favard.buffon_estimate(g, 2, 40000, seed=17)
    b = favard.buffon_estimate(g, 2, 40000, seed=17)
    assert a == b
    c = favard.buffon_estimate(g, 2, 40000, seed=18)
    assert a != c


def test_buffon_agrees_with_quadrature():
    # n=12 waits for a support-only quadrature: the full-profile one takes
    # minutes there.
    g = ifs.preset("gasket")
    for depth, cfg in [
        (1, favard.QuadratureConfig(grid_size=128, refinement_limit=6, target_rel_error=1e-6)),
        (8, favard.QuadratureConfig(grid_size=128, refinement_limit=3, target_rel_error=1e-4)),
    ]:
        quad = favard.favard_length(g, depth, cfg)
        est, err = favard.buffon_estimate(g, depth, 10**6, seed=21)
        assert abs(est - quad.value) <= 4 * err, depth


@pytest.mark.parametrize("name, factor", [("gasket", 2.0), ("corner4", 2.0)])
def test_buffon_window_holds_the_root_shadow(name, factor):
    # Root radius 2 (and a corner4 root of half-side 1, whose diagonal shadow
    # reaches sqrt(2)) cast shadows longer than the old fixed window [-1, 1].
    system = scaled(ifs.preset(name), factor)
    cfg = favard.QuadratureConfig(grid_size=128, refinement_limit=6, target_rel_error=1e-6)
    for depth in (0, 2):
        quad = favard.favard_length(system, depth, cfg)
        est, err = favard.buffon_estimate(system, depth, 200000, seed=11)
        assert abs(est - quad.value) <= 4 * err + 1e-12
    assert favard.buffon_estimate(system, 0, 1000, seed=1)[0] > 2.0


def test_fit_power_recovers_parameters():
    series = [(n, 5.0 * n**-0.25) for n in range(2, 12)]
    fit = favard.fit_decay(series, "power")
    assert fit.params[0] == pytest.approx(5.0, abs=1e-6)
    assert fit.params[1] == pytest.approx(0.25, abs=1e-6)
    assert fit.residual < 1e-12


def test_fit_sqrtlog_recovers_parameters():
    series = [(n, 3.0 * math.exp(-0.7 * math.sqrt(math.log(n)))) for n in range(2, 12)]
    fit = favard.fit_decay(series, "sqrtlog")
    assert fit.params[0] == pytest.approx(3.0, abs=1e-6)
    assert fit.params[1] == pytest.approx(0.7, abs=1e-6)


def test_fit_loglower_reports_mean_and_inf():
    series = [(n, 2.0 * math.log(n) / n) for n in range(2, 10)]
    fit = favard.fit_decay(series, "loglower")
    assert fit.params[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.params[1] == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_degenerate_series():
    with pytest.raises(DegenerateSeries):
        favard.fit_decay([(2, 1.0), (3, 1.0), (4, 1.0)], "power")
    with pytest.raises(DegenerateSeries):
        favard.fit_decay([(2, 1.0), (3, -0.5), (4, 0.2)], "power")
    with pytest.raises(DegenerateSeries):
        favard.fit_decay([(2, 1.0), (3, 0.9)], "power")


def test_gasket_series_power_exponent_in_unit_interval():
    g = ifs.preset("gasket")
    cfg = favard.QuadratureConfig(grid_size=64, refinement_limit=4, target_rel_error=1e-4)
    series = [(n, favard.favard_length(g, n, cfg).value) for n in range(1, 6)]
    fit = favard.fit_decay(series, "power")
    assert 0.0 < fit.params[1] < 1.0


@pytest.mark.parametrize("kwargs", [{"target_rel_error": math.nan}, {"refinement_limit": -1}])
def test_quadrature_config_rejects_nan_target_and_negative_limit(kwargs):
    with pytest.raises(FavlabError):
        favard.QuadratureConfig(**kwargs)


def test_quadrature_refuses_pieces_below_the_resolution_floor():
    # Gasket at root size 1e-11: depth 2 has pieces of 1.1e-12, where the
    # absolute merge tolerance of the profiles would shift the value by 16%.
    tiny = scaled(ifs.preset("gasket"), 1e-11)
    cfg = favard.QuadratureConfig(grid_size=64, refinement_limit=2, target_rel_error=1e-4)
    with pytest.raises(FavlabError) as exc:
        favard.favard_length(tiny, 2, cfg)
    assert str(exc.value) == "depth 2: piece size 1.11e-12 < floor 3.73e-09"
    # The floor reads the piece size, not the depth: root size 1e-11 is
    # already below it at depth 0, and 2^-28 itself is admitted.
    with pytest.raises(FavlabError, match="< floor"):
        favard.favard_length(tiny, 0, cfg)
    at_floor = scaled(ifs.preset("gasket"), favard.RESOLUTION_FLOOR)
    value = favard.favard_length(at_floor, 0, cfg).value
    assert value == pytest.approx(2 * favard.RESOLUTION_FLOOR, rel=1e-12)


@pytest.mark.parametrize("depth", [2, 4])
def test_scaled_gasket_scales_the_favard_length(depth):
    cfg = favard.QuadratureConfig(grid_size=64, refinement_limit=2, target_rel_error=1e-4)
    unit = favard.favard_length(ifs.preset("gasket"), depth, cfg).value
    small = favard.favard_length(scaled(ifs.preset("gasket"), 1e-6), depth, cfg).value
    assert abs(small / 1e-6 - unit) <= 1e-12 * unit
