"""Transform-side products, identity checks, and orbit sampling."""

import math

import numpy as np
import oracles
import pytest

from favlab import ifs, lemmas, spectral
from favlab.errors import FavlabError, SpecInvalid


def charsum_oracle(system, theta, depth, x):
    """Mean of e^{-i proj(center) x} over the enumerated depth-n centers."""
    proj = (ifs.piece_centers(system, depth) * np.exp(-1j * theta)).real
    return np.mean(np.exp(-1j * proj * x))


def test_phi_at_zero_is_one():
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        for theta in (0.0, 0.3, 2.0):
            assert spectral.phi_theta_poly(system, theta)(0.0) == pytest.approx(1.0)


def test_phi_slope_form_cube_roots_zero():
    tf = spectral.t_form(ifs.preset("gasket"))
    val = tf.poly(2.0)(2 * np.pi / 3)
    assert abs(val) < 1e-15


def test_phi_bounded_by_one():
    rng = np.random.Generator(np.random.Philox(31))
    g = ifs.preset("gasket")
    xs = rng.uniform(-1e4, 1e4, 1000)
    assert np.max(np.abs(spectral.phi_theta_poly(g, 0.9)(xs))) <= 1 + 1e-12


def test_gasket_frequencies_match_projected_level1_centers():
    g = ifs.preset("gasket")
    for theta in (0.0, 0.31, 1.7):
        freqs = np.sort(spectral.phi_frequencies(g, theta))
        angles = (np.pi / 2, -np.pi / 6, 7 * np.pi / 6)
        expected = np.sort([np.cos(a - theta) for a in angles])
        assert np.max(np.abs(freqs - expected)) < 1e-12
        proj = np.sort(3 * (g.centers() * np.exp(-1j * theta)).real)
        assert np.max(np.abs(freqs - proj)) < 1e-12


def test_nu_hat_basics():
    phi = spectral.phi_theta_poly(ifs.preset("gasket"), 0.4)
    assert spectral.nu_hat_eval(phi, 5, 0.0) == pytest.approx(1.0)
    x = 7.7
    one = spectral.nu_hat_eval(phi, 1, x)
    assert one == pytest.approx(phi(x / 3))
    assert abs(spectral.nu_hat_eval(phi, 8, 123.0)) <= 1 + 1e-12


def test_nu_hat_equals_character_sum():
    g = ifs.preset("gasket")
    val = spectral.nu_hat_eval(spectral.phi_theta_poly(g, 0.0), 3, 5.0)
    assert abs(val - charsum_oracle(g, 0.0, 3, 5.0)) < 1e-12


def test_nu_hat_character_sum_random_pairs():
    rng = np.random.Generator(np.random.Philox(32))
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        L = system.branching
        for _ in range(60):
            n = int(rng.integers(0, 7))
            theta = float(rng.uniform(0, np.pi))
            x = float(rng.uniform(-(L ** (n + 1)), L ** (n + 1)))
            got = spectral.nu_hat_eval(spectral.phi_theta_poly(system, theta), n, x)
            assert abs(got - charsum_oracle(system, theta, n, x)) < 1e-10


def test_theta_to_t_preserves_modulus():
    g = ifs.preset("gasket")
    tf = spectral.t_form(g)
    for theta in (0.1, 0.3, 0.8):
        t, xscale = oracles.theta_to_t(g, theta)
        for x in (0.5, 3.0, 50.0):
            a = abs(spectral.phi_theta_poly(g, theta)(x))
            b = abs(tf.poly(t)(xscale * x))
            assert a == pytest.approx(b, abs=1e-12)


def test_product_spec_validation():
    spectral.ProductSpec(10, 3, 6)
    with pytest.raises(SpecInvalid):
        spectral.ProductSpec(9, 3, 6)
    with pytest.raises(SpecInvalid):
        spectral.ProductSpec(5, -1, 2)


def test_split_products_multiply_back():
    g = ifs.preset("gasket")
    spec = spectral.ProductSpec(12, 3, 6)
    rng = np.random.Generator(np.random.Philox(33))
    xs = rng.uniform(1.0, 3.0**12, 1000)
    phi = spectral.phi_theta_poly(g, 0.3)
    p1, p2, ps, pf, _ = spectral.split_products(spec, phi, xs)
    full = spectral.nu_hat_eval(phi, 12, xs)
    assert np.max(np.abs(p1 * p2 - full)) < 1e-12
    assert np.max(np.abs(ps * pf - p1)) < 1e-10


def test_split_products_against_direct_factor_oracle():
    g = ifs.preset("gasket")
    spec = spectral.ProductSpec(12, 3, 6)
    x = 3.0**10
    phi = spectral.phi_theta_poly(g, 0.3)
    p1, p2, ps, pf, _ = spectral.split_products(spec, phi, x)

    def direct(lo, hi):
        acc = 1.0 + 0.0j
        for k in range(lo, hi + 1):
            acc *= complex(phi(3.0**-k * x))
        return acc

    assert abs(p1 - direct(1, 8)) < 1e-10
    assert abs(p2 - direct(9, 12)) < 1e-10
    assert abs(ps - direct(1, 2)) < 1e-10
    assert abs(pf - direct(3, 8)) < 1e-10


@pytest.mark.parametrize("slope", [False, True])
def test_split_products_full_evaluates_each_scale_once(slope, monkeypatch):
    g = ifs.preset("gasket")
    phi = spectral.t_form(g).poly(0.37) if slope else spectral.phi_theta_poly(g, 0.3)
    spec = spectral.ProductSpec(12, 3, 6)
    xs = np.linspace(3.0**9, 3.0**12, 777)

    def running(lo, hi):
        acc = np.ones(xs.shape, dtype=complex)
        for k in range(lo, hi + 1):
            acc *= phi((1.0 / 3.0) ** k * xs)
        return acc

    calls = []
    call = spectral.ExpPoly.__call__
    monkeypatch.setattr(spectral.ExpPoly, "__call__", lambda self, z: calls.append(1) or call(self, z))
    p1, p2, ps, pf, full = spectral.split_products(spec, phi, xs)
    assert len(calls) == spec.n
    monkeypatch.undo()
    assert ps.tobytes() == running(1, 2).tobytes()
    assert pf.tobytes() == running(3, 8).tobytes()
    assert p2.tobytes() == running(9, 12).tobytes()
    assert p1.tobytes() == (ps * pf).tobytes()
    assert full.tobytes() == running(1, 12).tobytes()
    assert full.tobytes() == spectral.nu_hat_eval(phi, 12, xs).tobytes()


def test_split_degenerate_low_block_single_factor():
    g = ifs.preset("gasket")
    spec = spectral.ProductSpec(6, 0, 2)
    x = 42.0
    phi = spectral.phi_theta_poly(g, 0.5)
    _, p2, _, _, _ = spectral.split_products(spec, phi, x)
    assert p2 == pytest.approx(complex(phi(3.0**-6 * x)))


def test_ssv_scan_threshold_extremes_and_monotonicity():
    phi = spectral.t_form(ifs.preset("gasket")).poly(0.37)
    spec = spectral.ProductSpec(6, 2, 3)
    empty = spectral.ssv_scan(phi, spec, 0.0, 2000)
    assert empty.count == 0
    everything = spectral.ssv_scan(phi, spec, 1.0, 2000)
    assert everything.count == 1
    span = 3.0**6 - 3.0**4
    xs = np.linspace(3.0**4, 3.0**6, 2000)
    assert everything.measure == pytest.approx(span + 2 * (xs[1] - xs[0]), rel=1e-12)
    small = spectral.ssv_scan(phi, spec, 0.01, 2000)
    big = spectral.ssv_scan(phi, spec, 0.05, 2000)
    for lo, hi in zip(small.lo, small.hi):
        assert np.any((big.lo <= lo) & (hi <= big.hi))


def test_parseval_depth0():
    g = ifs.preset("gasket")
    err = spectral.parseval_check(g, 0.9, 0, radius=1000.0, grid=200001)
    assert err < 1e-3


def test_parseval_gasket_depth1_space_side():
    g = ifs.preset("gasket")
    err = spectral.parseval_check(g, 0.0, 1, radius=3.0**4, grid=100001)
    assert err < 0.02


def test_parseval_tail_monotone():
    g = ifs.preset("gasket")
    errs = [
        spectral.parseval_check(g, 0.3, 1, radius=r, grid=200001)
        for r in (27.0, 54.0, 108.0)
    ]
    assert errs[2] < errs[0]


def test_key_obs_point_values():
    assert spectral.key_obs_gap(0.0, np.pi, 1 / 18) == pytest.approx(0.0, abs=1e-12)
    z = spectral.key_obs_gap(2 * np.pi / 3, 4 * np.pi / 3, 1 / 18)
    assert abs(z) < 1e-12


def test_key_obs_printed_constant_fails_but_sharp_holds():
    # the printed 1/18 undershoots on an interior region; the sharp constant
    # 1/24 (ratio limit at the common zeros) keeps the gap nonnegative
    bad = spectral.key_obs_check(1 / 18, 400)
    assert bad < -0.01
    good = spectral.key_obs_check(1 / 24, 400)
    assert good >= -1e-12


def test_sine_identity():
    x = np.pi / 4
    assert np.sin(3 * x) / np.sin(x) == pytest.approx(4 * np.cos(x) ** 2 - 1, abs=1e-12)
    xs = np.array([1e-9, 1e-7])
    assert np.allclose(4 * np.cos(xs) ** 2 - 1, 3.0, atol=1e-10)
    dev = spectral.sine_identity_check(10**5)
    assert dev < 1e-10


def test_dist_bound_positive_and_stable():
    tf = spectral.t_form(ifs.preset("gasket"))
    b1 = spectral.dist_bound_fit(tf, 300)
    b2 = spectral.dist_bound_fit(tf, 600)
    assert b1 > 0
    assert abs(b2 - b1) <= 0.05 * b1


def test_lattice_phi_equality_on_lattice():
    tf = spectral.t_form(ifs.preset("gasket"))
    assert abs(spectral.lattice_phi(tf, 0.0, 0.0)) == pytest.approx(1.0)
    assert abs(spectral.lattice_phi(tf, 1.0, 2.0)) == pytest.approx(1.0)


def test_ergodic_lambda_zero_all_fours():
    s = spectral.ergodic_sample(0.0, 50)
    assert s.classification == "terminates"
    assert np.all(s.values == 4.0)


def test_ergodic_rational_periodic():
    s = spectral.ergodic_sample(2 * np.pi / 5, 16)
    assert s.classification == "periodic"
    assert np.all(np.abs(s.values - s.values[0]) < 1e-12)
    assert np.all(s.values > 0)
    # denominator with odd part 1 terminates at 4
    s2 = spectral.ergodic_sample(2 * np.pi / 8, 10)
    assert s2.classification == "terminates"
    assert np.all(s2.values[2:] == 4.0)


def test_ergodic_generic_average_near_two():
    s = spectral.ergodic_sample(1.0, 10**5)
    assert s.classification == "equidistributed"
    assert abs(s.running_average[-1] - 2.0) < 0.1


def test_exp_poly_validation():
    with pytest.raises(FavlabError):
        spectral.ExpPoly(lambdas=(1j,), coefficients=(1.0, 1.0))


def test_ssv_cover_on_split_products_low_block_equals_ssv_scan():
    phi = spectral.t_form(ifs.preset("gasket")).poly(0.37)
    spec = spectral.ProductSpec(8, 2, 3)
    xs = np.linspace(*spectral.low_block_interval(phi, spec), 2000)
    _, p2, _, _, _ = spectral.split_products(spec, phi, xs)
    for threshold in (0.05, 0.3):
        scan = spectral.ssv_scan(phi, spec, threshold, 2000)
        assert spectral.ssv_cover(xs, p2, threshold) == scan


@pytest.mark.parametrize(
    "name", ["gasket", "corner4", "random-3-seed1", "random-4-seed5", "random-6-seed2"]
)
def test_presets_have_ratio_one_over_l_for_both_phase_forms(name):
    system = ifs.preset(name)
    assert spectral.phi_theta_poly(system, 0.3)(0.0) == pytest.approx(1.0)
    assert spectral.t_form(system).poly(0.37)(0.0) == pytest.approx(1.0)


def test_phase_constructors_reject_ratio_other_than_one_over_l():
    g = ifs.preset("gasket")
    system = ifs.build_system(g.centers(), 0.3, g.shape)
    for build in (lambda: spectral.phi_theta_poly(system, 0.3), lambda: spectral.t_form(system)):
        with pytest.raises(FavlabError, match="ratio 1/L = 1/3, got ratio 0.3"):
            build()


@pytest.mark.parametrize("branching, largest", [(2, 1023), (3, 646), (4, 511), (5, 441)])
def test_check_scale_admits_exactly_the_powers_that_are_floats(branching, largest):
    spectral.check_scale(branching, largest)
    assert math.isfinite(float(branching) ** largest)
    with pytest.raises(SpecInvalid, match=f"scale {branching}\\^{largest + 1} exceeds"):
        spectral.check_scale(branching, largest + 1)
    with pytest.raises(OverflowError):
        float(branching) ** (largest + 1)


def test_deep_specs_are_refused_before_any_power_of_l():
    phi = spectral.t_form(ifs.preset("gasket")).poly(0.3)
    spec = spectral.ProductSpec(700, 1, 1)
    with pytest.raises(SpecInvalid, match="scale 3\\^700 exceeds the float range"):
        spectral.low_block_interval(phi, spec)
    with pytest.raises(SpecInvalid, match="scale 3\\^700 exceeds the float range"):
        lemmas.ssv_certified_cover(phi, spec)
