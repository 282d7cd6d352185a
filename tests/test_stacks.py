"""Stacked-level-set reports and direction scans."""

import numpy as np
import pytest

import oracles
from favlab import baselines, ifs, shadow, spectral, stacks


def test_strict_vs_weak_levels_nested():
    g = ifs.preset("gasket")
    for theta in (0.0, np.pi / 6, 0.8):
        fstar = oracles.maximal_profile(g, range(1, 4), theta)
        for k in (1, 2, 4):
            strict = shadow.level_measure(fstar, k, strict=True)
            weak = shadow.level_measure(fstar, k)
            assert strict <= weak


def test_product_report_gasket_pair():
    g = ifs.preset("gasket")
    rep = stacks.product_inequality_report(
        g, 4, [np.pi / 6], [(2, 2)]
    )
    assert rep.checked >= 0
    assert np.isfinite(rep.worst_ratio)


def test_product_report_vacuous_angles_pass():
    g = ifs.preset("gasket")
    # at depth 1 the profile never exceeds 4K M for K=M=3
    rep = stacks.product_inequality_report(g, 1, [0.3, 0.9], [(3, 3)])
    assert rep.worst_ratio == 0.0


def test_product_report_regression_baseline():
    thetas = np.linspace(0.0, np.pi, 64, endpoint=False)
    pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
    worst = max(
        stacks.product_inequality_report(ifs.preset(nm), 4, thetas, pairs).worst_ratio
        for nm in ("corner4", "gasket")
    )
    assert worst <= baselines.PRODUCT_RATIO_BASELINE * 1.1


def test_product_ratio_stable_under_grid_refinement():
    c4 = ifs.preset("corner4")
    coarse = stacks.product_inequality_report(c4, 3, [0.0, 0.5], [(2, 2)])
    fine = stacks.product_inequality_report(c4, 3, [0.0, 0.25, 0.5], [(2, 2)])
    assert coarse.ratios[0] == fine.ratios[0]
    assert coarse.ratios[1] == fine.ratios[2]


def test_escan_large_k_gives_full_membership():
    g = ifs.preset("gasket")
    grid = tuple(np.linspace(0, np.pi, 16, endpoint=False))
    rep = stacks.e_scan(g, 2, 10, grid)  # K > 3^2
    assert all(rep.membership)
    assert all(m == 0.0 for m in rep.level_measures)


def test_escan_angle_zero_not_exceptional_at_k1():
    g = ifs.preset("gasket")
    rep = stacks.e_scan(g, 3, 1, (0.0, 0.5))
    assert rep.level_measures[0] == pytest.approx(1.2440169358562922, abs=1e-9)
    assert not rep.membership[0]


def test_level_set_monotone_in_k():
    g = ifs.preset("gasket")
    for theta in (0.0, 0.7):
        fstar = oracles.maximal_profile(g, range(1, 5), theta)
        measures = [shadow.level_measure(fstar, k) for k in (1, 2, 4, 8, 16)]
        for a, b in zip(measures, measures[1:]):
            assert b <= a


def test_l2_bound_report_vacuous_and_pointwise_bound():
    g = ifs.preset("gasket")
    grid = tuple(np.linspace(0, np.pi, 12, endpoint=False))
    rep = stacks.l2_bound_report(g, 2, 1, grid)
    # K=1 leaves no exceptional directions at these depths
    assert rep.vacuous or rep.max_ratio >= 0
    # any direction with max multiplicity <= K obeys the mass bound l2 <= 2K
    rep2 = stacks.l2_bound_report(g, 3, 30, grid)
    assert not rep2.vacuous
    assert rep2.max_ratio <= 2.0


def test_l2_bound_report_builds_each_profile_once(monkeypatch):
    g = ifs.preset("gasket")
    grid = np.linspace(0, np.pi, 64, endpoint=False)
    calls = []
    multiplicity = shadow.multiplicity
    monkeypatch.setattr(shadow, "multiplicity", lambda *a: calls.append(a) or multiplicity(*a))
    rep = stacks.l2_bound_report(g, 4, 8, grid)
    assert not rep.vacuous and len(calls) == 4 * 64
    # the same report from the escan membership and a second pass over the sample
    member = stacks.e_scan(g, 4, 8, grid).membership
    expect = [
        (float(t), max(shadow.l2_norm_sq(multiplicity(g, n, t)) for n in range(1, 5)) / 8)
        for t, ok in zip(grid, member) if ok
    ]
    assert list(rep.per_theta) == expect


def test_bootstrap_first_round_is_support_measure():
    c4 = ifs.preset("corner4")
    rep = stacks.bootstrap_report(c4, 0.2, 2, 3)
    direct = shadow.support_measure(shadow.multiplicity(c4, 2, 0.2))
    assert rep.measures[0] == direct


def test_bootstrap_measures_nonincreasing():
    for name, theta in (("corner4", 0.2), ("gasket", 0.9)):
        rep = stacks.bootstrap_report(ifs.preset(name), theta, 2, 4)
        for a, b in zip(rep.measures, rep.measures[1:]):
            assert b <= a + 1e-12


def test_bootstrap_fit_residual_regression():
    rep = stacks.bootstrap_report(ifs.preset("corner4"), 0.2, 2, 4)
    assert rep.residual <= baselines.BOOTSTRAP_RESIDUAL_CEILING
    assert 0.0 < rep.geom_rho < 1.0


def test_bad_direction_scan_bound_and_monotone():
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(8, 2, 4)
    ts = np.linspace(0.0, 1.0, 101)
    rep = stacks.bad_direction_scan(tf, spec, 0.05, ts)
    assert rep.h_measure <= rep.bound
    rep_hi = stacks.bad_direction_scan(tf, spec, 0.10, ts)
    assert rep_hi.h_measure >= rep.h_measure
    # offenders can only appear as tau grows (threshold shrinks)
    for lo, hi in zip(rep.offenders, rep_hi.offenders):
        assert hi or not lo


def test_bad_direction_tau_zero_degenerate():
    # threshold 1 means only exact-modulus-one excursions count
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(6, 1, 2)
    rep = stacks.bad_direction_scan(tf, spec, 0.0, np.linspace(0.1, 0.9, 9), x_grid=2000)
    assert rep.h_measure <= 0.8 + 1e-12
