"""Zero counting, disc bounds, supremum ratios, cluster L2 bounds."""

import math

import numpy as np
import pytest

from favlab import baselines, ifs, lemmas, spectral, verify
from favlab.errors import DeltaOutOfRange, FavlabError, PreconditionUnmet
from favlab.shadow import interval_union

import oracles


def test_count_zeros_identity_map():
    zeros = lemmas.count_zeros(lambda z: np.asarray(z), 0.0, 1.0).zeros
    assert len(zeros) == 1
    assert abs(zeros[0]) < 1e-9


def test_count_zeros_two_roots():
    zeros = lemmas.count_zeros(lambda z: np.asarray(z) ** 2 - 1 / 16, 0.0, 0.5).zeros
    assert len(zeros) == 2
    found = sorted(z.real for z in zeros)
    assert found[0] == pytest.approx(-0.25, abs=1e-8)
    assert found[1] == pytest.approx(0.25, abs=1e-8)


def test_count_zeros_multiplicity():
    zeros = lemmas.count_zeros(lambda z: np.asarray(z) ** 2, 0.0, 0.5).zeros
    assert len(zeros) == 2


def test_count_zeros_radius_jitter_stability():
    f = lambda z: np.asarray(z) ** 2 - 1 / 16
    base = len(lemmas.count_zeros(f, 0.0, 0.5).zeros)
    for bump in (-1e-3, 1e-3):
        assert len(lemmas.count_zeros(f, 0.0, 0.5 + bump).zeros) == base


def test_count_zeros_slope_form_vs_subdivision_oracle():
    tf = spectral.t_form(ifs.preset("gasket"))
    poly = tf.poly(0.37)

    def oracle_count(x0, x1, y0, y1, depth=0):
        # minimum-modulus subdivision with a first-derivative certificate
        xs = np.linspace(x0, x1, 33)
        ys = np.linspace(y0, y1, 33)
        z = xs[None, :] + 1j * ys[:, None]
        vals = np.abs(poly(z.ravel()))
        cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
        bound = oracles.derivative_bound(poly, max(abs(y0), abs(y1)))
        if vals.min() > bound * cell:
            return []
        if max(x1 - x0, y1 - y0) < 1e-4:
            return [complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))]
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        pts = []
        for bx in ((x0, xm), (xm, x1)):
            for by in ((y0, ym), (ym, y1)):
                pts.extend(oracle_count(bx[0], bx[1], by[0], by[1], depth + 1))
        merged = []
        for p in pts:
            if all(abs(p - q) > 1e-3 for q in merged):
                merged.append(p)
        return merged

    for xprime in (5.0, 9.0, 14.0):
        box = (xprime - 1.0, xprime + 1.0, -1.0, 1.0)
        got = lemmas.zeros_in_rect(poly, *box, zero_tol=1e-7)
        expect = [
            p
            for p in oracle_count(*box)
            if box[0] <= p.real <= box[1] and box[2] <= p.imag <= box[3]
        ]
        inside = [
            z
            for z in got
            if box[0] + 1e-3 <= z.real <= box[1] - 1e-3
        ]
        assert len(inside) == len(expect)


def test_blaschke_trivial_and_explicit():
    ones = lambda z: np.ones(np.shape(z), dtype=complex)
    rep = lemmas.blaschke_check(ones)
    assert rep.zero_count == 0 and rep.zero_count <= rep.bound

    rep = lemmas.blaschke_check(lambda z: 16 * (np.asarray(z) ** 2 - 1 / 16))
    assert rep.zero_count == 2
    assert rep.sup_bound == pytest.approx(17.0, rel=1e-6)
    assert rep.bound == pytest.approx(math.log2(17.0), rel=1e-6)
    assert rep.zero_count <= rep.bound


def test_blaschke_precondition():
    with pytest.raises(PreconditionUnmet):
        lemmas.blaschke_check(lambda z: 2 * np.asarray(z))


def test_blaschke_randomized_sweep():
    rep = verify.suite_blaschke(120, seed=5)
    assert rep["pass"], rep


def test_cover_delta_range():
    with pytest.raises(DeltaOutOfRange):
        lemmas.small_value_cover_check(lambda z: 9 * (np.asarray(z) - 1 / 9), 0.4)


def test_cover_explicit_linear():
    rep = lemmas.small_value_cover_check(lambda z: 9 * (np.asarray(z) - 1 / 9), 0.1)
    assert rep.zero_count == 1
    assert rep.eps == pytest.approx(9 / 16 * 0.3, abs=1e-12)
    assert rep.small_samples > 0
    assert rep.worst_margin <= 0.0


def test_cover_vacuous_when_bounded_below():
    rep = lemmas.small_value_cover_check(
        lambda z: np.exp(0.5 * np.asarray(z)), 0.1
    )
    assert rep.zero_count == 0 and rep.small_samples == 0 and rep.worst_margin <= 0.0


def test_cover_randomized_sweep():
    rep = verify.suite_cover(80, seed=5)
    assert rep["pass"], rep


def test_turan_single_term_and_full_subset():
    poly = spectral.ExpPoly(lambdas=(2.5j,), coefficients=(1.0 + 0j,))
    trial = lemmas.TuranTrial(poly, interval_union([(0.0, 1.0)]), interval_union([(0.3, 0.45)]))
    a = lemmas.turan_ratio(trial)
    assert a == pytest.approx(0.15, abs=1e-9)
    assert a <= 1.0
    full = lemmas.TuranTrial(poly, interval_union([(0.0, 1.0)]), interval_union([(0.0, 1.0)]))
    assert lemmas.turan_ratio(full) <= 1.0


@pytest.mark.parametrize(
    "subset, message",
    [
        ([(-0.1, 0.2), (0.5, 0.6)], "subset must sit inside the interval"),
        ([(0.1, 0.2), (0.9, 1.1)], "subset must sit inside the interval"),
        ([(0.5, 0.5)], "subset must have positive measure"),
        ([], "subset must have positive measure"),
    ],
)
def test_turan_trial_rejects_a_subset_outside_or_of_measure_zero(subset, message):
    poly = spectral.ExpPoly(lambdas=(2.5j,), coefficients=(1.0 + 0j,))
    with pytest.raises(FavlabError, match=message):
        lemmas.TuranTrial(poly, interval_union([(0.0, 1.0)]), interval_union(subset))
    edge = [(0.0 - 5e-13, 0.2), (0.9, 1.0 + 5e-13)]  # within the 1e-12 slack
    lemmas.TuranTrial(poly, interval_union([(0.0, 1.0)]), interval_union(edge))


def test_turan_randomized_sweep():
    rep = verify.suite_turan(200, seed=5)
    assert rep["worst_case"] <= baselines.TURAN_A_CEILING


def test_doubling_ratio_at_least_one():
    tf = spectral.t_form(ifs.preset("gasket"))
    rng = np.random.Generator(np.random.Philox(55))
    for _ in range(25):
        t = float(rng.uniform(0, 1))
        xp = float(rng.uniform(1, 30))
        k = int(rng.integers(0, 6))
        assert lemmas.doubling_ratio(tf.poly(t), xp, k=k) >= 1.0


def test_doubling_constant_function_is_one():
    ones = lambda z: np.ones(np.shape(z), dtype=complex)
    full = lemmas.box_sup(ones, 4.0, 6.0, -1.0, 1.0)
    half = lemmas.box_sup(ones, 4.5, 5.5, -0.5, 0.5)
    assert full / half == pytest.approx(1.0, abs=0)


def test_cetsq_degenerate_cases_exact_half():
    lhs, s, ratio = lemmas.cetsq_ratio([3.0])
    assert (lhs, s) == (pytest.approx(1.0, abs=1e-9), pytest.approx(2.0, abs=0))
    assert ratio == pytest.approx(0.5, abs=1e-6)
    lhs, s, ratio = lemmas.cetsq_ratio([2.0] * 9)
    assert ratio == pytest.approx(0.5, abs=1e-6)


def test_cetsq_spaced_frequencies():
    lhs, s, ratio = lemmas.cetsq_ratio(np.arange(100) * 10.0)
    assert s == pytest.approx(200.0, abs=0)
    assert abs(lhs - 100.0) < 20.0
    assert ratio <= baselines.CETSQ_RATIO_CEILING


def test_cetsq_delta_scaling():
    # same geometry at delta=0.5 doubles the integration window and keeps the
    # scaled ratio comparable
    freqs = np.array([0.0, 7.0, 50.0])
    _, s1, r1 = lemmas.cetsq_ratio(freqs, delta=1.0)
    _, s2, r2 = lemmas.cetsq_ratio(freqs, delta=0.5)
    assert s2 == pytest.approx(s1 / 2, abs=1e-12)
    assert r2 <= baselines.CETSQ_RATIO_CEILING


def test_cetsq_randomized_sweep_with_corollary():
    rep = verify.suite_cetsq(40, seed=5)
    assert rep["pass"], rep


def unsampled(*args, **kwargs):
    raise AssertionError("sampled before the input check")


@pytest.mark.parametrize(
    "freqs, delta, message",
    [
        ([1.0, 2.5], math.nan, "delta must be finite and positive"),
        ([1.0, 2.5], math.inf, "delta must be finite and positive"),
        ([1.0, 2.5], 0.0, "delta must be finite and positive"),
        ([1.0, 2.5], -1.0, "delta must be finite and positive"),
        ([math.nan], 1.0, "frequencies must be finite, and at least one"),
        ([math.inf, 1.0], 1.0, "frequencies must be finite, and at least one"),
        ([], 1.0, "frequencies must be finite, and at least one"),
    ],
)
def test_cetsq_refuses_bad_input_before_any_sample(freqs, delta, message, monkeypatch):
    monkeypatch.setattr(lemmas, "simpson", unsampled)
    with pytest.raises(FavlabError, match=message):
        lemmas.cetsq_ratio(freqs, delta=delta)
    with pytest.raises(FavlabError, match=message):
        lemmas.cetsq_bounds(freqs, None, delta)


def test_cetsq_refuses_coefficients_off_the_unit_circle_before_any_sample(monkeypatch):
    monkeypatch.setattr(lemmas, "simpson", unsampled)
    with pytest.raises(FavlabError, match="unimodular"):
        lemmas.cetsq_ratio([1.0, 2.5], [1.0, 0.5])
    with pytest.raises(FavlabError, match="unimodular"):
        lemmas.cetsq_bounds([1.0, 2.5], [1.0, 0.5], 1.0)


@pytest.mark.parametrize("coeffs", [[1.0], [1.0, 1.0, 1.0]])
def test_cetsq_refuses_a_coefficient_count_other_than_the_frequencies(coeffs, monkeypatch):
    monkeypatch.setattr(lemmas, "simpson", unsampled)
    message = f"{len(coeffs)} coefficients for 2 frequencies"
    with pytest.raises(FavlabError, match=message):
        lemmas.cetsq_ratio([1.0, 2.0], coeffs)
    with pytest.raises(FavlabError, match=message):
        lemmas.cetsq_bounds([1.0, 2.0], coeffs, 1.0)


def cetsq_bound_cases():
    rng = np.random.Generator(np.random.Philox(29))
    cases = []
    for _ in range(100):
        freqs = verify._clustered_frequencies(rng)
        cases.append((freqs, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, freqs.size))))
    return cases + [([3.0], None), ([2.0] * 7, None), (np.arange(100) * 10.0, None)]


@pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
def test_cetsq_bounds_hold_the_simpson_lhs_with_room(delta):
    for freqs, coeffs in cetsq_bound_cases():
        lhs = lemmas.cetsq_ratio(freqs, coeffs, delta)[0]
        lo, hi = lemmas.cetsq_bounds(freqs, coeffs, delta)
        closed, band = (lo + hi) / 2, (hi - lo) / 2
        assert lo <= lhs <= hi
        assert 1000 * abs(lhs - closed) <= band
        assert band < 1e-6 * lhs


@pytest.mark.parametrize("freqs", [[0.0, 30000.0], [0.0, 20000 * math.pi], [-5e4, 0.0, 7e4]])
def test_cetsq_bounds_hold_the_lhs_past_one_radian_a_step(freqs):
    # Pairs with |a - b| h > 1, h = 1/20000, keep the integral and the
    # rule's error bound; 20000 pi puts sin(dh) at 0, where rho is not used.
    lhs = lemmas.cetsq_ratio(freqs)[0]
    lo, hi = lemmas.cetsq_bounds(freqs, None, 1.0)
    assert lo <= lhs <= hi


def counted_cetsq_ratio(monkeypatch) -> list:
    calls = []
    ratio = lemmas.cetsq_ratio

    def counted(freqs, coeffs=None, delta=1.0):
        calls.append(np.asarray(freqs))
        return ratio(freqs, coeffs, delta)

    monkeypatch.setattr(lemmas, "cetsq_ratio", counted)
    return calls


def test_cetsq_overlapping_trials_run_simpson_and_keep_the_first_maximum(monkeypatch):
    # A lone frequency has ratio 1/2; a tight cluster with spread phases has
    # ratio near 0.014, so only the two lone trials reach the largest floor.
    rng = np.random.Generator(np.random.Philox(3))
    cluster = (10.0 + rng.uniform(-0.3, 0.3, 30), np.exp(1j * rng.uniform(0.0, 6.0, 30)))
    lone = (np.array([3.0]), np.ones(1, dtype=complex))
    calls = counted_cetsq_ratio(monkeypatch)
    worst, ok = verify._cetsq_worst([cluster, lone, lone])
    assert len(calls) == 2 and all(c is lone[0] for c in calls)
    assert worst == lemmas.cetsq_ratio(*lone)[2] == 0.5 and ok


def test_cetsq_trial_straddling_a_ceiling_runs_simpson(monkeypatch):
    low = (np.array([3.0, 40.0]), np.ones(2, dtype=complex))
    high = (np.array([10.0, 10.2, 10.4]), np.ones(3, dtype=complex))
    lo, hi = lemmas.cetsq_bounds(*low, 1.0)
    s = lemmas.box_l2_norm_sq(low[0], 1.0)
    ceiling = (lo / s + hi / s) / 2
    monkeypatch.setattr(baselines, "CETSQ_RATIO_CEILING", ceiling)
    calls = counted_cetsq_ratio(monkeypatch)
    worst, ok = verify._cetsq_worst([low, high])
    assert [c is low[0] for c in calls] == [True, False]
    assert worst == lemmas.cetsq_ratio(*high)[2] and not ok


def test_cetsq_degenerate_set_straddling_its_window_runs_simpson(monkeypatch):
    calls = counted_cetsq_ratio(monkeypatch)
    assert verify._near_half([3.0]) and calls == []
    monkeypatch.setattr(lemmas, "cetsq_bounds", lambda freqs, coeffs, delta: (0.0, 10.0))
    assert verify._near_half([3.0]) and len(calls) == 1
    monkeypatch.setattr(lemmas, "cetsq_bounds", lambda freqs, coeffs, delta: (0.9, 0.9))
    assert not verify._near_half([3.0]) and len(calls) == 1


def test_ssv_certified_cover_contains_small_value_samples():
    # the interval structure pairs the definition threshold L^(-alpha m^2)
    # with the radius L^(n-m-ell); slopes 1/2 and 2/7 have exact real zeros,
    # so refined sampling near the certified zeros finds genuine dips
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(10, 3, 6)
    threshold = 3.0 ** (-oracles.alpha(spec) * spec.m**2)
    found_any = 0
    for t in (0.5, 2 / 7):
        phi = tf.poly(t)
        cert, zeros = lemmas.ssv_certified_cover(phi, spec)
        assert len(zeros) >= 1
        centers = 0.5 * (cert.lo + cert.hi)
        small = oracles.ssv_small_points(phi, spec, threshold, 100000, focus=centers)
        found_any += small.size
        for x in small:
            assert oracles.union_contains(cert, x)
    assert found_any > 0


@pytest.mark.parametrize(
    "p, q, has_zero",
    [(1, 2, True), (1, 5, True), (4, 5, True), (7, 11, True),
     (1, 1, False), (1, 4, False), (2, 5, False)],
)
def test_gasket_slope_form_zeros_sit_on_the_kenyon_lattice(p, q, has_zero):
    # 1 + e^{ix} + e^{itx} vanishes at x = 2 pi q / 3 exactly when e^{ix} and
    # e^{itx} are the two primitive cube roots of unity: at t = p/q that is
    # p + q = 0 (mod 3).
    x = 2.0 * math.pi * q / 3.0
    phi = spectral.t_form(ifs.preset("gasket")).poly(p / q)
    zeros = lemmas.zeros_in_rect(phi, x - 0.25, x + 0.25, -0.25, 0.25)
    if has_zero:
        assert len(zeros) == 1 and abs(zeros[0] - x) <= 1e-12
    else:
        assert zeros == []
