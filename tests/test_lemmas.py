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
