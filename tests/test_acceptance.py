"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line `ACCEPTANCE <id>: PASS|FAIL -- <summary>` before
asserting, so a full run leaves a per-criterion record.

Known red: criterion 5a asserts the published two-variable gap constant
1/18, which computation refutes (the sharp constant is 1/24; the gap
reaches -0.0318 at (x, y) ~ (0.665 pi, 1.332 pi), confirmed at 50-digit
precision).  The criterion is kept as stated and fails honestly; the
companion check 5b verifies the inequality at 1/24.
"""

import io
import math

import numpy as np
import oracles
from conftest import record_acceptance as record

from favlab import baselines, cli, favard, ifs, lemmas, shadow, spectral, stacks, verify

SQ3 = math.sqrt(3.0)


# -- 1: identity case ---------------------------------------------------------


def test_criterion_01_identity_case():
    g = ifs.preset("gasket")
    quad = favard.favard_length(g, 0, favard.QuadratureConfig(grid_size=16))
    est, _ = favard.buffon_estimate(g, 0, 20000, seed=1)
    ok = abs(quad.value - 2.0) < 1e-6 and est == 2.0
    assert record("1", ok, f"favard(n=0)={quad.value!r}, buffon(n=0)={est!r}")


# -- 2: gasket depth-1 shadow statistics --------------------------------------


def test_criterion_02_gasket_shadow_statistics():
    f = shadow.multiplicity(ifs.preset("gasket"), 1, 0.0)
    stats = {
        "support": (shadow.support_measure(f), 2 / 3 + SQ3 / 3),
        "mass": (shadow.mass(f), 2.0),
        "triple_width": (shadow.level_measure(f, 3), 2 / 3 - SQ3 / 3),
        "l2": (shadow.l2_norm_sq(f), 6 - 4 * SQ3 / 3),
    }
    ok = all(abs(got - want) < 1e-9 for got, want in stats.values())
    assert record("2", ok, ", ".join(f"{k}={v[0]:.9f}" for k, v in stats.items()))


# -- 3: tiling direction ------------------------------------------------------


def test_criterion_03_corner4_tiling_direction():
    c4 = ifs.preset("corner4")
    theta = math.atan(0.5)
    target = 3 / math.sqrt(5)
    worst_sup = 0.0
    worst_lvl2 = 0.0
    for n in range(7):
        f = shadow.multiplicity(c4, n, theta)
        worst_sup = max(worst_sup, abs(shadow.support_measure(f) - target))
        worst_lvl2 = max(worst_lvl2, shadow.level_measure(f, 2))
    ok = worst_sup < 1e-8 and worst_lvl2 <= 1e-8
    assert record("3", ok, f"sup dev {worst_sup:.2e}, double-cover {worst_lvl2:.2e}")


# -- 4: monotone decay, power fit, log lower bound ----------------------------


def test_criterion_04_monotone_decay_and_fits():
    cfg = favard.QuadratureConfig(grid_size=128, refinement_limit=3, target_rel_error=1e-4)
    notes = []
    ok = True
    series = {}
    for name, n_max in (("gasket", 6), ("corner4", 8)):
        system = ifs.preset(name)
        res = [favard.favard_length(system, n, cfg) for n in range(n_max + 1)]
        series[name] = list(enumerate(res))
        for n, (a, b) in enumerate(zip(res, res[1:]), start=1):
            if b.value > a.value + a.error_estimate + b.error_estimate:
                ok = False
                notes.append(f"{name}: decay breaks at n={n}")
    for name in ("gasket", "corner4"):
        pts = [(n, r.value) for n, r in series[name] if 1 <= n <= 6]
        p = favard.fit_decay(pts, "power").params[1]
        notes.append(f"{name} power p={p:.3f}")
        ok = ok and 0.0 < p < 1.0
    ratios = [
        r.value * n / math.log(n)
        for n, r in series["corner4"]
        if 2 <= n <= 8
    ]
    notes.append(f"inf corner4 Fav*n/log n = {min(ratios):.4f}")
    ok = ok and min(ratios) > 0.0
    assert record("4", ok, "; ".join(notes))


# -- 5: key observation and sine identity -------------------------------------


def test_criterion_05a_key_observation_printed_constant():
    gap = spectral.key_obs_check(1 / 18, 1000)
    ok = gap >= -1e-12
    assert record(
        "5a",
        ok,
        f"min gap at a=1/18 over 10^6 grid = {gap:.6f} "
        "(computation refutes the printed constant; sharp value is 1/24)",
    )


def test_criterion_05b_key_observation_equality_point_and_sharp_constant():
    eq_gap = float(spectral.key_obs_gap(0.0, np.pi, 1 / 18))
    sharp = spectral.key_obs_check(baselines.KEY_OBS_SHARP_A, 1000)
    ok = abs(eq_gap) < 1e-12 and sharp >= -1e-12
    assert record(
        "5b", ok, f"gap(0,pi)={eq_gap:.2e} at 1/18; min gap {sharp:.2e} at 1/24"
    )


def test_criterion_05c_sine_identity():
    dev = spectral.sine_identity_check(10**6)
    assert record("5c", dev < 1e-10, f"max deviation {dev:.3e}")


# -- 6: transform-side vs space-side L2 ---------------------------------------


def test_criterion_06_parseval_cross_check():
    worst = 0.0
    for name in ("gasket", "corner4", "random-3-seed7"):
        system = ifs.preset(name)
        L = system.branching
        for n in range(5):
            radius = float(L) ** (n + 3)
            grid = int(min(max(radius / 0.04, 2e5), 8e5)) | 1
            for theta in (0.3, 1.1):
                err = spectral.parseval_check(system, theta, n, radius, grid)
                worst = max(worst, err)
    assert record("6", worst < 0.02, f"worst relative gap {worst:.4f}")


# -- 7: character-sum oracle --------------------------------------------------


def test_criterion_07_character_sum_oracle():
    rng = np.random.Generator(np.random.Philox(777))
    worst = 0.0
    systems = [ifs.preset("gasket"), ifs.preset("corner4")]
    for _ in range(1000):
        system = systems[int(rng.integers(0, 2))]
        L = system.branching
        n = int(rng.integers(0, 7))
        theta = float(rng.uniform(0, np.pi))
        x = float(rng.uniform(-(L ** (n + 1)), L ** (n + 1)))
        got = spectral.nu_hat_eval(spectral.phi_theta_poly(system, theta), n, x)
        proj = (ifs.piece_centers(system, n) * np.exp(-1j * theta)).real
        brute = np.mean(np.exp(-1j * proj * x))
        worst = max(worst, abs(got - brute))
    assert record("7", worst < 1e-10, f"worst |product - sum| = {worst:.2e}")


# -- 8: verification suites ---------------------------------------------------


def test_criterion_08_lemma_suites():
    bl = verify.run_suite("blaschke", 500, seed=101)
    cv = verify.run_suite("cover", 300, seed=102)
    tu = verify.run_suite("turan", 500, seed=103)
    ce = verify.run_suite("cetsq", 120, seed=104)
    db = verify.run_suite("doubling", 200, seed=105)
    ok = all(r["pass"] for r in (bl, cv, tu, ce, db)) and tu["worst_case"] <= 20
    assert record(
        "8",
        ok,
        f"blaschke {bl['worst_case']:.3f}, cover {cv['worst_case']:.3f}, "
        f"turan A {tu['worst_case']:.3f}, cetsq {ce['worst_case']:.3f}, "
        f"doubling {db['worst_case']:.3f}",
    )


# -- 9: small-value interval structure ----------------------------------------


def test_criterion_09_ssv_structure():
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(10, 3, 6)
    t_grid = np.linspace(0.0, 1.0, 50)
    ceiling = baselines.SSV_COMPONENTS_PER_LM * 3.0**spec.m
    worst_components = 0
    containment_ok = True
    small_total = 0
    def_threshold = 3.0 ** (-oracles.alpha(spec) * spec.m**2)
    for t in t_grid:
        phi = tf.poly(float(t))
        cover = spectral.ssv_scan(phi, spec, 3.0**-spec.ell, 200_000)
        worst_components = max(worst_components, cover.count)
        cert, _ = lemmas.ssv_certified_cover(phi, spec)
        centers = 0.5 * (cert.lo + cert.hi)
        small = oracles.ssv_small_points(phi, spec, def_threshold, 200_000, focus=centers)
        small_total += small.size
        containment_ok = containment_ok and all(oracles.union_contains(cert, x) for x in small)
    ok = worst_components <= ceiling and containment_ok and small_total > 0
    assert record(
        "9",
        ok,
        f"max components {worst_components} <= {ceiling:.1f}; "
        f"{small_total} definition-threshold samples all inside certified cover",
    )


# -- 10: stacked-level-set inequality and mass identity ------------------------


def test_criterion_10_product_inequality_and_mass_identity():
    thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
    pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
    worst = 0.0
    for name in ("corner4", "gasket"):
        rep = stacks.product_inequality_report(ifs.preset(name), 4, thetas, pairs)
        worst = max(worst, rep.worst_ratio)
    regression_ok = abs(worst - baselines.PRODUCT_RATIO_BASELINE) <= (
        0.10 * baselines.PRODUCT_RATIO_BASELINE
    )
    identity_ok = True
    for name in ("corner4", "gasket"):
        system = ifs.preset(name)
        for theta in thetas[::16]:
            for n in range(5):
                f = shadow.multiplicity(system, n, theta)
                lengths = np.diff(f.breakpoints)
                for k in (1, 2, 3, 4, 8):
                    per_cell = (
                        f.values - (f.values >= 1) - (k - 1) * (f.values >= k)
                    ) * lengths
                    if per_cell.sum() < 0.0:
                        identity_ok = False
    ok = regression_ok and identity_ok
    assert record(
        "10",
        ok,
        f"worst ratio {worst:.6f} vs baseline {baselines.PRODUCT_RATIO_BASELINE}; "
        f"mass identity exact: {identity_ok}",
    )


# -- 11: exceptional-direction scan --------------------------------------------


def test_criterion_11_exceptional_set_behavior():
    g = ifs.preset("gasket")
    grid = tuple(np.linspace(0.0, np.pi, 64, endpoint=False))
    full = stacks.e_scan(g, 3, 28, grid)
    full_ok = all(full.membership) and all(
        shadow.level_measure(oracles.maximal_profile(g, range(1, 4), theta), 28) == 0.0
        for theta in grid
    )
    estimates = {}
    for K in (2, 4, 8):
        rep = stacks.e_scan(g, 4, K, grid)
        estimates[K] = rep.measure_estimate
    mono_ok = True
    for theta in grid[::4]:
        fstar = oracles.maximal_profile(g, range(1, 5), theta)
        levels = [shadow.level_measure(fstar, k) for k in (2, 4, 8, 16)]
        for a, b in zip(levels, levels[1:]):
            if b > a:
                mono_ok = False
    ok = full_ok and mono_ok
    assert record(
        "11",
        ok,
        f"K>L^N full grid: {full_ok}; |E| estimates {estimates}; "
        f"level monotonicity exact: {mono_ok}",
    )


# -- 12: determinism ------------------------------------------------------------


def _cli_output(argv):
    out = io.StringIO()
    code = cli.main(argv, stdout=out)
    return code, out.getvalue()


def test_criterion_12_determinism_across_threads():
    targets = [
        ["buffon", "--preset", "gasket", "--n", "2", "--trials", "50000", "--seed", "9"],
        ["buffon", "--preset", "corner4", "--n", "3", "--trials", "20000", "--seed", "4"],
        ["verify", "--suite", "blaschke", "--trials", "80", "--seed", "3"],
        ["verify", "--suite", "cover", "--trials", "50", "--seed", "3"],
        ["verify", "--suite", "turan", "--trials", "60", "--seed", "3"],
        ["verify", "--suite", "doubling", "--trials", "60", "--seed", "3"],
        ["verify", "--suite", "cetsq", "--trials", "20", "--seed", "3"],
    ]
    ok = True
    for argv in targets:
        outputs = set()
        for threads in ("1", "8"):
            for _ in range(2):
                code, text = _cli_output(argv + ["--threads", threads])
                outputs.add((code, text))
        if len(outputs) != 1:
            ok = False
    assert record("12", ok, "byte-identical CLI output for threads in {1, 8}, repeated runs")
