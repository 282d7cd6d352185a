"""Stacked-level-set reports and direction scans."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from favlab import _parallel, baselines, cli, ifs, shadow, spectral, stacks
from favlab.errors import FavlabError, SpecInvalid


def test_strict_vs_weak_levels_nested():
    g = ifs.preset("gasket")
    for theta in (0.0, np.pi / 6, 0.8):
        fstar = oracles.maximal_profile(g, range(1, 4), theta)
        for k in (1, 2, 4):
            strict = shadow.level_measure(fstar, k + 1)
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
    # A direction's ratio does not depend on the grid around it: each grid's
    # report is the fold of its directions' one-direction reports.
    c4 = ifs.preset("corner4")
    pairs = [(1, 1), (2, 2)]
    one = {t: stacks.product_inequality_report(c4, 3, [t], pairs) for t in (0.5, 0.25, 0.0)}
    assert one[0.5].worst_at is None and one[0.0].worst_ratio > one[0.25].worst_ratio > 0.0
    for grid in ([0.5, 0.25], [0.5, 0.25, 0.0]):
        rep = stacks.product_inequality_report(c4, 3, grid, pairs)
        first_largest = max(grid, key=lambda t: one[t].worst_ratio)
        assert rep.worst_ratio == one[first_largest].worst_ratio
        assert rep.worst_at == one[first_largest].worst_at
        assert rep.checked == sum(one[t].checked for t in grid)


def test_escan_large_k_gives_full_membership():
    g = ifs.preset("gasket")
    grid = tuple(np.linspace(0, np.pi, 16, endpoint=False))
    rep = stacks.e_scan(g, 2, 10, grid)  # K > 3^2
    assert all(rep.membership)
    assert all(shadow.level_measure(fstar(g, 2, t), 10) == 0.0 for t in grid)


def test_escan_angle_zero_not_exceptional_at_k1():
    g = ifs.preset("gasket")
    rep = stacks.e_scan(g, 3, 1, (0.0, 0.5))
    profiles = [shadow.multiplicity(g, n, 0.0) for n in range(1, 4)]
    level = shadow.level_measure(shadow.pointwise_max(profiles), 1)
    assert level == pytest.approx(1.2440169358562922, abs=1e-9)
    assert not rep.membership[0]


def test_level_set_monotone_in_k():
    g = ifs.preset("gasket")
    for theta in (0.0, 0.7):
        fstar = oracles.maximal_profile(g, range(1, 5), theta)
        measures = [shadow.level_measure(fstar, k) for k in (1, 2, 4, 8, 16)]
        for a, b in zip(measures, measures[1:]):
            assert b <= a


def test_escan_l2_ratios_vacuous_and_pointwise_bound():
    g = ifs.preset("gasket")
    grid = tuple(np.linspace(0, np.pi, 12, endpoint=False))
    ratios = [r for _, r in stacks.e_scan(g, 2, 1, grid).l2_ratios]
    # K=1 leaves no exceptional directions at these depths
    assert not ratios or max(ratios) >= 0
    # any direction with max multiplicity <= K obeys the mass bound l2 <= 2K
    ratios = [r for _, r in stacks.e_scan(g, 3, 30, grid).l2_ratios]
    assert ratios
    assert max(ratios) <= 2.0


def counted_scan(monkeypatch, system, N, K, grid, k_exponent=3.0):
    """(report, [(theta, depth) per profile built], pointwise_max calls) of one e_scan."""
    built, maxima = [], []
    multiplicities, pointwise_max = shadow.multiplicities, shadow.pointwise_max

    def counted(system, depth, thetas, cap):
        built.extend((t, depth) for t in thetas)
        return multiplicities(system, depth, thetas, cap)

    with monkeypatch.context() as mp:
        mp.setattr(shadow, "multiplicities", counted)
        mp.setattr(shadow, "pointwise_max", lambda fs: maxima.append(1) or pointwise_max(fs))
        mp.setattr(shadow, "multiplicity", None)  # the scan builds no profile alone
        rep = stacks.e_scan(system, N, K, grid, k_exponent)
    return rep, built, len(maxima)


def test_escan_builds_each_profile_once(monkeypatch):
    g = ifs.preset("gasket")
    grid = np.linspace(0, np.pi, 64, endpoint=False)
    rep, built, _ = counted_scan(monkeypatch, g, 4, 8, grid)
    assert rep.l2_ratios and len(set(built)) == len(built)
    # every member has all its depths, read for its ratio
    members = [float(t) for t, ok in zip(grid, rep.membership) if ok]
    assert {(t, n) for t in members for n in range(1, 5)} <= set(built)
    # the members' ratios equal a second pass over the sample
    expect = [(t, max(shadow.l2_norm_sq(shadow.multiplicity(g, n, t)) for n in range(1, 5)) / 8)
              for t in members]
    assert list(rep.l2_ratios) == expect


def test_escan_builds_deeper_profiles_and_maxima_only_for_open_verdicts(monkeypatch):
    # corner4 at N=4, K=2 on 128 directions: the per-direction route builds
    # 4 * 128 profiles and 128 maxima.
    rep, built, maxima = counted_scan(monkeypatch, ifs.preset("corner4"), 4, 2,
                                      np.linspace(0.0, np.pi, 128, endpoint=False))
    assert len(set(built)) == len(built) < 512
    assert maxima < 16
    assert sum(rep.membership) == len(rep.l2_ratios) > 0


@pytest.mark.parametrize("K, k_exponent", [(2, -1e300), (2, -1024.0), (10**400, 3.0)],
                         ids=["k-1e300", "k-1024", "K1e400"])
def test_escan_refuses_a_cut_past_the_float_range_before_any_profile(K, k_exponent, monkeypatch):
    monkeypatch.setattr(shadow, "multiplicities", None)
    with pytest.raises(SpecInvalid, match="exceeds the float range"):
        stacks.e_scan(ifs.preset("gasket"), 2, K, [0.1], k_exponent)


def test_escan_keeps_every_cut_inside_the_float_range():
    g = ifs.preset("gasket")
    grid = np.linspace(0.0, np.pi, 8, endpoint=False)
    assert all(stacks.e_scan(g, 2, 2, grid, -1023.0).membership)  # cut 2^1023
    # a cut that underflows to 0.0 keeps the directions whose level set is empty
    rep = stacks.e_scan(g, 2, 5, grid, 1e300)
    assert rep.membership == (True, False, False, True, False, True, False, False)
    assert rep.membership == tuple(shadow.level_measure(fstar(g, 2, t), 5) == 0.0 for t in grid)
    assert [t for t, _ in rep.l2_ratios] == [float(t) for t, ok in zip(grid, rep.membership) if ok]


def chunk(system, N):
    """Directions per chunk of the stacking scans at depth N."""
    return max(1, stacks.SCAN_EVENTS // (2 * system.branching**N))


def fstar(system, N, theta):
    """The maximal profile over depths 1..N by the per-direction routes."""
    return oracles.pointwise_max([shadow.multiplicity(system, n, theta) for n in range(1, N + 1)])


def same_floats(xs, ys):
    return np.array(xs, dtype=float).view(np.uint64).tolist() == \
        np.array(ys, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("events", [None, 5 * 54])
@pytest.mark.parametrize("offset", [-1, 0, 1, "one"])
def test_scans_on_grids_around_a_chunk_equal_the_per_direction_route(events, offset, monkeypatch):
    # corner4 at N=4 fills a 2^16-event chunk with 128 directions; the
    # gasket at N=3 with a budget of 5 * 54 events, with 5.
    system, N = (ifs.preset("corner4"), 4) if events is None else (ifs.preset("gasket"), 3)
    if events is not None:
        monkeypatch.setattr(stacks, "SCAN_EVENTS", events)
    size = 1 if offset == "one" else chunk(system, N) + offset
    grid = np.linspace(0.0, np.pi, size, endpoint=False)
    maxima = [fstar(system, N, float(t)) for t in grid]
    rep = stacks.e_scan(system, N, 2, grid)
    assert rep.membership == tuple(shadow.level_measure(f, 2) <= 2.0**-3 for f in maxima)
    pairs = [(1, 2), (2, 2), (1, 1)]
    rep = stacks.product_inequality_report(system, N, grid, pairs)
    worst, worst_at, checked = 0.0, None, 0
    for t, f in zip(grid, maxima):
        for k, m in pairs:
            big, fk, fm = (shadow.level_measure(f, lv + 1) for lv in (4 * k * m, k, m))
            if big > 0.0 and min(fk, fm) <= 0.0:
                continue
            ratio = big / (k * fk * fm) if big > 0.0 else 0.0
            checked += 1
            if ratio > worst:
                worst, worst_at = ratio, (float(t), k, m)
    assert same_floats([rep.worst_ratio], [worst])
    assert (rep.worst_at, rep.checked) == (worst_at, checked)


def escan_per_direction(system, N, K, grid, k_exponent=3.0, profiles=None):
    """The e_scan report by the per-direction route: each direction's
    maximal profile by `oracles.pointwise_max`, then its level against the cut."""
    if profiles is None:
        profiles = [[shadow.multiplicity(system, n, float(t)) for n in range(1, N + 1)]
                    for t in grid]
    cut = float(K) ** (-k_exponent)
    member, ratios = [], []
    for t, fs in zip(grid, profiles):
        member.append(shadow.level_measure(oracles.pointwise_max(fs), K) <= cut)
        if member[-1]:
            ratios.append((float(t), max(shadow.l2_norm_sq(f) for f in fs) / K))
    span = max(grid) - min(grid) if len(grid) > 1 else 0.0
    return stacks.EScanReport(tuple(member), float(span * sum(member) / len(member)),
                              tuple(ratios))


def same_report(got, want):
    return (got.membership == want.membership
            and same_floats([got.measure_estimate], [want.measure_estimate])
            and same_floats([x for r in got.l2_ratios for x in r],
                            [x for r in want.l2_ratios for x in r]))


@pytest.mark.parametrize("name, N", [("gasket", 1), ("gasket", 3), ("gasket", 5), ("corner4", 2),
                                     ("corner4", 4), ("random-3-seed1", 3), ("random-3-seed1", 4)])
@pytest.mark.parametrize("size", [1, 4, 5, 6, 11, 40])
def test_escan_equals_the_per_direction_route(name, N, size, monkeypatch):
    # A chunk of five directions, so the sizes fall on, below and above its edges.
    system = ifs.preset(name)
    monkeypatch.setattr(stacks, "SCAN_EVENTS", 5 * 2 * system.branching**N)
    grid = np.linspace(0.1, np.pi + 0.1, size, endpoint=False)
    profiles = [[shadow.multiplicity(system, n, float(t)) for n in range(1, N + 1)] for t in grid]
    for K in (1, 2, 3, 5, 3**N + 1):
        for k_exponent in (3.0, 1.0, 0.25, 0.0, -1.0):
            got = stacks.e_scan(system, N, K, grid, k_exponent)
            want = escan_per_direction(system, N, K, grid, k_exponent, profiles)
            assert same_report(got, want), (K, k_exponent)


def exponent_for(K, cut):
    """A k with float(K) ** -k == cut, searched over the floats around
    -log(cut) / log(K), or None."""
    k = -math.log(cut) / math.log(K)
    lo = hi = k
    for _ in range(4000):
        for cand in (lo, hi):
            if float(K) ** -cand == cut:
                return cand
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return None


def test_escan_at_a_cut_on_a_direction_level_reads_the_maximal_profile(monkeypatch):
    # The cut sits at the level of f* along the gasket's direction 2 pi / 3,
    # and one ulp either side.  There the depth-3 level exceeds that of f*
    # by rounding, so only the band keeps the bounds from calling the
    # direction out; its verdict comes from f*.
    system, N, K = ifs.preset("gasket"), 3, 2
    grid = np.linspace(0.0, np.pi, 12, endpoint=False)
    profiles = [shadow.multiplicity(system, n, float(grid[8])) for n in range(1, N + 1)]
    level = shadow.level_measure(shadow.pointwise_max(profiles), K)
    assert shadow.level_measure(profiles[-1], K) > level
    for cut, member in ((math.nextafter(level, 0.0), False), (level, True),
                        (math.nextafter(level, 1.0), True)):
        k_exponent = exponent_for(K, cut)
        assert k_exponent is not None
        rep, _, maxima = counted_scan(monkeypatch, system, N, K, grid, k_exponent)
        assert rep.membership[8] is member and maxima >= 1
        assert same_report(rep, escan_per_direction(system, N, K, grid, k_exponent))


def test_product_report_measures_each_distinct_level_once(monkeypatch):
    calls = []
    level_measure = shadow.level_measure

    def counted(f, k):
        calls.append(k)
        return level_measure(f, k)

    monkeypatch.setattr(shadow, "level_measure", counted)
    pairs = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]
    stacks.product_inequality_report(ifs.preset("corner4"), 3, [0.1, 0.9], pairs)
    levels = {lv + 1 for lv in (1, 2, 3, 4, 8, 12, 16, 24, 36)}
    assert sorted(calls) == sorted(2 * list(levels))


SCANS = [
    ["product", "--preset", "corner4", "--N", "3", "--K", "1", "2", "--M", "1", "3"],
    ["escan", "--preset", "gasket", "--N", "4", "--K", "2"],
    ["l2", "--preset", "corner4", "--N", "3", "--K", "4"],
    ["baddir", "--preset", "gasket", "--m", "1", "--ell", "2", "--t-grid", "8"],
]


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("scan", SCANS, ids=[s[0] for s in SCANS])
def test_scan_json_is_the_same_at_one_and_two_threads(scan, monkeypatch):
    monkeypatch.setattr(stacks, "SCAN_EVENTS", 1000)  # several chunks
    outs = []
    for threads in ("1", "2"):
        if threads == "2":  # the reduce runs in one loop: no pool is started
            monkeypatch.setattr(_parallel, "ThreadPoolExecutor", NoPool)
        buf = io.StringIO()
        argv = ["scan", "--check", *scan, "--theta-grid", "37", "--threads", threads]
        assert cli.main(argv, stdout=buf) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] and outs[0]


def test_deep_scan_peak_memory_is_bounded_by_the_chunk():
    g, N = ifs.preset("gasket"), 7  # 2 * 3^7 events a direction, 14 directions a chunk
    K = 3**N + 1  # every level set is empty, so no verdict comes before depth N
    stacks.e_scan(g, N, K, [0.1])  # the piece centers are cached outside the budget
    peaks = []
    for size in (chunk(g, N), 8 * chunk(g, N)):
        tracemalloc.start()
        stacks.e_scan(g, N, K, np.linspace(0.0, np.pi, size, endpoint=False))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= 128 * stacks.SCAN_EVENTS  # about 80 bytes an event
    assert peaks[1] <= 1.25 * peaks[0]


def test_bootstrap_first_round_is_support_measure():
    # The report reads the support recursion; the profile route projects the
    # summed piece centers instead, so the two agree to rounding, not bits.
    c4 = ifs.preset("corner4")
    rep = stacks.bootstrap_report(c4, 0.2, 2, 3)
    assert rep.measures[0] == shadow.support_unions(c4, 2, 0.2)[2].measure
    direct = shadow.support_measure(shadow.multiplicity(c4, 2, 0.2))
    assert abs(rep.measures[0] - direct) <= 1e-12


def test_bootstrap_reaches_depth_16_within_the_cap():
    # 3^16 ~ 4.3e7 pieces, under the 2^26 cap: the recursion enumerates none
    # of them, so the deepest depth costs components, not pieces.
    argv = ["scan", "--check", "bootstrap", "--preset", "gasket", "--N", "4", "--l-max", "4"]
    buf = io.StringIO()
    tracemalloc.start()
    try:
        assert cli.main(argv, stdout=buf) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(buf.getvalue())
    assert rep["depths"] == [4, 8, 12, 16]
    measures = rep["measures"]
    assert all(b <= a for a, b in zip(measures, measures[1:]))
    assert peak <= 128 * 2**20


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


def test_bad_direction_scan_refuses_an_empty_slope_grid_before_any_block(monkeypatch):
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(8, 2, 4)

    def no_block(*args):
        raise AssertionError("a grid block was scanned")

    monkeypatch.setattr(stacks, "_scales", no_block)
    for empty in ([], np.array([]), ()):
        with pytest.raises(FavlabError, match="slope grid must be nonempty"):
            stacks.bad_direction_scan(tf, spec, 0.05, empty)


def test_bad_direction_tau_zero_degenerate():
    # threshold 1 means only exact-modulus-one excursions count
    tf = spectral.t_form(ifs.preset("gasket"))
    spec = spectral.ProductSpec(6, 1, 2)
    rep = stacks.bad_direction_scan(tf, spec, 0.0, np.linspace(0.1, 0.9, 9), x_grid=2000)
    assert rep.h_measure <= 0.8 + 1e-12
