"""The transform layer against the loops it replaced (tests/oracles.py).

Float results are compared bit for bit through `.view(np.uint64)`: the
exponential sum that skips the exponential of a zero frequency, the slope
form continued from its slope-free terms, the cetsq integrand built in row
blocks, the cetsq suite that runs Simpson's rule only where its closed-form
bounds cannot decide (its JSON report is compared byte for byte), the split search that samples every candidate line in one call, the
bad-direction scan that continues only the points still above its threshold
and decides offenders rather than peaks, the golden-section suprema run in
lockstep, the Newton step that takes its three points in one call, and the
small-value cover and the box suprema pruned by grid blocks, the
quadrisection that winds a split's four child contours from one call of f,
and the Blaschke circle supremum pruned by arcs.  These rest on the
exponential sum giving every point the same bits on any subset or batch of
points.
"""

import io
import math
import tracemalloc
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest

from favlab import cli, emit, ifs, lemmas, spectral, stacks, verify
from favlab.errors import FavlabError, SpecInvalid
from favlab.spectral import ExpPoly

import oracles

SLOPE_PRESETS = ("gasket", "corner4", "random-5-seed1")


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def sample_points(rng: np.random.Generator) -> list[np.ndarray]:
    real = np.concatenate([[0.0, -0.0, 1.0, -2.5, 300.0], rng.uniform(-300.0, 300.0, 995)])
    cplx = real + 1j * rng.uniform(-1.5, 1.5, real.size)
    return [real, cplx, cplx.reshape(10, 100)]


def polys() -> list[ExpPoly]:
    rng = np.random.Generator(np.random.Philox(7))
    out = [spectral.t_form(ifs.preset(name)).poly(t)
           for name in SLOPE_PRESETS for t in (0.0, 0.37, 1.0)]
    out += [spectral.phi_theta_poly(ifs.preset(name), theta)
            for name in ("gasket", "corner4") for theta in (0.0, 0.3, math.pi / 4)]
    out += [verify.random_exp_poly(rng) for _ in range(10)]
    for _ in range(5):  # the turan suite's draws: imaginary exponents up to 30i
        n = int(rng.integers(1, 7))
        lams = tuple(1j * float(v) for v in rng.uniform(-30.0, 30.0, n))
        out.append(ExpPoly(lams, tuple(np.exp(1j * p) for p in rng.uniform(0.0, 2 * np.pi, n))))
    drawn = verify.random_exp_poly(rng)
    out.append(ExpPoly((0.0j,) + drawn.lambdas, (np.exp(0.4j),) + drawn.coefficients))
    return out


@pytest.mark.parametrize("k", range(len(polys())))
def test_exp_poly_is_bit_equal_to_the_exponential_per_term_loop(k):
    poly = polys()[k]
    for z in sample_points(np.random.default_rng(k)):
        assert np.array_equal(bits(poly(z)), bits(oracles.exp_poly_loop(poly, z)))


@pytest.mark.parametrize("name", SLOPE_PRESETS)
def test_slope_terms_continue_the_slope_free_terms_bit_equal(name):
    tform = spectral.t_form(ifs.preset(name))
    for z in sample_points(np.random.default_rng(3)):
        head = spectral.SLOPE_FREE(z)
        for t in (0.0, 0.21, 0.5, 0.93):
            got = tform.slope_terms(t)(z, head)
            assert np.array_equal(bits(got), bits(oracles.exp_poly_loop(tform.poly(t), z)))
        assert np.array_equal(bits(head), bits(spectral.SLOPE_FREE(z)))  # acc is not changed


def cetsq_draw(size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(-200.0, 200.0, size), np.exp(1j * rng.uniform(0.0, 2 * np.pi, size))


@pytest.mark.parametrize(
    "length", [1, 7, lemmas.CETSQ_BLOCK - 1, lemmas.CETSQ_BLOCK + 1, 3 * lemmas.CETSQ_BLOCK + 17]
)
@pytest.mark.parametrize("size", [1, 7, 273])
def test_cetsq_integrand_in_row_blocks_is_bit_equal(length, size):
    freqs, coeffs = cetsq_draw(size, length + size)
    ys = np.linspace(0.0, 1.0, length)
    got = lemmas._cetsq_integrand(freqs, coeffs, ys)
    want = oracles.cetsq_integrand_matrix(freqs, coeffs, ys)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cetsq_ratio_equals_the_full_matrix_integral():
    freqs, coeffs = cetsq_draw(273, 1)
    want = spectral.simpson(lambda ys: oracles.cetsq_integrand_matrix(freqs, coeffs, ys),
                            1.0, 20001)
    assert lemmas.cetsq_ratio(freqs, coeffs)[0] == want


@pytest.mark.parametrize("delta", [0.25, 4.0])
def test_cetsq_ratio_at_delta_one_holds_every_window(delta):
    # ratio_delta(a) = ratio_1(a / delta): the paper's window [0, 1/delta]
    # with boxes a +- delta is the fixed window at the scaled frequencies.
    rng = np.random.Generator(np.random.Philox(33))
    for _ in range(3):
        freqs = verify._clustered_frequencies(rng)
        coeffs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, freqs.size))
        want = oracles.cetsq_ratio_delta(freqs, coeffs, delta)
        assert lemmas.cetsq_ratio(freqs / delta, coeffs)[2] == pytest.approx(want, rel=1e-10)


def test_cetsq_ratio_peak_memory_stays_in_budget():
    # The full 20001 x 273 complex matrix alone is 87 MB; row blocks hold one
    # CETSQ_BLOCK x 273 buffer (4.5 MB).
    freqs, coeffs = cetsq_draw(273, 2)
    tracemalloc.start()
    try:
        lemmas.cetsq_ratio(freqs, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "trials, seed",
    [(t, s) for s in range(31) for t in (1, 3, 20)] + [(5, 3), (120, 104)],
)
def test_cetsq_suite_equals_the_all_simpson_oracle(trials, seed):
    got = emit.json_report(verify.suite_cetsq(trials, seed))
    assert got == emit.json_report(oracles.suite_cetsq(trials, seed))


def split_cases():
    gasket = spectral.t_form(ifs.preset("gasket"))
    rng = np.random.Generator(np.random.Philox(11))
    fs = [gasket.poly(0.5), gasket.poly(0.2), spectral.t_form(ifs.preset("corner4")).poly(0.3)]
    fs += [verify.random_exp_poly(rng) for _ in range(4)]
    cases = []
    for f in fs:
        for zero in lemmas.zeros_in_rect(f, 0.0, 6.0, -1.0, 1.0):
            for h in (0.01, 0.1, 0.5):
                x0, y0 = zero.real - h * rng.uniform(0.3, 0.7), zero.imag - h * rng.uniform(0.3, 0.7)
                cases.append((f, x0, x0 + h, y0, y0 + h))
        cases.append((f, -1.0, 1.0, -1.0, 1.0))
    return cases


def test_best_split_picks_the_fraction_of_the_per_line_loop():
    cases = split_cases()
    picks = set()
    for f, x0, x1, y0, y1 in cases:
        got = lemmas._best_split(f, x0, x1, y0, y1)
        assert got == oracles.best_split_loop(f, x0, x1, y0, y1)
        picks.add(got)
    assert len(cases) > 20 and len(picks) > 2  # the boxes reach several candidates


def test_best_split_samples_every_candidate_in_one_call():
    sizes = []
    f = spectral.t_form(ifs.preset("gasket")).poly(0.5)
    lemmas._best_split(lambda z: sizes.append(np.size(z)) or f(z), 3.9, 4.4, -0.2, 0.3)
    assert sizes == [2 * 8 * 33]


@pytest.mark.parametrize("name", SLOPE_PRESETS)
def test_medium_products_are_bit_equal_to_the_per_slope_loop(name):
    # thr = -1 keeps every point; above it, the points a partial product
    # drops can only end at or below thr.
    tform = spectral.t_form(ifs.preset(name))
    ys = np.linspace(1.0, 9.0, 5003)
    ts = [float(t) for t in np.linspace(0.0, 1.0, 7)]
    scales = stacks._scales(tform.branching, 4, ys)
    for t in ts:
        want = oracles.medium_product_loop(tform, 4, t, ys)
        for thr in (-1.0, 0.0, 0.01, 0.05, 0.3):
            idx, got = stacks._survivors(tform, scales, ys, t, thr)
            assert np.array_equal(bits(got), bits(want[idx]))
            assert np.all(np.abs(np.delete(want, idx)) <= thr)
        assert stacks._survivors(tform, scales, ys, t, -1.0)[0].size == ys.size


# (m, ell, tau): the benchmark's spec, thr = 1 at tau = 0, a threshold that
# underflows to 0, and ell = 0, where the block is the empty product 1.
BADDIR_SPECS = [(2, 4, 0.05), (1, 2, 0.0), (2, 3, 0.0), (1, 3, 0.3), (1, 2, 1e3), (2, 0, 0.1)]


@pytest.mark.parametrize("m, ell, tau", BADDIR_SPECS)
@pytest.mark.parametrize("name", ("corner4", "gasket"))
def test_bad_direction_scan_reports_the_full_max_loop(name, m, ell, tau):
    tform = spectral.t_form(ifs.preset(name))
    spec = spectral.ProductSpec(m + ell + 1, m, ell)
    # A nan slope: its block is nan everywhere and never offends.
    ts = np.insert(np.linspace(0.0, 1.0, 40), 17, math.nan)
    x_grid = 2 * stacks.SCAN_BLOCK + 1001
    want = oracles.bad_direction_full_max(tform, spec, tau, ts, x_grid)
    got = stacks.bad_direction_scan(tform, spec, tau, ts, x_grid=x_grid)
    assert got == want
    assert not want.offenders[17]
    if (m, ell, tau) == (2, 4, 0.05):
        assert 0 < sum(want.offenders) < len(ts) - 1


def test_bad_direction_scan_refuses_an_argument_past_the_float_range_before_any_block(
    monkeypatch, capsys
):
    # random-5-seed1 has the frequency a + b t = 7.959 + 1.361 t: times the
    # top argument 5 * 5^439 that is past the float range at every slope,
    # where the block would be nan.  One depth less, every product is finite.
    tform = spectral.t_form(ifs.preset("random-5-seed1"))
    ts = np.linspace(0.0, 1.0, 5)
    monkeypatch.setattr(stacks, "_scales", None)  # no grid block is built
    with pytest.raises(SpecInvalid, match=r"a \+ b t = 7\.95914 at slope t = 0 .*5\^1 \*"):
        stacks.bad_direction_scan(tform, spectral.ProductSpec(441, 439, 1), 0.05, ts, x_grid=3000)
    monkeypatch.undo()
    with np.errstate(all="raise"):
        got = stacks.bad_direction_scan(tform, spectral.ProductSpec(440, 438, 1), 0.05, ts,
                                        x_grid=3000)
    assert got == oracles.bad_direction_full_max(tform, spectral.ProductSpec(440, 438, 1),
                                                 0.05, ts, 3000)
    assert all(got.offenders)
    out = io.StringIO()
    argv = ["scan", "--check", "baddir", "--preset", "random-5-seed1", "--m", "439", "--ell", "1",
            "--t-grid", "5"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        assert cli.main(argv, stdout=out) == 2
    err = capsys.readouterr().err
    assert out.getvalue() == ""
    assert err.startswith("favlab: SpecInvalid: frequency a + b t = 7.95914 at slope t = 0 ")
    assert err.endswith("exceeds the float range\n") and err.count("\n") == 1


def test_underflowing_threshold_decides_every_slope_in_the_first_grid_block(monkeypatch):
    # e^(-1e300 * 2) is 0.0, so x_grid takes its 2,000,000-point cap: 245
    # blocks of SCAN_BLOCK points, which the full-max loop builds.  Any
    # nonzero product offends, and every slope does so in the first block.
    sizes = []
    scales = stacks._scales
    monkeypatch.setattr(stacks, "_scales",
                        lambda L, ell, ys: sizes.append(ys.size) or scales(L, ell, ys))
    out = io.StringIO()
    argv = ["scan", "--check", "baddir", "--preset", "gasket", "--tau", "1e300", "--m", "1",
            "--ell", "2", "--t-grid", "5"]
    assert cli.main(argv, stdout=out) == 0
    assert out.getvalue() == ('{"bound":0.3333333333333333,"check":"baddir","ell":2,'
                              '"h_measure":1.0,"m":1,"offenders":5,"tau":1e+300}\n')
    assert sizes == [stacks.SCAN_BLOCK]  # one block


@pytest.mark.parametrize("k", range(len(polys())))
def test_exp_poly_on_subsets_and_small_batches_is_bit_equal_to_the_whole_array(k):
    poly = polys()[k]
    rng = np.random.default_rng(100 + k)
    for z in sample_points(rng)[:2] + [lemmas._QUARTER_DISC]:
        whole = poly(z)
        mask = rng.random(z.size) < 0.3
        assert np.array_equal(bits(poly(z[mask])), bits(whole[mask]))
        for size in range(1, 12):
            idx = rng.choice(z.size, size, replace=False)
            assert np.array_equal(bits(poly(z[idx])), bits(whole[idx]))
            assert np.array_equal(bits(poly(np.array(z[idx].tolist()))), bits(whole[idx]))


def turan_style_draws(seed: int, count: int):
    """Sums and intervals as the turan suite draws them, with one to five
    subset pieces, some of them of length zero."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(count):
        n = int(rng.integers(1, 7))
        lams = tuple(1j * float(v) for v in rng.uniform(-30.0, 30.0, n))
        poly = ExpPoly(lams, tuple(np.exp(1j * p) for p in rng.uniform(0.0, 2 * np.pi, n)))
        length = float(rng.uniform(0.5, 3.0))
        pieces = int(rng.integers(1, 6))
        starts = np.sort(rng.uniform(0.0, length, pieces))
        widths = rng.uniform(0.0, 0.3 * length, pieces) * (rng.random(pieces) < 0.8)
        yield poly, [0.0, *starts.tolist()], [length, *np.minimum(starts + widths, length).tolist()]


def test_lockstep_suprema_are_bit_equal_to_one_search_per_interval():
    zero_length = 0
    for poly, lows, highs in turan_style_draws(21, 60):
        got = lemmas.supremum_on_interval(poly, lows, highs)
        want = [oracles.supremum_loop(poly, lo, hi) for lo, hi in zip(lows, highs)]
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
        zero_length += sum(lo == hi for lo, hi in zip(lows, highs))
    assert zero_length > 0


def test_lockstep_suprema_call_f_once_per_step_on_the_live_intervals():
    staggered = 0
    for poly, lows, highs in turan_style_draws(22, 20):
        sizes = []
        lemmas.supremum_on_interval(lambda z: sizes.append(np.size(z)) or poly(z), lows, highs)
        lanes = len(lows)
        grid = sum(max(9, int(1000.0 * (hi - lo)) + 1) for lo, hi in zip(lows, highs))
        assert sizes[:2] == [grid, 2 * lanes]
        steps = sizes[2:]
        assert all(lanes >= a >= b > 0 for a, b in zip(steps, steps[1:]))
        staggered += len(set(steps)) > 1
    assert staggered > 0  # intervals stop at different steps


def test_supremum_refuses_an_interval_with_hi_below_lo():
    with pytest.raises(FavlabError, match="empty interval"):
        lemmas.supremum_on_interval(polys()[0], [0.0, 1.0], [1.0, 0.5])


def test_newton_step_in_one_call_is_bit_equal_to_three_one_point_calls():
    rng = np.random.Generator(np.random.Philox(23))
    fs = [spectral.t_form(ifs.preset("gasket")).poly(0.5), polys()[-1]]
    fs += [verify.random_exp_poly(rng) for _ in range(4)]
    cases = 0
    for f in fs:
        for zero in lemmas.zeros_in_rect(f, -1.0, 6.0, -1.0, 1.0):
            for size in (0.019, 0.004):
                z0 = zero + size * complex(*rng.uniform(-0.5, 0.5, 2))
                got = lemmas._newton_polish(f, z0, size)
                want = oracles.newton_polish_loop(f, z0, size)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(bits([got]), bits([want]))
                cases += 1
    assert cases > 10


@dataclass(frozen=True)
class CountedExpPoly(ExpPoly):
    """An ExpPoly that records the points of each call."""

    calls: list = field(default_factory=list)

    def __call__(self, z, acc=None):
        self.calls.append(np.array(z))
        return super().__call__(z, acc)

    @property
    def points(self) -> list[int]:
        return [z.size for z in self.calls]


def counted(poly: ExpPoly) -> CountedExpPoly:
    return CountedExpPoly(poly.lambdas, poly.coefficients, poly.normalization)


def cover_cases():
    rng = np.random.Generator(np.random.Philox(24))
    gasket = spectral.t_form(ifs.preset("gasket"))
    fs = [verify.random_exp_poly(rng) for _ in range(30)]
    fs += [gasket.poly(0.5), polys()[-1], ExpPoly((0j, 2 + 1j), (1.0 + 0j, -1.0 + 0j), 0.5)]
    return [(f, delta) for f in fs for delta in (0.01, 0.1, 0.3)]


@pytest.mark.parametrize("k", range(len(cover_cases())))
def test_pruned_cover_samples_are_the_full_grid_set(k):
    f, delta = cover_cases()[k]
    grid = lemmas._QUARTER_DISC
    want = oracles.small_samples_full_grid(f, delta, grid)
    poly = counted(f)
    got = lemmas._small_samples(poly, delta)
    assert np.array_equal(bits(got), bits(want))
    assert sum(poly.points) <= lemmas._BLOCK_REPS.size + grid.size
    # delta equal to a value the grid attains: the comparison is strict, so
    # that sample stays out, and pruning must keep that edge.
    vals = np.abs(f(grid))
    edge = float(np.sort(vals)[int(np.sum(vals < delta)) // 2 + 40])
    want = oracles.small_samples_full_grid(f, edge, grid)
    assert np.array_equal(bits(lemmas._small_samples(f, edge)), bits(want))


@pytest.mark.parametrize("lam", [0.01, 0.3j, -1.0])
def test_pruned_cover_keeps_the_set_where_the_derivative_bound_is_nearly_tight(lam):
    # Near 0, 1 - e^{lam z} is about -lam z, whose |f'| is about the bound
    # |lam| e^{|lam|/4}; a sweep of attained deltas puts the set's edge in
    # every ring of blocks.  A bound half as large loses samples here.
    f = ExpPoly((0j, complex(lam)), (1.0 + 0j, -1.0 + 0j))
    grid = lemmas._QUARTER_DISC
    vals = np.abs(f(grid))
    for delta in np.sort(vals)[200::397].tolist():
        want = grid[vals < delta]
        assert np.array_equal(bits(lemmas._small_samples(f, delta)), bits(want))


def test_cover_pruning_skips_most_of_the_grid_and_opens_it_for_other_callables():
    rng = np.random.Generator(np.random.Philox(25))
    points = []
    for _ in range(20):
        poly = counted(verify.random_exp_poly(rng))
        lemmas._small_samples(poly, 0.1)
        points.append(sum(poly.points))
    assert sum(points) < 0.3 * len(points) * lemmas._QUARTER_DISC.size
    sizes = []
    line = lambda z: sizes.append(np.size(z)) or 9 * (np.asarray(z) - 1 / 9)
    got = lemmas._small_samples(line, 0.1)
    assert sizes == [lemmas._QUARTER_DISC.size]
    want = oracles.small_samples_full_grid(line, 0.1, lemmas._QUARTER_DISC)
    assert got.size > 0 and np.array_equal(bits(got), bits(want))


def test_cover_blocks_hold_every_sample_within_their_radius():
    grid = lemmas._QUARTER_DISC
    reps = lemmas._BLOCK_REPS[lemmas._BLOCK_OF]
    assert np.all(np.abs(grid - reps) <= lemmas._BLOCK_RADII[lemmas._BLOCK_OF])
    assert np.all(np.bincount(lemmas._BLOCK_OF) == 100)
    # The rim samples round to within an ulp of 1/4, which the slack covers.
    assert np.all(np.abs(grid) <= 0.25 * (1 + 1e-15))


def doubling_draws():
    """(slope form, x', k) as the doubling suite draws them, for k = 0..5,
    and x' where the half box's grid has 60 points, not 61, and the full
    box's 120, not 121: (x' + 1/2) - (x' - 1/2) rounds below 1."""
    rng = np.random.Generator(np.random.Philox(26))
    gasket = spectral.t_form(ifs.preset("gasket"))
    xps = rng.uniform(1.0, 30.0, 2000).tolist()
    short = [x for x in xps if int(60.0 * ((x + 0.5) - (x - 0.5))) < 60][:12]
    xps = xps[:48] + short + [1.0, 30.0]
    return [(gasket.poly(float(rng.uniform(0.0, 1.0))), xp, i % 6) for i, xp in enumerate(xps)]


def test_doubling_ratios_are_bit_equal_to_the_full_grid_suprema():
    draws = doubling_draws()
    got = [lemmas.doubling_ratio(phi, xp, k=k) for phi, xp, k in draws]
    want = [oracles.doubling_ratio_full_grid(phi, xp, k) for phi, xp, k in draws]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    assert sum(int(60.0 * ((xp + 0.5) - (xp - 0.5))) < 60 for _, xp, _ in draws) >= 12
    assert sum(int(60.0 * ((xp + 1.0) - (xp - 1.0))) < 120 for _, xp, _ in draws) >= 12


def box_cases():
    """(f, box): doubling boxes, boxes of other shapes and orientations, the
    cone |1 - e^{lam z}| of small lam, whose derivative bound is nearly
    tight, and plateaus of tiny lam, where |f| varies by rounding alone and
    ties are common."""
    rng = np.random.Generator(np.random.Philox(27))
    cases = []
    for phi, xp, k in doubling_draws()[::6]:
        poly = ExpPoly(tuple(lam * 3.0**-k for lam in phi.lambdas), phi.coefficients,
                       phi.normalization)
        cases += [(poly, (xp - 0.5, xp + 0.5, -0.5, 0.5)), (poly, (xp - 1, xp + 1, -1.0, 1.0))]
    for _ in range(10):
        x0, y0 = rng.uniform(-2.0, 2.0, 2)
        w, h = rng.uniform(0.05, 1.7, 2)
        cases.append((verify.random_exp_poly(rng), (x0, x0 + w, y0, y0 + h)))
    for h in (0.5, 1.0):
        for _ in range(15):
            lam = 10 ** rng.uniform(-3.0, -1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            cases.append((ExpPoly((0j, lam), (1.0 + 0j, -1.0 + 0j)), (-h, h, -h, h)))
            lam = 10 ** rng.uniform(-17.0, -15.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            plateau = ExpPoly((0j, lam), (np.exp(1j * rng.uniform(0.0, 6.0)), 1.0 + 0j))
            cases.append((plateau, (-h, h, -h, h)))
    # Boxes given from their far corners: the grids run backwards.
    return cases + [(f, (x1, x0, y1, y0)) for f, (x0, x1, y0, y1) in cases[-60::4]]


@pytest.mark.parametrize("k", range(len(box_cases())))
def test_box_sup_is_bit_equal_to_the_full_grid(k):
    f, box = box_cases()[k]
    got, want = lemmas.box_sup(f, *box), oracles.box_sup_full_grid(f, *box)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


@pytest.mark.parametrize("k", range(len(box_cases())))
def test_box_blocks_left_out_hold_no_value_as_large_as_the_largest_middle(k):
    # The bound behind the pruning: a block left out lies below the largest
    # middle value, so no grid maximum, nor a tie with it, is left out.
    # Halving K or dropping the rounding slack breaks it on the cones and
    # on the plateaus.
    f, (x0, x1, y0, y1) = box_cases()[k]
    xs = np.linspace(x0, x1, max(9, int(60.0 * (x1 - x0)) + 1))
    ys = np.linspace(y0, y1, max(9, int(60.0 * (y1 - y0)) + 1))
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    kept = lemmas._box_candidates(f, xs, ys, z)
    vals = np.abs(oracles.exp_poly_loop(f, z))
    mx, my = lemmas._block_middles(xs)[0], lemmas._block_middles(ys)[0]
    low = np.max(vals[(my[:, None] * xs.size + mx).ravel()])
    assert np.all(np.diff(kept) > 0)
    assert not np.any(np.delete(vals, kept) >= low)


def test_box_sup_of_a_constant_takes_the_patch_at_the_first_grid_point():
    # Every grid value ties, so the first grid point is the maximum, as in
    # the full grid, and K = 0 rules no block out.
    f = counted(ExpPoly((0j,), (0.6 + 0.8j,), 2.0))
    assert lemmas.box_sup(f, 4.0, 6.0, -1.0, 1.0) == 2.0
    assert f.points == [16 * 16, 121 * 121, 33 * 33]  # middles, the whole grid, the patch
    patch = f.calls[-1]
    assert patch[0] == 4.0 - 1.0j and patch[-1] == complex(4.0 + 2 / 120, -1.0 + 2 / 120)


def test_box_sup_prunes_only_an_exp_poly_and_skips_most_of_its_grid():
    draws = doubling_draws()
    points = 0
    for phi, xp, k in draws:
        poly = counted(ExpPoly(tuple(lam * 3.0**-k for lam in phi.lambdas), phi.coefficients,
                               phi.normalization))
        lemmas.box_sup(poly, xp - 1.0, xp + 1.0, -1.0, 1.0)
        lemmas.box_sup(poly, xp - 0.5, xp + 0.5, -0.5, 0.5)
        points += sum(poly.points)
    assert points < 0.3 * len(draws) * (121 * 121 + 61 * 61 + 2 * 33 * 33)
    sizes = []
    line = lambda z: sizes.append(np.size(z)) or 9 * (np.asarray(z) - 1 / 9)
    got = lemmas.box_sup(line, 0.0, 1.0, -0.5, 0.25)
    assert sizes == [61 * 46, 33 * 33]
    assert got == oracles.box_sup_full_grid(line, 0.0, 1.0, -0.5, 0.25)


def zero_draws() -> list[ExpPoly]:
    rng = np.random.Generator(np.random.Philox(31))
    return [verify.random_exp_poly(rng) for _ in range(200)]


def outcome(fn, *args):
    """What fn returns, zeros as bits and a report as its repr, or the type
    and message of the FavlabError it raises."""
    try:
        got = fn(*args)
    except FavlabError as exc:
        return type(exc), str(exc)
    if isinstance(got, lemmas.BlaschkeReport):
        return repr(got)
    return bits(np.array(getattr(got, "zeros", got), dtype=complex)).tolist()


def per_child(monkeypatch, fn, *args):
    """`outcome` of fn with every box and loop winding alone, as before the
    child contours were batched."""
    with monkeypatch.context() as m:
        m.setattr(lemmas, "_box_zeros", oracles.box_zeros_per_child)
        m.setattr(lemmas, "_winding_on_loop", oracles.winding_on_loop)
        return outcome(fn, *args)


def test_rect_loops_rows_are_bit_equal_to_the_per_box_loop():
    rng = np.random.default_rng(30)
    s = np.arange(64) / 64
    for _ in range(300):
        (x0, x1), (y0, y1) = np.sort(rng.uniform(-3.0, 3.0, (2, 2)), axis=1).tolist()
        boxes = [(x0, x1, y0, y1), (-0.0, x1, 0.0, y1), (x0, 0.0, y0, -0.0), (x0, x1, y0, y1)]
        rows = lemmas._rect_loops(np.array(boxes), s)
        for row, box in zip(rows, boxes):
            assert np.array_equal(bits(row), bits(oracles.rect_loop(*box)(s)))
            assert np.array_equal(bits(lemmas._rect_loops(np.array([box]), s)[0]), bits(row))


def assert_zero_routes_agree(monkeypatch, f) -> None:
    for sign in (-1, 1):
        got = outcome(lemmas.count_zeros, f, 0.0, 0.5, sign)
        assert got == per_child(monkeypatch, lemmas.count_zeros, f, 0.0, 0.5, sign)
    got = outcome(lemmas.zeros_in_rect, f, -1.5, 1.5, -1.5, 1.5)
    assert got == per_child(monkeypatch, lemmas.zeros_in_rect, f, -1.5, 1.5, -1.5, 1.5)


@pytest.mark.parametrize("k", range(len(polys())))
def test_batched_child_contours_find_the_per_child_zeros(k, monkeypatch):
    assert_zero_routes_agree(monkeypatch, polys()[k])


def test_batched_child_contours_find_the_per_child_zeros_on_random_draws(monkeypatch):
    for f in zero_draws():
        assert_zero_routes_agree(monkeypatch, f)


def unsettled_rows(f, z: np.ndarray) -> int:
    """Rows of a four-child call whose 64 samples touch a zero, jump by pi/2
    or wind to no integer."""
    count = 0
    for vals in np.asarray(f(z)).reshape(4, 64):
        ok, w = oracles.phase_winding_loop(vals)
        count += not (ok and np.min(np.abs(vals)) > 0.0 and abs(w - round(w)) <= 0.05)
    return count


def test_each_split_winds_its_four_children_in_one_call():
    polys_ = zero_draws()[:40] + [spectral.t_form(ifs.preset("gasket")).poly(0.5)]
    splits = 0
    for poly in polys_:
        f = counted(poly)
        lemmas._box_zeros(f, -1.5, 1.5, -1.5, 1.5, lemmas.ZERO_TOLERANCE)
        sizes = f.points
        after_split = [i + 1 for i, n in enumerate(sizes) if n == 2 * 8 * 33]
        # The call after each split search holds the four child contours; a
        # 64-point call is the outer contour or a child that falls back.
        assert all(sizes[i] == 4 * 64 for i in after_split)
        fallbacks = sum(unsettled_rows(poly, f.calls[i]) for i in after_split)
        assert sizes.count(64) == 1 + fallbacks
        splits += len(after_split)
    assert splits > 100


def test_a_later_child_that_needs_doubling_winds_alone_as_before(monkeypatch):
    # |f| = |z - c| makes the middle cross the split; the phase factor is
    # single-valued, so it leaves every winding alone, but right of x = 1/2
    # it turns by 60 per unit length: the right children's 64 samples step
    # by 60/32 > pi/2 and double, the left ones settle.
    c = 0.2 + 0.8j
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        return (z - c) * np.exp(60j * np.maximum(np.real(z) - 0.5, 0.0))

    got = outcome(lemmas._box_zeros, f, 0.0, 1.0, 0.0, 1.0, 1e-9)
    assert sizes[:8] == [64, 128, 256, 2 * 8 * 33, 4 * 64, 64, 128, 2 * 8 * 33]
    assert got == bits(np.array([c])).tolist()
    assert got == per_child(monkeypatch, lemmas._box_zeros, f, 0.0, 1.0, 0.0, 1.0, 1e-9)
    assert outcome(lemmas.zeros_in_rect, f, 0.0, 1.0, 0.0, 1.0) == per_child(
        monkeypatch, lemmas.zeros_in_rect, f, 0.0, 1.0, 0.0, 1.0)


def test_a_later_child_through_a_zero_raises_as_before(monkeypatch):
    # f vanishes at p, the fourth sample of the second child's bottom edge
    # when the box splits at its middle; no sample of the outer contour or
    # of the first child is there.
    c, p = 0.2 + 0.8j, 0.5 + 3 / 32
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        return np.where(np.abs(z - p) < 1e-9, 0.0, z - c)

    got = outcome(lemmas._box_zeros, f, 0.0, 1.0, 0.0, 1.0, 1e-9)
    assert got == (lemmas.ContourThroughZero, "contour passes too close to a zero")
    assert sizes == [64, 2 * 8 * 33, 4 * 64, 64]
    assert got == per_child(monkeypatch, lemmas._box_zeros, f, 0.0, 1.0, 0.0, 1.0, 1e-9)
    assert outcome(lemmas.zeros_in_rect, f, 0.0, 1.0, 0.0, 1.0) == per_child(
        monkeypatch, lemmas.zeros_in_rect, f, 0.0, 1.0, 0.0, 1.0)


def blaschke_routes(monkeypatch, f) -> tuple:
    return outcome(lemmas.blaschke_check, f), per_child(
        monkeypatch, oracles.blaschke_check_full_circle, f)


def test_blaschke_reports_equal_the_full_circle_and_per_child_route(monkeypatch):
    reports = 0
    for f in polys() + zero_draws():
        got, want = blaschke_routes(monkeypatch, f)
        assert got == want
        reports += isinstance(got, str)
    assert reports > 200


def test_blaschke_opens_every_arc_when_the_derivative_bound_overflows(monkeypatch):
    # e^{|lam|} = e^{710} overflows, so K is inf and no arc can be ruled out.
    poly = ExpPoly((0j, 710 + 0j), (1.0 + 0j, 1e-300 + 0j))
    f = counted(poly)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = blaschke_routes(monkeypatch, poly)
        assert got == want
        lemmas.blaschke_check(f)
    assert f.points[-2:] == [256, 4096]


def test_blaschke_prunes_only_an_exp_poly_and_skips_most_of_its_circle(monkeypatch):
    middles = lemmas._CIRCLE[8::16]
    for f in zero_draws()[:30]:
        poly = counted(f)
        lemmas.blaschke_check(poly)
        on_circle = [z for z in poly.calls if np.isin(z, lemmas._CIRCLE).all()]
        assert sum(z.size for z in on_circle) < lemmas._CIRCLE.size
        assert len(on_circle) == 2
        assert np.array_equal(bits(on_circle[0]), bits(middles))
    calls = []
    line = lambda z: calls.append(np.array(z)) or 3 + 2 * np.asarray(z)
    got, want = blaschke_routes(monkeypatch, line)
    assert got == want
    assert np.array_equal(bits(calls[-1]), bits(lemmas._CIRCLE))
    assert not any(np.array_equal(bits(z), bits(middles)) for z in calls)
