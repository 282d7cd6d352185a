"""The transform layer against the loops it replaced (tests/oracles.py).

Float results are compared bit for bit through `.view(np.uint64)`: the
exponential sum that skips the exponential of a zero frequency, the slope
form continued from its slope-free terms, the cetsq integrand built in row
blocks, the split search that samples every candidate line in one call, the
bad-direction scan in grid blocks, the golden-section suprema run in
lockstep, the Newton step that takes its three points in one call, and the
small-value cover pruned by grid blocks.  These rest on the exponential sum
giving every point the same bits on any subset or batch of points.
"""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from favlab import ifs, lemmas, spectral, stacks, verify
from favlab.errors import FavlabError
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
    tform = spectral.t_form(ifs.preset(name))
    ys = np.linspace(1.0, 9.0, 5003)
    ts = [float(t) for t in np.linspace(0.0, 1.0, 7)]
    scales = stacks._scales(tform.branching, 4, ys)
    for t in ts:
        got = stacks._medium_product(tform, scales, ys, t)
        want = oracles.medium_product_loop(tform, 4, t, ys)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("name", ("corner4", "gasket"))
def test_bad_direction_scan_in_blocks_finds_the_loop_offenders(name):
    tform = spectral.t_form(ifs.preset(name))
    spec = spectral.ProductSpec(7, 2, 4)
    ts = np.linspace(0.0, 1.0, 50)
    x_grid = 2 * stacks.SCAN_BLOCK + 1001
    want = oracles.bad_direction_offenders(tform, spec, 0.05, ts, x_grid)
    got = stacks.bad_direction_scan(tform, spec, 0.05, ts, x_grid=x_grid)
    assert got.offenders == want
    assert 0 < sum(want) < len(want)


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
    """An ExpPoly that records how many points each call evaluates."""

    points: list = field(default_factory=list)

    def __call__(self, z, acc=None):
        self.points.append(np.size(z))
        return super().__call__(z, acc)


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
