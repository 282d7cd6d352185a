"""The transform layer against the loops it replaced (tests/oracles.py).

Float results are compared bit for bit through `.view(np.uint64)`: the
exponential sum that skips the exponential of a zero frequency, the slope
form continued from its slope-free terms, the cetsq integrand built in row
blocks, the split search that samples every candidate line in one call, and
the bad-direction scan in grid blocks.
"""

import math
import tracemalloc

import numpy as np
import pytest

from favlab import ifs, lemmas, spectral, stacks, verify
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
    for threads in (1, 2):
        got = stacks.bad_direction_scan(tform, spec, 0.05, ts, x_grid=x_grid, threads=threads)
        assert got.offenders == want
    assert 0 < sum(want) < len(want)
