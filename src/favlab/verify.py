"""Named verification suites behind the `verify` subcommand.

Each suite runs its trials deterministically from a Philox seed and returns a
report dict {suite, trials, worst_case, pass}.  Randomized suites draw every
trial up front in index order, then run them in that order in one thread
(`--threads` sizes `favard`'s pool alone); cetsq bounds every trial and runs
Simpson's rule only where the bounds leave its report open.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import baselines, ifs, lemmas, spectral
from .errors import FavlabError
from .shadow import interval_union
from .spectral import ExpPoly


def _report(suite: str, trials: int, worst: float, ok: bool) -> dict:
    return {"suite": suite, "trials": trials, "worst_case": float(worst), "pass": bool(ok)}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise FavlabError(f"seed {seed} is negative")
    return np.random.Generator(np.random.Philox(seed))


def random_exp_poly(rng: np.random.Generator) -> ExpPoly:
    """Random unimodular-coefficient exponential sum of one to six terms with
    complex frequencies in [-2, 2] + [-2, 2]i.

    Coefficients are redrawn until |f(0)| >= 1 (the precondition of the disc
    bounds).
    """
    n = int(rng.integers(1, 7))
    re = rng.uniform(-2.0, 2.0, n)
    im = rng.uniform(-2.0, 2.0, n)
    lams = tuple(complex(a, b) for a, b in zip(re, im))
    for _ in range(1000):
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        coeffs = tuple(np.exp(1j * p) for p in phases)
        if abs(sum(coeffs)) >= 1.0:
            return ExpPoly(lambdas=lams, coefficients=coeffs)
    raise FavlabError("could not draw coefficients with |f(0)| >= 1")


def suite_blaschke(trials: int, seed: int) -> dict:
    """Zero count vs log2(sup) on randomized sums; any violation fails."""
    rng = _rng(seed)
    polys = [random_exp_poly(rng) for _ in range(trials)]
    reps = (lemmas.blaschke_check(p) for p in polys)
    worst = max(rep.zero_count - rep.bound for rep in reps)
    return _report("blaschke", trials, worst, worst <= 0.0)


def suite_cover(trials: int, seed: int) -> dict:
    """Small-value neighborhoods on randomized sums at delta in {.01, .1, .3}."""
    rng = _rng(seed)
    deltas = (0.01, 0.1, 0.3)
    jobs = [(random_exp_poly(rng), deltas[int(rng.integers(0, 3))]) for _ in range(trials)]
    reps = (lemmas.small_value_cover_check(poly, delta) for poly, delta in jobs)
    worst = max(rep.worst_margin for rep in reps)
    return _report("cover", trials, worst, worst <= 0.0)


def suite_turan(trials: int, seed: int) -> dict:
    """Measured supremum-comparison constants on random sums and subsets."""
    rng = _rng(seed)
    jobs = []
    for _ in range(trials):
        # e^{i lambda x} with real lambda in [-30, 30] and unimodular coefficients
        n = int(rng.integers(1, 7))
        lams = tuple(1j * float(v) for v in rng.uniform(-30.0, 30.0, n))
        coeffs = tuple(np.exp(1j * p) for p in rng.uniform(0.0, 2.0 * np.pi, n))
        poly = ExpPoly(lambdas=lams, coefficients=coeffs)
        length = rng.uniform(0.5, 3.0)
        pieces = int(rng.integers(1, 5))
        want = rng.uniform(0.1, 0.6) * length
        starts = np.sort(rng.uniform(0.0, length, pieces))
        widths = np.full(pieces, want / pieces)
        subset = interval_union(np.column_stack((starts, np.minimum(starts + widths, length))))
        jobs.append(lemmas.TuranTrial(poly, interval_union([(0.0, length)]), subset))
    worst = max(lemmas.turan_ratio(job) for job in jobs)
    return _report("turan", trials, worst, worst <= baselines.TURAN_A_CEILING)


def suite_doubling(trials: int, seed: int) -> dict:
    """Full-box vs half-box sups of the slope-form sum at random parameters."""
    rng = _rng(seed)
    tform = spectral.t_form(ifs.preset("gasket"))
    jobs = [
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, 30.0)), int(rng.integers(0, 6)))
        for _ in range(trials)
    ]
    ratios = [lemmas.doubling_ratio(tform.poly(t), xp, k=k) for t, xp, k in jobs]
    worst = max(ratios)
    ok = min(ratios) >= 1.0 and worst <= baselines.DOUBLING_RATIO_CEILING
    return _report("doubling", trials, worst, ok)


def _clustered_frequencies(rng: np.random.Generator) -> np.ndarray:
    clusters = int(rng.integers(1, 8))
    freqs = []
    for _ in range(clusters):
        center = rng.uniform(-200.0, 200.0)
        size = int(rng.integers(1, 40))
        spread = rng.uniform(0.05, 5.0)
        freqs.extend(center + rng.uniform(-spread, spread, size))
    return np.array(freqs)


def suite_cetsq(trials: int, seed: int) -> dict:
    """Cluster-L2 ratios: exact degenerate values plus a randomized sweep."""
    degenerate_ok = _near_half([3.0]) and _near_half([2.0] * 7)
    rng = _rng(seed)
    jobs = []
    for _ in range(trials):
        freqs = _clustered_frequencies(rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
        jobs.append((freqs, np.exp(1j * phases)))
    worst_ratio, ok = _cetsq_worst(jobs)
    return _report("cetsq", trials, worst_ratio, degenerate_ok and ok)


def _near_half(freqs: list[float]) -> bool:
    s = lemmas.box_l2_norm_sq(np.array(freqs))
    lo, hi = (b / s - 0.5 for b in lemmas.cetsq_bounds(freqs, None))
    if lo <= -1e-6 <= hi or lo <= 1e-6 <= hi:
        lo = hi = lemmas.cetsq_ratio(freqs)[2] - 0.5
    return abs(lo) < 1e-6 and abs(hi) < 1e-6


def _cetsq_worst(jobs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, bool]:
    """The largest ratio, and whether every ratio and corollary value is within its ceiling;
    Simpson runs only where bounds, kept in order by rounding, reach the top floor or a ceiling."""
    ceilings = (baselines.CETSQ_RATIO_CEILING, baselines.CET_COROLLARY_CEILING)
    scales = [(lemmas.box_l2_norm_sq(f), f.size * _max_per_unit_interval(f)) for f, _ in jobs]
    lhs = [lemmas.cetsq_bounds(f, c) for f, c in jobs]
    floor = max(lo / s for (lo, _), (s, _) in zip(lhs, scales))
    for i, ((f, c), (lo, hi)) in enumerate(zip(jobs, lhs)):
        bounds = [(lo / s, hi / s) for s in scales[i]]
        if bounds[0][1] >= floor or any(a <= cap <= b for (a, b), cap in zip(bounds, ceilings)):
            lhs[i] = (lemmas.cetsq_ratio(f, c)[0],) * 2
    ok = all(hi / s <= cap for (_, hi), pair in zip(lhs, scales) for s, cap in zip(pair, ceilings))
    return max(hi / s for (_, hi), (s, _) in zip(lhs, scales)), ok


def _max_per_unit_interval(freqs: np.ndarray) -> int:
    xs = np.sort(freqs)
    best = 1
    j = 0
    for i in range(xs.size):
        while xs[i] - xs[j] > 1.0:
            j += 1
        best = max(best, i - j + 1)
    return best


def suite_keyobs(trials: int, seed: int) -> dict:
    """Two-variable gap inequality at the frozen sharp constant.

    `trials` is the grid side (at least 1000); the printed 1/18 variant is
    exercised separately by the acceptance tests, where its failure is
    documented.
    """
    side = max(trials, 1000)
    worst = spectral.key_obs_check(baselines.KEY_OBS_SHARP_A, side)
    return _report("keyobs", side * side, worst, worst >= -1e-12)


def suite_sine(trials: int, seed: int) -> dict:
    grid = max(trials, 10**6)
    worst = spectral.sine_identity_check(grid)
    return _report("sine", grid, worst, worst < 1e-10)


def suite_dist(trials: int, seed: int) -> dict:
    """Lattice-distance slope fit: positive and stable under refinement."""
    grid = max(trials, 200)
    tform = spectral.t_form(ifs.preset("gasket"))
    b1 = spectral.dist_bound_fit(tform, grid)
    b2 = spectral.dist_bound_fit(tform, 2 * grid)
    stable = abs(b2 - b1) <= 0.05 * max(b1, 1e-12)
    return _report("dist", grid, b2, b2 > 0.0 and stable)


SUITES: dict[str, Callable[[int, int], dict]] = {
    "blaschke": suite_blaschke,
    "cover": suite_cover,
    "turan": suite_turan,
    "doubling": suite_doubling,
    "cetsq": suite_cetsq,
    "keyobs": suite_keyobs,
    "sine": suite_sine,
    "dist": suite_dist,
}


# The largest `trials` each suite admits; run_suite refuses more before any draw.
TRIAL_CEILINGS = {
    # The randomized suites draw every trial into a list before they run it.
    # A trial takes 2-10 ms and about a KB, so 10^5 trials take 3-15 minutes.
    "blaschke": 10**5,
    "cover": 10**5,
    "turan": 10**5,
    "doubling": 10**5,
    # About 1.5 ms a trial, 15 s for 10^4: the ceiling now holds the memory
    # of the drawn trials, up to about 7 KB of frequencies each.
    "cetsq": 10**4,
    # The grid side: side^2 gap values at about 70 ns each, 10 minutes at 10^5.
    "keyobs": 10**5,
    # Grid points, about 62 bytes each at the peak: 10^7 points take 620 MB.
    "sine": 10**7,
    # The side of two grids, 5 side^2 lattice sums at about 100 ns: a minute at 10^4.
    "dist": 10**4,
}


def run_suite(name: str, trials: int, seed: int) -> dict:
    if name not in SUITES:
        raise FavlabError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 1:
        raise FavlabError(f"trials must be at least 1, got {trials}")
    if trials > TRIAL_CEILINGS[name]:
        raise FavlabError(f"trials {trials} exceeds the {name} ceiling {TRIAL_CEILINGS[name]}")
    return SUITES[name](trials, seed)
