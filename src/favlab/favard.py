"""Favard length: direction-averaged shadow measure.

Two independent routes are provided.  The quadrature route integrates the
support measure of the multiplicity profile over theta in [0, pi] with the
composite trapezoid rule, doubling the grid until successive values agree;
the reported value is the Richardson extrapolation of the last two levels.
The Monte Carlo route drops random needles (theta, x) and tests membership
by pruned descent through the piece tree.  All randomness comes from a
Philox counter-based generator, so results are reproducible bit for bit
across platforms and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ifs, shadow
from ._parallel import ordered_map
from .errors import DegenerateSeries, FavlabError
from .ifs import SimilaritySystem

# Needles drawn and descended per block by buffon_estimate.
NEEDLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class QuadratureConfig:
    grid_size: int = 256
    refinement_limit: int = 6
    target_rel_error: float = 1e-6

    def __post_init__(self):
        if self.grid_size < 8:
            raise FavlabError("grid_size must be at least 8")
        if not self.target_rel_error > 0:
            raise FavlabError(f"target_rel_error must be positive, got {self.target_rel_error}")
        if self.refinement_limit < 0:
            raise FavlabError(f"refinement_limit must be nonnegative, got {self.refinement_limit}")


@dataclass(frozen=True)
class FavardResult:
    value: float
    error_estimate: float
    depth: int
    label: str
    converged: bool
    grid: int


@dataclass(frozen=True)
class DecayFit:
    model: str
    params: tuple[float, float]
    residual: float


def _support_at(system: SimilaritySystem, depth: int, cap: int):
    def g(theta: float) -> float:
        return shadow.support_measure(shadow.multiplicity(system, depth, theta, cap))

    return g


def favard_length(
    system: SimilaritySystem,
    depth: int,
    cfg: QuadratureConfig = QuadratureConfig(),
    cap: int = ifs.ENUMERATION_CAP,
    threads: int | None = None,
) -> FavardResult:
    """1/pi times the integral over [0, pi] of the shadow measure at depth n."""
    ifs.check_cap(system, depth, cap)
    g = _support_at(system, depth, cap)
    m = cfg.grid_size
    thetas = np.linspace(0.0, np.pi, m + 1)
    vals = np.array(ordered_map(g, thetas, threads))
    h = np.pi / m
    total = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
    prev = total
    err = np.inf
    converged = False
    for _ in range(cfg.refinement_limit):
        mids = thetas[:-1] + h / 2.0
        mid_vals = np.array(ordered_map(g, mids, threads))
        total = 0.5 * total + (h / 2.0) * mid_vals.sum()
        thetas = np.sort(np.concatenate([thetas, mids]))
        m *= 2
        h /= 2.0
        err = abs(total - prev)
        if err < cfg.target_rel_error * max(abs(total), 1e-300):
            converged = True
            break
        prev = total
    # Richardson step for the trapezoid pair (halved step): (4 T_2 - T_1) / 3.
    value = (4.0 * total - prev) / 3.0 if np.isfinite(err) else total
    return FavardResult(
        value=float(value / np.pi),
        error_estimate=float(err / np.pi),
        depth=depth,
        label=system.label,
        converged=converged,
        grid=m,
    )


def _hits_batch(
    system: SimilaritySystem, depth: int, thetas: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Vectorized needle test for arrays of (theta, x) pairs.

    Each live needle projects the L centers once, p_l = cos(theta) Re c_l +
    sin(theta) Im c_l.  A node at level k then carries only its scaled
    residual u = (x - proj(node)) / r^k: its child l survives when
    |u - p_l| <= root_size * r * width, and the child's residual is
    (u - p_l) / r, which stays O(1) at every depth.
    """
    if system.shape == ifs.SQUARE:
        widths = np.abs(np.cos(thetas)) + np.abs(np.sin(thetas))
    else:
        widths = np.ones_like(thetas)
    alive = np.abs(xs) <= system.root_size * widths
    if depth == 0:
        return alive
    tid = np.flatnonzero(alive)
    cos, sin = np.cos(thetas[tid]), np.sin(thetas[tid])
    proj = [cos * c.real + sin * c.imag for c in system.centers()]
    r = system.ratio
    reach = system.root_size * r * widths[tid]
    pos = np.arange(tid.size)  # survivor -> index into tid, proj and reach
    u = xs[tid]
    for _ in range(depth):
        if pos.size == 0:
            break
        # flatnonzero plus index gathers: boolean-mask compression of these
        # dense, unpredictable masks is about three times slower.
        ds, ps = [], []
        reach_pos = reach[pos]
        for p in proj:
            d = u - p[pos]
            k = np.flatnonzero(np.abs(d) <= reach_pos)
            ds.append(d[k])
            ps.append(pos[k])
        u = np.concatenate(ds) / r
        pos = np.concatenate(ps)
    hits = np.zeros(thetas.size, dtype=bool)
    hits[tid[pos]] = True
    return hits


def needle_draws(seed: int, trials: int, window: float):
    """Blocks of needles (theta ~ U[0, pi), x ~ U[-window, window]).

    Two Philox streams: theta takes the first `trials` doubles of
    Philox(seed) and x the next `trials`, so the blocks concatenate to the
    full-array draws whatever NEEDLE_BLOCK is.  Philox yields four doubles
    per counter step, so the x stream is advanced by trials // 4 steps and
    then discards trials % 4 doubles.
    """
    angles = np.random.Generator(np.random.Philox(seed))
    offsets = np.random.Philox(seed)
    offsets.advance(trials // 4)
    offsets = np.random.Generator(offsets)
    offsets.random(trials % 4)
    for start in range(0, trials, NEEDLE_BLOCK):
        k = min(NEEDLE_BLOCK, trials - start)
        yield angles.uniform(0.0, np.pi, size=k), offsets.uniform(-window, window, size=k)


def buffon_estimate(
    system: SimilaritySystem,
    depth: int,
    trials: int,
    seed: int,
    cap: int = ifs.ENUMERATION_CAP,
) -> tuple[float, float]:
    """Monte Carlo shadow-average: theta ~ U[0, pi), x ~ U[-W, W].

    The window W = max(1, r) holds every root shadow: r is the root radius
    of a disc system, or sqrt(2) times the root half-side of a square one
    (its diagonal shadow).  W is 1 for every preset.  Returns (estimate,
    stderr); the estimate is 2W * hit fraction, the stderr 2W times the
    binomial standard error.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise FavlabError("trials must be at least 1")
    if seed < 0:
        raise FavlabError(f"seed {seed} is negative")
    ifs.check_cap(system, depth, cap)
    reach = system.root_size * (np.sqrt(2.0) if system.shape == ifs.SQUARE else 1.0)
    window = max(1.0, float(reach))
    hit_count = 0
    for thetas, xs in needle_draws(seed, trials, window):
        hit_count += int(_hits_batch(system, depth, thetas, xs).sum())
    p = hit_count / trials
    estimate = 2.0 * window * p
    stderr = 2.0 * window * np.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return float(estimate), float(stderr)


def fit_decay(series: Sequence[tuple[int, float]], model: str) -> DecayFit:
    """Least-squares decay fit in transformed coordinates.

    power:    value = C * n^-p          (fit log value vs log n)
    sqrtlog:  value = C * exp(-c sqrt(log n))
    loglower: value = C * log(n) / n    (C = mean of value*n/log n; the
              second parameter reports the infimum of that ratio)
    """
    pts = [(int(n), float(v)) for n, v in series]
    if len(pts) < 3:
        raise DegenerateSeries("need at least 3 points")
    if any(v <= 0 for _, v in pts):
        raise DegenerateSeries("values must be positive")
    vals = np.array([v for _, v in pts])
    if np.allclose(vals, vals[0], rtol=1e-12, atol=0.0):
        raise DegenerateSeries("series is constant")
    ns = np.array([n for n, _ in pts], dtype=float)
    logv = np.log(vals)
    if model == "power":
        if np.any(ns < 1):
            raise DegenerateSeries("power model needs n >= 1")
        design = np.log(ns)
    elif model == "sqrtlog":
        if np.any(ns < 2):
            raise DegenerateSeries("sqrtlog model needs n >= 2")
        design = np.sqrt(np.log(ns))
    elif model == "loglower":
        if np.any(ns < 2):
            raise DegenerateSeries("loglower model needs n >= 2")
        ratio = vals * ns / np.log(ns)
        c = float(np.mean(ratio))
        resid = float(np.sqrt(np.mean((ratio - c) ** 2)))
        return DecayFit(model=model, params=(c, float(np.min(ratio))), residual=resid)
    else:
        raise FavlabError(f"unknown decay model {model!r}")
    a = np.column_stack([np.ones_like(design), -design])
    coef, *_ = np.linalg.lstsq(a, logv, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - logv) ** 2)))
    return DecayFit(
        model=model, params=(float(np.exp(coef[0])), float(coef[1])), residual=resid
    )
