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


@dataclass(frozen=True)
class QuadratureConfig:
    grid_size: int = 256
    refinement_limit: int = 6
    target_rel_error: float = 1e-6

    def __post_init__(self):
        if self.grid_size < 8:
            raise FavlabError("grid_size must be at least 8")
        if self.target_rel_error <= 0:
            raise FavlabError("target_rel_error must be positive")


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


def needle_hits(system: SimilaritySystem, depth: int, theta: float, x: float) -> bool:
    """Does the needle {projection coordinate == x} meet the depth-n set?

    Depth-first descent: a subtree is visited only while x stays inside its
    shadow, so the typical cost is O(depth * L).
    """
    phase = np.exp(-1j * theta)
    half0 = shadow.shadow_half_length(system, 0, theta)
    if abs(x) > half0:
        return False
    stack = [(0, 0.0 + 0.0j)]
    centers = system.centers()
    while stack:
        level, z = stack.pop()
        if level == depth:
            return True
        scale = system.ratio**level
        half = shadow.shadow_half_length(system, level + 1, theta)
        for c in centers:
            child = z + scale * c
            if abs((child * phase).real - x) <= half:
                stack.append((level + 1, child))
    return False


def _hits_batch(
    system: SimilaritySystem, depth: int, thetas: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Vectorized needle test for arrays of (theta, x) pairs."""
    phases = np.exp(-1j * thetas)
    if system.shape == ifs.SQUARE:
        widths = np.abs(np.cos(thetas)) + np.abs(np.sin(thetas))
    else:
        widths = np.ones_like(thetas)
    half0 = system.root_size * widths
    alive = np.abs(xs) <= half0
    trial = np.flatnonzero(alive)
    node = np.zeros(trial.size, dtype=complex)
    centers = system.centers()
    hits = np.zeros(thetas.size, dtype=bool)
    if depth == 0:
        hits[trial] = True
        return hits
    for level in range(depth):
        if trial.size == 0:
            break
        scale = system.ratio**level
        half = system.root_size * system.ratio ** (level + 1)
        child = node[:, None] + scale * centers[None, :]
        t_rep = np.repeat(trial, centers.size)
        child = child.ravel()
        dist = np.abs((child * phases[t_rep]).real - xs[t_rep])
        keep = dist <= half * widths[t_rep]
        trial = t_rep[keep]
        node = child[keep]
    hits[np.unique(trial)] = True
    return hits


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
    rng = np.random.Generator(np.random.Philox(seed))
    thetas = rng.uniform(0.0, np.pi, size=trials)
    xs = rng.uniform(-window, window, size=trials)
    block = 1 << 16
    hit_count = 0
    for start in range(0, trials, block):
        sl = slice(start, min(start + block, trials))
        hit_count += int(_hits_batch(system, depth, thetas[sl], xs[sl]).sum())
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
