"""Favard length: direction-averaged shadow measure.

Two independent routes are provided.  The quadrature route integrates the
support measure g(theta) of the multiplicity profile with the composite
trapezoid rule, doubling the grid until successive values agree.  A solve
that converges reports the Richardson extrapolation of the last two levels;
one stopped at `refinement_limit` reports the last trapezoid sum instead
(to rounding), because the loop has already set the previous level to it.

The rule runs on the symmetry domain [0, pi/fold] that `_domain` reads from
the centers: [0, pi/6] for the gasket, [0, pi/4] for corner4, [0, pi] for a
system without symmetry.  Each round equals the full-domain one up to
rounding, except that an odd grid aliases on [0, pi] for a period pi/q with
even q (T_N = T_2N, a false convergence), where this rule doubles the grid.

The Monte Carlo route drops random needles (theta, x) and tests membership
by pruned descent through the piece tree, in blocks of NEEDLE_BLOCK (2^13)
needles whose arrays stay cache-sized; a disc system prunes by one scalar
reach a level, from the attractor's radius.  All randomness comes from a Philox counter-based
generator, so results are reproducible bit for bit across platforms, thread
counts and block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ifs, shadow
from ._parallel import ordered_map
from .errors import DegenerateSeries, FavlabError
from .ifs import SimilaritySystem

# Needles drawn and descended per block by buffon_estimate.
# 2^13: a level's ~L+6 block-sized arrays fit a 2 MB L2; at 2^16 they spill.
NEEDLE_BLOCK = 1 << 13
# The most needles buffon_estimate draws.  At 0.3-1 us a needle, 2^32 needles
# take up to about an hour, and their standard error is already at most
# 2W/2^17 (W = 1 for every preset); a larger count is refused before any draw.
NEEDLE_TRIAL_CEILING = 1 << 32
# The deepest level buffon_estimate descends to, as the most bits of r^-n.
# Each level divides the residual by r, so rounding grows like r^-n.  At 2^42
# the verdicts on 16,000 random corner4 n=21 needles equal an exact rational
# descent (n=22, 2^44: one differs; n=25: 1 in 400), but 3 of 261 gasket n=26
# needles at the projection's edge x = b, or one ulp above it, differ.  It
# admits gasket n <= 26, corner4 n <= 21 and L = 5 n <= 18.
NEEDLE_PRECISION_BITS = 42
# The smallest piece size root_size * r^n that favard_length admits, 3.7e-9.
# Profile breakpoints merge within shadow.MERGE_TOLERANCE, an absolute 1e-12,
# so smaller pieces lose cells: at 1e-9 random-4-seed3 n=2 is off by 1.6e-6
# relative, at root size 1e-11 gasket n=2 by 0.16; from 2e-9 up a scaled system
# agrees to rounding.  Every preset under the default cap stays above it.
RESOLUTION_FLOOR = 2.0**-28


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
    converged: bool
    grid: int


@dataclass(frozen=True)
class DecayFit:
    params: tuple[float, float]
    residual: float


def _domain(system: SimilaritySystem, grid: int) -> tuple[int, int]:
    """(fold, m): only the modes e^{2ij theta} of g with q | j are nonzero, so
    the grid-interval rule on [0, pi] is q times the M-interval rule on
    [0, pi/q], M = lcm(grid, q)/q, and for even g and even M it is 2q times
    the M/2-interval rule on [0, pi/(2q)].

    A map counts when it sends the centers onto themselves to 1e-12 and keeps
    the root region: any turn for discs, quarter and half turns for squares
    (so q <= 2, and every reflection axis jpi/(2q) keeps the square too).  A
    turn by 2pi/j permutes the outermost centers in orbits of j, so only
    divisors of their count are tried; sets are compared sorted.
    """
    c = system.centers()

    def ordered(z: np.ndarray) -> np.ndarray:
        return z[np.lexsort((np.round(z.imag, 9), np.round(z.real, 9)))]

    def onto(images: np.ndarray) -> bool:
        return bool(np.abs(ordered(images) - ordered(c)).max() <= 1e-12)

    rim = np.count_nonzero(np.abs(c) >= np.abs(c).max() - 1e-12)
    turns = (2, 4) if system.shape == ifs.SQUARE else range(2, system.branching + 1)
    k = max([j for j in turns if rim % j == 0 and onto(np.exp(2j * np.pi / j) * c)], default=1)
    q = k if k % 2 else k // 2
    even = any(onto(np.exp(1j * np.pi * j / q) * c.conj()) for j in range(2 * q))
    m = math.lcm(grid, q) // q
    return (2 * q, m // 2) if even and m % 2 == 0 else (q, m)


def favard_length(
    system: SimilaritySystem,
    depth: int,
    cfg: QuadratureConfig = QuadratureConfig(),
    cap: int = ifs.ENUMERATION_CAP,
    threads: int | None = None,
) -> FavardResult:
    """1/pi times the integral over [0, pi] of the shadow measure at depth n,
    by the rule on [0, pi/fold] from `_domain`; `grid` doubles per round.

    The value is the Richardson step of the last two levels when the solve
    converges, and the last trapezoid sum when it stops at refinement_limit.
    A depth with pieces below RESOLUTION_FLOOR raises FavlabError (after the cap check).
    """
    ifs.check_cap(system, depth, cap)
    size = system.root_size * system.ratio**depth
    if size < RESOLUTION_FLOOR:
        raise FavlabError(f"depth {depth}: piece size {size:.3g} < floor {RESOLUTION_FLOOR:.3g}")

    def g(theta: float) -> float:
        return shadow.support_measure(shadow.multiplicity(system, depth, theta, cap))

    fold, m = _domain(system, cfg.grid_size)
    grid = cfg.grid_size
    span = np.pi / fold
    thetas = np.linspace(0.0, span, m + 1)
    vals = np.array(ordered_map(g, thetas, threads))
    h = span / m
    total = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
    prev = total
    err = np.inf
    converged = False
    for _ in range(cfg.refinement_limit):
        mids = thetas[:-1] + h / 2.0
        mid_vals = np.array(ordered_map(g, mids, threads))
        total = 0.5 * total + (h / 2.0) * mid_vals.sum()
        thetas = np.sort(np.concatenate([thetas, mids]))
        grid *= 2
        h /= 2.0
        err = abs(total - prev)
        if err < cfg.target_rel_error * max(abs(total), 1e-300):
            converged = True
            break
        prev = total
    # Richardson step for the trapezoid pair (halved step): (4 T_2 - T_1) / 3.
    value = (4.0 * total - prev) / 3.0 if np.isfinite(err) else total
    return FavardResult(
        value=float(fold * value / np.pi),
        error_estimate=float(fold * err / np.pi),
        converged=converged,
        grid=grid,
    )


def _hits_batch(
    system: SimilaritySystem, depth: int, thetas: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Vectorized needle test for arrays of (theta, x) pairs.

    Each kept needle projects the L centers once, p_l = cos(theta) Re c_l +
    sin(theta) Im c_l.  A node at level k then carries only its scaled
    residual u = (x - proj(node)) / r^k; its child l has d = u - p_l and
    carries d / r, which stays O(1) at every depth.  A last-level child
    survives when |d| <= reach = root_size * r * width (width 1 for a disc,
    |cos| + |sin| per needle for a square); one OR over the L children marks
    the needles that keep one.

    A disc child with m levels below it is pruned by the attractor's radius.
    With rho = max|c_l| and R = root_size its depth-n descendants project
    within r b_m of it in its parent's units, b_m = rho (1 - r^m) / (1 - r)
    + R r^m, so it must pass |d| <= min(reach, r (b_m + s)), one scalar a
    level, and the root |x| <= min(R, b_n + s) before the trig (a square
    |x| <= R sqrt(2) (1 + 2^-36), then R width); b_0 = R, so the last level
    tests as before.  The slack s = 2^-36 A / (1 - r), A = max(R, rho / (1 - r)),
    keeps the verdicts of the reach-only descent.  Along a chain that descent
    accepts each |d_j| <= reach, and d_{j-1} = r (d_j / (1 + beta) + p_j) /
    (1 + alpha) with |alpha|, |beta| <= u = 2^-53; unrolled from the last
    level, |d_0| exceeds r b_m by at most r u (2 rho / (1 - r)^2 + 16 rho /
    (1 - r) + (1 + 2 m r^m) R) (2ju on the j-th term, 16u on |p_l| for the
    trig, m r^m <= 1 / (e (1 - r))).  That is below 20 r u A / (1 - r) =
    r s / 6500, which also covers the rounding of the band itself.

    Survivors by `nonzero`, gathers by `take`, differences and the division
    by r in place; a block whose needles all pass the root is read in place.
    """
    square = system.shape == ifs.SQUARE
    r, size, centers = system.ratio, system.root_size, system.centers()
    rho = float(np.abs(centers).max())
    slack = 2.0**-36 * max(size, rho / (1.0 - r)) / (1.0 - r)
    band = [rho * (1.0 - r**m) / (1.0 - r) + size * r**m + slack for m in range(depth + 1)]
    root = size * math.sqrt(2.0) * (1.0 + 2.0**-36) if square else min(size, band[-1])
    alive = np.abs(xs) <= root
    # tid maps each kept needle to its index; None reads the block in place.
    tid = None if alive.all() else alive.nonzero()[0]
    if tid is not None:
        thetas, xs = thetas.take(tid), xs.take(tid)
    cos, sin = np.cos(thetas), np.sin(thetas)
    proj = [cos * c.real + sin * c.imag for c in centers]
    widths = np.abs(cos) + np.abs(sin) if square else 1.0
    reach = size * r * widths
    got = np.full(xs.size, depth == 0)
    # Level 0 reads xs, proj and reach in place; then pos maps each survivor
    # to its kept needle.  Survivors by nonzero plus take gathers: at 8,000
    # nodes a boolean-mask compression of these dense, unpredictable masks
    # takes 23 us, nonzero 7 us and each take 2 us.
    u, pos = xs, None
    for below in range(depth - 1, -1, -1):
        if square:
            near = reach if pos is None else reach.take(pos)
        else:
            near = min(reach, r * band[below])
        ds, ps, keep = [], [], np.zeros(u.size, dtype=bool)
        for p in proj:
            if pos is None:
                d = u - p
            else:
                d = p.take(pos)
                np.subtract(u, d, out=d)
            if below == 0:
                keep |= np.abs(d, out=d) <= near
                continue
            k = (np.abs(d) <= near).nonzero()[0]
            ps.append(k if pos is None else pos.take(k))
            ds.append(d.take(k))
        if below == 0:
            k = keep.nonzero()[0]
            got[k if pos is None else pos.take(k)] = True
            break
        pos = np.concatenate(ps)
        if pos.size == 0:
            break
        u = np.concatenate(ds)
        np.divide(u, r, out=u)
    if square:
        got &= np.abs(xs) <= size * widths
    if tid is None:
        return got
    alive[tid] = got
    return alive


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
) -> tuple[float, float]:
    """Monte Carlo shadow-average: theta ~ U[0, pi), x ~ U[-W, W].

    The window W = max(1, r) holds every root shadow: r is the root radius
    of a disc system, or sqrt(2) times the root half-side of a square one
    (its diagonal shadow).  W is 1 for every preset.  Returns (estimate,
    stderr); the estimate is 2W * hit fraction, the stderr 2W times the
    binomial standard error.  Deterministic for a fixed seed.  No pieces
    are enumerated, so no piece cap applies; a depth with r^-n above
    2^NEEDLE_PRECISION_BITS is refused before any draw.
    """
    if trials < 1:
        raise FavlabError("trials must be at least 1")
    if trials > NEEDLE_TRIAL_CEILING:
        raise FavlabError(f"trials {trials} exceeds the needle ceiling {NEEDLE_TRIAL_CEILING}")
    if seed < 0:
        raise FavlabError(f"seed {seed} is negative")
    if depth < 0:
        raise FavlabError(f"depth {depth} is negative")
    # depth * log2(1/r) > bits, divided through so that no depth overflows.
    if depth > NEEDLE_PRECISION_BITS / -math.log2(system.ratio):
        raise FavlabError(
            f"depth {depth} exceeds the needle precision ceiling r^-n <= 2^{NEEDLE_PRECISION_BITS}"
        )
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
        return DecayFit(params=(c, float(np.min(ratio))), residual=resid)
    else:
        raise FavlabError(f"unknown decay model {model!r}")
    a = np.column_stack([np.ones_like(design), -design])
    coef, *_ = np.linalg.lstsq(a, logv, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - logv) ** 2)))
    return DecayFit(params=(float(np.exp(coef[0])), float(coef[1])), residual=resid)
