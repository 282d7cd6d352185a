"""Combinatorial stacking checks on multiplicity profiles.

Level sets of the maximal profile drive two empirical reports: the product
inequality for stacked level sets, and the scan for directions whose
high-multiplicity set is abnormally small, which also reads the L2 norms of
the profiles along those directions.  The scan reads most verdicts from the
level sets of the single-depth profiles, whose measures bound the maximal
profile's from both sides, and builds a deeper profile or the maximal
profile only where those bounds leave the verdict open.  The depth
bootstrap follows the decay of the shadow measure through the support
recursion alone.  A fourth scan measures the set of directions where the
medium-frequency block of the transform product stays large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ifs, shadow
from .errors import FavlabError, SpecInvalid
from .ifs import SimilaritySystem
from .spectral import SLOPE_FREE, ProductSpec, TForm, check_scale


@dataclass(frozen=True)
class ProductCheckReport:
    worst_ratio: float
    worst_at: tuple[float, int, int] | None
    checked: int


@dataclass(frozen=True)
class EScanReport:
    membership: tuple[bool, ...]
    measure_estimate: float
    l2_ratios: tuple[tuple[float, float], ...]  # (theta, max_n ||f_n||^2 / K) per member


@dataclass(frozen=True)
class BootstrapReport:
    depths: tuple[int, ...]
    measures: tuple[float, ...]
    geom_a: float
    geom_rho: float
    residual: float


@dataclass(frozen=True)
class BadDirectionReport:
    offenders: tuple[bool, ...]
    h_measure: float
    bound: float


# Endpoint events of the directions whose profiles are built at once.
SCAN_EVENTS = 1 << 16


def _grid(
    system: SimilaritySystem, N: int, levels: Sequence[int], theta_grid: Sequence[float], cap: int
) -> tuple[tuple[float, ...], int]:
    """(thetas, chunk): the grid as floats, and the directions per chunk,
    whose depth-N events number about SCAN_EVENTS (at least one direction).

    Depth 0 is the root shadow and would make the K = 1 case vacuous, so N
    must be at least 1, as must every level K.
    """
    if N < 1:
        raise FavlabError(f"depth N must be at least 1, got {N}")
    if any(k < 1 for k in levels):
        raise FavlabError("K must be at least 1")
    thetas = tuple(float(t) for t in theta_grid)
    if not thetas:
        raise FavlabError("theta grid must be nonempty")
    # Depth by depth, so that the first depth over the cap names itself.
    pieces = max(ifs.check_cap(system, n, cap) for n in range(1, N + 1))
    return thetas, max(1, SCAN_EVENTS // (2 * pieces))


def product_inequality_report(
    system: SimilaritySystem,
    max_depth: int,
    theta_grid: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    cap: int = ifs.ENUMERATION_CAP,
) -> ProductCheckReport:
    """Measure |{f* > 4KM}| against K |{f* > K}| |{f* > M}| per direction.

    Level sets use the strict inequality: profile values are integers, so
    {f* > K} is {f* >= K + 1}.  A pair whose stacked set is empty passes
    vacuously (ratio 0); one over an empty denominator is skipped.  The report
    holds the largest ratio, the first direction and pair that reach it (None
    if none exceeds 0) and the count of checked pairs, all read in the one
    pass that builds each direction's profiles of depths 1..N once:
    `shadow.multiplicities` builds each depth's profiles for a chunk of
    directions (see `_grid`), read in grid order.
    """
    pairs = tuple((int(k), int(m)) for k, m in pairs)
    stacked = sorted({lv for k, m in pairs for lv in (k, m, 4 * k * m)})
    levels = [level for pair in pairs for level in pair]
    thetas, chunk = _grid(system, max_depth, levels, theta_grid, cap)
    worst, worst_at, checked = 0.0, None, 0
    for lo in range(0, len(thetas), chunk):
        part = thetas[lo : lo + chunk]
        by_depth = [shadow.multiplicities(system, n, part, cap) for n in range(1, max_depth + 1)]
        for theta, profiles in zip(part, zip(*by_depth)):
            fstar = shadow.pointwise_max(profiles)
            above = {lv: shadow.level_measure(fstar, lv + 1) for lv in stacked}
            for k, m in pairs:
                big, fk, fm = above[4 * k * m], above[k], above[m]
                if big == 0.0:
                    ratio = 0.0
                elif fk <= 0.0 or fm <= 0.0:
                    continue
                else:
                    ratio = big / (k * fk * fm)
                checked += 1
                if ratio > worst:
                    worst, worst_at = ratio, (theta, k, m)
        del by_depth, profiles, fstar  # free this chunk's profiles before the next chunk is built
    return ProductCheckReport(worst_ratio=worst, worst_at=worst_at, checked=checked)


def e_scan(
    system: SimilaritySystem,
    N: int,
    K: int,
    theta_grid: Sequence[float],
    k_exponent: float = 3.0,
    cap: int = ifs.ENUMERATION_CAP,
) -> EScanReport:
    """Per-direction membership in the exceptional set, its grid measure, and
    the L2 ratios along it.

    A direction is exceptional when the measure of {f* >= K}, f* the maximum
    of the profiles f_n of depths 1..N, is at most cut = K^(-k_exponent), as
    `shadow.level_measure(shadow.pointwise_max(profiles), K)` reads it.  Each
    member also records max_n ||f_n||^2 / K.  A cut past the float range is
    refused before any profile is built, by the log2 test of
    `spectral.check_scale`.

    The verdict is read from the levels l_n = |{f_n >= K}| where it can.
    {f* >= K} is the union of the {f_n >= K}, so max_n l_n <= |{f* >= K}|
    <= sum_n l_n.  `pointwise_max` departs from the exact maximum by its
    cluster rule: a cluster of k merged breakpoints spans at most (k - 1)
    MERGE_TOLERANCE, and reading every profile at the midpoints between
    cluster starts misreads at most twice a cluster's span, so at most
    2 MERGE_TOLERANCE per breakpoint, over the at most B = sum_n 2 L^n
    breakpoints of the profiles.  Every breakpoint lies within R =
    max|c_l| / (1 - r) + 2 root_size of 0, and the rounding of midpoints,
    gaps, cell lengths and sums moves each measure by under 2^-46 R B.  The
    band delta = B (4 MERGE_TOLERANCE + 2^-40 R) covers both with room to
    spare, so a direction with some l_n > cut + delta is out and builds no
    deeper profile, one with sum_n l_n + delta < cut is a member, and only a
    direction between the two builds f*: each verdict is the one f* gives.
    Directions are walked in the chunks of `_grid`, depth by depth, and a
    member keeps its N profiles for its ratio.
    """
    if K < 1:
        raise FavlabError("K must be at least 1")
    if max(1.0, -k_exponent) * math.log2(K) >= 1024:
        raise SpecInvalid(f"cut K^(-k) = {K}^{-k_exponent:g} exceeds the float range")
    cut = float(K) ** (-k_exponent)
    thetas, chunk = _grid(system, N, (K,), theta_grid, cap)
    reach = float(np.abs(system.centers()).max()) / (1.0 - system.ratio) + 2.0 * system.root_size
    breakpoints = 2 * sum(system.branching**n for n in range(1, N + 1))
    delta = breakpoints * (4.0 * shadow.MERGE_TOLERANCE + 2.0**-40 * reach)
    member = [False] * len(thetas)
    l2_ratios = []
    for lo in range(0, len(thetas), chunk):
        undecided = {i: [] for i in range(lo, min(lo + chunk, len(thetas)))}
        sums = dict.fromkeys(undecided, 0.0)
        for n in range(1, N + 1):
            if not undecided:
                break
            built = shadow.multiplicities(system, n, [thetas[i] for i in undecided], cap)
            for i, f in zip(list(undecided), built):
                level = shadow.level_measure(f, K)
                if level > cut + delta:
                    del undecided[i]
                else:
                    undecided[i].append(f)
                    sums[i] += level
        for i, profiles in undecided.items():
            if sums[i] + delta < cut or (
                shadow.level_measure(shadow.pointwise_max(profiles), K) <= cut
            ):
                member[i] = True
                l2_ratios.append((thetas[i], max(shadow.l2_norm_sq(f) for f in profiles) / K))
        del undecided, built  # free this chunk's profiles before the next chunk is built
    span = max(thetas) - min(thetas) if len(thetas) > 1 else 0.0
    return EScanReport(
        membership=tuple(member),
        measure_estimate=float(span * sum(member) / len(member)),
        l2_ratios=tuple(l2_ratios),
    )


_RHO_GRID = np.linspace(0.001, 0.999, 999)


def _screen_residuals(ls: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """RMS residual of the two-column fit at every grid rho, in one array pass.

    Gram-Schmidt on the columns (tail, then geom) rather than normal
    equations: at rho = 0.001 the tail column spans 1e-3 down to 1e-3^l,
    which squaring would push below the round-off of the geom column.
    With l_max = 1 the columns are parallel and every residual is nan.
    """
    tail = _RHO_GRID[:, None] ** ls
    geom = (1.0 - tail) / (1.0 - _RHO_GRID[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = tail / np.linalg.norm(tail, axis=1)[:, None]
        g_perp = geom - np.sum(geom * u, axis=1)[:, None] * u
        v = g_perp / np.linalg.norm(g_perp, axis=1)[:, None]
        r = ys - (u @ ys)[:, None] * u
        r -= np.sum(r * v, axis=1)[:, None] * v
    return np.sqrt(np.mean(r * r, axis=1))


def _fit_geometric(ls: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least squares for y_l ~ a (1-rho^l)/(1-rho) + b rho^l over rho in (0,1).

    rho is scanned on a 999-point grid; returns (a, rho, rms residual) of the
    first candidate with the smallest residual.  Screen, then confirm: one
    array pass computes every candidate's residual in closed form, and the
    per-candidate lstsq step runs, in grid order, only on the rho screened
    within a margin of the screened minimum (plus any screened as nan).

    The pick equals that of lstsq on the whole grid whenever every screened
    residual s is within margin/2 of the lstsq residual e: the first argmin
    i* of e then has s[i*] < e[i*] + margin/2 <= min e + margin/2 < min s +
    margin, so i* and every tie with it are confirmed.  Both are stable
    solves, and for l_max <= 64 the design's condition number is at most
    8.1e3 (at rho = 0.001), so s and e differ by about 1e-11 * max|y| at
    most, against a margin of 1e-9 * max(1, max|y|).  l_max stays that
    small unless the cap is raised past 2^64: bootstrap_report refuses a
    deepest depth N*l_max whose L^(N*l_max) pieces exceed the cap, which at
    the default 2^26 admits l_max <= 26.  Data the model fits exactly at
    many rho (l_max <= 2, zero or constant series) confirm every candidate
    and cost what the full loop costs.
    """
    screened = _screen_residuals(ls, ys)
    margin = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
    lowest = np.min(screened, initial=math.inf, where=np.isfinite(screened))
    best = (0.0, 0.5, math.inf)
    for rho in _RHO_GRID[~(screened > lowest + margin)]:
        tail = rho**ls
        geom = (1.0 - tail) / (1.0 - rho)
        design = np.column_stack([geom, tail])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        fit = design @ coef
        resid = float(np.sqrt(np.mean((fit - ys) ** 2)))
        if resid < best[2]:
            best = (float(coef[0]), float(rho), resid)
    return best


def bootstrap_report(
    system: SimilaritySystem,
    theta: float,
    base_depth: int,
    l_max: int,
    cap: int = ifs.ENUMERATION_CAP,
) -> BootstrapReport:
    """Shadow measures at depths l*N for l = 1..l_max, with a two-term fit.

    Every depth's measure comes from one `shadow.support_unions` recursion
    to depth N*l_max, which enumerates no pieces; the cap still bounds that
    depth, as it bounds the recursion's component count.  The fitted model
    is a geometric series plus an exponential remainder, the shape produced
    by iterating the one-step covering estimate.
    """
    if base_depth < 1:
        raise FavlabError(f"base depth N must be at least 1, got {base_depth}")
    if l_max < 1:
        raise FavlabError("l_max must be at least 1")
    ifs.check_cap(system, base_depth * l_max, cap)
    depths = tuple(l * base_depth for l in range(1, l_max + 1))
    supports = shadow.support_unions(system, depths[-1], theta)
    measures = tuple(supports[d].measure for d in depths)
    ls = np.arange(1, l_max + 1, dtype=float)
    ys = np.array(measures) / max(measures[0], 1e-300)
    a, rho, resid = _fit_geometric(ls, ys)
    return BootstrapReport(depths=depths, measures=measures, geom_a=a, geom_rho=rho, residual=resid)


# Grid points of the bad-direction scan held at once.
SCAN_BLOCK = 1 << 13
_MAX_X_GRID = 2_000_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _scales(branching: int, ell: int, ys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The arguments z = L^j y for j = 1..ell, each with the slope-free terms at z."""
    zs = [float(branching) ** j * ys for j in range(1, ell + 1)]
    return [(z, SLOPE_FREE(z)) for z in zs]


def _survivors(tform: TForm, scales, ys: np.ndarray, t: float, thr: float):
    """(positions, products): the points of ys where no partial product of
    prod_{j=1..ell} phi_t(L^j y) is at most thr (1 - 1e-9), and the whole
    product there.  Slope t continues the slope-free terms of each scale with
    its own, in the order of `TForm.poly`, at the points still alive."""
    terms = tform.slope_terms(t)
    idx = np.arange(ys.size)
    acc = np.ones(ys.size, dtype=complex)
    for z, head in scales:
        acc *= terms(z[idx], head[idx])
        keep = np.abs(acc) > thr * (1.0 - 1e-9)
        idx, acc = idx[keep], acc[keep]
    return idx, acc


def bad_direction_scan(
    tform: TForm,
    spec: ProductSpec,
    tau: float,
    t_grid: Sequence[float],
    x_grid: int = 0,
) -> BadDirectionReport:
    """Directions where the medium-frequency block exceeds e^(-tau*ell).

    The block prod_{j=1..ell} phi_t(L^j y) is scanned over y in [1, L^m]
    (the x in [L^(n-m), L^n] range collapses to this after rescaling, so the
    scan is depth-independent).  x_grid = 0 picks the density from the
    derivative bound so each cell oscillates by under a tenth of the
    threshold.  The grid is scanned SCAN_BLOCK points at a time, the
    slope-free terms once per scale for all the slopes.

    Only the offenders are decided.  On the real line each factor has
    |phi_t| <= 1 (L unimodular terms over L), and rounding moves a product of
    ell factors by about ell (L + 2) 2^-53 of itself, far below 1e-9; so a
    point whose partial product is at most thr (1 - 1e-9) cannot offend, and
    later scales skip it.  An offending slope skips later blocks, and the scan
    stops once every slope is decided.

    A frequency a + b t of phi_t times an argument L^j y past the float range
    would make the block nan, so such a scan is refused before any block.
    The grid's last point at the last scale is the largest argument, and
    rounding is monotone, so where |a + b t| times it is finite for every
    slope, every product of the scan is.  A nan slope passes the test; its
    block is nan and never offends.
    """
    L = tform.branching
    ts = [float(t) for t in t_grid]
    if not ts:
        raise FavlabError("slope grid must be nonempty")
    # The scanned arguments L^j y reach L^(m+ell).
    check_scale(L, spec.m + spec.ell)
    if -tau * spec.ell > _LOG_FLOAT_MAX:
        raise SpecInvalid(f"threshold e^(-tau*ell) = e^{-tau * spec.ell} exceeds the float range")
    thr = math.exp(-tau * spec.ell)
    y_lo, y_hi = 1.0, float(L) ** spec.m
    if x_grid <= 0:
        slope = sum(
            float(L) ** j * 2.0 for j in range(1, spec.ell + 1)
        )  # crude |d/dy| bound for unit-size frequencies
        cells = (y_hi - y_lo) * slope / (thr / 10.0) if thr / 10.0 > 0.0 else math.inf
        # A bound beyond the float range (inf, or nan from 0 * inf) takes the cap.
        x_grid = int(cells) + 2 if cells < _MAX_X_GRID else _MAX_X_GRID
        x_grid = min(max(x_grid, 1000), _MAX_X_GRID)
    ys = np.linspace(y_lo, y_hi, x_grid)
    top = float(L) ** spec.ell * float(ys[-1]) if spec.ell else 0.0
    for t in ts:
        for a, b in ((1.0, 0.0), (0.0, 1.0), *tform.extra):
            if abs(a + b * t) * top == math.inf:
                raise SpecInvalid(
                    f"frequency a + b t = {a + b * t:.6g} at slope t = {t:g} times the top "
                    f"argument L^ell y = {L}^{spec.ell} * {float(ys[-1]):.6g} "
                    "exceeds the float range"
                )
    offends = [False] * len(ts)
    for lo in range(0, x_grid, SCAN_BLOCK):
        if all(offends):
            break
        block = ys[lo:lo + SCAN_BLOCK]
        scales = _scales(L, spec.ell, block)
        for k, t in enumerate(ts):
            if not offends[k]:
                alive = _survivors(tform, scales, block, t, thr)[1]
                offends[k] = bool(np.any(np.abs(alive) > thr))
    offenders = tuple(offends)
    span = max(t_grid) - min(t_grid) if len(t_grid) > 1 else 0.0
    h_measure = span * sum(offenders) / len(offenders)
    return BadDirectionReport(
        offenders=offenders,
        h_measure=float(h_measure),
        bound=float(L) ** (-spec.ell / 2.0),
    )
