"""Scalar reference implementations kept for the tests.

These are the per-cell and per-pair Python loops that the array code in
`favlab.shadow` replaced, and the per-field CSV writers that the column
writer in `favlab.emit` replaced, the scalar and complex-node needle
tests that the projected-residual descent in `favlab.favard` replaced, the
same descent in exact rational arithmetic (`exact_needle_hits`), and
the full-grid geometric fit that the screened fit in `favlab.stacks`
replaced, the cetsq suite that ran Simpson's rule on every trial where
`favlab.verify` now runs it only where `lemmas.cetsq_bounds` cannot decide, and the trapezoid over all of [0, pi] that the symmetry-domain
quadrature in `favlab.favard` replaced.  The transform layer's loops are
here too: the exponential sum that took an exponential for every term, the
cetsq integrand built as one (samples x frequencies) matrix, the split search
that called f once per candidate line, the bad-direction scan that
evaluated the whole slope form once per slope and took every slope's peak
over the whole grid, the golden-section supremum and the Newton step that
called f at one point at a time, the small-value cover and the box
supremum that evaluated f on their whole grids, the quadrisection that wound
each child contour with its own calls of f, and the circle supremum of the
Blaschke check that evaluated f at all 4096 samples.
They define the expected output: the array versions must return equal
(`==`) results, and the writers equal bytes, on every input.

The library holds interval unions and pieces only as arrays: an
`IntervalUnion` is two float64 arrays lo and hi, and the pieces of a depth
are `ifs.piece_centers` plus `ifs.piece_size`.  The scalar per-object
helpers live only here: `Piece`, `piece_center` and `enumerate_pieces` (one
object per word), `project_piece` (one piece's shadow as a (lo, hi) tuple),
`value_at` (one point's profile value), `values_at` (the profile values at
an array of points, by masks) and `union_contains` (membership of one point
in a union).  `pointwise_max` is the maximum of profiles as the library
took it before it read every profile by one padded lookup: `np.unique` on
the breakpoints and one `values_at` per profile.

The library holds only what its command line, suites and reports call, so
these test-only helpers live here too: `level_intervals` (a level set of a
profile as an interval union), `maximal_profile` (the pointwise maximum of
the profiles at several depths), `ssv_small_points` (the grid points where the
low block P2 dips below a threshold), `theta_to_t` (an angle mapped to a
slope and an x-scale), `derivative_bound` (a derivative bound of an
`ExpPoly` on a horizontal strip) and `alpha` (the ratio ell/m of a
`ProductSpec`).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from favlab import baselines, favard, ifs, lemmas, shadow, spectral, stacks, verify
from favlab.errors import FavlabError
from favlab.ifs import SimilaritySystem
from favlab.shadow import (
    MERGE_TOLERANCE,
    IntervalUnion,
    StepFunction,
)
from favlab.spectral import ExpPoly, ProductSpec


@dataclass(frozen=True)
class Piece:
    """Depth-n image of the root: center, size (radius or half-side), depth."""

    center: complex
    size: float
    depth: int


def piece_center(system: SimilaritySystem, word: Sequence[int]) -> complex:
    """Center of the piece indexed by `word`: sum_k ratio^(k-1) * center_{w_k}.

    Equals the n-fold map composition applied to 0; the empty word gives the
    root center 0.
    """
    L = system.branching
    centers = system.centers()
    z = 0.0 + 0.0j
    scale = 1.0
    for k, letter in enumerate(word):
        if not 0 <= letter < L:
            raise IndexError(f"letter {letter} at position {k} outside [0, {L})")
        z += scale * centers[letter]
        scale *= system.ratio
    return z


def enumerate_pieces(system: SimilaritySystem, depth: int) -> Iterator[Piece]:
    """Yield the L^depth pieces in lexicographic word order, one per word."""
    size = ifs.piece_size(system, depth)
    for word in itertools.product(range(system.branching), repeat=depth):
        yield Piece(center=piece_center(system, word), size=size, depth=depth)


def project_piece(piece: Piece, theta: float, shape: str) -> tuple[float, float]:
    """Shadow (lo, hi) of one piece on the line of angle theta.

    Discs: center +- size.  Squares: center +- size*(|cos| + |sin|), the
    support radius of an axis-parallel square in that direction.
    """
    c = (piece.center * np.exp(-1j * theta)).real
    if shape == ifs.SQUARE:
        half = piece.size * (abs(np.cos(theta)) + abs(np.sin(theta)))
    else:
        half = piece.size
    return c - half, c + half


def value_at(f: StepFunction, x: float) -> int:
    """Profile value at x by a scan over the cells [b_i, b_{i+1}).

    0 outside the hull; the right hull endpoint belongs to the last cell.
    """
    b = f.breakpoints.tolist()
    for i, v in enumerate(f.values.tolist()):
        if b[i] <= x < b[i + 1]:
            return v
    return int(f.values[-1]) if b and x == b[-1] else 0


def values_at(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """Profile values at the given points (0 outside the hull), by masks."""
    xs = np.asarray(xs, dtype=float)
    if f.is_zero:
        return np.zeros(xs.shape, dtype=np.int64)
    idx = np.searchsorted(f.breakpoints, xs, side="right") - 1
    inside = (idx >= 0) & (idx < f.values.size)
    out = np.zeros(xs.shape, dtype=np.int64)
    out[inside] = f.values[idx[inside]]
    # Right hull endpoint belongs to the last cell.
    on_edge = xs == f.breakpoints[-1]
    if np.any(on_edge):
        out[on_edge] = f.values[-1]
    return out


def pointwise_max(profiles: Sequence[StepFunction]) -> StepFunction:
    """The pointwise maximum through `np.unique` and one `values_at` per profile."""
    nonzero = [f for f in profiles if not f.is_zero]
    if not nonzero:
        return StepFunction(np.empty(0), np.empty(0, dtype=np.int64))
    all_bp = np.unique(np.concatenate([f.breakpoints for f in nonzero]))
    keep = np.empty(all_bp.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(all_bp), MERGE_TOLERANCE, out=keep[1:])
    bp = all_bp[keep]
    mids = 0.5 * (bp[:-1] + bp[1:])
    best = np.zeros(mids.size, dtype=np.int64)
    for f in nonzero:
        np.maximum(best, values_at(f, mids), out=best)
    return shadow.step_function(bp, best)


def union_contains(u: IntervalUnion, x: float) -> bool:
    """Does some closed component [lo, hi] of u hold x?"""
    return any(lo <= x <= hi for lo, hi in zip(u.lo.tolist(), u.hi.tolist()))


def step_function(
    breakpoints: Sequence[float],
    values: Sequence[int],
    merge_tolerance: float = MERGE_TOLERANCE,
) -> StepFunction:
    """Canonicalize raw cell data: drop slivers, merge equal neighbors, trim zeros."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=np.int64)
    if bp.size != vals.size + 1 and not (bp.size == 0 and vals.size == 0):
        raise FavlabError("need len(breakpoints) == len(values) + 1")
    if bp.size and np.any(np.diff(bp) < 0):
        raise FavlabError("breakpoints must be nondecreasing")
    out_bp: list[float] = []
    out_vals: list[int] = []
    for i, v in enumerate(vals):
        lo, hi = bp[i], bp[i + 1]
        if not out_vals:
            if hi - lo <= merge_tolerance:
                continue
            out_bp = [lo, hi]
            out_vals = [int(v)]
        elif hi - out_bp[-1] <= merge_tolerance:
            continue
        elif v == out_vals[-1]:
            out_bp[-1] = hi
        else:
            out_bp.append(hi)
            out_vals.append(int(v))
    while out_vals and out_vals[0] == 0:
        out_vals.pop(0)
        out_bp.pop(0)
    while out_vals and out_vals[-1] == 0:
        out_vals.pop()
        out_bp.pop()
    if not out_vals:
        return StepFunction(np.empty(0), np.empty(0, dtype=np.int64))
    b = np.array(out_bp, dtype=float)
    v = np.array(out_vals, dtype=np.int64)
    b.setflags(write=False)
    v.setflags(write=False)
    return StepFunction(b, v)


def from_events(
    positions: np.ndarray,
    deltas: np.ndarray,
    merge_tolerance: float = MERGE_TOLERANCE,
) -> StepFunction:
    """Event sweep with `np.add.at` cluster sums, canonicalized by the loop."""
    if positions.size == 0:
        return StepFunction(np.empty(0), np.empty(0, dtype=np.int64))
    order = np.argsort(positions, kind="stable")
    pos = positions[order]
    del_ = deltas[order]
    fresh = np.empty(pos.size, dtype=bool)
    fresh[0] = True
    np.greater(np.diff(pos), merge_tolerance, out=fresh[1:])
    cluster_id = np.cumsum(fresh) - 1
    bp = pos[fresh]
    delta_per_bp = np.zeros(bp.size, dtype=np.int64)
    np.add.at(delta_per_bp, cluster_id, del_)
    vals = np.cumsum(delta_per_bp)[:-1]
    return step_function(bp, vals, merge_tolerance)


def interval_union(
    raw: Iterable[tuple[float, float]], merge_tolerance: float = MERGE_TOLERANCE
) -> IntervalUnion:
    """Merge arbitrary (lo, hi) pairs into a canonical disjoint union."""
    items = sorted((lo, hi) for lo, hi in raw if hi >= lo)
    merged: list[list[float]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + merge_tolerance:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalUnion(
        np.array([lo for lo, _ in merged], dtype=float),
        np.array([hi for _, hi in merged], dtype=float),
    )


def fmt(x) -> str:
    """One CSV field: floats with 17 significant digits, anything else via str."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def csv_rows(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The whole CSV text, one `fmt` call per field."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_step_csv(stream, f: StepFunction, theta: float, depth: int, label: str) -> None:
    """Profile CSV through `csv.writer`, every breakpoint formatted per row."""
    stream.write(f"# system={label} n={depth} theta={theta:.17g}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["cell_lo", "cell_hi", "value"])
    for i, v in enumerate(f.values):
        writer.writerow(
            [
                format(f.breakpoints[i], ".17g"),
                format(f.breakpoints[i + 1], ".17g"),
                int(v),
            ]
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


def hits_batch(
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


def exact_needle_hits(system: SimilaritySystem, depth: int, theta: float, x: float) -> bool:
    """The projected-residual needle test in exact rational arithmetic.

    The inputs are the floats the array descent starts from, taken as exact
    rationals: np.cos(theta), np.sin(theta), x, the centers, r and root_size.
    A square's width is the exact |cos| + |sin|.  Depth first, a node's scaled
    residual u keeps its child l when |u - p_l| <= root_size * r * width, and
    the child carries (u - p_l) / r; no step rounds.
    """
    cos, sin = Fraction(float(np.cos(theta))), Fraction(float(np.sin(theta)))
    width = abs(cos) + abs(sin) if system.shape == ifs.SQUARE else 1
    size, r = Fraction(system.root_size), Fraction(system.ratio)
    proj = [cos * Fraction(c.real) + sin * Fraction(c.imag) for c in system.centers()]
    u = Fraction(float(x))
    if abs(u) > size * width:
        return False
    reach = size * r * width
    stack = [(0, u)]
    while stack:
        level, u = stack.pop()
        if level == depth:
            return True
        stack += [(level + 1, (u - p) / r) for p in proj if abs(u - p) <= reach]
    return False


def favard_full_domain(
    system: SimilaritySystem, depth: int, cfg: favard.QuadratureConfig
) -> favard.FavardResult:
    """Favard length by the trapezoid on all of [0, pi], whatever the symmetry."""
    ifs.check_cap(system, depth)

    def g(theta: float) -> float:
        return shadow.support_measure(shadow.multiplicity(system, depth, theta))

    m = cfg.grid_size
    thetas = np.linspace(0.0, np.pi, m + 1)
    vals = np.array([g(t) for t in thetas])
    h = np.pi / m
    total = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
    prev = total
    err = np.inf
    converged = False
    for _ in range(cfg.refinement_limit):
        mids = thetas[:-1] + h / 2.0
        mid_vals = np.array([g(t) for t in mids])
        total = 0.5 * total + (h / 2.0) * mid_vals.sum()
        thetas = np.sort(np.concatenate([thetas, mids]))
        m *= 2
        h /= 2.0
        err = abs(total - prev)
        if err < cfg.target_rel_error * max(abs(total), 1e-300):
            converged = True
            break
        prev = total
    value = (4.0 * total - prev) / 3.0 if np.isfinite(err) else total
    return favard.FavardResult(
        value=float(value / np.pi),
        error_estimate=float(err / np.pi),
        converged=converged,
        grid=m,
    )


def fit_geometric(ls: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least squares for y_l ~ a (1-rho^l)/(1-rho) + b rho^l over rho in (0,1).

    rho is scanned on a grid, the amplitudes solve a small linear system per
    candidate; returns (a, rho, rms residual) of the best candidate.
    """
    best = (0.0, 0.5, math.inf)
    for rho in np.linspace(0.001, 0.999, 999):
        tail = rho**ls
        geom = (1.0 - tail) / (1.0 - rho)
        design = np.column_stack([geom, tail])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        fit = design @ coef
        resid = float(np.sqrt(np.mean((fit - ys) ** 2)))
        if resid < best[2]:
            best = (float(coef[0]), float(rho), resid)
    return best


def level_intervals(f: StepFunction, k: int, strict: bool = False) -> IntervalUnion:
    """The level set {f >= k} (or {f > k}) as an interval union."""
    sel = f.values > k if strict else f.values >= k
    return shadow.interval_union(
        np.column_stack((f.breakpoints[:-1][sel], f.breakpoints[1:][sel]))
    )


def maximal_profile(
    system: SimilaritySystem, depths: Iterable[int], theta: float
) -> StepFunction:
    """The pointwise maximum of the multiplicity profiles at the given depths."""
    return shadow.pointwise_max([shadow.multiplicity(system, n, theta) for n in depths])


def ssv_small_points(
    phi: ExpPoly,
    spec: ProductSpec,
    threshold: float,
    grid_size: int,
    focus: Sequence[float] = (),
    focus_halfwidth: float = 0.05,
    focus_points: int = 10000,
) -> np.ndarray:
    """Sample points of I = [L^(n-m), L^n] where |P2| dips below threshold.

    The uniform grid is augmented with dense windows around the given focus
    abscissas (typically certified zero locations), so dips far narrower
    than the global grid step are still detected.
    """
    lo, hi = spectral.low_block_interval(phi, spec)
    parts = [np.linspace(lo, hi, grid_size)]
    for c in focus:
        a = max(lo, c - focus_halfwidth)
        b = min(hi, c + focus_halfwidth)
        if b > a:
            parts.append(np.linspace(a, b, focus_points))
    xs = np.concatenate(parts)
    p2 = spectral._scale_product(phi, range(spec.n - spec.m, spec.n + 1), xs)
    return xs[np.abs(p2) <= threshold]


def theta_to_t(system: SimilaritySystem, theta: float) -> tuple[float, float]:
    """Map an angle to (t, xscale) with |phi_theta(x)| = |phi_t(t, xscale*x)|,
    for the slope form anchored on maps 0, 1 and 2."""
    u = system.branching * system.centers()
    v2 = u[1] - u[0]
    v3 = u[2] - u[0]
    d = np.exp(-1j * theta)
    p2 = (v2 * d).real
    p3 = (v3 * d).real
    if abs(p2) < 1e-14:
        raise FavlabError("direction is orthogonal to the first basis vector")
    return float(p3 / p2), float(-p2)


def derivative_bound(poly: ExpPoly, im_radius: float = 0.0) -> float:
    """Upper bound for |d/dz| of poly on the strip |Im z| <= im_radius."""
    return abs(poly.normalization) * sum(
        abs(c) * abs(lam) * math.exp(abs(lam) * im_radius)
        for lam, c in zip(poly.lambdas, poly.coefficients)
    )


def alpha(spec: ProductSpec) -> float:
    """The block ratio ell/m of a product split (inf when m = 0)."""
    return spec.ell / spec.m if spec.m else math.inf


def exp_poly_loop(poly: ExpPoly, z) -> np.ndarray:
    """`ExpPoly.__call__` with one exponential per term, zero frequencies too."""
    z = np.asarray(z)
    acc = np.zeros(z.shape, dtype=complex)
    for lam, c in zip(poly.lambdas, poly.coefficients):
        acc += c * np.exp(lam * z)
    return poly.normalization * acc


def cetsq_integrand_matrix(freqs: np.ndarray, coeffs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The cetsq integrand |sum_a c_a e^{i a y}|^2 from one full matrix."""
    vals = coeffs[None, :] * np.exp(1j * freqs[None, :] * ys[:, None])
    return np.abs(vals.sum(axis=1)) ** 2


def suite_cetsq(trials: int, seed: int) -> dict:
    """`verify.suite_cetsq` with the Simpson ratio of every trial and of
    both degenerate sets."""
    lhs1, s1, r1 = lemmas.cetsq_ratio([3.0])
    lhsk, sk, rk = lemmas.cetsq_ratio([2.0] * 7)
    degenerate_ok = abs(r1 - 0.5) < 1e-6 and abs(rk - 0.5) < 1e-6
    rng = verify._rng(seed)
    jobs = []
    for _ in range(trials):
        freqs = verify._clustered_frequencies(rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
        jobs.append((freqs, np.exp(1j * phases)))

    def one(job) -> tuple[float, float]:
        freqs, coeffs = job
        lhs, _, ratio = lemmas.cetsq_ratio(freqs, coeffs)
        per_unit = verify._max_per_unit_interval(freqs)
        return ratio, lhs / (freqs.size * per_unit)

    out = [one(job) for job in jobs]
    worst_ratio = max(r for r, _ in out)
    worst_coroll = float(max(c for _, c in out))
    ok = (
        degenerate_ok
        and worst_ratio <= baselines.CETSQ_RATIO_CEILING
        and worst_coroll <= baselines.CET_COROLLARY_CEILING
    )
    return verify._report("cetsq", trials, worst_ratio, ok)


def best_split_loop(f, x0, x1, y0, y1) -> tuple[float, float]:
    """The quadrisection split search with two calls of f per candidate."""
    ts = np.linspace(0.0, 1.0, 33)
    best, best_val = (0.5, 0.5), -1.0
    for frac in (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39, 0.65):
        xm = x0 + frac * (x1 - x0)
        ym = y0 + frac * (y1 - y0)
        vert = xm + 1j * (y0 + ts * (y1 - y0))
        horiz = (x0 + ts * (x1 - x0)) + 1j * ym
        low = float(
            min(np.min(np.abs(np.asarray(f(vert)))), np.min(np.abs(np.asarray(f(horiz)))))
        )
        if low > best_val:
            best_val = low
            best = (frac, frac)
    return best


def medium_product_loop(tform: spectral.TForm, ell: int, t: float, ys: np.ndarray) -> np.ndarray:
    """prod_{j=1..ell} phi_t(L^j y), the whole slope form evaluated per scale."""
    poly = tform.poly(t)
    acc = np.ones_like(ys, dtype=complex)
    for j in range(1, ell + 1):
        acc *= exp_poly_loop(poly, float(tform.branching) ** j * ys)
    return acc


def bad_direction_full_max(
    tform: spectral.TForm, spec: ProductSpec, tau: float, t_grid: Sequence[float], x_grid: int
) -> stacks.BadDirectionReport:
    """The bad-direction report from the peak of each slope's medium block on
    the whole grid: a slope offends when its peak exceeds e^(-tau*ell), and a
    nan anywhere makes the peak nan."""
    thr = math.exp(-tau * spec.ell)
    ys = np.linspace(1.0, float(tform.branching) ** spec.m, x_grid)
    offenders = tuple(
        bool(np.max(np.abs(medium_product_loop(tform, spec.ell, float(t), ys))) > thr)
        for t in t_grid
    )
    span = max(t_grid) - min(t_grid) if len(t_grid) > 1 else 0.0
    return stacks.BadDirectionReport(
        offenders, float(span * sum(offenders) / len(offenders)),
        float(tform.branching) ** (-spec.ell / 2.0),
    )


def supremum_loop(f, lo: float, hi: float) -> float:
    """Max of |f| on [lo, hi]: the grid, then a golden-section search with
    one call of f per point."""
    n = max(9, int(1000.0 * (hi - lo)) + 1)
    xs = np.linspace(lo, hi, n)
    vals = np.abs(np.asarray(f(xs)))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = float(abs(np.asarray(f(np.array([c])))[0]))
    fd = float(abs(np.asarray(f(np.array([d])))[0]))
    for _ in range(60):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = float(abs(np.asarray(f(np.array([d])))[0]))
        else:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = float(abs(np.asarray(f(np.array([c])))[0]))
        if b - a < 1e-13 * max(1.0, abs(b)):
            break
    return max(best, fc, fd)


def newton_polish_loop(f, z0: complex, box_size: float) -> complex | None:
    """The Newton refinement with three one-point calls of f per step."""
    z = complex(z0)
    h = max(box_size * 1e-3, 1e-12)
    for _ in range(60):
        fz = complex(np.asarray(f(np.array([z])))[0])
        if abs(fz) == 0.0:
            return z
        dfz = complex(
            (np.asarray(f(np.array([z + h])))[0] - np.asarray(f(np.array([z - h])))[0])
        ) / (2.0 * h)
        if dfz == 0:
            return None
        step = fz / dfz
        z -= step
        if abs(z - z0) > 4.0 * box_size:
            return None
        if abs(step) < 1e-14 * max(1.0, abs(z)):
            break
        h = max(abs(step) * 1e-2, 1e-13)
    return z


def small_samples_full_grid(f, delta: float, pts: np.ndarray) -> np.ndarray:
    """The samples with |f| < delta, from f on every sample."""
    return pts[np.abs(np.asarray(f(pts))) < delta]


def box_sup_full_grid(f, x0: float, x1: float, y0: float, y1: float, density: float = 60.0) -> float:
    """Max of |f| on a closed box from f on its whole coarse grid, then the
    refined patch around the grid's first maximum."""
    nx = max(9, int(density * (x1 - x0)) + 1)
    ny = max(9, int(density * (y1 - y0)) + 1)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    z = xs[None, :] + 1j * ys[:, None]
    vals = np.abs(np.asarray(f(z.ravel()))).reshape(z.shape)
    j, i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = float(vals[j, i])
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    fx0, fx1 = max(x0, xs[i] - hx), min(x1, xs[i] + hx)
    fy0, fy1 = max(y0, ys[j] - hy), min(y1, ys[j] + hy)
    fxs = np.linspace(fx0, fx1, 33)
    fys = np.linspace(fy0, fy1, 33)
    fz = fxs[None, :] + 1j * fys[:, None]
    return max(best, float(np.max(np.abs(np.asarray(f(fz.ravel()))))))


def doubling_ratio_full_grid(phi: ExpPoly, x_prime: float, k: int = 0) -> float:
    """`lemmas.doubling_ratio` with both box suprema from the whole grid."""
    scale = (1.0 / len(phi.lambdas)) ** k
    poly = ExpPoly(tuple(lam * scale for lam in phi.lambdas), phi.coefficients,
                   phi.normalization)
    half = box_sup_full_grid(poly, x_prime - 0.5, x_prime + 0.5, -0.5, 0.5)
    full = max(box_sup_full_grid(poly, x_prime - 1.0, x_prime + 1.0, -1.0, 1.0), half)
    return full / half


def phase_winding_loop(vals: np.ndarray) -> tuple[bool, float]:
    """Total winding of one closed loop of nonzero values; ok=False if a
    jump exceeds pi/2."""
    args = np.angle(vals)
    d = np.diff(np.concatenate([args, args[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return bool(np.max(np.abs(d)) < 0.5 * np.pi), float(d.sum() / (2.0 * np.pi))


def winding_on_loop(f, loop, boundary_tol: float = 0.0) -> int:
    """`lemmas._winding_on_loop` on one loop at a time."""
    n = 64
    while n <= 1 << 16:
        vals = np.asarray(f(loop(np.arange(n) / n)))
        low = float(np.min(np.abs(vals)))
        if low <= boundary_tol or low == 0.0:
            raise lemmas.ContourThroughZero("contour passes too close to a zero")
        ok, w = phase_winding_loop(vals)
        if ok:
            k = round(w)
            if abs(w - k) > 0.05:
                raise FavlabError(f"winding {w} is not close to an integer")
            return int(k)
        n *= 2
    raise lemmas.ContourThroughZero("phase steps stay too large; zero on contour?")


def rect_loop(x0, x1, y0, y1):
    """The perimeter of one box, parameterized by arc fraction, counterclockwise."""
    def loop(s: np.ndarray) -> np.ndarray:
        w, h = x1 - x0, y1 - y0
        d = s * (2.0 * (w + h))
        out = np.empty(d.shape, dtype=complex)
        m1 = d < w
        m2 = (d >= w) & (d < w + h)
        m3 = (d >= w + h) & (d < 2 * w + h)
        m4 = d >= 2 * w + h
        out[m1] = x0 + d[m1] + 1j * y0
        out[m2] = x1 + 1j * (y0 + (d[m2] - w))
        out[m3] = x1 - (d[m3] - w - h) + 1j * y1
        out[m4] = x0 + 1j * (y1 - (d[m4] - 2 * w - h))
        return out

    return loop


def localize_per_child(f, x0, x1, y0, y1, tol, out: list, depth: int = 0) -> None:
    """The quadrisection in which every box winds its own contour."""
    w = winding_on_loop(f, rect_loop(x0, x1, y0, y1))
    if w == 0:
        return
    size = max(x1 - x0, y1 - y0)
    if size <= tol:
        out.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), w))
        return
    if w == 1 and size < 0.02:
        z = lemmas._newton_polish(f, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), size)
        if (
            z is not None
            and x0 - tol <= z.real <= x1 + tol
            and y0 - tol <= z.imag <= y1 + tol
            and abs(np.asarray(f(np.array([z])))[0]) < lemmas.RESIDUAL_TOLERANCE
        ):
            out.append((z, 1))
            return
    if depth > 80:
        raise lemmas.ContourThroughZero("quadrisection failed to separate zeros")
    fx, fy = lemmas._best_split(f, x0, x1, y0, y1)
    xm = x0 + fx * (x1 - x0)
    ym = y0 + fy * (y1 - y0)
    localize_per_child(f, x0, xm, y0, ym, tol, out, depth + 1)
    localize_per_child(f, xm, x1, y0, ym, tol, out, depth + 1)
    localize_per_child(f, x0, xm, ym, y1, tol, out, depth + 1)
    localize_per_child(f, xm, x1, ym, y1, tol, out, depth + 1)


def box_zeros_per_child(f, x0: float, x1: float, y0: float, y1: float, tol: float) -> list:
    """`lemmas._box_zeros` through `localize_per_child`."""
    found: list[tuple[complex, int]] = []
    localize_per_child(f, x0, x1, y0, y1, tol, found)
    kept: list[tuple[complex, int]] = []
    for z, m in found:
        for i, (zk, mk) in enumerate(kept):
            if abs(z - zk) <= 10.0 * tol:
                kept[i] = (zk, max(mk, m))
                break
        else:
            kept.append((z, m))
    return [z for z, m in kept for _ in range(m)]


def blaschke_check_full_circle(f) -> lemmas.BlaschkeReport:
    """`lemmas.blaschke_check` with the supremum from f at every circle sample."""
    base = float(abs(np.asarray(f(np.array([0.0 + 0.0j])))[0]))
    if base < 1.0:
        raise lemmas.PreconditionUnmet(f"|f(0)| = {base} < 1")
    m = len(lemmas.count_zeros(f, 0.0, 0.5).zeros)
    sup = max(float(np.max(np.abs(np.asarray(f(lemmas._CIRCLE))))), base)
    return lemmas.BlaschkeReport(m, sup, math.log2(sup))
