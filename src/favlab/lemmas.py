"""Verification toolbox for the analysis layer.

Argument-principle zero counting with quadrisection localization, the
Blaschke-type zero/sup bound, the small-value neighborhood cover, Turan-type
supremum ratios for exponential sums, box doubling ratios, and the
frequency-cluster L2 bound.  Everything works on plain callables
f(np.ndarray[complex]) -> np.ndarray[complex]; ExpPoly instances qualify.

An ExpPoly gives a point the same bits in any batch, so the cover, the box
suprema and the Blaschke circle supremum evaluate it only in the grid blocks or
arcs that a derivative bound cannot rule out, golden-section suprema run in
lockstep and a Newton step makes one call; each keeps its abs() or np.abs,
which can differ in the last bit.  Any f winds the four child contours of a
quadrisection split from one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import shadow
from .errors import (
    ContourThroughZero,
    DeltaOutOfRange,
    FavlabError,
    PreconditionUnmet,
)
from .shadow import IntervalUnion, interval_union
from .spectral import ExpPoly, ProductSpec, check_scale, simpson

ZERO_TOLERANCE = 1e-9
RESIDUAL_TOLERANCE = 1e-6
BOUNDARY_TOLERANCE = 1e-6
MAX_JITTER_ATTEMPTS = 8
# Rows of the cetsq integrand (samples x frequencies) built at once.
CETSQ_BLOCK = 1024


@dataclass(frozen=True)
class ZeroCertificate:
    """The zeros of f on a disc, each repeated by its multiplicity; their
    count equals the winding number of f around the disc's circle."""

    zeros: tuple[complex, ...]


def _phase_winding(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total winding of each closed loop of nonzero values (the last axis);
    ok=False where jumps exceed pi/2 (sampling too coarse to trust)."""
    args = np.angle(vals)
    d = np.diff(args, append=args[..., :1])
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return np.max(np.abs(d), axis=-1) < 0.5 * np.pi, d.sum(axis=-1) / (2.0 * np.pi)


def _winding_on_loop(
    f: Callable, loop: Callable[[np.ndarray], np.ndarray], boundary_tol: float = 0.0
) -> int:
    """Winding number of f along a closed loop.

    Samples are doubled until every phase step is below pi/2; an exact zero
    on the contour, a value below boundary_tol, or failure to settle raises
    ContourThroughZero.
    """
    n = 64
    while n <= 1 << 16:
        pts = loop(np.arange(n) / n)
        vals = np.asarray(f(pts))
        low = float(np.min(np.abs(vals)))
        if low <= boundary_tol or low == 0.0:
            raise ContourThroughZero("contour passes too close to a zero")
        ok, w = _phase_winding(vals)
        if ok:
            w = float(w)
            k = round(w)
            if abs(w - k) > 0.05:
                raise FavlabError(f"winding {w} is not close to an integer")
            return int(k)
        n *= 2
    raise ContourThroughZero("phase steps stay too large; zero on contour?")


def _rect_loops(boxes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The perimeter of each box (rows x0, x1, y0, y1) at arc fractions s,
    counterclockwise from (x0, y0): one row of points per box."""
    x0, x1, y0, y1 = boxes.T[:, :, None]
    w, h = x1 - x0, y1 - y0
    d = s * (2.0 * (w + h))
    out = np.empty(d.shape, dtype=complex)
    m1 = d < w
    m2 = (d >= w) & (d < w + h)
    m3 = (d >= w + h) & (d < 2 * w + h)
    m4 = d >= 2 * w + h
    out[m1] = (x0 + d + 1j * y0)[m1]
    out[m2] = (x1 + 1j * (y0 + (d - w)))[m2]
    out[m3] = (x1 - (d - w - h) + 1j * y1)[m3]
    out[m4] = (x0 + 1j * (y1 - (d - 2 * w - h)))[m4]
    return out


def _rect_winding(f, x0, x1, y0, y1) -> int:
    box = np.array([[x0, x1, y0, y1]], dtype=float)
    return _winding_on_loop(f, lambda s: _rect_loops(box, s)[0])


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39, 0.65)


def _best_split(f, x0, x1, y0, y1) -> tuple[float, float]:
    """Pick the quadrisection cross whose lines stay farthest from zeros.

    One call of f samples all the candidate crosses, 33 points per line; the
    first cross with the largest minimum of |f| wins.
    """
    ts = np.linspace(0.0, 1.0, 33)
    fracs = np.array(_SPLIT_FRACTIONS)[:, None]
    xm = x0 + fracs * (x1 - x0)
    ym = y0 + fracs * (y1 - y0)
    vert = xm + 1j * (y0 + ts * (y1 - y0))
    horiz = (x0 + ts * (x1 - x0)) + 1j * ym
    lines = np.stack([vert, horiz], axis=1)
    lows = np.min(np.abs(np.asarray(f(lines.ravel()))).reshape(lines.shape), axis=2)
    best, best_val = (0.5, 0.5), -1.0
    for frac, (low_vert, low_horiz) in zip(_SPLIT_FRACTIONS, lows.tolist()):
        low = min(low_vert, low_horiz)
        if low > best_val:
            best_val = low
            best = (frac, frac)
    return best


def _newton_polish(f, z0: complex, box_size: float) -> complex | None:
    """Refine a simple zero by Newton steps with a numeric derivative."""
    z = complex(z0)
    h = max(box_size * 1e-3, 1e-12)
    for _ in range(60):
        fz, fp, fm = map(complex, np.asarray(f(np.array([z, z + h, z - h]))))
        if abs(fz) == 0.0:
            return z
        dfz = (fp - fm) / (2.0 * h)
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


def _localize(f, x0, x1, y0, y1, w: int, tol, out: list, depth: int = 0):
    """Recursive quadrisection of a box of winding w: push (zero,
    multiplicity) pairs into out.

    Split lines are chosen per box to stay away from zeros.  The four child
    contours take one call of f at 64 samples each; a child whose samples
    touch a zero, do not settle or wind to no integer winds alone at its turn.
    """
    if w == 0:
        return
    size = max(x1 - x0, y1 - y0)
    if size <= tol:
        out.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), w))
        return
    if w == 1 and size < 0.02:
        z = _newton_polish(f, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), size)
        if (
            z is not None
            and x0 - tol <= z.real <= x1 + tol
            and y0 - tol <= z.imag <= y1 + tol
            and abs(np.asarray(f(np.array([z])))[0]) < RESIDUAL_TOLERANCE
        ):
            out.append((z, 1))
            return
    if depth > 80:
        raise ContourThroughZero("quadrisection failed to separate zeros")
    fx, fy = _best_split(f, x0, x1, y0, y1)
    xm = x0 + fx * (x1 - x0)
    ym = y0 + fy * (y1 - y0)
    kids = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
    vals = np.asarray(f(_rect_loops(np.array(kids), np.arange(64) / 64).ravel())).reshape(4, 64)
    ok, ws = _phase_winding(vals)
    ks = np.round(ws)
    sure = ok & (np.min(np.abs(vals), axis=1) > 0.0) & (np.abs(ws - ks) <= 0.05)
    for kid, k, settled in zip(kids, ks.tolist(), sure.tolist()):
        _localize(f, *kid, int(k) if settled else _rect_winding(f, *kid), tol, out, depth + 1)


def _box_zeros(f, x0: float, x1: float, y0: float, y1: float, tol: float) -> list[complex]:
    """The zeros of f in the box, repeated by multiplicity; a zero within
    10 tol of an earlier one merges into it with the larger multiplicity."""
    found: list[tuple[complex, int]] = []
    _localize(f, x0, x1, y0, y1, _rect_winding(f, x0, x1, y0, y1), tol, found)
    kept: list[tuple[complex, int]] = []
    for z, m in found:
        for i, (zk, mk) in enumerate(kept):
            if abs(z - zk) <= 10.0 * tol:
                kept[i] = (zk, max(mk, m))
                break
        else:
            kept.append((z, m))
    return [z for z, m in kept for _ in range(m)]


def zeros_in_rect(
    f,
    x0: float,
    x1: float,
    y0: float,
    y1: float,
    zero_tol: float = ZERO_TOLERANCE,
) -> list[complex]:
    """All zeros of f in the rectangle, localized to zero_tol (with multiplicity).

    The rectangle is padded slightly (retrying a few pad sizes if a zero sits
    on the boundary), so zeros marginally outside may be reported too.
    A sum's double zero (corner4's at pi/4) raises ContourThroughZero: |f| there is noise.
    """
    last: Exception | None = None
    for k in range(MAX_JITTER_ATTEMPTS):
        pad = (0.0031 + 0.0097 * k) * max(x1 - x0, y1 - y0)
        try:
            return _box_zeros(f, x0 - pad, x1 + pad, y0 - pad, y1 + pad, zero_tol)
        except ContourThroughZero as exc:
            last = exc
    raise ContourThroughZero(f"no admissible rectangle after padding: {last}")


def count_zeros(f, center: complex, radius: float, jitter_sign: int = -1) -> ZeroCertificate:
    """The zeros on the disc |z - center| < radius, localized by quadrisection
    and checked against the argument-principle count.

    If the circle runs too close to a zero the radius is nudged by up to
    MAX_JITTER_ATTEMPTS steps of 0.2% in the direction of jitter_sign
    (inward by default, so the count never gains spurious boundary zeros).
    """
    center = complex(center)
    last_exc: Exception | None = None
    for attempt in range(MAX_JITTER_ATTEMPTS):
        r = radius * (1.0 + jitter_sign * 0.002 * attempt)
        try:
            m = _winding_on_loop(f, lambda s: center + r * np.exp(2j * np.pi * s),
                                 BOUNDARY_TOLERANCE)
            pad = r * 0.0137
            x0, x1 = center.real - r - pad, center.real + r + pad
            y0, y1 = center.imag - r - pad, center.imag + r + pad
            found = _box_zeros(f, x0, x1, y0, y1, ZERO_TOLERANCE)
            zeros = [z for z in found if abs(z - center) <= r * (1.0 + 1e-9)]
            if len(zeros) != m:
                raise ContourThroughZero("disc/box zero count mismatch near rim")
            vals = np.abs(np.asarray(f(np.array(zeros, dtype=complex)))) if zeros else np.empty(0)
            if zeros and np.max(vals) > RESIDUAL_TOLERANCE:
                raise FavlabError("localized point is not a zero; function too wild")
            return ZeroCertificate(tuple(zeros))
        except ContourThroughZero as exc:
            last_exc = exc
    raise ContourThroughZero(f"no admissible contour after jitters: {last_exc}")


@dataclass(frozen=True)
class BlaschkeReport:
    zero_count: int
    sup_bound: float
    bound: float


def blaschke_check(f) -> BlaschkeReport:
    """Zero count in the half-disc against log2 of the sup on the unit disc.

    Requires |f(0)| >= 1.  The sup is sampled at 4096 points of |z| = 1 (max
    modulus) and floored by |f(0)|.  An ExpPoly has |f'| <= K = |norm| sum
    |c_j||lam_j| e^{|lam_j|} on the unit disc: it is evaluated at the middle
    of each 16-sample arc, then only on the arcs where |f| + K radius at the
    middle can reach the largest middle value less a slack (a nan there, or
    in K, opens the arc).  Other callables see all 4096 samples.
    """
    base = float(abs(np.asarray(f(np.array([0.0 + 0.0j])))[0]))
    if base < 1.0:
        raise PreconditionUnmet(f"|f(0)| = {base} < 1")
    m = len(count_zeros(f, 0.0, 0.5).zeros)
    pts = _CIRCLE
    if isinstance(f, ExpPoly):
        lams = np.abs(np.array(f.lambdas, dtype=complex))
        mags = abs(f.normalization) * np.abs(np.array(f.coefficients)) * np.exp(lams)
        mids = np.abs(np.asarray(f(_ARCS[:, 8])))
        reach = mids + (mags @ lams) * _ARC_RADIUS
        # Slack for the rounding of sums of at most mags.sum() in size.
        far = reach < mids.max() - 1e-9 * (mids.max() + mags.sum())
        pts = _ARCS[~far].ravel()
    sup = max(float(np.max(np.abs(np.asarray(f(pts))))), base)
    bound = math.log2(sup)
    return BlaschkeReport(zero_count=m, sup_bound=sup, bound=bound)


@dataclass(frozen=True)
class CoverReport:
    zero_count: int
    eps: float
    small_samples: int
    worst_margin: float


def _quarter_disc_grid(points: int) -> np.ndarray:
    k = max(8, int(math.sqrt(points)))
    radii = 0.25 * np.sqrt(np.linspace(0.0, 1.0, k))
    angles = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


# The fixed sample sets of blaschke_check and small_value_cover_check, built
# once and read-only.
_CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)
_QUARTER_DISC = _quarter_disc_grid(40000)
_CIRCLE.setflags(write=False)
_QUARTER_DISC.setflags(write=False)
# The circle in 16-sample arcs, and the farthest distance of a sample from
# the middle (index 8) of its arc.
_ARCS = _CIRCLE.reshape(256, 16)
_ARC_RADIUS = float(np.abs(_ARCS - _ARCS[:, 8:9]).max())
# The grid in 10 x 10 blocks of (radius, angle) indices: each block's middle
# sample, the farthest distance from it within the block, each sample's block.
_CUT = _QUARTER_DISC.reshape(20, 10, 20, 10)
_BLOCK_REPS = _CUT[:, 5, :, 5].ravel()
_BLOCK_RADII = np.abs(_CUT - _CUT[:, 5:6, :, 5:6]).max(axis=(1, 3)).ravel()
_BLOCK_OF = (np.arange(200)[:, None] // 10 * 20 + np.arange(200)[None, :] // 10).ravel()


def _small_samples(f, delta: float) -> np.ndarray:
    """The quarter-disc samples with |f| < delta, in grid order.  An ExpPoly
    has |f'| <= K = |norm| sum |c_j||lam_j| e^{|lam_j|/4} on the convex disc
    |z| <= 1/4: it is evaluated at the block middles, then only in the blocks
    where |f| - K radius can reach below delta.  Other callables see all."""
    pts = _QUARTER_DISC
    if isinstance(f, ExpPoly):
        lams = np.abs(np.array(f.lambdas, dtype=complex))
        mags = abs(f.normalization) * np.abs(np.array(f.coefficients)) * np.exp(0.25 * lams)
        low = np.abs(np.asarray(f(_BLOCK_REPS))) - (mags @ lams) * _BLOCK_RADII
        # Slack for the rounding of sums of at most mags.sum() in size.
        far = low > delta + 1e-9 * (delta + mags.sum())
        pts = pts[np.flatnonzero(~far[_BLOCK_OF])]
    return pts[np.abs(np.asarray(f(pts))) < delta]


def small_value_cover_check(f, delta: float) -> CoverReport:
    """Check that {|f| < delta} inside the quarter disc hugs the zeros.

    With M zeros in the half disc, the admissible neighborhood radius is
    eps = (9/16)(3 delta)^(1/M); every point with |f| < delta, of 40000 fixed
    samples, must lie within eps of a zero.  Requires delta in (0, 1/3) and
    |f(0)| >= 1.  Samples whose block cannot reach delta are not evaluated.
    """
    if not 0.0 < delta < 1.0 / 3.0:
        raise DeltaOutOfRange(f"delta = {delta} outside (0, 1/3)")
    base = float(abs(np.asarray(f(np.array([0.0 + 0.0j])))[0]))
    if base < 1.0:
        raise PreconditionUnmet(f"|f(0)| = {base} < 1")
    zeros = count_zeros(f, 0.0, 0.5, jitter_sign=+1).zeros
    small = _small_samples(f, delta)
    m = len(zeros)
    if m == 0:
        return CoverReport(0, 0.0, small.size, -math.inf if small.size == 0 else math.inf)
    eps = (9.0 / 16.0) * (3.0 * delta) ** (1.0 / m)
    if small.size == 0:
        return CoverReport(m, eps, 0, -math.inf)
    zs = np.array(zeros)
    dist = np.min(np.abs(small[:, None] - zs[None, :]), axis=1)
    worst = float(np.max(dist) - eps)
    return CoverReport(m, eps, int(small.size), worst)


def _golden_lane(xs: np.ndarray, vals: np.ndarray):
    """Golden-section refinement around the grid maximum of |f|: yields the
    points it needs next, is sent |f| at them, and returns the max found."""
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, xs.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = yield c, d
    for _ in range(60):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            (fd,) = yield (d,)
        else:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            (fc,) = yield (c,)
        if b - a < 1e-13 * max(1.0, abs(b)):
            break
    return max(float(vals[i]), fc, fd)


def supremum_on_interval(f, lows: Sequence[float], highs: Sequence[float]) -> list[float]:
    """Max of |f| on each [lo, hi]: a grid of 1000 points per unit length plus
    golden-section refinement, in lockstep: one call of f on all the grids,
    then one per step on the intervals still refining.  Each value is the
    one a lone search gets, through np.abs on grids and abs() on steps."""
    if any(hi < lo for lo, hi in zip(lows, highs)):
        raise FavlabError("empty interval")
    grids = [np.linspace(lo, hi, max(9, int(1000.0 * (hi - lo)) + 1))
             for lo, hi in zip(lows, highs)]
    vals = np.abs(np.asarray(f(np.concatenate(grids))))
    cuts = np.cumsum([xs.size for xs in grids])[:-1]
    lanes = [_golden_lane(xs, v) for xs, v in zip(grids, np.split(vals, cuts))]
    asks = {k: next(lane) for k, lane in enumerate(lanes)}
    sups = [0.0] * len(lanes)
    while asks:
        got = iter(np.asarray(f(np.array([x for ask in asks.values() for x in ask]))))
        for k, ask in list(asks.items()):
            try:
                asks[k] = lanes[k].send(tuple(float(abs(next(got))) for _ in ask))
            except StopIteration as done:
                sups[k] = done.value
                del asks[k]
    return sups


@dataclass(frozen=True)
class TuranTrial:
    """One supremum-comparison trial: exponential sum, one-component interval, subset."""

    poly: ExpPoly
    interval: IntervalUnion
    subset: IntervalUnion

    def __post_init__(self):
        if self.subset.measure <= 0:
            raise FavlabError("subset must have positive measure")
        lo, hi = self.interval.lo[0], self.interval.hi[0]
        if self.subset.lo[0] < lo - 1e-12 or self.subset.hi[-1] > hi + 1e-12:
            raise FavlabError("subset must sit inside the interval")


def turan_ratio(trial: TuranTrial) -> float:
    """Smallest A making sup_I |f| <= e^(max|Re lam| |I|) (A|I|/|E|)^L sup_E |f|."""
    f = trial.poly
    big, *subs = supremum_on_interval(f, [trial.interval.lo[0], *trial.subset.lo.tolist()],
                                      [trial.interval.hi[0], *trial.subset.hi.tolist()])
    small = max(subs)
    if small <= 0:
        raise FavlabError("sup over subset vanished")
    n_terms = len(f.lambdas)
    growth = math.exp(max(abs(lam.real) for lam in f.lambdas) * trial.interval.measure)
    ratio = big / (growth * small)
    return (trial.subset.measure / trial.interval.measure) * ratio ** (1.0 / n_terms)


# Grid points per side of the blocks that box_sup rules out at once.
BOX_BLOCK = 8
BOX_DENSITY = 60.0  # box_sup's coarse grid points per unit length


def _block_middles(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each BOX_BLOCK run of a monotone axis: its middle index, and the
    farthest distance from that point within the run."""
    lo = np.arange(0, v.size, BOX_BLOCK)
    hi = np.minimum(lo + BOX_BLOCK, v.size) - 1
    mid = (lo + hi) // 2
    return mid, np.maximum(np.abs(v[mid] - v[lo]), np.abs(v[hi] - v[mid]))


def _box_candidates(f: ExpPoly, xs: np.ndarray, ys: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The ravel indices, ascending, of the grid z = xs + i ys in the blocks
    that can reach the largest middle value.  Re(lam z) is linear, so on the
    box |f'| <= K = |norm| sum |c_j||lam_j| e^{max of Re(lam_j z) at a corner};
    a block goes when |f| + K radius at its middle is below that less a slack
    (a nan there, or in K, keeps it)."""
    lams = np.array(f.lambdas, dtype=complex)
    corners = xs[[0, -1, 0, -1]] + 1j * ys[[0, 0, -1, -1]]
    tops = np.exp((lams[:, None] * corners).real.max(axis=1))
    mags = abs(f.normalization) * np.abs(np.array(f.coefficients)) * tops
    (mx, rx), (my, ry) = _block_middles(xs), _block_middles(ys)
    mids = np.abs(np.asarray(f(z[(my[:, None] * xs.size + mx).ravel()])))
    reach = mids + (mags @ np.abs(lams)) * np.hypot(ry[:, None], rx).ravel()
    # Slack for the rounding of sums of at most mags.sum() in size.
    far = (reach < mids.max() - 1e-9 * (mids.max() + mags.sum())).reshape(my.size, mx.size)
    return np.flatnonzero(~far[np.arange(ys.size)[:, None] // BOX_BLOCK,
                               np.arange(xs.size) // BOX_BLOCK])


def box_sup(f, x0: float, x1: float, y0: float, y1: float) -> float:
    """Max of |f| on a closed box: coarse grid, then a refined local patch
    around its first maximum.  An ExpPoly is evaluated only where
    `_box_candidates` keeps it, in grid order, so each result is the full grid's."""
    nx = max(9, int(BOX_DENSITY * (x1 - x0)) + 1)
    ny = max(9, int(BOX_DENSITY * (y1 - y0)) + 1)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    idx = _box_candidates(f, xs, ys, z) if isinstance(f, ExpPoly) else np.arange(z.size)
    vals = np.abs(np.asarray(f(z[idx])))
    p = int(np.argmax(vals))
    j, i = divmod(int(idx[p]), nx)
    best = float(vals[p])
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    fx0, fx1 = max(x0, xs[i] - hx), min(x1, xs[i] + hx)
    fy0, fy1 = max(y0, ys[j] - hy), min(y1, ys[j] + hy)
    fxs = np.linspace(fx0, fx1, 33)
    fys = np.linspace(fy0, fy1, 33)
    fz = fxs[None, :] + 1j * fys[:, None]
    return max(best, float(np.max(np.abs(np.asarray(f(fz.ravel()))))))


def doubling_ratio(phi: ExpPoly, x_prime: float, k: int) -> float:
    """sup over [x'-1,x'+1]x[-1,1] of |phi(L^-k z)| divided by the sup over
    the concentric half box, L the number of frequencies of phi.  Always >= 1
    because the half-box maximum is a lower bound for the full-box maximum."""
    scale = (1.0 / len(phi.lambdas)) ** k
    poly = ExpPoly(
        lambdas=tuple(lam * scale for lam in phi.lambdas),
        coefficients=phi.coefficients,
        normalization=phi.normalization,
    )
    half = box_sup(poly, x_prime - 0.5, x_prime + 0.5, -0.5, 0.5)
    full = max(box_sup(poly, x_prime - 1.0, x_prime + 1.0, -1.0, 1.0), half)
    return full / half


def cetsq_ratio(
    frequencies: Sequence[float], coefficients: Sequence[complex] | None = None
) -> tuple[float, float, float]:
    """Frequency-cluster L2 bound data.

    lhs  = integral over [0, 1] of |sum c_a e^{i a y}|^2 (Simpson on 20001 points),
    S    = exact integral of (sum of indicator boxes [a-1, a+1])^2,
    ratio = lhs / S.
    The paper's window [0, 1/delta] and boxes a +- delta add nothing: y = u/delta
    gives lhs_delta(a) = lhs(a/delta)/delta and S_delta(a) = delta S(a/delta), so
    ratio_delta(a) = ratio(a/delta), and the Simpson grid maps onto itself.
    Bad input raises FavlabError before any sample (see `_cetsq_args`).
    """
    freqs, coeffs = _cetsq_args(frequencies, coefficients)
    lhs = simpson(lambda ys: _cetsq_integrand(freqs, coeffs, ys), 1.0, 20001)
    s_exact = box_l2_norm_sq(freqs)
    return float(lhs), float(s_exact), float(lhs / s_exact)


def _cetsq_args(frequencies, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """Nonempty finite frequencies and one unimodular coefficient each."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0 or not np.all(np.isfinite(freqs)):
        raise FavlabError("frequencies must be finite, and at least one")
    coeffs = np.asarray(np.ones(freqs.size) if coefficients is None else coefficients, complex)
    if coeffs.shape != freqs.shape:
        raise FavlabError(f"{coeffs.size} coefficients for {freqs.size} frequencies")
    if not np.allclose(np.abs(coeffs), 1.0, atol=1e-12):
        raise FavlabError("coefficients must be unimodular")
    return freqs, coeffs


def box_l2_norm_sq(freqs: np.ndarray) -> float:
    """The S of `cetsq_ratio`, from one sweep over the box ends."""
    positions = np.concatenate([freqs - 1.0, freqs + 1.0])
    deltas = np.repeat(np.array([1, -1], dtype=np.int64), freqs.size)
    return shadow.l2_norm_sq(shadow.from_events(positions, deltas))


def cetsq_bounds(
    frequencies: Sequence[float], coefficients: Sequence[complex] | None
) -> tuple[float, float]:
    """An interval (lo, hi) that holds the Simpson lhs of `cetsq_ratio`, from
    its closed form in one F x F pass; F frequencies, d = a - b.  The integral
    is Re sum c_a conj(c_b) iota(d), iota(d) = int_0^1 e^{idy} dy = e^{id/2}
    sinc(d/2pi).  As each panel is the first times e^{2idjh}, Simpson's rule
    on h = 1/20000 gives a pair rho(dh) iota(d), rho(t) = t (2 + cos t) /
    (3 sin t); a pair with |d| h > 1 keeps iota(d) and adds (dh)^4 / 150 to
    the band, over the rule's Peano bound.  Rounding, to first order in
    eps = 2^-52, pairwise sums off by 64 eps of their sizes: a sample's term
    is off by eps (2 |a| + 5), the square of their sum by eps (4 F sum|a| +
    140 F^2), Simpson's sums by 68 eps F^2 more and the closed form by
    eps (2 F sum|a| + 91 F^2), in all under 2^9 eps (F sum|a| + F^2).  The
    band's 2^12 covers higher orders and |c_a| off 1 by 1e-12; argument
    rounding eps |a| leads it.
    """
    freqs, coeffs = _cetsq_args(frequencies, coefficients)
    d = freqs[:, None] - freqs[None, :]
    t = d * (1.0 / 20000)
    rho = np.where(np.abs(t) <= 1.0, (2.0 + np.cos(t)) / (3.0 * np.sinc(t / np.pi)), 1.0)
    iota = np.exp(0.5j * d) * np.sinc(d * (1.0 / (2.0 * np.pi)))
    closed = float(np.real(np.sum(coeffs[:, None] * coeffs.conj()[None, :] * (rho * iota))))
    band = (1.0 / 150.0) * float(np.sum(np.where(np.abs(t) <= 1.0, 0.0, t**4)))
    band += 2.0**-40 * (freqs.size * float(np.abs(freqs).sum()) + freqs.size**2)
    return closed - band, closed + band


def _cetsq_integrand(freqs: np.ndarray, coeffs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|sum_a c_a e^{i a y}|^2 at each y, CETSQ_BLOCK samples at a time.

    Each row of the block is summed on its own, so the values do not depend
    on the block size.
    """
    lams = 1j * freqs
    out = np.empty(ys.size)
    buf = np.empty((min(CETSQ_BLOCK, ys.size), freqs.size), dtype=complex)
    for lo in range(0, ys.size, CETSQ_BLOCK):
        rows = ys[lo:lo + CETSQ_BLOCK, None]
        vals = np.multiply(lams[None, :], rows, out=buf[: rows.shape[0]])
        np.exp(vals, out=vals)
        # coeffs first, as in c * e^{iay}: numpy's complex product is not
        # bitwise commutative.
        np.multiply(coeffs[None, :], vals, out=vals)
        out[lo:lo + CETSQ_BLOCK] = np.abs(vals.sum(axis=1)) ** 2
    return out


def ssv_certified_cover(
    phi: ExpPoly, spec: ProductSpec
) -> tuple[IntervalUnion, tuple[complex, ...]]:
    """Interval cover of the small-value set built from localized zeros.

    Zeros of phi in the strip around [L^-m/2, L^m + 1] x [-1, 1] are found by
    contour subdivision to 1e-6; rescaling by L^(n-m+j), j = 0..m, maps them
    to the zeros of the low-frequency block P2 over I = [L^(n-m), L^n].  Each
    zero contributes the interval Re +- L^(n-m-ell).
    """
    L = len(phi.lambdas)
    m, n, ell = spec.m, spec.n, spec.ell
    check_scale(L, n)
    zero_tol = 1e-6
    lo = 0.5 * float(L) ** (-m)
    hi = float(L) ** m + 1.0
    width = 2.0
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(edges[-1] + width, hi))
    zeros: list[complex] = []
    for a, b in zip(edges[:-1], edges[1:]):
        pad = 0.05 * (b - a)
        zeros.extend(
            zeros_in_rect(phi, a - pad, b + pad, -1.0, 1.0, zero_tol=zero_tol)
        )
    deduped: list[complex] = []
    for z in zeros:
        if all(abs(z - w) > 100.0 * zero_tol for w in deduped):
            deduped.append(z)
    radius = float(L) ** (n - m - ell)
    i_lo, i_hi = float(L) ** (n - m), float(L) ** n
    raw = []
    for z in deduped:
        for j in range(m + 1):
            lam = z * float(L) ** (n - m + j)
            if i_lo - radius <= lam.real <= i_hi + radius:
                raw.append((lam.real - radius, lam.real + radius))
    return interval_union(raw), tuple(deduped)
