"""Directional shadows and exact multiplicity profiles.

Projecting the depth-n pieces of a system onto the line with angle theta
gives L^n intervals; their indicator sum is an integer-valued step function
(the multiplicity profile).  Everything here is exact interval algebra: a
single sweep over the 2 L^n endpoint events builds the profile, and measures,
level sets and L2 norms are plain sums over its cells.

The sweep is array code throughout, and every profile goes through one
cluster rule and one canonical-form step.  `_starts` starts a breakpoint at
each row head and wherever the gap to the previous sorted event exceeds the
merge tolerance; `np.add.reduceat` sums each cluster's deltas.  `_canonical`
turns one row's clusters into a profile: its breakpoints are spaced more
than the tolerance apart, so when both end cells are nonzero (always, for
shadows longer than the tolerance) it drops the interior clusters whose
deltas sum to 0, and otherwise it calls `step_function`.  `from_events` is
one row: a stable argsort, then the two steps.  `multiplicity` sorts the
projected centers first, so its events are two sorted runs (the starts
c - h, then the ends c + h) that the argsort merges in linear time.
`multiplicities` builds one depth's profiles for many directions at once:
one row of projections per direction, each row sorted and its two runs
merged by one row-wise stable argsort, then one cluster pass over the rows
laid end to end, cut into rows at their heads.
Other event input, and hand-made, CSV and `pointwise_max` cells, go
through `step_function`, which canonicalizes with masks: it starts at the
first cell wider than the tolerance, drops slivers, merges runs of equal
values and trims zero cells at both ends.  The sliver rule is greedy: a cell
is dropped when its right end lies within the tolerance of the last kept
breakpoint.  Profiles from `from_events` and `pointwise_max` never contain
such cells, so the short loop that applies the rule runs only over the
slivers of hand-made or CSV input.
`pointwise_max` merges the profiles' breakpoints with one stable sort (each
profile's breakpoints are a sorted run) and the same cluster rule, and reads
every profile at the merged cells' midpoints by one lookup in a table of
their values, each padded with a 0 on both sides, at the `searchsorted`
index.
`interval_union` sorts (lo, hi) pairs by lo and starts a new component
wherever lo exceeds the running maximum of the previous right ends by the
tolerance; the `IntervalUnion` it returns is two read-only float64 arrays,
lo and hi.
`support_unions` gives the support alone, {profile >= 1}, at every depth up
to n from the recursion S_n = union over l of (p_l + r S_{n-1}): one
`interval_union` a depth, over L times the previous depth's components, with
no piece enumerated.  Its measures agree with `support_measure` of the
profile to rounding, not bit for bit.  Scalar per-piece and per-point
references live only in tests/oracles.py.

`write_step_csv` emits a profile through `emit.write_cells`: per chunk of
`emit.CHUNK_ROWS` cells, the breakpoints are formatted once into a matrix of
NUL-padded %.17g fields (array arithmetic, with `"%.17g" % x` only for zero,
inf, nan and exponent-notation values), and each field serves as one cell's
cell_hi and the next cell's cell_lo.

Projection convention: the coordinate of a point c on the line of angle
theta in [0, pi) is Re(c * e^{-i theta}).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import emit, ifs
from .errors import FavlabError
from .ifs import SimilaritySystem

MERGE_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Sorted, disjoint intervals [lo[i], hi[i]] in two read-only float64 arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def measure(self) -> float:
        return float((self.hi - self.lo).sum())

    @property
    def count(self) -> int:
        return self.lo.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalUnion)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )


def interval_union(raw: Iterable[tuple[float, float]] | np.ndarray) -> IntervalUnion:
    """Merge arbitrary (lo, hi) pairs into a canonical disjoint union.

    `raw` is any iterable of pairs or a (k, 2) array.  Reversed pairs are
    dropped; pairs closer than MERGE_TOLERANCE join one component.
    """
    pairs = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw), dtype=float)
    pairs = pairs.reshape(-1, 2)
    lo, hi = pairs[:, 0], pairs[:, 1]
    keep = hi >= lo
    if not keep.all():
        lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return IntervalUnion(np.empty(0), np.empty(0))
    # A pair tied in lo with its predecessor never starts a component, so
    # the order among ties does not change the union.
    order = lo.argsort(kind="stable")
    lo = lo[order]
    reach = np.maximum.accumulate(hi[order])
    fresh = np.empty(lo.size, dtype=bool)
    fresh[0] = True
    np.greater(lo[1:], reach[:-1] + MERGE_TOLERANCE, out=fresh[1:])
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], lo.size) - 1
    return IntervalUnion(lo[starts], reach[ends])


class StepFunction:
    """Piecewise-constant nonnegative-integer function, canonical form.

    breakpoints: strictly increasing array of m+1 floats (empty for the zero
    function); values: m integers, one per cell [b_i, b_{i+1}).  The value is
    0 outside the hull, adjacent cells hold distinct values, and the first and
    last cells are nonzero.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: np.ndarray, values: np.ndarray):
        self.breakpoints = breakpoints
        self.values = values

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepFunction)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"StepFunction({self.values.size} cells, mass={mass(self):.6g})"


def _zero() -> StepFunction:
    return StepFunction(np.empty(0), np.empty(0, dtype=np.int64))


def _kept_after_slivers(b: np.ndarray, thin: np.ndarray) -> np.ndarray:
    """Mask of the cells [b[c], b[c+1]) that survive the greedy sliver rule.

    Cell 0 is wide.  A wide cell is always kept, because the last kept
    breakpoint is at most its left end; a thin one is kept only when its right
    end lies more than MERGE_TOLERANCE past the last kept breakpoint.  The loop
    visits thin cells only.
    """
    keep = ~thin
    end = b[0]
    for c in np.flatnonzero(thin).tolist():
        if keep[c - 1]:
            end = b[c]
        if b[c + 1] - end > MERGE_TOLERANCE:
            keep[c] = True
            end = b[c + 1]
    return keep


def step_function(breakpoints: Sequence[float], values: Sequence[int]) -> StepFunction:
    """Canonicalize raw cell data: drop slivers, merge equal neighbors, trim zeros."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=np.int64)
    if bp.size != vals.size + 1 and not (bp.size == 0 and vals.size == 0):
        raise FavlabError("need len(breakpoints) == len(values) + 1")
    widths = np.diff(bp)
    if np.any(widths < 0):
        raise FavlabError("breakpoints must be nondecreasing")
    thin = widths <= MERGE_TOLERANCE
    if vals.size == 0 or thin.all():
        return _zero()
    first = int(np.argmin(thin))
    b, v, thin = bp[first:], vals[first:], thin[first:]
    if thin.any():
        keep = _kept_after_slivers(b, thin)
        b = np.concatenate((b[:1], b[1:][keep]))
        v = v[keep]
    # Merge runs of equal values: a cell survives when its right neighbour differs.
    last = np.empty(v.size, dtype=bool)
    last[-1] = True
    np.not_equal(v[1:], v[:-1], out=last[:-1])
    b = np.concatenate((b[:1], b[1:][last]))
    v = v[last]
    nonzero = np.flatnonzero(v)
    if nonzero.size == 0:
        return _zero()
    lo, hi = nonzero[0], nonzero[-1] + 1
    b = b[lo : hi + 1]
    v = v[lo:hi]
    b.setflags(write=False)
    v.setflags(write=False)
    return StepFunction(b, v)


def _starts(pos: np.ndarray, heads) -> np.ndarray:
    """Cluster starts of events sorted within rows laid end to end.

    A cluster starts at each row head (the index of a row's first event) and
    wherever the gap to the previous event exceeds MERGE_TOLERANCE.
    """
    fresh = np.empty(pos.size, dtype=bool)
    np.greater(pos[1:] - pos[:-1], MERGE_TOLERANCE, out=fresh[1:])
    fresh[heads] = True
    return fresh.nonzero()[0]


def _canonical(pos: np.ndarray, starts: np.ndarray, jumps: np.ndarray) -> StepFunction:
    """One row's profile from its cluster starts and their delta sums.

    The breakpoints pos[starts] are spaced more than MERGE_TOLERANCE apart,
    so when both end cells are nonzero the canonical form only drops the
    interior breakpoints whose cluster sums to 0.  A row whose first or last
    cell comes out 0 (unbalanced deltas, or shadows shorter than the
    tolerance) goes through `step_function` instead.
    """
    vals = jumps[:-1].cumsum()
    if vals.size == 0 or vals[0] == 0 or vals[-1] == 0:
        return step_function(pos[starts], vals)
    keep = jumps != 0
    keep[-1] = True
    b = pos[starts[keep]]
    v = vals[keep[:-1]]
    b.setflags(write=False)
    v.setflags(write=False)
    return StepFunction(b, v)


def from_events(positions: np.ndarray, deltas: np.ndarray) -> StepFunction:
    """Build a profile from endpoint events by one sweep, in canonical form.

    Events closer than MERGE_TOLERANCE collapse to a single breakpoint, so
    exact endpoint coincidences become genuine stacking instead of slivers.
    """
    if positions.size == 0:
        return _zero()
    order = positions.argsort(kind="stable")
    pos = positions[order]
    starts = _starts(pos, 0)
    return _canonical(pos, starts, np.add.reduceat(deltas[order], starts))


def shadow_half_length(system: SimilaritySystem, depth: int, theta: float) -> float:
    """Half-length of a single depth-n shadow interval."""
    size = ifs.piece_size(system, depth)
    if system.shape == ifs.SQUARE:
        return size * (abs(np.cos(theta)) + abs(np.sin(theta)))
    return size


def multiplicity(
    system: SimilaritySystem, depth: int, theta: float, cap: int = ifs.ENUMERATION_CAP
) -> StepFunction:
    """Multiplicity profile: how many depth-n shadows cover each point."""
    centers = ifs.piece_centers(system, depth, cap)
    proj = np.sort((centers * np.exp(-1j * theta)).real)
    half = shadow_half_length(system, depth, theta)
    positions = np.concatenate([proj - half, proj + half])
    deltas = np.ones(positions.size, dtype=np.int64)
    deltas[proj.size :] = -1
    return from_events(positions, deltas)


def support_unions(system: SimilaritySystem, depth: int, theta: float) -> list[IntervalUnion]:
    """[S_0, ..., S_depth]: the union of the depth-n shadows for every n <= depth.

    A depth-n piece is c_l + r * (a depth n-1 piece), so S_n is the union over
    l of p_l + r * S_{n-1} with p_l = Re(c_l e^{-i theta}), and S_0 = [-w, w]
    for the root's half-length w.  Each depth is one `interval_union` of the L
    scaled, shifted copies of the previous one; no piece is enumerated, and
    S_n has at most L^n components, so the caller's piece cap bounds it.
    """
    shifts = (system.centers() * np.exp(-1j * theta)).real[:, None]
    w = shadow_half_length(system, 0, theta)
    out = [interval_union(np.array([[-w, w]]))]
    for _ in range(depth):
        prev = out[-1]
        lo = shifts + system.ratio * prev.lo
        hi = shifts + system.ratio * prev.hi
        out.append(interval_union(np.column_stack((lo.ravel(), hi.ravel()))))
    return out


def multiplicities(
    system: SimilaritySystem, depth: int, thetas: Sequence[float], cap: int
) -> list[StepFunction]:
    """[multiplicity(system, depth, theta, cap) for theta in thetas], equal
    arrays, from one sort and one sweep over all the directions' events.

    Row i holds the projections (c * e^{-i theta_i}).real, bit-equal to
    those of `multiplicity`; each sorted row's starts and ends are two sorted
    runs that one stable argsort merges.  One cluster pass runs over the rows
    laid end to end, and each row's clusters, cut at its head, go through the
    same canonical-form step as `from_events`.
    """
    centers = ifs.piece_centers(system, depth, cap)
    rot = np.array([np.exp(-1j * t) for t in thetas])
    half = np.array([shadow_half_length(system, depth, t) for t in thetas])[:, None]
    proj = np.sort((centers * rot[:, None]).real, axis=1)
    events = np.concatenate((proj - half, proj + half), axis=1)
    order = events.argsort(axis=1, kind="stable")
    pos = np.take_along_axis(events, order, axis=1).ravel()
    heads = np.arange(0, pos.size, events.shape[1])
    starts = _starts(pos, heads)
    jumps = np.add.reduceat(np.where(order < proj.shape[1], 1, -1).ravel(), starts)
    cuts = starts.searchsorted(heads).tolist() + [starts.size]
    return [_canonical(pos, starts[a:b], jumps[a:b]) for a, b in zip(cuts, cuts[1:])]


def pointwise_max(profiles: Sequence[StepFunction]) -> StepFunction:
    """The maximum of the profiles at each point, in canonical form.

    Its cells lie between the merged breakpoints of all the profiles.  The
    values of every profile, each padded with a 0 on both sides, form one
    array, and each profile is read at the cell midpoints by one lookup at
    the `searchsorted` index.  A midpoint equal to a profile's right hull
    end reads its last cell.
    """
    nonzero = [f for f in profiles if not f.is_zero]
    if not nonzero:
        return _zero()
    all_bp = np.concatenate([f.breakpoints for f in nonzero])
    all_bp.sort(kind="stable")
    bp = all_bp[_starts(all_bp, 0)]
    mids = 0.5 * (bp[:-1] + bp[1:])
    table = np.zeros(sum(f.values.size + 1 for f in nonzero) + 1, dtype=np.int64)
    idx = np.empty((len(nonzero), mids.size), dtype=np.intp)
    off = 0
    for row, f in zip(idx, nonzero):
        b, m = f.breakpoints, f.values.size
        table[off + 1 : off + m + 1] = f.values
        row[:] = b.searchsorted(mids, side="right")
        row += off
        edge = mids.searchsorted(b[-1])
        if edge < mids.size and mids[edge] == b[-1]:
            row[edge] = off + m
        off += m + 1
    return step_function(bp, table.take(idx).max(axis=0))


def _cell_lengths(f: StepFunction) -> np.ndarray:
    b = f.breakpoints
    return b[1:] - b[:-1]


def mass(f: StepFunction) -> float:
    """Integral of f (sum of value * cell length)."""
    return float(np.dot(f.values, _cell_lengths(f)))


def support_measure(f: StepFunction) -> float:
    """Measure of {f >= 1}."""
    return level_measure(f, 1)


def level_measure(f: StepFunction, k: int) -> float:
    """Measure of {f >= k}; values are integers, so {f > k} is level k + 1."""
    if f.is_zero:
        return 0.0
    return float(_cell_lengths(f)[f.values >= k].sum())


def l2_norm_sq(f: StepFunction) -> float:
    """Integral of f^2."""
    return float(np.dot(f.values.astype(float) ** 2, _cell_lengths(f)))


def max_value(f: StepFunction) -> int:
    return int(f.values.max()) if not f.is_zero else 0


def write_step_csv(
    stream, f: StepFunction, theta: float, depth: int, label: str
) -> None:
    """CSV rows (cell_lo, cell_hi, value); header comment carries the context.

    Each breakpoint is formatted once: its field is row i's cell_hi and row
    i+1's cell_lo.
    """
    stream.write(f"# system={label} n={depth} theta={theta:.17g}\n")
    stream.write("cell_lo,cell_hi,value\n")
    emit.write_cells(stream, f.breakpoints, f.values)


def read_step_csv(stream) -> tuple[StepFunction, dict]:
    """Inverse of write_step_csv; returns the profile and the header fields."""
    header = stream.readline().strip()
    meta: dict = {}
    if header.startswith("#"):
        for part in header[1:].split():
            if "=" in part:
                key, val = part.split("=", 1)
                meta[key] = val
    rows = list(csv.reader(io.StringIO(stream.read())))
    body = [r for r in rows if r and r[0] != "cell_lo"]
    bp: list[float] = []
    vals: list[int] = []
    for lo, hi, v in body:
        if not bp:
            bp.append(float(lo))
        bp.append(float(hi))
        vals.append(int(v))
    return step_function(bp, vals), meta
