"""Reference arithmetic that shares no code with favlab.

The benchmark checks favlab's outputs against values computed here: piece
centres of a similarity system, the measure of a union of projected pieces
(one sort and a running maximum), and the direction average of that measure
by the trapezoid rule.  A system is the plain dict stored in reference.json:
{"shape": "disc" | "square", "ratio", "root_size", "centers": [[re, im], ...]}.
"""

from __future__ import annotations

import numpy as np


def centers(system: dict, depth: int) -> np.ndarray:
    """All L^depth piece centres: sum over k of ratio^k * c_{w_k}."""
    gens = np.array([complex(re, im) for re, im in system["centers"]])
    out = np.zeros(1, dtype=complex)
    for k in range(depth):
        out = (out[:, None] + system["ratio"] ** k * gens[None, :]).ravel()
    return out


def half_width(system: dict, depth: int, theta: float) -> float:
    """Half-length of one depth-n piece's shadow on the line of angle theta."""
    size = system["root_size"] * system["ratio"] ** depth
    if system["shape"] == "square":
        return size * (abs(np.cos(theta)) + abs(np.sin(theta)))
    return size


def shadow_measure(system: dict, depth: int, theta: float, pts: np.ndarray | None = None) -> float:
    """Length of the union of the depth-n shadows at angle theta."""
    pts = centers(system, depth) if pts is None else pts
    proj = np.sort((pts * np.exp(-1j * theta)).real)
    h = half_width(system, depth, theta)
    lo, hi = proj - h, proj + h
    reach = np.maximum.accumulate(hi)
    # A new component starts where an interval begins beyond everything
    # covered so far; covered length is the sum of component spans.
    starts = np.ones(lo.size, dtype=bool)
    starts[1:] = lo[1:] > reach[:-1]
    first = np.flatnonzero(starts)
    last = np.append(first[1:] - 1, lo.size - 1)
    return float(np.sum(reach[last] - lo[first]))


def favard_length(system: dict, depth: int, grid: int, period: float = np.pi) -> float:
    """(1/pi) * integral over [0, pi] of shadow_measure, by the trapezoid rule
    on `grid` cells of [0, period].

    `period` must be a period of the shadow measure that divides pi (pi/3 for
    the gasket, pi/2 for corner4, whose depth-n sets are invariant under
    rotation by 2pi/3 and pi/2); the average over it equals the one over pi.
    """
    pts = centers(system, depth)
    thetas = np.linspace(0.0, period, grid + 1)
    vals = np.array([shadow_measure(system, depth, t, pts) for t in thetas])
    return float((0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1]) / grid)
