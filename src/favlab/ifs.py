"""Self-similar systems of discs or squares inside a root region.

A system is its L centers with one ratio and one shape, as in the JSON
schema: the L homothety maps z -> center_l + ratio*z applied to a root
region (disc of radius root_size, or axis-parallel square of half-side
root_size, both centered at the origin).  The depth-n set is the union of the
L^n images of the root under n-fold compositions; the centers are one array in
lexicographic word order over the alphabet 0..L-1.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContainmentViolation,
    EmptySystem,
    EnumerationCapExceeded,
    FavlabError,
    MixedShapes,
    UnknownPreset,
)

CONTAINMENT_TOLERANCE = 1e-9
ENUMERATION_CAP = 2**26

DISC = "disc"
SQUARE = "square"


@dataclass(frozen=True)
class SimilaritySystem:
    """L centers c_l sharing one ratio and one shape: the maps z -> c_l + ratio*z.

    root_size is the radius (disc) or half-side (square) of the root region.
    The four-corner preset uses root_size 1/2 so its depth-n sets follow the
    unit-square convention; everything downstream scales with this field.
    points holds the centers in letter order; `centers()` returns them as an
    array.  Build a system with `build_system`, which validates it.
    """

    points: tuple[complex, ...]
    ratio: float
    shape: str
    label: str
    root_size: float

    @property
    def branching(self) -> int:
        return len(self.points)

    def centers(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


def _center_norm(center: complex, shape: str) -> float:
    # Squares are axis-parallel, so containment is a sup-norm condition;
    # Euclidean norm would wrongly reject corner placements.
    if shape == SQUARE:
        return max(abs(center.real), abs(center.imag))
    return abs(center)


def build_system(
    centers: Sequence[complex], ratio: float, shape: str, label: str = "", root_size: float = 1.0
) -> SimilaritySystem:
    """Validate L centers with one ratio and shape and assemble a system.

    Raises EmptySystem, MixedShapes (an unknown shape), or
    ContainmentViolation.  Containment requires each first-level piece to
    stay inside the root region up to CONTAINMENT_TOLERANCE (strict
    containment is not load-bearing downstream).
    """
    points = tuple(complex(c) for c in centers)
    if not points:
        raise EmptySystem("system has no maps")
    if not (np.isfinite(root_size) and root_size > 0.0):
        raise ContainmentViolation(f"root size {root_size} is not a positive finite number")
    # Up to 2^256, sums of up to 2^59 piece lengths and of their squares stay
    # far inside the float range (below 2^1024).
    if root_size > 2.0**256:
        raise ContainmentViolation(f"root size {root_size} exceeds 2^256")
    if shape not in (DISC, SQUARE):
        raise MixedShapes(f"unknown shape {shape!r}")
    if not (0.0 < ratio < 1.0):  # false for a nan ratio
        raise ContainmentViolation(f"map 0: ratio {ratio} outside (0, 1)")
    for i, c in enumerate(points):
        reach = _center_norm(c, shape) + ratio * root_size
        if not (reach <= root_size + CONTAINMENT_TOLERANCE):  # false for a nan center
            raise ContainmentViolation(
                f"map {i}: center {c} with ratio {ratio} "
                f"escapes the root region by {reach - root_size:.3g}"
            )
    if len(points) < 2:
        raise EmptySystem("system needs at least two maps")
    return SimilaritySystem(points, float(ratio), shape, label, float(root_size))


def gasket_system() -> SimilaritySystem:
    """Three discs of radius 1/3 whose centers sit at (1/3)e^{i pi(1/2 + 2a/3)}.

    Letters 0, 1, 2 correspond to a = -1 (lower right), a = 0 (top),
    a = 1 (lower left).
    """
    centers = [np.exp(1j * np.pi * (0.5 + 2.0 * a / 3.0)) / 3.0 for a in (-1, 0, 1)]
    return build_system(centers, 1.0 / 3.0, DISC, label="gasket")


def corner4_system() -> SimilaritySystem:
    """Four squares of ratio 1/4 at the corners of a unit square.

    Root half-side is 1/2 (unit-square convention), children have half-side
    1/8 centered at (+-3/8, +-3/8).  Letters 0..3 run through quadrants
    (-,-), (+,-), (-,+), (+,+).
    """
    offs = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    centers = [complex(0.375 * sx, 0.375 * sy) for sx, sy in offs]
    return build_system(centers, 0.25, SQUARE, label="corner4", root_size=0.5)


_RANDOM_PRESET = re.compile(r"^random-(\d+)-seed(\d+)$")


def random_system(branching: int, seed: int) -> SimilaritySystem:
    """L discs of radius 1/L with centers drawn from a Philox stream.

    Centers are uniform in the disc of radius 1 - 1/L, so containment always
    holds; the draw is reproducible across platforms.  From 2^59 maps (4 EiB
    of float64 per draw) it raises MemoryError before any draw, as numpy
    raises ValueError, not MemoryError, near its 2^63-byte index limit.
    """
    if branching < 2:
        raise EmptySystem("random system needs at least two maps")
    if branching >= 1 << 59:
        raise MemoryError(f"a random system of {branching} maps exceeds the address space")
    rng = np.random.Generator(np.random.Philox(seed))
    ratio = 1.0 / branching
    rmax = 1.0 - ratio
    radii = rmax * np.sqrt(rng.uniform(size=branching))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=branching)
    centers = radii * np.exp(1j * angles)
    return build_system(centers, ratio, DISC, label=f"random-{branching}-seed{seed}")


def preset(name: str) -> SimilaritySystem:
    """Return a canned system: "gasket", "corner4", or "random-L-seedS"."""
    if name == "gasket":
        return gasket_system()
    if name == "corner4":
        return corner4_system()
    m = _RANDOM_PRESET.match(name)
    if m:
        return random_system(int(m.group(1)), int(m.group(2)))
    raise UnknownPreset(f"unknown preset {name!r}")


def piece_size(system: SimilaritySystem, depth: int) -> float:
    return system.root_size * system.ratio**depth


def check_cap(system: SimilaritySystem, depth: int, cap: int = ENUMERATION_CAP) -> int:
    if depth < 0:
        raise FavlabError(f"depth {depth} is negative")
    # L >= 2, so L^depth >= 2^depth > cap once depth passes the bit length of
    # cap; refuse before building a power that can run to thousands of digits.
    if depth > cap.bit_length():
        raise EnumerationCapExceeded(f"{system.branching}^{depth} pieces exceeds cap {cap}")
    count = system.branching**depth
    if count > cap:
        raise EnumerationCapExceeded(
            f"{system.branching}^{depth} = {count} pieces exceeds cap {cap}"
        )
    return count


@functools.lru_cache(maxsize=64)
def _centers_cached(system: SimilaritySystem, depth: int) -> np.ndarray:
    if depth == 0:
        out = np.zeros(1, dtype=complex)
    else:
        prev = _centers_cached(system, depth - 1)
        step = system.ratio ** (depth - 1) * system.centers()
        out = (prev[:, None] + step[None, :]).ravel()
    out.setflags(write=False)
    return out


def piece_centers(
    system: SimilaritySystem, depth: int, cap: int = ENUMERATION_CAP
) -> np.ndarray:
    """All L^depth piece centers in lexicographic word order (read-only array)."""
    check_cap(system, depth, cap)
    if system.branching**depth <= 2**20:
        return _centers_cached(system, depth)
    prev = piece_centers(system, depth - 1, cap)
    step = system.ratio ** (depth - 1) * system.centers()
    out = (prev[:, None] + step[None, :]).ravel()
    out.setflags(write=False)
    return out


def system_to_json(system: SimilaritySystem) -> str:
    """Serialize per the system-definition schema (17 significant digits)."""
    obj = {
        "label": system.label,
        "shape": system.shape,
        "ratio": system.ratio,
        "centers": [[c.real, c.imag] for c in system.points],
        "root_size": system.root_size,
    }
    return json.dumps(obj, sort_keys=True, default=float)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def system_from_json(text: str | bytes) -> SimilaritySystem:
    """Parse and validate a system-definition JSON document.

    Anything but an object with "shape", a numeric "ratio", [x, y] number pairs
    as "centers", an optional string "label" and numeric "root_size" raises FavlabError.
    """
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("label", ""), str):
            raise TypeError("the document must be a JSON object with a string label")
        centers = [complex(_number(x), _number(y)) for x, y in obj["centers"]]
        ratio, shape = _number(obj["ratio"]), obj["shape"]
        root_size = _number(obj.get("root_size", 1.0))
    except KeyError as exc:
        raise FavlabError(f"system file lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FavlabError(f"system file is malformed: {exc}") from None
    return build_system(centers, ratio, shape, label=obj.get("label", ""), root_size=root_size)
