"""Compute perfbench/reference.json: the frozen values the checks compare with.

Run from the repository root once, when the workloads change:

    python3 perfbench/freeze.py

It records
  * `systems`: the definitions of the presets and pool systems (label,
    shape, ratio, root size, centres), so checks need no favlab code;
  * `pools`: the seeds each random-system pool draws from.  A quadrature
    pool keeps, in seed order, the first POOL_SIZE seeds whose solve at the
    benchmark's settings converges after exactly two refinement rounds, so
    draws cost about the same and none fails to converge;
  * `favard`: Favard lengths from refmath's independent union measure,
    integrated on a much finer direction grid than the benchmark's solves,
    with the change from halving that grid as `ref_err`;
  * `golden`: the JSON outputs of the seed-independent scan commands.
It takes a few minutes on one core.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from favlab import cli, favard, ifs  # noqa: E402

import refmath  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SIZE = {"random-3/4": 12, "random-5/4": 12, "random-4/8": 6}
PERIOD = {"gasket": math.pi / 3, "corner4": math.pi / 2}
# Direction cells per reference integral: about WORK piece projections in all
# (fewer for the pool systems, whose estimates need less accuracy).
WORK = {"preset": 2**29, "pool": 2**28}


def system_dict(system: ifs.SimilaritySystem) -> dict:
    return {
        "label": system.label,
        "shape": system.shape,
        "ratio": system.ratio,
        "root_size": system.root_size,
        "centers": [[c.real, c.imag] for c in system.centers()],
    }


def quad_pool(name: str) -> list[int]:
    L, n = wl.POOLS[name]
    cfg = favard.QuadratureConfig(wl.QUAD_GRID, wl.QUAD_REFINE, wl.QUAD_DEFAULT_TARGET)
    seeds = []
    s = 0
    while len(seeds) < POOL_SIZE[name]:
        res = favard.favard_length(ifs.preset(f"random-{L}-seed{s}"), n, cfg, threads=1)
        if res.converged and res.grid == 4 * wl.QUAD_GRID:
            seeds.append(s)
        s += 1
    return seeds


def reference_value(system: dict, n: int, period: float, work: int) -> dict:
    pieces = len(system["centers"]) ** n
    cells = max(256, min(16384, work // pieces))
    fine = refmath.favard_length(system, n, cells, period)
    coarse = refmath.favard_length(system, n, cells // 2, period)
    return {"value": fine, "ref_err": abs(fine - coarse), "cells": cells, "period": period}


def collect(kind: str) -> list[wl.Op]:
    ops = []
    for name in wl.WORKLOADS:
        for tiny in (False, True):
            ops += [op for op in wl.build_ops(name, 0, REFS, tiny) if op.check == kind]
    return ops


def run_json(argv) -> dict:
    buf = io.StringIO()
    code = cli.main(list(argv), stdout=buf)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


REFS: dict = {"systems": {}, "pools": {}, "favard": {}, "golden": {}}


def main() -> None:
    t0 = time.perf_counter()
    for name in ("gasket", "corner4"):
        REFS["systems"][name] = system_dict(ifs.preset(name))
        d = REFS["systems"][name]
        for theta in (0.1, 0.7, 1.3):
            a = refmath.shadow_measure(d, 5, theta)
            b = refmath.shadow_measure(d, 5, theta + PERIOD[name])
            assert abs(a - b) < 1e-12, f"{name}: {PERIOD[name]} is not a period"
    for name in wl.POOLS:
        REFS["pools"][name] = quad_pool(name) if name in wl.QUAD_POOLS else list(range(POOL_SIZE[name]))
        print(f"pool {name}: {REFS['pools'][name]}  ({time.perf_counter() - t0:.0f}s)", flush=True)
        for s in REFS["pools"][name]:
            preset = wl.pool_preset(name, s)
            REFS["systems"][preset] = system_dict(ifs.preset(preset))
    keys = sorted({op.ref for op in collect("favard") + collect("buffon")})
    keys += [f"{wl.pool_preset(p, s)}/{wl.POOLS[p][1]}" for p in wl.POOLS for s in REFS["pools"][p]]
    for key in sorted(set(keys)):
        preset, n = key.rsplit("/", 1)
        system = REFS["systems"][preset]
        work = WORK["preset" if preset in PERIOD else "pool"]
        REFS["favard"][key] = reference_value(system, int(n), PERIOD.get(preset, math.pi), work)
        print(f"favard {key}: {REFS['favard'][key]}  ({time.perf_counter() - t0:.0f}s)", flush=True)
    for op in collect("golden"):
        REFS["golden"][wl.golden_key(op.argv)] = run_json(op.argv)
    out = HERE / "reference.json"
    out.write_text(json.dumps(REFS, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
