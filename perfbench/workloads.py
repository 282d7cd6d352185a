"""The four workloads: what each operation runs and how its output is checked.

An operation is one `favlab` command line, run in-process through
`favlab.cli.main`.  A workload's list of operations is drawn from its seed
(random-L-seedS systems, angles, slopes, needle seeds, verify seeds); the
sizes are fixed per workload.  `tiny=True` gives the same kinds of operation
at sizes small enough for the benchmark's own tests and for warm-up.

Every operation has a check that compares its output with something favlab
does not produce at run time: values frozen in reference.json (computed once
at tighter settings by freeze.py, or golden outputs of seed-independent
commands), refmath's independent arithmetic, or an exact invariant.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refmath

# Quadrature settings: grid 128, at most 3 refinement rounds.  corner4 needs
# the looser 1e-3 target: at 1e-4 its n=4 solve does not converge in 3 rounds.
QUAD_GRID = 128
QUAD_REFINE = 3
QUAD_TARGET = {"corner4": 1e-3}
QUAD_DEFAULT_TARGET = 1e-4
# A converged solve moved by less than target * value in its last round; its
# extrapolated value lies well within this many targets of the true integral.
QUAD_TOL_TARGETS = 10.0
# Buffon estimates must land within this many reported standard errors.  A run
# makes 32 independent needle checks and a full set of benchmark runs several
# hundred; at 5 the chance of one false alarm among 1000 checks is 6e-4 (at 4
# it would be 6%).
BUFFON_SIGMAS = 5.0
# Random-system pools: name -> (L, depth).  freeze.py fills reference.json
# with the seeds of each pool (for quadrature pools, the seeds whose solve at
# the settings above converges after exactly two refinement rounds, so that
# every draw costs about the same) and the reference value of each member.
POOLS = {"random-3/4": (3, 4), "random-5/4": (5, 4), "random-4/8": (4, 8)}
QUAD_POOLS = ("random-3/4", "random-5/4")
GASKET_THRESHOLD = 1.0 / 3**6  # L^-ell for the gasket at ell = 6
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One command line and the name of the check its output must pass."""

    argv: tuple[str, ...]
    check: str
    ref: str = ""


@dataclass(frozen=True)
class Workload:
    """A named function that draws the operation list; README.md says why each exists."""

    name: str
    threads: int
    build: Callable[[random.Random, dict, bool, int], list[Op]]


def quad_target(preset: str) -> float:
    return QUAD_TARGET.get(preset, QUAD_DEFAULT_TARGET)


def favard_op(preset: str, n: int, threads: int) -> Op:
    argv = (
        "favard", "--preset", preset, "--n", str(n), "--grid", str(QUAD_GRID),
        "--target-rel-error", repr(quad_target(preset)),
        "--refine-limit", str(QUAD_REFINE), "--threads", str(threads),
    )
    return Op(argv, "favard", f"{preset}/{n}")


def pool_preset(pool: str, seed: int) -> str:
    return f"random-{POOLS[pool][0]}-seed{seed}"


def _quadrature(rng: random.Random, refs: dict, tiny: bool, threads: int) -> list[Op]:
    # Eight repeated gasket n=5 solves hold ranks around p75, so op_tail_ms
    # measures one seed-independent solve instead of jumping between draws.
    fixed = [("gasket", 3), ("corner4", 2)] if tiny else [
        ("gasket", 4), ("gasket", 6), ("corner4", 3), ("corner4", 4)
    ] + [("gasket", 5)] * 8
    draws = {"random-3/4": 1} if tiny else {"random-3/4": 19, "random-5/4": 1}
    ops = [favard_op(p, n, threads) for p, n in fixed]
    for pool, count in draws.items():
        n = POOLS[pool][1]
        for s in rng.choices(refs["pools"][pool], k=count):
            ops.append(favard_op(pool_preset(pool, s), n, threads))
    rng.shuffle(ops)
    return ops


def _needle(rng: random.Random, refs: dict, tiny: bool, threads: int) -> list[Op]:
    def buffon(preset: str, n: int, trials: int) -> Op:
        argv = (
            "buffon", "--preset", preset, "--n", str(n), "--trials", str(trials),
            "--seed", str(rng.randrange(2**31)), "--threads", str(threads),
        )
        return Op(argv, "buffon", f"{preset}/{n}")

    if tiny:
        specs = [("gasket", 4, 2000), ("corner4", 3, 2000)]
        draws, trials = 1, 2000
    else:
        draws, trials = 11, 80_000
        specs = [(p, n, trials) for p, n in [
            ("gasket", 10), ("gasket", 11), ("gasket", 12), ("corner4", 8), ("corner4", 9)
        ] for _ in range(4)]
        # One draw of 10^6 needles sets the size of the draw arrays.
        specs.append(("corner4", 9, 1_000_000))
    ops = [buffon(p, n, t) for p, n, t in specs]
    n = POOLS["random-4/8"][1]
    for s in rng.choices(refs["pools"]["random-4/8"], k=draws):
        ops.append(buffon(pool_preset("random-4/8", s), n, trials))
    rng.shuffle(ops)
    return ops


def _transform(rng: random.Random, refs: dict, tiny: bool, threads: int) -> list[Op]:
    n, m, ell, grid = (6, 2, 2, 2000) if tiny else (10, 3, 6, 20000)
    ops = []
    for _ in range(1 if tiny else 10):
        argv = (
            "spectral", "--preset", "gasket", "--t", repr(rng.uniform(0.05, 0.95)),
            "--n", str(n), "--m", str(m), "--ell", str(ell), "--grid", str(grid),
            "--threshold", repr(GASKET_THRESHOLD), "--threads", str(threads),
        )
        ops.append(Op(argv, "spectral"))
    baddir = ("--m", "1", "--ell", "2", "--t-grid", "4") if tiny else (
        "--m", "2", "--ell", "4", "--t-grid", "50"
    )
    ops.append(Op(
        ("scan", "--check", "baddir", "--preset", "gasket", "--tau", "0.05", *baddir,
         "--threads", str(threads)),
        "golden",
    ))
    # cetsq builds a (grid x frequencies) matrix whose size its seed draws; that
    # matrix sets this workload's peak memory, so cetsq keeps fixed seeds and
    # peak_rss_mb measures the program rather than the draw.
    suites = [("blaschke", 30, 4), ("cover", 20, 4), ("turan", 15, 5), ("doubling", 30, 5),
              ("cetsq", 3, 3)]
    for suite, trials, count in suites:
        for k in range(1 if tiny else count):
            seed = k if suite == "cetsq" else rng.randrange(2**31)
            argv = (
                "verify", "--suite", suite, "--trials", str(2 if tiny else trials),
                "--seed", str(seed), "--threads", str(threads),
            )
            ops.append(Op(argv, "verify"))
    rng.shuffle(ops)
    return ops


def _stacking(rng: random.Random, refs: dict, tiny: bool, threads: int) -> list[Op]:
    th = ("--threads", str(threads))
    angle = lambda: repr(rng.uniform(0.0, math.pi))  # noqa: E731
    if tiny:
        scans = [
            ("product", "corner4", "--N", "3", "--K", "1", "2", "--M", "1", "2", "--theta-grid", "16"),
            ("escan", "corner4", "--N", "3", "--K", "2", "--theta-grid", "16"),
            ("l2", "corner4", "--N", "3", "--K", "2", "--theta-grid", "16"),
        ]
        boots = [("corner4", "2", "2")]
        shadows = [("gasket", 5), ("corner4", 4)]
    else:
        scans = [
            ("product", "corner4", "--N", "4", "--K", "1", "2", "3", "--M", "1", "2", "3",
             "--theta-grid", "128"),
            ("product", "gasket", "--N", "5", "--K", "1", "2", "--M", "1", "2", "--theta-grid", "64"),
            ("escan", "corner4", "--N", "4", "--K", "2", "--theta-grid", "128"),
            ("escan", "gasket", "--N", "5", "--K", "2", "--theta-grid", "64"),
            ("l2", "corner4", "--N", "4", "--K", "2", "--theta-grid", "128"),
        ]
        boots = [("corner4", "2", "4")] * 4 + [("gasket", "3", "3")] * 4
        shadows = ([("gasket", 10)] + [("gasket", 9)] * 5 + [("corner4", 7)] * 7
                   + [("gasket", 8)] * 3 + [("corner4", 6)] * 3)
    ops = [Op(("scan", "--check", c, "--preset", p, *rest, *th), "golden") for c, p, *rest in scans]
    for preset, base, lmax in boots:
        argv = ("scan", "--check", "bootstrap", "--preset", preset, "--theta", angle(),
                "--N", base, "--l-max", lmax, *th)
        ops.append(Op(argv, "bootstrap", preset))
    for preset, n in shadows:
        argv = ("shadow", "--preset", preset, "--n", str(n), "--theta", angle(), *th)
        ops.append(Op(argv, "shadow", preset))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload("quadrature", 1, _quadrature),
        Workload("needle", 1, _needle),
        Workload("transform", 1, _transform),
        Workload("stacking", 2, _stacking),
    ]
}


def build_ops(workload: str, seed: int, refs: dict, tiny: bool = False,
              threads: int | None = None) -> list[Op]:
    """The operations of one pass, drawn from the workload seed."""
    w = WORKLOADS[workload]
    return w.build(random.Random(seed), refs, tiny, w.threads if threads is None else threads)


def golden_key(argv) -> str:
    """Golden outputs do not depend on --threads, so the key leaves it out."""
    argv = list(argv)
    if "--threads" in argv:
        i = argv.index("--threads")
        del argv[i:i + 2]
    return " ".join(argv)


# ---------------------------------------------------------------- checks


def _flag(argv, name: str) -> str:
    return argv[list(argv).index(name) + 1]


def _csv_row(out: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def _close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_favard(op: Op, out: str, err: str, refs: dict) -> str | None:
    if "refinement limit" in err:
        return "solve did not converge"
    row = _csv_row(out)
    value = float(row["value"])
    ref = refs["favard"][op.ref]["value"]
    tol = QUAD_TOL_TARGETS * float(_flag(op.argv, "--target-rel-error")) * ref
    if abs(value - ref) > tol:
        return f"value {value!r} differs from frozen {ref!r} by more than {tol:.3g}"
    return None


def check_buffon(op: Op, out: str, err: str, refs: dict) -> str | None:
    row = _csv_row(out)
    value, stderr = float(row["value"]), float(row["error"])
    if int(row["param"]) != int(_flag(op.argv, "--trials")):
        return "trial count not echoed"
    ref = refs["favard"][op.ref]["value"]
    if not 0.0 < stderr or abs(value - ref) > BUFFON_SIGMAS * stderr:
        return f"estimate {value!r} +- {stderr!r} misses frozen {ref!r}"
    return None


def check_spectral(op: Op, out: str, err: str, refs: dict) -> str | None:
    lines = out.splitlines()
    if lines[0] != "x,abs_p1,abs_p2,abs_psharp,abs_pflat,abs_nu_hat":
        return "unexpected header"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    n, m, grid = (int(_flag(op.argv, k)) for k in ("--n", "--m", "--grid"))
    x, p1, p2, ps, pf, nu = data.T
    L = 3.0  # spectral operations run on the gasket
    if data.shape[0] != grid or x[0] != L ** (n - m) or x[-1] != L ** n:
        return "sample grid does not span [L^(n-m), L^n]"
    if np.any(np.diff(x) <= 0) or np.any(data[:, 1:] < 0) or np.any(data[:, 1:] > 1 + 1e-12):
        return "samples unordered or magnitudes outside [0, 1]"
    # The blocks multiply back exactly to the full product.
    if np.max(np.abs(p1 - ps * pf)) > 1e-12 or np.max(np.abs(nu - p1 * p2)) > 1e-12:
        return "block products do not multiply back to the full product"
    if not err.startswith("small-value components: "):
        return "small-value component count missing"
    int(err.split(":")[1])
    return None


def check_verify(op: Op, out: str, err: str, refs: dict) -> str | None:
    rep = json.loads(out)
    if rep.get("pass") is not True:
        return f"suite failed: {rep}"
    if rep["suite"] != _flag(op.argv, "--suite") or rep["trials"] != int(_flag(op.argv, "--trials")):
        return "suite or trial count not echoed"
    return None


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and _close(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def check_golden(op: Op, out: str, err: str, refs: dict) -> str | None:
    want = refs["golden"][golden_key(op.argv)]
    got = json.loads(out)
    return None if _same(got, want) else f"output {got} differs from frozen {want}"


def check_bootstrap(op: Op, out: str, err: str, refs: dict) -> str | None:
    rep = json.loads(out)
    system = refs["systems"][op.ref]
    theta = float(_flag(op.argv, "--theta"))
    base, lmax = int(_flag(op.argv, "--N")), int(_flag(op.argv, "--l-max"))
    if rep["depths"] != [base * k for k in range(1, lmax + 1)]:
        return "wrong depths"
    for d, got in zip(rep["depths"], rep["measures"]):
        want = refmath.shadow_measure(system, d, theta)
        if not _close(got, want):
            return f"shadow measure at depth {d}: {got!r} != {want!r}"
    return None


def check_shadow(op: Op, out: str, err: str, refs: dict) -> str | None:
    from favlab import shadow

    system = refs["systems"][op.ref]
    n, theta = int(_flag(op.argv, "--n")), float(_flag(op.argv, "--theta"))
    f, meta = shadow.read_step_csv(io.StringIO(out))
    if meta != {"system": op.ref, "n": str(n), "theta": format(theta, ".17g")}:
        return f"header {meta} does not name the request"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in out.splitlines()[2:]])
    lo, hi, vals = rows.T
    if np.any(vals < 0) or np.any(hi <= lo) or np.any(lo[1:] != hi[:-1]) or vals[0] < 1 or vals[-1] < 1:
        return "cells are not contiguous, empty, negative, or zero at the hull ends"
    # Exact invariant: the profile integrates to L^n single shadows.
    want = len(system["centers"]) ** n * 2.0 * refmath.half_width(system, n, theta)
    written = float(np.dot(vals, hi - lo))
    if not (_close(written, want) and _close(shadow.mass(f), want)):
        return f"mass {written!r} / read back {shadow.mass(f)!r} != L^n 2h = {want!r}"
    support = float(np.sum((hi - lo)[vals >= 1]))
    if not _close(support, refmath.shadow_measure(system, n, theta)):
        return "support measure differs from the union of the projected pieces"
    return None


CHECKS = {
    "favard": check_favard,
    "buffon": check_buffon,
    "spectral": check_spectral,
    "verify": check_verify,
    "golden": check_golden,
    "bootstrap": check_bootstrap,
    "shadow": check_shadow,
}


def check(op: Op, code: int, out: str, err: str, refs: dict) -> str | None:
    """None when the output is correct, else a one-line reason."""
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        return CHECKS[op.check](op, out, err, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
