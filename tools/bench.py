#!/usr/bin/env python3
"""Paired benchmark of the working tree against a base commit.

Run from the repository root:

    python3 tools/bench.py --label mychange --first-seed 801 --pairs stacking=10 quadrature=6

For each workload it runs `perfbench/run.py --trace 0` for the run length
that BENCHMARK.json declares, once on a clean export of the base commit
(`git archive`, in a temporary directory removed on every way out) and once
on the working tree, alternating which side goes first; N must be even,
so each side goes first in half the pairs.  Pair i of every workload uses
seed first-seed + i on both sides.  Each side then makes
TRACED_RUNS `--trace 1` runs per workload at the first seed, again
alternating which side goes first, for the per-layer counters and times.

It writes BENCH_<label>.json: the environment, and per workload and metric each
side's runs, median and quartiles, the change of the medians, the change's
win count over the pairs, whether that is a gain (at least 10 pairs, wins in
at least 9 of 10 and a median gap wider than the base's quartile spread) and
whether the change's median is worse than the base's by more than the bound
in BENCHMARK.json, and whether it is unresolved (the base's own runs span
more than the bound times their median, and not every head run beats every
base run); per side, each traced metric's min, median and max over its
traced runs; and the change in src/ lines between
the base and the working tree (added, deleted and net, from
`git diff --numstat`; files git does not track yet count as added).
It then prints one row per workload and metric: each side's median with its
q1..q3, the change, the wins and the flags; then, per workload, one row per
traced per-layer metric that is nonzero on either side: each side's median
with its min..max over the traced runs, and the change of the medians.
perfbench/ is only run, never edited.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
# Traced runs per side and workload: one run's layer times are a single
# sample, and three give each one a range.
TRACED_RUNS = 3


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_line_change(base: str, root: Path = ROOT) -> dict:
    """Lines added and deleted under src/ from commit `base` to the working tree."""
    added = deleted = 0
    for line in git("diff", "--numstat", base, "--", "src", cwd=root).splitlines():
        a, d, _ = line.split("\t", 2)
        if a != "-":  # binary files have no line counts
            added += int(a)
            deleted += int(d)
    for name in git("ls-files", "--others", "--exclude-standard", "--", "src",
                    cwd=root).splitlines():
        added += len((root / name).read_bytes().splitlines())
    return {"added": added, "deleted": deleted, "net": added - deleted}


def export(rev: str, dest: Path) -> None:
    """Write the files of commit `rev` into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`; its result line plus the environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(ln.split(" ", 3)[3]) for ln in lines
               if ln.startswith("# favlab benchmark "))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    return {"env": env, "metrics": metrics}


def traced_spread(trees: dict, workload: str, seed: int, seconds: float) -> dict:
    """Per side, each layer metric's min, median and max over TRACED_RUNS
    traced runs at `seed`, alternating which side goes first."""
    runs = {side: [] for side in SIDES}
    for i in range(TRACED_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_bench(trees[side], workload, seed, seconds, 1)["metrics"])
    out = {}
    for side, metrics in runs.items():
        out[side] = {}
        for name in metrics[0]:
            vals = [m[name] for m in metrics]
            out[side][name] = {"min": min(vals), "median": statistics.median(vals),
                               "max": max(vals)}
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], head: list[float], better: str, bound: float | None) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    out = {
        "base": {"median": bm, "q1": b1, "q3": b3, "runs": base},
        "head": {"median": hm, "q1": h1, "q3": h3, "runs": head},
        "change": hm / bm - 1.0 if bm else None,
        "head_wins": wins,
        "pairs": len(base),
        "gain": len(base) >= 10 and wins >= 0.9 * len(base) and sign * (bm - hm) > b3 - b1,
    }
    if bound is not None:
        out["bound"] = bound
        out["regression"] = sign * (hm - bm) > bound * abs(bm)
        # The base's own spread is wider than the bound, so a change within
        # it cannot be told from noise, unless every head run beats every
        # base run.
        separated = max(sign * h for h in head) < min(sign * b for b in base)
        out["unresolved"] = max(base) - min(base) > bound * abs(bm) and not separated
    return out


def summary_row(workload: str, name: str, m: dict) -> str:
    """One line of the summary table: each side's median with its q1-q3,
    the change of the medians, the head's wins and the verdict flags."""
    cells = []
    for side in SIDES:
        spread = f"({m[side]['q1']:.4g}..{m[side]['q3']:.4g})"
        cells.append(f"{m[side]['median']:10.4g} {spread:22s}")
    change = "" if m["change"] is None else f"{100 * m['change']:+.1f}%"
    flag = " gain" if m["gain"] else ""
    flag += " REGRESSION" if m.get("regression") else ""
    flag += " unresolved" if m.get("unresolved") else ""
    wins = f"{m['head_wins']}/{m['pairs']}"
    return f"{workload:12s} {name:12s} {' '.join(cells)} {change:>8s} {wins}{flag}"


def traced_rows(workload: str, traced: dict, skip) -> list[str]:
    """The per-layer table of one workload: per traced metric not in `skip`
    and nonzero on either side, each side's median with its min-max over
    the traced runs, and the change of the medians."""
    rows = []
    for name in traced["base"]:
        sides = [traced[side][name] for side in SIDES]
        if name in skip or not any(m["min"] or m["max"] for m in sides):
            continue
        cells = [f"{m['median']:10.4g} {'(%.4g..%.4g)' % (m['min'], m['max']):22s}"
                 for m in sides]
        base, head = (m["median"] for m in sides)
        change = f"{100 * (head / base - 1.0):+.1f}%" if base else ""
        rows.append(f"{workload:12s} {name:20s} {' '.join(cells)} {change:>8s}")
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N",
                    help="pairs to run per workload")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    ends = {m["name"]: m for m in declared["end_to_end"]}
    ends["failed_frac"] = {"name": "failed_frac", "better": "lower", "bound": None}
    plan = {}
    for item in args.pairs:
        name, _, count = item.partition("=")
        if name not in {w["name"] for w in declared["workloads"]} or not count.isdigit():
            ap.error(f"--pairs takes WORKLOAD=N with a declared workload, got {item!r}")
        # Each side goes first in half the pairs, so run order cannot bias a metric.
        if int(count) % 2:
            ap.error(f"--pairs takes an even N, got {item!r}")
        plan[name] = int(count)

    # A SIGTERM unwinds like Ctrl-C, so the export is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base_rev = git("rev-parse", args.base)
    report = {
        "base": base_rev,
        "head": git("rev-parse", "HEAD") + (" + uncommitted changes"
                                            if git("status", "--porcelain") else ""),
        "run_seconds": seconds,
        "src_lines": src_line_change(base_rev),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees = {"base": Path(tmp), "head": ROOT}
        export(base_rev, trees["base"])
        for workload, count in plan.items():
            runs = {side: [] for side in SIDES}
            seeds = [args.first_seed + i for i in range(count)]
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_bench(trees[side], workload, seed, seconds, 0))
                    print(f"{workload} seed {seed} {side}: "
                          f"run_s {runs[side][-1]['metrics']['run_s']:.3f}", flush=True)
            row = {
                "seeds": seeds,
                "first": [SIDES[i % 2] for i in range(count)],
                "env": runs["head"][0]["env"],
                "metrics": {
                    name: compare([r["metrics"][name] for r in runs["base"]],
                                  [r["metrics"][name] for r in runs["head"]],
                                  spec["better"], spec["bound"])
                    for name, spec in ends.items()
                },
                "traced": traced_spread(trees, workload, seeds[0], seconds),
            }
            report["workloads"][workload] = row

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'workload':12s} {'metric':12s} {'base':>10s} {'(q1..q3)':22s} "
          f"{'head':>10s} {'(q1..q3)':22s} {'change':>8s} wins")
    for workload, row in report["workloads"].items():
        for name, m in row["metrics"].items():
            print(summary_row(workload, name, m))
    print(f"{'workload':12s} {'traced metric':20s} {'base':>10s} {'(min..max)':22s} "
          f"{'head':>10s} {'(min..max)':22s} {'change':>8s}")
    for workload, row in report["workloads"].items():
        for line in traced_rows(workload, row["traced"], ends):
            print(line)
    lines = report["src_lines"]
    print(f"src/ lines: +{lines['added']} -{lines['deleted']} (net {lines['net']:+d})")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
