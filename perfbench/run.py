#!/usr/bin/env python3
"""favlab benchmark: one workload, timed end to end, or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of `favlab.cli.main(argv, stdout=buffer)`,
run back to back by one client (a closed loop).  A pass runs the workload's
list of operations once; passes repeat while the next one is expected to end
within --seconds of measured time.  Every operation's output is checked
(fully on the first pass, for byte-identical output after that); checking is
not timed.

Times are reported at a reference machine speed: a fixed calibration kernel
runs between operations, and each operation's wall time is scaled by
CALIBRATION_REF_S over the mean kernel time just before and after it.  On a
shared machine whose speed drifts by tens of percent over tens of seconds
this cuts the run-to-run spread about threefold; raw wall times are kept in
the record.

--trace 0 reports the end-to-end metrics; --trace 1 spends half the time on
untraced passes and half on traced ones, and reports the per-layer metrics
of the traced passes and the tracing overhead.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the full
record (environment, per-operation times, spans) goes to .bench_out/.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # before any import that set-up pays for

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
# p75 is the highest of the usual percentiles (p75, p90, p95, p99) that keeps at
# least 10 operations beyond it at 96 operations, three passes of 32, which a
# run at its planned --seconds makes on the machine the benchmark was written on.
TAIL_PERCENTILE = 75
OUT_DIR = Path(".bench_out")
UNITS = {"run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# Calibration: interpreter arithmetic and a numpy sort, the two kinds of work
# favlab does.  CALIBRATION_REF_S is about its time on the 2-core Xeon the
# benchmark was written on, so reported times read as seconds there.
CALIBRATION_LOOP = 60_000
CALIBRATION_DATA = np.random.default_rng(0).random(100_000)
CALIBRATION_REF_S = 0.006


def calibration() -> float:
    """Seconds the fixed calibration kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    np.sort(CALIBRATION_DATA)
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import favlab, draw the operations from the seed and warm up on tiny ones."""
    from favlab import cli

    refs = json.loads((HERE / "reference.json").read_text())
    ops = wl.build_ops(workload, seed, refs)
    for op in wl.build_ops(workload, seed, refs, tiny=True):
        run_op(cli, op)
    return cli, ops


def run_op(cli, op: wl.Op) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv), stdout=out)
        except Exception as exc:  # noqa: BLE001 - a crashing operation counts as failed
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes: imports, drawing the operations and
    warm-up, each as the process measured it from the top of this file.
    Interpreter start and process exit are left out; on a shared machine they
    add 0-0.3 s of noise.  Not calibrated: set-up is mostly loading files
    and libraries, which the calibration kernel does not track."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(proc.stdout))
    return samples


@dataclass
class Pass:
    wall: list[float] = field(default_factory=list)  # per operation, seconds
    times: list[float] = field(default_factory=list)  # calibrated, seconds
    spans: list[tuple] = field(default_factory=list)
    out_bytes: int = 0
    busy: float = 0.0  # operations plus calibration, seconds

    @property
    def run_s(self) -> float:
        return sum(self.times)


class Checker:
    """Checks outputs in one child process (`run.py --checker`), so that the
    memory the checks use (reading back MB-scale CSVs) stays out of this
    process's peak RSS.  Requests and answers are pickles over the child's
    stdin and stdout; closing stdin ends the child, and close() waits for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--checker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __call__(self, op: wl.Op, code: int, out: str, err: str) -> str | None:
        pickle.dump((op, code, out, err), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_checks() -> None:
    """The checker child: answer each pickled (op, code, out, err) with
    wl.check's reason, until stdin closes."""
    refs = json.loads((HERE / "reference.json").read_text())
    requests, answers = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but answers on the pipe
    while True:
        try:
            op, code, out, err = pickle.load(requests)
        except EOFError:
            return
        pickle.dump(wl.check(op, code, out, err, refs), answers)
        answers.flush()


class Run:
    """Passes over one list of operations, with their checks and timings.

    `check(op, code, out, err)` gives None for a correct output, else the
    reason it is wrong; main() passes a Checker.
    """

    def __init__(self, cli, ops: list[wl.Op], check):
        self.cli, self.ops, self.check = cli, ops, check
        self.digests: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        """Run every operation once, each between two calibrations."""
        p = Pass()
        if tracer:
            tracer.install()
        try:
            cal = calibration()
            p.busy += cal
            for i, op in enumerate(self.ops):
                elapsed, code, out, err = run_op(self.cli, op)
                if tracer:
                    p.spans += tracer.take()
                after = calibration()
                p.wall.append(elapsed)
                p.times.append(elapsed * 2 * CALIBRATION_REF_S / (cal + after))
                p.busy += elapsed + after
                p.out_bytes += len(out.encode())
                cal = after
                self._check(i, op, code, out, err)
        finally:
            if tracer:
                tracer.uninstall()
        return p

    def _check(self, i: int, op: wl.Op, code: int, out: str, err: str) -> None:
        self.attempted += 1
        digest = hashlib.blake2b(f"{code}\0{out}\0{err}".encode()).hexdigest()
        if self.digests[i] is None:
            reason = self.check(op, code, out, err)
        else:
            reason = None if digest == self.digests[i] else "output differs from the first pass"
        if reason is None:
            self.digests[i] = self.digests[i] or digest
        else:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")

    def passes(self, seconds: float, tracer: tracing.Tracer | None = None) -> list[Pass]:
        """Passes while the next is expected to end within `seconds` of
        measured time (checking excluded); at least one."""
        done: list[Pass] = []
        while not done or (sum(p.busy for p in done)
                           + statistics.median(p.busy for p in done) <= seconds):
            done.append(self.one_pass(tracer))
        return done


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles' 'inclusive' method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def environment(workload: str, seed: int, ops: list[wl.Op]) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    listing = json.dumps([op.argv for op in ops]).encode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "threads": wl.WORKLOADS[workload].threads,
        "seed": seed,
        "operations": len(ops),
        "ops_sha256": hashlib.sha256(listing).hexdigest(),
    }


def traced_metrics(run: Run, seconds: float, record: dict, name: str) -> dict:
    plain = run.passes(seconds / 2)
    traced = run.passes(seconds / 2, tracing.Tracer())
    per_pass = [tracing.layer_metrics(p.spans) | {"cli.out_bytes": p.out_bytes} for p in traced]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead"] = (statistics.median(p.run_s for p in traced)
                                 / statistics.median(p.run_s for p in plain) - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}.tsv"
    tracing.write_spans(spans_path, [s for p in traced for s in p.spans])
    record |= {"per_pass": per_pass, "spans": str(spans_path),
               "untraced_run_s": [p.run_s for p in plain], "traced_run_s": [p.run_s for p in traced]}
    return metrics


def end_to_end_metrics(run: Run, seconds: float, record: dict, setup_samples: list) -> dict:
    done = run.passes(seconds)
    times = [t for p in done for t in p.times]
    tail = percentile(times, TAIL_PERCENTILE)
    beyond = sum(t > tail for t in times)
    metrics = {
        "run_s": statistics.median(p.run_s for p in done),
        "op_p50_ms": 1e3 * percentile(times, 50),
        "op_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record |= {
        "op_times_s": [p.times for p in done],
        "op_wall_s": [p.wall for p in done],
        "wall_run_s": statistics.median(sum(p.wall) for p in done),
        "tail": {"percentile": TAIL_PERCENTILE, "beyond": beyond, "of": len(times)},
    }
    print(f"# {len(done)} passes of {len(run.ops)} operations; op_tail_ms is "
          f"p{TAIL_PERCENTILE}, with {beyond} of {len(times)} operations beyond it; "
          f"uncalibrated wall run_s {record['wall_run_s']!r} s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--checker"]:
        sys.path.insert(0, str(Path.cwd() / "src"))
        serve_checks()
        return 0
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "favlab" / "__init__.py").is_file():
        print("perfbench: no favlab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        setup(args.workload, args.seed)
        print(repr(time.perf_counter() - SETUP_START))
        return 0

    setup_samples = setup_seconds(args.workload, args.seed)
    cli, ops = setup(args.workload, args.seed)
    env = environment(args.workload, args.seed, ops)
    print(f"# favlab benchmark {json.dumps(env)}")
    record: dict = {"env": env, "setup_samples": setup_samples}
    checker = Checker()
    try:
        run = Run(cli, ops, checker)
        if args.trace:
            metrics = traced_metrics(run, args.seconds, record, f"{args.workload}-seed{args.seed}")
            units = tracing.UNITS
        else:
            metrics = end_to_end_metrics(run, args.seconds, record, setup_samples)
            units = UNITS
    finally:
        checker.close()

    failed = len(run.failures)
    for reason in run.failures:
        print(f"# FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name:24s} {value!r} {units[name]}")
    print(f"{'failed_frac':24s} {failed / run.attempted!r} ratio ({failed} of {run.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record | {"result": result, "failures": run.failures}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
