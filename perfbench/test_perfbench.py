"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from favlab import cli, lemmas, shadow, spectral, verify  # noqa: E402

REFS = json.loads((HERE / "reference.json").read_text())


def inline_check(op, code, out, err):
    """Stands in for the checking child process."""
    return wl.check(op, code, out, err, REFS)


def traced_pass(workload: str, seed: int, threads: int | None = None):
    ops = wl.build_ops(workload, seed, REFS, tiny=True, threads=threads)
    run = bench.Run(cli, ops, inline_check)
    p = run.one_pass(tracing.Tracer())
    return run, tracing.layer_metrics(p.spans), p.out_bytes


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    run1, first, _ = traced_pass(workload, 11)
    run2, second, _ = traced_pass(workload, 11)
    assert run1.failures == run2.failures == []
    assert {k: first[k] for k in tracing.DETERMINISTIC} == {
        k: second[k] for k in tracing.DETERMINISTIC
    }
    assert first["cli.ops"] == len(run1.ops)


def test_stacking_counts_do_not_depend_on_threads():
    _, one, _ = traced_pass("stacking", 5, threads=1)
    _, two, _ = traced_pass("stacking", 5, threads=2)
    for key in tracing.DETERMINISTIC + ("stacks.directions", "shadow.profiles"):
        assert one[key] == two[key], key
    assert one["shadow.events"] > 0 and one["stacks.directions"] > 0


def test_each_layer_is_seen_where_it_runs():
    _, quad, _ = traced_pass("quadrature", 3)
    assert quad["favard.theta_evals"] == quad["shadow.profiles"] > 0
    assert quad["favard.converged_frac"] == 1.0
    assert quad["ifs.pieces"] > 0 and quad["favard.needles"] == 0
    _, needle, _ = traced_pass("needle", 3)
    assert needle["favard.needles"] > 0 and needle["shadow.events"] == 0
    _, trans, _ = traced_pass("transform", 3)
    assert trans["spectral.phi_points"] >= trans["lemmas.phi_points"] > 0
    assert trans["lemmas.zero_counts"] > 0 and trans["verify.trials"] > 0
    # interval_union is reached through the names spectral and verify import.
    assert trans["shadow.union_items"] > 0


def test_tracer_restores_every_binding_and_keeps_outputs():
    originals = (shadow.interval_union, spectral.interval_union, lemmas.interval_union,
                 verify.interval_union, dict(verify.SUITES), spectral.ExpPoly.__call__)
    ops = wl.build_ops("transform", 2, REFS, tiny=True)
    plain = [bench.run_op(cli, op)[1:] for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.interval_union is not originals[1]
        assert verify.SUITES["cetsq"] is not originals[4]["cetsq"]
        traced = [bench.run_op(cli, op)[1:] for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (shadow.interval_union, spectral.interval_union, lemmas.interval_union,
            verify.interval_union, dict(verify.SUITES), spectral.ExpPoly.__call__) == originals


def test_self_time_subtracts_overlapping_children_once():
    # A pool span (2) whose two children ran at once in two threads.
    spans = [
        (1, 0, "favard.favard_length", 0.0, 10.0, 1, (1, True)),
        (2, 1, "_parallel.ordered_map", 1.0, 9.0, 1, (4, 2, 7.0)),
        (3, 2, "shadow.multiplicity", 2.0, 6.0, 2, None),
        (4, 2, "shadow.multiplicity", 3.0, 8.0, 3, None),
    ]
    m = tracing.layer_metrics(spans)
    assert m["favard.quad_self_s"] == pytest.approx(2.0)
    assert m["favard.theta_evals"] == 4 and m["favard.rounds"] == 1
    assert m["shadow.profiles"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "needle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_checker_child_answers_and_is_reaped(monkeypatch):
    monkeypatch.chdir(ROOT)
    op = wl.build_ops("needle", 1, REFS, tiny=True)[0]
    _, code, out, err = bench.run_op(cli, op)
    checker = bench.Checker()
    try:
        assert checker(op, code, out, err) is None
        assert checker(op, 1, out, "boom").startswith("exit code 1")
    finally:
        checker.close()
    assert checker.proc.returncode == 0
