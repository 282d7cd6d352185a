"""tools/bench.py: the src/ line change between a base commit and the tree, the
paired comparison of one metric (gain rule, bound check, direction), the
spread of the traced runs and the rows that print them."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_src_line_change_counts_tracked_and_untracked_src_files(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("one\ntwo\nthree\n")
    (tmp_path / "src" / "blob.bin").write_bytes(b"\x00\x01")
    (tmp_path / "README").write_text("outside src\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    base = bench.git("rev-parse", "HEAD", cwd=tmp_path)

    (tmp_path / "src" / "a.py").write_text("one\nTWO\nthree\nfour\n")  # -1 +2
    (tmp_path / "src" / "blob.bin").write_bytes(b"\x00\x02")  # binary: not counted
    (tmp_path / "src" / "new.py").write_text("a\nb\nc\n")  # untracked: +3
    (tmp_path / "README").write_text("changed\nand longer\n")  # outside src/
    assert bench.src_line_change(base, tmp_path) == {"added": 5, "deleted": 1, "net": 4}

    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "head")
    assert bench.src_line_change(base, tmp_path) == {"added": 5, "deleted": 1, "net": 4}
    assert bench.src_line_change("HEAD", tmp_path) == {"added": 0, "deleted": 0, "net": 0}


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # quartiles 9.925, 10.075


def test_compare_reports_a_gain_from_ten_pairs_with_a_gap_wider_than_the_base_iqr():
    head = [b - 1.0 for b in BASE]
    out = bench.compare(BASE, head, "lower", 0.25)
    assert out["head_wins"] == 10 and out["pairs"] == 10
    assert out["base"]["q1"] == pytest.approx(9.925) and out["base"]["q3"] == pytest.approx(10.075)
    assert out["base"]["median"] == 10.0
    assert out["head"]["median"] == 9.0
    assert out["change"] == 9.0 / 10.0 - 1.0
    assert out["gain"] and not out["regression"]


def test_compare_needs_ten_pairs_for_a_gain():
    head = [b - 1.0 for b in BASE]
    assert not bench.compare(BASE[:9], head[:9], "lower", 0.25)["gain"]


def test_compare_needs_nine_wins_in_ten():
    head = [b - 1.0 for b in BASE]
    head[0] = head[1] = 11.0  # two losses: 8 wins of 10
    out = bench.compare(BASE, head, "lower", 0.25)
    assert out["head_wins"] == 8 and not out["gain"]
    head[1] = BASE[1]  # a tie is not a win: still 8 of 10
    assert bench.compare(BASE, head, "lower", 0.25)["head_wins"] == 8
    head[1] = BASE[1] - 1.0  # 9 of 10
    out = bench.compare(BASE, head, "lower", 0.25)
    assert out["head_wins"] == 9 and out["gain"]


def test_compare_needs_a_median_gap_wider_than_the_base_iqr():
    head = [b - 0.1 for b in BASE]  # wins every pair, but the gap 0.1 < IQR 0.15
    out = bench.compare(BASE, head, "lower", 0.25)
    assert out["head_wins"] == 10 and not out["gain"]
    head = [b - 0.25 for b in BASE]
    assert bench.compare(BASE, head, "lower", 0.25)["gain"]


def test_compare_flags_a_regression_beyond_the_bound_only():
    assert bench.compare(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["regression"] is False
    assert bench.compare(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["regression"] is True
    out = bench.compare(BASE, BASE, "lower", None)
    assert "bound" not in out and "regression" not in out and not out["gain"]


def test_compare_with_higher_better_counts_rises_as_wins():
    up = [b + 1.0 for b in BASE]
    out = bench.compare(BASE, up, "higher", 0.25)
    assert out["head_wins"] == 10 and out["gain"] and not out["regression"]
    down = [b * 0.7 for b in BASE]
    out = bench.compare(BASE, down, "higher", 0.25)
    assert out["head_wins"] == 0 and not out["gain"] and out["regression"]
    assert bench.compare(BASE, up, "lower", 0.25)["head_wins"] == 0


def test_compare_has_no_change_over_a_zero_base_median():
    out = bench.compare([0.0] * 10, [0.0] * 10, "lower", None)
    assert out["change"] is None and out["head_wins"] == 0 and not out["gain"]


def test_compare_flags_a_base_spread_wider_than_the_bound_as_unresolved():
    wide = [1.0, 1.3, 1.0, 1.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]  # spread 0.3 > 0.25 * median 1.0
    out = bench.compare(wide, wide, "lower", 0.25)
    assert out["unresolved"] and not out["regression"]
    assert not bench.compare(BASE, BASE, "lower", 0.25)["unresolved"]  # spread 0.6 < 2.5
    assert not bench.compare(wide, wide, "lower", 0.35)["unresolved"]  # a wider bound resolves it


def test_compare_drops_unresolved_when_every_head_run_beats_every_base_run():
    wide = [1.0, 1.3, 1.0, 1.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert not bench.compare(wide, [0.99] * 10, "lower", 0.25)["unresolved"]
    assert bench.compare(wide, [0.99] * 9 + [1.0], "lower", 0.25)["unresolved"]  # one tie
    assert not bench.compare(wide, [1.31] * 10, "higher", 0.25)["unresolved"]
    assert bench.compare(wide, [1.31] * 10, "lower", 0.25)["unresolved"]


def test_compare_without_a_bound_has_no_unresolved_flag():
    assert "unresolved" not in bench.compare(BASE, BASE, "lower", None)


def test_traced_spread_keeps_min_median_and_max_of_each_side(monkeypatch):
    calls = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed, seconds, trace))
        k = sum(c[0] == tree for c in calls)  # this side's run number, from 1
        shift = 0.0 if tree == "base-tree" else 10.0
        return {"env": {}, "metrics": {"stacks.scan_s": shift + [3.0, 1.0, 2.0, 5.0][k - 1],
                                       "shadow.events": 7}}

    monkeypatch.setattr(bench, "run_bench", fake_run_bench)
    monkeypatch.setattr(bench, "TRACED_RUNS", 3)
    out = bench.traced_spread({"base": "base-tree", "head": "head-tree"}, "stacking", 5, 2.0)
    assert out["base"]["stacks.scan_s"] == {"min": 1.0, "median": 2.0, "max": 3.0}
    assert out["head"]["stacks.scan_s"] == {"min": 11.0, "median": 12.0, "max": 13.0}
    assert out["head"]["shadow.events"] == {"min": 7, "median": 7, "max": 7}
    # Three traced runs a side at one seed, the side that goes first alternating.
    assert [c[0] for c in calls] == ["base-tree", "head-tree", "head-tree", "base-tree",
                                     "base-tree", "head-tree"]
    assert {c[1:] for c in calls} == {("stacking", 5, 2.0, 1)}


@pytest.mark.parametrize("pairs", [["stacking=3"], ["stacking=10", "quadrature=5"]])
def test_an_odd_pair_count_is_a_usage_error_before_anything_runs(pairs, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("ran before the usage check")

    for name in ("git", "export", "run_bench", "traced_spread"):
        monkeypatch.setattr(bench, name, ran)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "odd", "--first-seed", "1", "--pairs", *pairs])
    assert exc.value.code == 2
    assert "--pairs takes an even N, got" in capsys.readouterr().err
    assert not (ROOT / "BENCH_odd.json").exists()


def test_summary_row_prints_each_side_median_and_quartiles():
    out = bench.compare(BASE, [b * 1.3 for b in BASE], "lower", 0.25)
    row = bench.summary_row("quadrature", "setup_s", out)
    assert row == ("quadrature   setup_s              10 (9.925..10.07)                 13"
                   " (12.9..13.1)             +30.0% 0/10 REGRESSION")
    out = bench.compare([0.0] * 10, [0.0] * 10, "lower", None)
    assert bench.summary_row("needle", "failed_frac", out).split() == [
        "needle", "failed_frac", "0", "(0..0)", "0", "(0..0)", "0/10"]


def test_traced_rows_print_nonzero_layer_metrics_with_each_side_spread():
    def spread(lo, mid, hi):
        return {"min": lo, "median": mid, "max": hi}

    traced = {
        "base": {"run_s": spread(1.0, 1.1, 1.2), "lemmas.cetsq_s": spread(0.25, 0.27, 0.28),
                 "ifs.enum_s": spread(0.0, 0.0, 0.0), "stacks.directions": spread(0, 0, 0),
                 "verify.trials": spread(0, 0, 0)},
        "head": {"run_s": spread(0.9, 1.0, 1.1), "lemmas.cetsq_s": spread(0.06, 0.07, 0.08),
                 "ifs.enum_s": spread(0.0, 0.0, 0.0), "stacks.directions": spread(4, 4, 4),
                 "verify.trials": spread(0, 0, 0)},
    }
    rows = bench.traced_rows("transform", traced, {"run_s"})
    # run_s is skipped as end-to-end, ifs.enum_s and verify.trials as zero on
    # both sides; a zero base median prints no change.
    assert rows == [
        "transform    lemmas.cetsq_s             0.27 (0.25..0.28)                 0.07"
        " (0.06..0.08)             -74.1%",
        "transform    stacks.directions             0 (0..0)                          4"
        " (4..4)                         ",
    ]
