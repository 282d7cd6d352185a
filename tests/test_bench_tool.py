"""tools/bench.py: the src/ line change between a base commit and the tree."""

import importlib.util
import subprocess
from pathlib import Path

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
