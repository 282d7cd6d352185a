#!/usr/bin/env python3
"""Same bytes: does the working tree print what a base commit prints?

Run from the repository root:

    python3 tools/samebytes.py BASE

BASE is exported with `git archive` into a temporary directory, removed on
every way out.  Each side runs in a child process that imports that side's
favlab and perfbench and runs, in this order:
- every operation that `perfbench.workloads.build_ops` draws for each
  workload at seeds 1 and 2, full and tiny, through `run_op` of
  `perfbench/run.py` (one in-process `cli.main` call, stderr captured);
- the argv lists of `tests/test_golden_cli.py`, read from the working tree,
  the same way;
- the six demos, each as `python demos/NAME.py` in its own tree.
An item's record is its exit code and the sha256 of its stdout and of its
stderr, with the tree's path written as <tree> (warnings name their file);
a side's digest is the sha256 of its records in order.  The tool prints both
digests, then each item whose exit code, stdout or stderr differs, or that
one side lacks, with the first line where they differ; it exits 1 if any
does and 0 if none does.  perfbench/ is only run, never edited.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench import export  # noqa: E402

SEEDS = (1, 2)


def golden_argvs(root: Path = ROOT) -> list[list[str]]:
    """The argv of each case of GOLDEN in tests/test_golden_cli.py, read
    without importing the test module."""
    module = ast.parse((root / "tests" / "test_golden_cli.py").read_text())
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "GOLDEN" for t in node.targets):
            return [list(case[0]) for case in ast.literal_eval(node.value)]
    raise ValueError("tests/test_golden_cli.py has no GOLDEN list")


def full_spec() -> dict:
    """Every item: all workloads at SEEDS, the golden argv lists, the demos."""
    return {"workloads": None, "seeds": list(SEEDS), "golden": golden_argvs(), "demos": True}


def _items(tree: Path, spec: dict):
    """(name, run) per item of spec, run() giving (exit code, stdout, stderr).
    Imports the favlab and perfbench of `tree`: call it in a child process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run as perfrun
    import workloads as wl
    from favlab import cli

    refs = json.loads((tree / "perfbench" / "reference.json").read_text())

    def in_process(op):
        return lambda: perfrun.run_op(cli, op)[1:]

    def demo(path: Path):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run([sys.executable, str(path)], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=600)
        return proc.returncode, proc.stdout, proc.stderr

    for workload in spec["workloads"] or sorted(wl.WORKLOADS):
        for seed in spec["seeds"]:
            for tiny in (False, True):
                for i, op in enumerate(wl.build_ops(workload, seed, refs, tiny)):
                    size = "tiny" if tiny else "full"
                    yield (f"{workload} seed {seed} {size} #{i}: {' '.join(op.argv)}",
                           in_process(op))
    for i, argv in enumerate(spec["golden"]):
        yield f"golden #{i}: {' '.join(argv)}", in_process(wl.Op(tuple(argv), ""))
    for path in sorted((tree / "demos").glob("*.py")) if spec["demos"] else ():
        yield f"demo {path.name}", lambda path=path: demo(path)


def side_records(tree: Path, spec: dict, only: list[str] | None = None) -> list[dict]:
    """Each item's name, exit code, stdout and stderr from a child process in
    `tree`; the outputs as sha256 digests, or as text for the items in `only`
    (and no others)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.json"
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--side", str(tree),
                        json.dumps(spec), json.dumps(only), str(out)], cwd=tree, check=True)
        return json.loads(out.read_text())


def _write_side(tree: Path, spec: dict, only: list[str] | None, path: Path) -> None:
    records = []
    for name, run in _items(tree, spec):
        if only is not None and name not in only:
            continue
        code, out, err = run()
        texts = [t.replace(str(tree), "<tree>") for t in (out, err)]
        if only is None:
            texts = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        records.append({"name": name, "code": code, "out": texts[0], "err": texts[1]})
    path.write_text(json.dumps(records))


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r['name']}\t{r['code']}\t{r['out']}\t{r['err']}\n".encode())
    return h.hexdigest()


def first_difference(base: dict | None, head: dict | None) -> str:
    """Where two records of one item first differ."""
    if base is None or head is None:
        return "only in " + ("head" if base is None else "base")
    if base["code"] != head["code"]:
        return f"exit code {base['code']} != {head['code']}"
    for stream in ("out", "err"):
        a, b = base[stream].splitlines(), head[stream].splitlines()
        for i in range(max(len(a), len(b))):
            la = a[i] if i < len(a) else "<end>"
            lb = b[i] if i < len(b) else "<end>"
            if la != lb:
                return f"std{stream} line {i + 1}: base {la[:200]!r}, head {lb[:200]!r}"
        if base[stream] != head[stream]:
            return f"std{stream}: line endings differ"
    return "no difference"


def compare(base: Path, head: Path, spec: dict) -> tuple[dict, list[str]]:
    """Each side's digest, and one line per item that differs."""
    trees = {"base": base, "head": head}
    records = {side: side_records(tree, spec) for side, tree in trees.items()}
    digests = {side: digest(rs) for side, rs in records.items()}
    keyed = {side: {r["name"]: r for r in rs} for side, rs in records.items()}
    names = list(dict.fromkeys(r["name"] for rs in records.values() for r in rs))
    differ = [n for n in names if keyed["base"].get(n) != keyed["head"].get(n)]
    if not differ:
        return digests, []
    texts = {side: {r["name"]: r for r in side_records(tree, spec, differ)}
             for side, tree in trees.items()}
    return digests, [f"{n}: {first_difference(texts['base'].get(n), texts['head'].get(n))}"
                     for n in differ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side"]:
        tree, spec, only, path = argv[1:]
        _write_side(Path(tree), json.loads(spec), json.loads(only), Path(path))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="commit to compare the working tree against")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp))
        digests, diffs = compare(Path(tmp), ROOT, full_spec())
    for side, value in digests.items():
        print(f"{side} {value}")
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
