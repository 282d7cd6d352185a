"""tools/samebytes.py: a tree against a copy of itself gives equal digests,
one changed byte in a copy is found and named, and the first differing line
of two records."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("samebytes", ROOT / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samebytes)

# The needle workload's ops at seed 1, full and tiny, and two golden argv lists.
NEEDLE = {
    "workloads": ["needle"],
    "seeds": [1],
    "golden": samebytes.golden_argvs()[:2],
    "demos": False,
}


def copy_tree(dest: Path) -> Path:
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    return dest


def test_golden_argvs_are_the_golden_cases():
    argvs = samebytes.golden_argvs()
    assert len(argvs) > 20
    assert argvs[0][:3] == ["buffon", "--preset", "gasket"]
    assert all(isinstance(a, list) and all(isinstance(w, str) for w in a) for a in argvs)


def test_a_tree_against_a_copy_of_itself_gives_equal_digests(tmp_path):
    digests, diffs = samebytes.compare(copy_tree(tmp_path), ROOT, NEEDLE)
    assert digests["base"] == digests["head"]
    assert diffs == []


def test_one_changed_byte_in_a_copy_is_found_and_named(tmp_path):
    head = copy_tree(tmp_path)
    cli = head / "src" / "favlab" / "cli.py"
    text = cli.read_text()
    assert text.count('"buffon", est') == 1
    cli.write_text(text.replace('"buffon", est', '"buffoN", est'))
    digests, diffs = samebytes.compare(ROOT, head, NEEDLE)
    assert digests["base"] != digests["head"]
    records = samebytes.side_records(ROOT, NEEDLE)
    buffon = [r["name"] for r in records if ": buffon " in r["name"]]
    assert len(buffon) > 10
    assert [d.split(": stdout", 1)[0] for d in diffs] == buffon
    assert all(",buffon," in d and ",buffoN," in d and "stdout line 2:" in d for d in diffs)


def test_first_difference_names_the_stream_and_line():
    rec = {"code": 0, "out": "a\nb\n", "err": ""}
    assert samebytes.first_difference(rec, None) == "only in base"
    assert samebytes.first_difference(None, rec) == "only in head"
    assert samebytes.first_difference(rec, rec | {"code": 2}) == "exit code 0 != 2"
    assert (samebytes.first_difference(rec, rec | {"out": "a\nc\n"})
            == "stdout line 2: base 'b', head 'c'")
    assert (samebytes.first_difference(rec, rec | {"out": "a\n"})
            == "stdout line 2: base 'b', head '<end>'")
    assert (samebytes.first_difference(rec, rec | {"err": "warning\n"})
            == "stderr line 1: base '<end>', head 'warning'")
    assert samebytes.first_difference(rec, rec | {"out": "a\r\nb\n"}) == (
        "stdout: line endings differ")
