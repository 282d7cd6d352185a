"""The library holds only what its callers use.

Every public function, class, method and property of `favlab` must be named
in code (as a name, an attribute or an import) somewhere in src/, demos/,
tools/ or perfbench/*.py, outside its own definition; names that only tests
use belong in tests/oracles.py.  Likewise every public annotated field of a
library class must be read as an attribute there, outside its own class, so
that a report holds only what its callers read, and no field of a returned
report or result repeats one of its function's arguments, which the caller
already holds.  The defaulted parameters
of the library's functions are counted and capped, so that a value no caller
sets stays a constant rather than a keyword.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "favlab"
CALLERS = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "demos").rglob("*.py"))
    + sorted((ROOT / "tools").rglob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)
MAX_DEFAULTED_PARAMETERS = 21

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(path: Path):
    """(name, first line, last line) of the public top-level functions and
    classes and of the public methods and properties of those classes."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(path: Path):
    """(identifier, line) of every name, attribute and imported name in code."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    refs = {path: list(_references(path)) for path in CALLERS}
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualname, first, last in _public_definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            used = any(
                ident == name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ident, line in found
            )
            if not used:
                unused.append(f"{path.name}:{qualname}")
    assert unused == []


def test_defaulted_parameters_stay_few():
    count = 0
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS


def _public_fields(path: Path):
    """(Class.field, first line, last line of the class) of every public
    annotated field of the top-level classes."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            ):
                yield f"{node.name}.{item.target.id}", node.lineno, node.end_lineno


def _attribute_reads(path: Path):
    """(attribute, line) of every attribute read in code."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_public_field_is_read_outside_tests():
    reads = {path: list(_attribute_reads(path)) for path in CALLERS}
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualname, first, last in _public_fields(path):
            name = qualname.rsplit(".", 1)[-1]
            read = any(
                attr == name and not (where == path and first <= line <= last)
                for where, found in reads.items()
                for attr, line in found
            )
            if not read:
                unread.append(f"{path.name}:{qualname}")
    assert unread == []


def _field_names(paths) -> dict[str, set[str]]:
    """Annotated field names of each top-level class of the library."""
    fields = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                fields[node.name] = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
    return fields


def test_no_result_echoes_its_arguments():
    paths = sorted(LIBRARY.glob("*.py"))
    fields = _field_names(paths)
    echoes = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.returns:
                continue
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for name in ast.walk(node.returns):
                if isinstance(name, ast.Name) and name.id.endswith(("Report", "Result")):
                    echoes += [f"{name.id}.{f} ({node.name})"
                               for f in sorted(fields.get(name.id, set()) & params)]
    assert echoes == []
