"""Deterministic CSV/JSON emission with stable field order.

Floats are serialized with 17 significant digits (`"%.17g"`, the same bytes
as `format(x, ".17g")`), so equal inputs produce byte-identical files.

CSV goes out a column at a time: `write_csv` takes whole columns (numpy
float or int arrays, or lists of already formatted strings) and writes them
`CHUNK_ROWS` rows at a time.  A chunk is one printf-style format: the row
template ("%.17g" for a float column, "%s" otherwise) repeated once per row,
applied to the chunk's values interleaved row by row.  Each value is
formatted once, and the text in flight is one chunk, not the whole file.
"""

from __future__ import annotations

import contextlib
import json
from typing import Mapping, Sequence

import numpy as np

CHUNK_ROWS = 1 << 14


def float_strings(values: np.ndarray) -> list[str]:
    """Each float formatted once with %.17g, in one format call."""
    return ("%.17g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]


def write_rows(stream, columns: Sequence) -> None:
    """Write equal-length columns as CSV rows with one format over all their values.

    A column is a numpy array (floats as %.17g, anything else via str) or a
    list of strings written as they are.
    """
    rows, width = len(columns[0]), len(columns)
    values: list = [None] * (rows * width)
    template = []
    for j, col in enumerate(columns):
        if isinstance(col, list):
            template.append("%s")
            values[j::width] = col
        else:
            template.append("%.17g" if col.dtype.kind == "f" else "%s")
            values[j::width] = col.tolist()
    stream.write((",".join(template) + "\n") * rows % tuple(values))


def write_csv(stream, header: Sequence[str], columns: Sequence) -> None:
    """A header line, then the rows of `columns`, CHUNK_ROWS rows per write."""
    stream.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        write_rows(stream, [c[lo : lo + CHUNK_ROWS] for c in columns])


def _round_trip(obj):
    if isinstance(obj, float):
        return float(format(obj, ".17g"))
    if isinstance(obj, Mapping):
        return {k: _round_trip(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_trip(v) for v in obj]
    return obj


def json_report(obj: Mapping) -> str:
    return json.dumps(_round_trip(obj), sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def output(path: str | None, stdout):
    """The stream to write to: `stdout` for no path or "-", else the opened file."""
    if path is None or path == "-":
        yield stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_text(path: str | None, text: str, stdout) -> None:
    with output(path, stdout) as stream:
        stream.write(text)
