"""Deterministic CSV/JSON emission with stable field order.

Floats are serialized with 17 significant digits (`"%.17g"`, the same bytes
as `format(x, ".17g")`), so equal inputs produce byte-identical files.

CSV goes out a column at a time: `write_csv` takes whole float columns and
writes them `CHUNK_ROWS` rows at a time, one `stream.write` per chunk;
`write_cells` writes a profile's float breakpoints and integer values.

Each chunk (of the `spectral` CSV, or of a `shadow` profile through
`write_cells`) is formatted by array arithmetic into one zeroed byte buffer
of rows: every value gets a fixed-width field, the fields are followed by
',' or '\\n', and the chunk's text is the buffer without its NUL bytes.
`%.17g` writes 1e-4 <= |x| < 1e17 in fixed notation with exponent
X = floor(log10 |x|), and its 17 digits are N = |x|·10^s rounded half to even,
s = 16 - X in [0, 20].  10^s is an exact double, so Dekker's two-product
(Veltkamp split by 2^27 + 1) gives |x|·10^s exactly as p + e, and
N = int64(p) + floor(e), rounded on the exact fraction e - floor(e).  The
digits of N become ASCII eight at a time by SWAR division in uint64 words;
the point goes after digit X, fraction zeros at the end are dropped, and a
negative X gets the "0.000" prefix.  A value stays on this route only if
X is in [-4, 16] and 10^16 <= N < 10^17, which also catches a wrong log10
decade; every other value (zero, inf, nan, exponent notation) is written
with `"%.17g" % x` into its field.  That fallback is about 0.6% of
a `spectral` CSV's values and 0.02% of a deep `shadow` profile's.  Integer
columns are decimal digit fields the same way.
"""

from __future__ import annotations

import contextlib
import json
from typing import Mapping, Sequence

import numpy as np

CHUNK_ROWS = 1 << 13

# A float field: sign, the "0.000" prefix of exponents -1..-4, then the 17
# digits with the point inserted after digit X: the first digit, two 8-byte
# words and the byte that the point pushes out of the second word.  The
# longest "%.17g" text, "-2.2250738585072014e-308", also fits.
_FLOAT_WIDTH = 24
_SPLIT = 134217729.0  # 2^27 + 1
_ASCII = 0x3030303030303030
# _PREFIX[X + 4]: bytes 1..5 of a field's first word for exponent X in -4..16.
_PREFIX = np.zeros(21, dtype=np.uint64)
for _x in range(-4, 0):
    _PREFIX[_x + 4] = int.from_bytes(b"\0" + b"0." + b"0" * (-1 - _x), "little")
# _KEEP[c]: a word whose first min(c, 8) bytes are 0xff.
_KEEP = np.array([(1 << (8 * min(c, 8))) - 1 for c in range(10)], dtype=np.uint64)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of v into two halves of at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _fallback(out: np.ndarray, values: np.ndarray, rows: np.ndarray) -> None:
    if rows.size:
        text = [b"%.17g" % v for v in values[rows].tolist()]
        out[rows] = np.array(text, dtype=f"S{out.shape[1]}").view(np.uint8).reshape(rows.size, -1)


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, X, ok): |x| = N·10^(X-16) rounded half to even with 10^16 <= N < 10^17.

    ok is False where that does not give %.17g's fixed notation.
    """
    a = np.abs(x)
    decade = np.floor(np.log10(a))
    ok = (decade >= -4) & (decade <= 16)
    exp = np.where(ok, decade, 0).astype(np.int64)
    a = np.where(ok, a, 1.0)
    s = 16 - exp
    p = a * _POW10[s]
    ah, al = _split(a)
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    floor_e = np.floor(e)
    half = floor_e + 0.5
    n = p.astype(np.int64) + floor_e.astype(np.int64)
    n += (e > half) | ((e == half) & (n & 1 == 1))
    # A log10 decade one too low gives N >= 10^17.  One too high gives
    # N < 10^16, or N = 10^16 where %.17g also rounds up to 10^(X+1): it
    # differs only for |x| within 5e-17 relative below 10^(X+1), and no double
    # lies that close below 1e-3, 1e-2, ..., 1e17 (tests check those neighbours).
    ok &= (n >= 10**16) & (n < 10**17)
    n[~ok] = 10**16
    return n, exp, ok


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 v < 10^8 as byte values 0..9, first digit lowest."""
    q = v // 10000
    y = q | ((v - q * 10000) << 32)
    q = ((y * 5243) >> 19) & 0x0000007F0000007F  # /100 in each 32-bit lane
    y = q | ((y - q * 100) << 16)
    q = ((y * 103) >> 10) & 0x000F000F000F000F  # /10 in each 16-bit lane
    return q | ((y - q * 10) << 8)


def _last_byte(w: np.ndarray) -> np.ndarray:
    """Index of the last nonzero byte of each word of digit bytes, -1 for a zero word."""
    flags = (w + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    # The flag bits sit 8 apart, so rounding to a double cannot carry past the
    # top one, and frexp's exponent is its position plus one.
    return (np.frexp(flags.astype(np.float64))[1] >> 3) - 1


def _word(out: np.ndarray, col: int) -> np.ndarray:
    """The uint64 column of the 8 bytes of `out` that start at `col`."""
    return out[:, col : col + 8].view(np.uint64)[:, 0]


def _insert(w: np.ndarray, cut: np.ndarray, byte: np.ndarray) -> np.ndarray:
    """Word `w` with `byte` inserted before its byte `cut` (0..8); the top byte falls off."""
    return (w & _KEEP[cut]) | ((w << 8) & ~_KEEP[cut + 1]) | (byte << 8 * np.minimum(cut, 7))


def _float_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the %.17g text of float64 `x` into the (n, _FLOAT_WIDTH) uint8 view `out`."""
    n, exp, ok = _digits17(x)
    d0 = n // 10**16
    rest = (n - d0 * 10**16).view(np.uint64)
    words = np.empty((2, x.size), dtype=np.uint64)
    words[0] = rest // 10**8
    words[1] = rest - words[0] * 10**8
    words = _ascii8(words)
    last_a, last_b = _last_byte(words)
    last = np.maximum(last_a + 1, np.where(last_b >= 0, last_b + 9, 0))  # last nonzero digit
    # Digits 1..8 and 9..16: ASCII up to the exponent or the last nonzero digit, then NUL.
    shift = np.array([[0], [8]])
    words += _ASCII
    words &= _KEEP[np.clip(np.maximum(last, exp) - shift, 0, 8)]
    # The point follows digit X when a nonzero digit follows it; cut = X, else 16.
    cut = np.where((exp >= 0) & (last > exp), exp, 16).astype(np.uint64)
    a, b = words
    in_a = cut < 8
    cut_a = np.minimum(cut, 8)
    cut_b = np.clip(cut, 8, 16) - 8
    carry = np.where(in_a, a >> 56, np.where(cut < 16, 46, 0).astype(np.uint64))
    _word(out, 0)[:] = (
        (x < 0) * np.uint64(45) | _PREFIX[exp + 4] | ((d0 + 48).view(np.uint64) << 48)
    )
    _word(out, 7)[:] = _insert(a, cut_a, in_a * np.uint64(46))
    _word(out, 15)[:] = _insert(b, cut_b, carry)
    out[:, 23] = (cut < 16) * (b >> 56)
    _fallback(out, x, np.flatnonzero(~ok))


def _int_width(v: np.ndarray) -> int:
    """Field width of int64 `v`: a sign and the digits of its largest magnitude."""
    if v.size == 0:
        return 2
    return 1 + len(str(max(abs(int(v.min())), abs(int(v.max())))))


def _int_fields(v: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal text of int64 `v` into the (n, width) uint8 view `out`."""
    u = v.view(np.uint64)
    u = np.where(v < 0, np.uint64(0) - u, u)  # |v|, also for -2^63
    out[:, 0] = (v < 0) * np.uint8(45)
    for k in range(out.shape[1] - 1, 0, -1):
        q = u // np.uint64(10)
        digit = (u - q * np.uint64(10)).astype(np.uint8) + np.uint8(48)
        out[:, k] = digit if k == out.shape[1] - 1 else digit * (u != 0)
        u = q


def _row_buffer(rows: int, widths: Sequence[int]) -> tuple[bytearray, list[np.ndarray]]:
    """A zeroed row buffer with ',' after each field but the last and '\\n' after that.

    Returns the buffer and a (rows, width) uint8 view of each field.
    """
    width = sum(widths) + len(widths)
    buf = bytearray(rows * width)
    m = np.frombuffer(buf, dtype=np.uint8).reshape(rows, width)
    views, off = [], 0
    for w in widths:
        views.append(m[:, off : off + w])
        m[:, off + w] = 44
        off += w + 1
    m[:, -1] = 10
    return buf, views


def _write_buffer(stream, buf: bytearray) -> None:
    stream.write(buf.translate(None, b"\0").decode("ascii"))


def write_cells(stream, breakpoints: np.ndarray, values: np.ndarray) -> None:
    """Rows (breakpoints[i], breakpoints[i+1], values[i]), CHUNK_ROWS rows per write.

    Each breakpoint is formatted once per chunk: its field is row i's second
    column and row i+1's first.
    """
    for lo in range(0, values.size, CHUNK_ROWS):
        bp = np.asarray(breakpoints[lo : lo + CHUNK_ROWS + 1], dtype=np.float64)
        ints = np.asarray(values[lo : lo + CHUNK_ROWS], dtype=np.int64)
        widths = [_FLOAT_WIDTH, _FLOAT_WIDTH, _int_width(ints)]
        buf, (left, right, val) = _row_buffer(ints.size, widths)
        fields = np.empty((bp.size, _FLOAT_WIDTH), dtype=np.uint8)
        with np.errstate(all="ignore"):
            _float_fields(bp, fields)
            _int_fields(ints, val)
        left[:] = fields[:-1]
        right[:] = fields[1:]
        _write_buffer(stream, buf)


def write_csv(stream, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """A header line, then the rows of equal-length float columns, CHUNK_ROWS rows per write."""
    stream.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        cols = [np.asarray(c[lo : lo + CHUNK_ROWS], dtype=np.float64) for c in columns]
        buf, views = _row_buffer(len(cols[0]), [_FLOAT_WIDTH] * len(cols))
        with np.errstate(all="ignore"):
            for col, view in zip(cols, views):
                _float_fields(col, view)
        _write_buffer(stream, buf)


def json_report(obj: Mapping) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
