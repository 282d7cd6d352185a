"""The column CSV writer in `favlab.emit` against the per-field writers in tests/oracles.py.

Float columns mix nan, +-inf, -0.0, subnormals, magnitudes near 1e+-300 and
ordinary values.  Some tests lower `emit.CHUNK_ROWS` so that short inputs
span several chunks; one profile spans several chunks at the real size.
"""

import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from favlab import emit, ifs, shadow
from favlab.shadow import StepFunction

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.5e-310, 1e-300, -1e300, 1.7976931348623157e308, 1.0 / 3.0, 0.1, 2.0, 1e16, 123456789.0,
]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e299, max_value=1e301),
)
INTS = st.integers(min_value=-(2**62), max_value=2**62)
TEXT = st.text(alphabet="abc-_.% 019", max_size=6)
CHUNKS = st.sampled_from([1, 2, 3, 7, emit.CHUNK_ROWS])


@st.composite
def tables(draw):
    """(header, columns for emit.write_csv, rows for the oracle)."""
    kinds = draw(st.lists(st.sampled_from("fis"), min_size=1, max_size=6))
    n = draw(st.integers(min_value=0, max_value=40))
    columns, plain = [], []
    for kind in kinds:
        if kind == "f":
            vals = draw(st.lists(FLOATS, min_size=n, max_size=n))
            columns.append(np.array(vals, dtype=float))
        elif kind == "i":
            vals = draw(st.lists(INTS, min_size=n, max_size=n))
            columns.append(np.array(vals, dtype=np.int64))
        else:
            vals = draw(st.lists(TEXT, min_size=n, max_size=n))
            columns.append(vals)
        plain.append(vals)
    header = [f"c{j}" for j in range(len(kinds))]
    return header, columns, [list(row) for row in zip(*plain)]


@settings(max_examples=300, deadline=None)
@given(tables(), CHUNKS)
def test_write_csv_matches_per_field_oracle(table, chunk):
    header, columns, rows = table
    buf = io.StringIO()
    with mock.patch.object(emit, "CHUNK_ROWS", chunk):
        emit.write_csv(buf, header, columns)
    assert buf.getvalue() == oracles.csv_rows(header, rows)


def test_one_row_estimate_matches_oracle():
    header = ["system", "n", "method", "value", "error", "param", "seed"]
    row = ["gasket", 4, "quadrature", 0.5441400174951553, 1.1102230246251565e-16, 256, ""]
    columns = [[row[0]], np.array([row[1]]), [row[2]], np.array([row[3]]), np.array([row[4]]),
               [str(row[5])], [row[6]]]
    buf = io.StringIO()
    emit.write_csv(buf, header, columns)
    assert buf.getvalue() == oracles.csv_rows(header, [row])


@st.composite
def profiles(draw):
    """Step functions with arbitrary float breakpoints, the zero profile included."""
    n = draw(st.integers(min_value=0, max_value=40))
    if n == 0:
        return StepFunction(np.empty(0), np.empty(0, dtype=np.int64))
    bp = np.sort(np.array(draw(st.lists(FLOATS, min_size=n + 1, max_size=n + 1)), dtype=float))
    vals = np.array(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64)
    return StepFunction(bp, vals)


def step_csv(writer, f, theta=0.77, depth=3, label="gasket"):
    buf = io.StringIO()
    writer(buf, f, theta, depth, label)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(profiles(), CHUNKS, st.sampled_from([0.0, -0.0, 0.77, math.pi / 6, 1e-300]))
def test_write_step_csv_matches_csv_writer_oracle(f, chunk, theta):
    with mock.patch.object(emit, "CHUNK_ROWS", chunk):
        got = step_csv(shadow.write_step_csv, f, theta)
    assert got == step_csv(oracles.write_step_csv, f, theta)


def test_write_step_csv_across_real_chunks():
    f = shadow.multiplicity(ifs.preset("gasket"), 9, 0.77)
    assert f.values.size > 2 * emit.CHUNK_ROWS
    got = step_csv(shadow.write_step_csv, f, depth=9)
    assert got == step_csv(oracles.write_step_csv, f, depth=9)
    loaded, _ = shadow.read_step_csv(io.StringIO(got))
    assert loaded == f


def test_hypot_is_bit_equal_to_scalar_abs():
    rng = np.random.default_rng(20091231)
    size = 200_000
    mag = 10.0 ** rng.uniform(-300.0, 300.0, size)
    z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    z[: size // 4] = mag[: size // 4] * (rng.random(size // 4) - 0.5) + 1j * (
        10.0 ** rng.uniform(-300.0, 300.0, size // 4)
    )
    got = np.hypot(z.real, z.imag)
    want = np.array([abs(v) for v in z])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.tolist() == [abs(complex(v)) for v in z.tolist()]
