"""The column CSV writer in `favlab.emit` against the per-field writers in tests/oracles.py.

Float columns mix nan, +-inf, -0.0, subnormals, magnitudes near 1e+-300 and
ordinary values.  Some tests lower `emit.CHUNK_ROWS` so that short inputs
span several chunks; one profile spans several chunks at the real size.
"""

import io
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from favlab import cli, emit, ifs, shadow
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
CHUNKS = st.sampled_from([1, 2, 3, 7, emit.CHUNK_ROWS])


@st.composite
def tables(draw):
    """(header, float columns for emit.write_csv, rows for the oracle).

    Integer columns go out only through `write_cells`; the profile tests
    below draw them from INTS and pin the int64 extremes.
    """
    width = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=40))
    plain = [draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(width)]
    columns = [np.array(vals, dtype=float) for vals in plain]
    header = [f"c{j}" for j in range(width)]
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
    rows = [
        ["gasket", 4, "quadrature", 0.5441400174951553, 1.1102230246251565e-16, 256, ""],
        ["corner4", 0, "buffon", 1e-05, 0.0, 1000, 7],
        ["random-3-seed1", 2, "buffon", math.nan, math.inf, 1, 0],
    ]
    for row in rows:
        buf = io.StringIO()
        cli._write_estimate(SimpleNamespace(out=None), buf, *row)
        assert buf.getvalue() == oracles.csv_rows(cli.ESTIMATE_HEADER, [row])


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


def written(values) -> list[str]:
    """The CSV fields `emit.write_csv` writes for one float column."""
    buf = io.StringIO()
    emit.write_csv(buf, ["v"], [np.asarray(values)])
    return buf.getvalue().splitlines()[1:]


def assert_exact(values):
    values = np.asarray(values, dtype=float)
    got = written(values)
    want = [format(v, ".17g") for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_array_route_every_decade_both_signs():
    rng = np.random.default_rng(20091231)
    decades = np.arange(-6, 18)
    mags = 10.0 ** (decades[:, None] + rng.random((decades.size, 10_000)))
    assert_exact(np.concatenate([mags.ravel(), -mags.ravel()]))


def test_array_route_at_powers_of_ten():
    powers = 10.0 ** np.arange(-30, 31)
    near = [powers]
    for _ in range(3):
        near += [np.nextafter(near[-1], 0.0), np.nextafter(near[-1], np.inf)]
    values = np.concatenate(near)
    assert_exact(np.concatenate([values, -values]))


def test_array_route_rounds_half_to_even():
    # Dyadics whose exact expansion has 18 digits, the last a 5: a tie at 17.
    assert written([1479051074934628.75, 2097871207572086.25]) == [
        "1479051074934628.8", "2097871207572086.2"]
    rng = np.random.default_rng(5)
    whole = rng.integers(10**15, 2**51, 20_000)
    ties = np.concatenate([whole + rng.choice([0.25, 0.75], whole.size),
                           whole // 8 + rng.choice([0.125, 0.375, 0.625, 0.875], whole.size)])
    assert_exact(np.concatenate([ties, -ties]))


def test_array_route_edges_fall_back_to_percent():
    big = np.nextafter(1e17, [0.0, np.inf])
    assert_exact([1e17, *big, 1e-4, np.nextafter(1e-4, 0.0), 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.5e-310, np.inf, -np.inf, np.nan, 1.0, 0.5])
    f = StepFunction(np.arange(6.0), np.array([2**63 - 1, -(2**63 - 1), -(2**63), 0, -7]))
    got = step_csv(shadow.write_step_csv, f)
    assert got == step_csv(oracles.write_step_csv, f)
    assert [row.rsplit(",", 1)[1] for row in got.splitlines()[2:]] == [
        "9223372036854775807", "-9223372036854775807", "-9223372036854775808", "0", "-7"]


class Discard:
    def write(self, text):
        return len(text)


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_csv_memory_stays_within_the_percent_route_budget():
    # Peaks of the printf-style writer on the same inputs: 6.46 MiB and 3.2 MiB.
    columns = list(np.random.default_rng(1).random((6, 20_000)))
    header = [f"c{j}" for j in range(6)]
    assert traced_peak_mib(lambda: emit.write_csv(Discard(), header, columns)) <= 6.46
    f = shadow.multiplicity(ifs.preset("gasket"), 10, 0.77)
    assert traced_peak_mib(lambda: shadow.write_step_csv(Discard(), f, 0.77, 10, "gasket")) <= 3.2
