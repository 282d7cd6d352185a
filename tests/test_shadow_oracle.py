"""Array sweep vs the scalar loops in tests/oracles.py: results must be equal.

Widths 0, 1e-13 and 5e-13 sit below the 1e-12 merge tolerance, so the
generated cells mix slivers, coincident endpoints, zero cells at both ends
and runs of equal values.

The support recursion `shadow.support_unions` is checked against the support
of the full profile instead, to 1e-10: it projects each map's center once and
scales, where the profile projects every summed piece center, so the two
agree to rounding, not bit for bit.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from favlab import ifs, shadow, spectral
from favlab.errors import FavlabError
from test_kenyon import slope_line

TOL = shadow.MERGE_TOLERANCE
WIDTHS = st.one_of(
    st.sampled_from([0.0, 1e-13, 5e-13, TOL, 2e-12]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
COINCIDENCE_ANGLES = (0.0, np.pi / 6, np.pi / 4, np.pi / 2)
GENERIC_ANGLES = (0.3, 1.234, 2.9)


def cells(start, widths, values):
    return start + np.concatenate(([0.0], np.cumsum(widths))), values


@st.composite
def raw_cells(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    widths = draw(st.lists(WIDTHS, min_size=n, max_size=n))
    values = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    start = draw(st.sampled_from([-1.0, 0.0, 0.3, 1e6]))
    if n == 0 and draw(st.booleans()):
        return [], []
    return cells(start, widths, values)


@settings(max_examples=400, deadline=None)
@given(raw_cells())
@example(([], []))
@example(([0.5], []))
@example(cells(0.0, [0.0, 1e-13, 5e-13], [1, 2, 3]))  # all slivers
@example(cells(0.0, [1e-13, 0.5, 5e-13, 5e-13, 5e-13, 0.5, 0.0], [2, 0, 1, 2, 3, 0, 4]))
@example(cells(0.0, [0.5, 6e-13, 6e-13, 6e-13, 0.5], [1, 2, 3, 2, 1]))
@example(cells(0.0, [0.5, 0.5, 0.5, 0.5], [0, 1, 1, 0]))
def test_step_function_equals_loop(raw):
    bp, values = raw
    assert shadow.step_function(bp, values) == oracles.step_function(bp, values)


@settings(max_examples=200, deadline=None)
@given(raw_cells())
def test_step_function_is_canonical(raw):
    f = shadow.step_function(*raw)
    if not f.is_zero:
        assert not f.breakpoints.flags.writeable and not f.values.flags.writeable
        assert np.all(np.diff(f.breakpoints) > 0)
        assert np.all(f.values[1:] != f.values[:-1])
        assert f.values[0] != 0 and f.values[-1] != 0
    assert shadow.step_function(f.breakpoints, f.values) == f


def test_step_function_does_not_alias_its_input():
    bp = np.array([0.0, 1.0, 2.0])
    f = shadow.step_function(bp, [1, 2])
    bp[1] = 0.5
    assert list(f.breakpoints) == [0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "bp, values",
    [([0.0, 1.0], [1, 2]), ([0.0, 1.0, 0.5], [1, 2]), ([0.0], [1])],
)
def test_step_function_rejects_what_the_loop_rejects(bp, values):
    for canon in (shadow.step_function, oracles.step_function):
        with pytest.raises(FavlabError):
            canon(bp, values)


PAIR_ENDS = st.one_of(
    st.sampled_from([0.0, 1e-13, 5e-13, TOL, 1.0, 1.0 + 5e-13, 2.0, math.nan]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(PAIR_ENDS, PAIR_ENDS), max_size=30))
@example([])
@example([(0.0, 1.0), (1.0 + 5e-13, 2.0), (2.0, 2.0), (0.5, 0.4)])
@example([(1.0, 0.0)])
# Ties in lo, in either order of hi, among reversed and NaN pairs.
@example([(1.0, 3.0), (0.0, 0.5), (1.0, 2.0), (1.0, 1.0), (2.0, 1.5), (3.0, 4.0), (3.0, 3.5)])
@example([(0.0, 2.0), (math.nan, 1.0), (0.0, 1.0), (1.0, math.nan), (2.0, 2.0), (5.0, -5.0)])
@example([(math.nan, math.nan), (2.0, 1.0)])
def test_interval_union_equals_loop(raw):
    got = shadow.interval_union(raw)
    assert got == oracles.interval_union(raw)
    assert got == shadow.interval_union(np.array(raw, dtype=float).reshape(-1, 2))
    assert got == shadow.interval_union(iter(raw))
    assert_read_only_float64(got)


def assert_read_only_float64(u):
    for ends in (u.lo, u.hi):
        assert ends.dtype == np.float64 and ends.shape == (u.count,)
        assert not ends.flags.writeable


def test_level_intervals_are_read_only_float64_arrays():
    f = shadow.multiplicity(ifs.preset("gasket"), 3, 0.4)
    for k in range(1, shadow.max_value(f) + 2):  # the last level set is empty
        u = oracles.level_intervals(f, k)
        assert_read_only_float64(u)
        raw = [
            (f.breakpoints[i], f.breakpoints[i + 1])
            for i in np.flatnonzero(f.values >= k)
        ]
        assert u == oracles.interval_union(raw)


@pytest.mark.parametrize("threshold", [0.05, 0.3, 1.0])
def test_ssv_scan_cover_equals_loop_union(threshold):
    phi = spectral.t_form(ifs.preset("gasket")).poly(0.37)
    spec = spectral.ProductSpec(8, 2, 3)
    cover = spectral.ssv_scan(phi, spec, threshold, 2000)
    small = oracles.ssv_small_points(phi, spec, threshold, 2000)
    xs = np.linspace(*spectral.low_block_interval(phi, spec), 2000)
    step = xs[1] - xs[0]
    assert cover == oracles.interval_union((x - step, x + step) for x in small)


def events(system, depth, theta):
    proj = (ifs.piece_centers(system, depth, ifs.ENUMERATION_CAP) * np.exp(-1j * theta)).real
    half = shadow.shadow_half_length(system, depth, theta)
    positions = np.concatenate([proj - half, proj + half])
    deltas = np.concatenate(
        [np.ones(proj.size, dtype=np.int64), -np.ones(proj.size, dtype=np.int64)]
    )
    return positions, deltas


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(PAIR_ENDS, st.sampled_from([-1, 1, 2])), max_size=40))
def test_from_events_equals_loop_on_clustered_events(evs):
    positions = np.array([p for p, _ in evs], dtype=float)
    deltas = np.array([d for _, d in evs], dtype=np.int64)
    assert shadow.from_events(positions, deltas) == oracles.from_events(positions, deltas)


@pytest.mark.parametrize("theta", COINCIDENCE_ANGLES + GENERIC_ANGLES)
@pytest.mark.parametrize(
    "name, depths", [("gasket", (0, 1, 3, 6)), ("corner4", (1, 3, 5)), ("random-3-seed1", (2, 5))]
)
def test_from_events_equals_loop_on_profiles(name, depths, theta):
    system = ifs.preset(name)
    for depth in depths:
        positions, deltas = events(system, depth, theta)
        f = shadow.from_events(positions, deltas)
        assert f == oracles.from_events(positions, deltas)
        assert f == shadow.multiplicity(system, depth, theta)


GOLDEN_ANGLES = (0.2, 0.7, 0.77)  # angles of the golden CLI commands
TILING = math.atan(0.5)  # corner4's shadows abut end to end: zero-net clusters
RANDOM_ANGLES = tuple(np.random.Generator(np.random.Philox(808)).uniform(0.0, np.pi, 64))
ROUTE_ANGLES = GOLDEN_ANGLES + COINCIDENCE_ANGLES + (TILING,) + RANDOM_ANGLES


@pytest.mark.parametrize("name", ["gasket", "corner4", "random-3-seed7"])
def test_multiplicity_equals_loop_route(name):
    system = ifs.preset(name)
    for theta in ROUTE_ANGLES:
        for depth in range(8):
            f = shadow.multiplicity(system, depth, theta)
            g = oracles.from_events(*events(system, depth, theta))
            assert f == g, (name, theta, depth)


def test_tiling_angle_has_zero_net_clusters():
    positions, _ = events(ifs.preset("corner4"), 3, TILING)
    pos = np.sort(positions)
    clusters = 1 + np.count_nonzero(np.diff(pos) > TOL)
    f = shadow.multiplicity(ifs.preset("corner4"), 3, TILING)
    assert clusters > f.breakpoints.size


def test_multiplicity_does_not_call_step_function(monkeypatch):
    calls = []
    real = shadow.step_function

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shadow, "step_function", counted)
    for name in ("gasket", "corner4", "random-3-seed7"):
        for theta in GOLDEN_ANGLES + COINCIDENCE_ANGLES + (TILING,):
            for depth in range(6):
                shadow.multiplicity(ifs.preset(name), depth, theta)
    assert calls == []
    # The fallback: a last cell of value 0 goes through step_function.
    shadow.from_events(np.array([0.0, 1.0, 2.0]), np.array([1, -1, 1]))
    assert len(calls) == 1


def test_csv_with_slivers_reads_back_as_the_loop_does():
    # Two 6e-13 slivers after 0.5: the first lies within the tolerance of the
    # kept breakpoint 0.5 and is dropped, the second ends 1.2e-12 past it and
    # is kept; the zero-width cell at the end is dropped.
    text = (
        "# system=hand n=0 theta=0\n"
        "cell_lo,cell_hi,value\n"
        "0,1e-13,5\n"
        "1e-13,0.5,1\n"
        "0.5,0.5000000000006,2\n"
        "0.5000000000006,0.5000000000012,4\n"
        "0.5000000000012,1,1\n"
        "1,1,3\n"
    )
    f, _ = shadow.read_step_csv(io.StringIO(text))
    bp = [0.0, 1e-13, 0.5, 0.5000000000006, 0.5000000000012, 1.0, 1.0]
    assert f == oracles.step_function(bp, [5, 1, 2, 4, 1, 3])
    assert list(f.values) == [1, 4, 1]
    assert list(f.breakpoints) == [1e-13, 0.5, 0.5000000000012, 1.0]


def bits(f):
    """A profile's breakpoints as their float64 bit patterns, and its values."""
    return f.breakpoints.view(np.uint64).tolist(), f.values.tolist()


# Tiling (1/2, 2, 1/5) and non-tiling (1, 1/4, 2/5) slopes of the gasket,
# where many endpoint events coincide.
KENYON_ANGLES = tuple(slope_line(t)[0] for t in (0.5, 2.0, 0.2, 1.0, 0.25, 0.4))
ROW_ANGLES = COINCIDENCE_ANGLES + KENYON_ANGLES + (TILING,) + GENERIC_ANGLES + RANDOM_ANGLES[:8]


@pytest.mark.parametrize("name", ["gasket", "corner4", "random-3-seed1", "random-5-seed2"])
def test_multiplicities_equal_multiplicity_bit_for_bit(name):
    system = ifs.preset(name)
    for depth in range(8):
        # Directions per call, so that one call holds at most 2^18 events.
        step = max(1, 2**17 // system.branching**depth)
        for lo in range(0, len(ROW_ANGLES), step):
            thetas = ROW_ANGLES[lo : lo + step]
            rows = shadow.multiplicities(system, depth, thetas, ifs.ENUMERATION_CAP)
            assert len(rows) == len(thetas)
            for theta, f in zip(thetas, rows):
                assert bits(f) == bits(shadow.multiplicity(system, depth, theta)), (theta, depth)


def test_multiplicities_rows_through_step_function_and_no_rows():
    # Pieces of radius 1e-7^depth: from depth 2 every shadow is shorter than
    # the tolerance, so each row's first cell comes out 0 and the row takes
    # the step_function route; two centers 1e-13 apart stack at depth 1.
    system = ifs.build_system([0.5, -0.5, 0.5 + 1e-13], 1e-7, ifs.DISC)
    thetas = (0.0, 0.3, np.pi / 2)
    for depth in range(4):
        rows = shadow.multiplicities(system, depth, thetas, ifs.ENUMERATION_CAP)
        for theta, f in zip(thetas, rows):
            assert bits(f) == bits(shadow.multiplicity(system, depth, theta))
    assert [f.is_zero for f in shadow.multiplicities(system, 2, thetas, 100)] == [True] * 3
    assert shadow.multiplicities(system, 3, (), ifs.ENUMERATION_CAP) == []


def test_multiplicities_mix_both_routes_in_one_call(monkeypatch):
    # Squares of half-side 4e-13 cast shadows of length 8e-13 (|cos| + |sin|):
    # at most the tolerance near the axes, so those rows' first cells come out
    # 0 and take the step_function route; longer near the diagonals, where the
    # rows take the fast path.
    centers = [0.5 * complex(sx, sy) for sx in (-1, 1) for sy in (-1, 1)]
    system = ifs.build_system(centers, 4e-13, ifs.SQUARE)
    thetas = (0.0, 0.2, 0.5, np.pi / 4, 1.0, np.pi / 2, 2.0, 3.0)
    short = [2 * shadow.shadow_half_length(system, 1, t) <= TOL for t in thetas]
    assert 0 < sum(short) < len(thetas)
    calls = []
    real = shadow.step_function

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shadow, "step_function", counted)
    rows = shadow.multiplicities(system, 1, thetas, ifs.ENUMERATION_CAP)
    assert len(calls) == sum(short)
    for theta, f, tiny in zip(thetas, rows, short):
        assert f.is_zero == tiny
        assert bits(f) == bits(shadow.multiplicity(system, 1, theta)), theta


SUPPORT_ANGLES = COINCIDENCE_ANGLES + KENYON_ANGLES + GENERIC_ANGLES + RANDOM_ANGLES[:4]


@pytest.mark.parametrize("name", ["gasket", "corner4", "random-3-seed1", "random-5-seed2"])
def test_support_unions_equal_profile_support(name):
    system = ifs.preset(name)
    for theta in SUPPORT_ANGLES:
        unions = shadow.support_unions(system, 8, theta)
        assert len(unions) == 9
        for depth, u in enumerate(unions):
            assert_read_only_float64(u)
            assert np.all(u.lo < u.hi) and np.all(u.lo[1:] - u.hi[:-1] > TOL)
            want = shadow.support_measure(shadow.multiplicity(system, depth, theta))
            assert abs(u.measure - want) <= 1e-10, (theta, depth)


def test_support_unions_keep_exact_contacts():
    # Two halves of [-1, 1]: at theta 0 every depth's pieces abut end to end,
    # so the support stays one component of measure exactly 2.
    system = ifs.build_system([0.5, -0.5], 0.5, ifs.DISC)
    for depth, u in enumerate(shadow.support_unions(system, 14, 0.0)):
        assert (u.count, u.measure) == (1, 2.0), depth
        assert shadow.support_measure(shadow.multiplicity(system, depth, 0.0)) == 2.0


@st.composite
def profile_lists(draw):
    return [shadow.step_function(*draw(raw_cells())) for _ in range(draw(st.integers(0, 5)))]


@settings(max_examples=300, deadline=None)
@given(profile_lists())
def test_pointwise_max_equals_values_at_route(profiles):
    assert bits(shadow.pointwise_max(profiles)) == bits(oracles.pointwise_max(profiles))


def test_pointwise_max_equals_values_at_route_on_profiles():
    for name in ("gasket", "corner4", "random-3-seed1"):
        system = ifs.preset(name)
        for theta in ROW_ANGLES:
            fs = [shadow.multiplicity(system, n, theta) for n in range(6)]
            for depths in (fs, fs[1:], fs[3:], fs[5:]):
                assert bits(shadow.pointwise_max(depths)) == bits(oracles.pointwise_max(depths))


def test_pointwise_max_reads_a_right_hull_end_at_a_midpoint():
    # Steps of e = 2^-40 < tolerance: 1 + e and 1 + 2e merge into 1, and 1 + 4e
    # (2e past its neighbour) stays, so the merged cell [1, 1 + 4e) has its
    # midpoint exactly at 1 + 2e, the right hull end of the third profile.
    e = 2.0**-40
    profiles = [
        shadow.step_function([0.0, 1.0], [1]),
        shadow.step_function([0.5, 1.0 + e], [2]),
        shadow.step_function([0.25, 1.0 + 2 * e], [3]),
        shadow.step_function([1.0 + 4 * e, 3.0], [1]),
    ]
    f = shadow.pointwise_max(profiles)
    assert bits(f) == bits(oracles.pointwise_max(profiles))
    assert list(f.breakpoints) == [0.0, 0.25, 1.0 + 4 * e, 3.0] and list(f.values) == [1, 3, 1]
