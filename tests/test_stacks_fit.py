"""Screened geometric fit vs the full-grid loop in tests/oracles.py.

`stacks._fit_geometric` must return exactly the loop's (a, rho, residual)
tuple, and must confirm only a few candidates on bootstrap series.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from favlab import ifs, stacks

GRID = np.linspace(0.001, 0.999, 999)
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SYSTEMS = ("gasket", "corner4", "random-3-seed2")


def depths(l_max):
    return np.arange(1, l_max + 1, dtype=float)


def geometric(l_max, rho, a, b):
    ls = depths(l_max)
    return ls, a * (1.0 - rho**ls) / (1.0 - rho) + b * rho**ls


@st.composite
def series(draw):
    l_max = draw(st.integers(min_value=1, max_value=8))
    ls = depths(l_max)
    kind = draw(st.sampled_from(["random", "zero", "constant", "geometric"]))
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=3))
    if kind == "zero":
        return ls, np.zeros(l_max)
    if kind == "constant":
        return ls, np.full(l_max, scale)
    if kind == "geometric":
        rho = GRID[draw(st.sampled_from([0, 1, 250, 500, 997, 998]))]
        a, b = draw(st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 2))
        return geometric(l_max, rho, scale * a, scale * b)
    values = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                           min_size=l_max, max_size=l_max))
    return ls, scale * np.array(values)


@settings(max_examples=150, deadline=None)
@given(series())
@example(geometric(4, GRID[0], 1.0, 0.5))
@example(geometric(4, GRID[-1], 1.0, 0.5))
@example(geometric(8, GRID[0], 0.3, -1.0))
@example(geometric(8, GRID[-1], 0.3, -1.0))
@example(geometric(6, GRID[421], 2.0, 1.0))
@example((depths(1), np.array([1.0])))
@example((depths(2), np.array([1.0, 0.4])))
@example((depths(8), np.zeros(8)))
@example((depths(64), np.cos(depths(64))))  # longer than any bootstrap series
def test_fit_equals_full_grid_loop(data):
    ls, ys = data
    assert stacks._fit_geometric(ls, ys) == oracles.fit_geometric(ls, ys)


def bootstrap_fit_matches(name, theta, base, l_max):
    rep = stacks.bootstrap_report(ifs.preset(name), theta, base, l_max)
    ys = np.array(rep.measures) / max(rep.measures[0], 1e-300)
    return (rep.geom_a, rep.geom_rho, rep.residual) == oracles.fit_geometric(depths(l_max), ys)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("base, l_max", [(2, 4), (1, 6), (3, 3)])
def test_bootstrap_fit_at_golden_angle(name, base, l_max):
    assert bootstrap_fit_matches(name, GOLDEN_ANGLE, base, l_max)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SYSTEMS), st.floats(min_value=0.0, max_value=math.pi),
       st.sampled_from([(2, 4), (1, 5), (2, 3)]))
def test_bootstrap_fit_at_random_angles(name, theta, schedule):
    assert bootstrap_fit_matches(name, theta, *schedule)


@pytest.mark.parametrize("name, base, l_max", [("corner4", 2, 4), ("gasket", 3, 3)])
def test_bootstrap_fit_confirms_few_candidates(name, base, l_max, monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    system = ifs.preset(name)
    for theta in np.linspace(0.0, np.pi, 16, endpoint=False):
        calls.clear()
        stacks.bootstrap_report(system, float(theta), base, l_max)
        assert 1 <= len(calls) <= 8, (theta, len(calls))
