"""System construction, presets, piece enumeration."""

import numpy as np
import pytest

import oracles
from favlab import ifs
from favlab.errors import (
    ContainmentViolation,
    EmptySystem,
    EnumerationCapExceeded,
    MixedShapes,
    UnknownPreset,
)


def compose_maps_oracle(system, word):
    """Apply the maps left to right to 0 (independent of oracles.piece_center)."""
    z = 0.0 + 0.0j
    for letter in reversed(word):
        z = system.centers()[letter] + system.ratio * z
    return z


def test_gasket_preset_matches_closed_form_centers():
    g = ifs.preset("gasket")
    assert g.branching == 3
    assert g.shape == ifs.DISC
    assert g.ratio == pytest.approx(1 / 3, abs=0)
    expected = {np.exp(1j * np.pi * (0.5 + 2 * a / 3)) / 3 for a in (-1, 0, 1)}
    for c in g.centers():
        assert min(abs(c - e) for e in expected) < 1e-15


def test_corner4_preset_tiles_unit_square():
    c4 = ifs.preset("corner4")
    assert c4.branching == 4
    assert c4.shape == ifs.SQUARE
    assert c4.root_size == 0.5
    for c in c4.centers():
        assert abs(abs(c.real) - 0.375) < 1e-15
        assert abs(abs(c.imag) - 0.375) < 1e-15


def test_random_preset_is_deterministic_and_valid():
    a = ifs.preset("random-5-seed11")
    b = ifs.preset("random-5-seed11")
    assert a == b
    assert a.branching == 5
    for c in a.centers():
        assert abs(c) + a.ratio <= 1 + 1e-9


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        ifs.preset("bogus")


def test_build_rejects_escaping_map():
    with pytest.raises(ContainmentViolation):
        ifs.build_system([0.9 + 0j], 0.5, ifs.DISC)


def test_build_accepts_a_root_size_up_to_2_to_the_256():
    system = ifs.build_system([0.5 + 0j, -0.5 + 0j], 0.25, ifs.DISC, root_size=2.0**256)
    assert system.root_size == 2.0**256
    for size in (2.0**257, 1e308):
        with pytest.raises(ContainmentViolation, match=r"exceeds 2\^256"):
            ifs.build_system([0.5 + 0j, -0.5 + 0j], 0.25, ifs.DISC, root_size=size)


def test_build_rejects_empty_and_single_and_unknown_shape():
    with pytest.raises(EmptySystem):
        ifs.build_system([], 0.25, ifs.DISC)
    with pytest.raises(EmptySystem):
        ifs.build_system([0.1 + 0j], 0.25, ifs.DISC)
    with pytest.raises(MixedShapes):
        ifs.build_system([0.1 + 0j, -0.1 + 0j], 0.25, "hexagon")


def test_piece_center_examples():
    g = ifs.preset("gasket")
    assert oracles.piece_center(g, []) == 0
    top = 1  # letters 0,1,2 <-> lower right, top, lower left
    assert abs(oracles.piece_center(g, [top]) - 1j / 3) < 1e-15
    assert abs(oracles.piece_center(g, [top, top]) - 4j / 9) < 1e-15


def test_piece_center_equals_map_composition_to_depth_20():
    rng = np.random.Generator(np.random.Philox(2))
    for name in ("gasket", "corner4", "random-4-seed3"):
        system = ifs.preset(name)
        for _ in range(50):
            depth = int(rng.integers(0, 21))
            word = list(rng.integers(0, system.branching, depth))
            direct = oracles.piece_center(system, word)
            assert abs(direct - compose_maps_oracle(system, word)) < 1e-12


def test_enumerate_counts_and_sizes():
    g = ifs.preset("gasket")
    centers = ifs.piece_centers(g, 0)
    assert centers.size == 1 and ifs.piece_size(g, 0) == 1.0 and centers[0] == 0

    assert ifs.piece_centers(g, 2).size == 9
    assert ifs.piece_size(g, 2) == (1 / 3) ** 2

    c4 = ifs.preset("corner4")
    assert ifs.piece_centers(c4, 3).size == 64
    assert ifs.piece_size(c4, 3) == 0.5 * 0.25**3


def test_enumeration_is_lexicographic():
    g = ifs.preset("gasket")
    centers = ifs.piece_centers(g, 2).tolist()
    expected = [
        oracles.piece_center(g, [a, b]) for a in range(3) for b in range(3)
    ]
    assert centers == expected
    for name in ("gasket", "corner4", "random-5-seed11"):
        system = ifs.preset(name)
        for depth in range(5):
            words = [p.center for p in oracles.enumerate_pieces(system, depth)]
            assert np.abs(ifs.piece_centers(system, depth) - words).max() < 1e-15


def test_uncached_enumeration_is_read_only_and_matches_sampled_words():
    # Gasket depth 13 has 3^13 = 1,594,323 > 2^20 pieces, past the cache.
    g = ifs.preset("gasket")
    centers = ifs.piece_centers(g, 13)
    assert centers.size == 3**13 and not centers.flags.writeable
    rng = np.random.Generator(np.random.Philox(13))
    for index in rng.integers(0, 3**13, 50).tolist():
        word = [index // 3 ** (12 - k) % 3 for k in range(13)]
        assert abs(centers[index] - oracles.piece_center(g, word)) < 1e-15


def test_enumeration_cap():
    g = ifs.preset("gasket")
    with pytest.raises(EnumerationCapExceeded):
        ifs.piece_centers(g, 5, cap=100)


def test_nesting_on_sampled_words():
    rng = np.random.Generator(np.random.Philox(4))
    for name in ("gasket", "corner4"):
        system = ifs.preset(name)
        for _ in range(40):
            depth = int(rng.integers(1, 8))
            word = list(rng.integers(0, system.branching, depth))
            child = oracles.piece_center(system, word)
            parent = oracles.piece_center(system, word[:-1])
            gap = abs(child - parent)
            parent_size = ifs.piece_size(system, depth - 1)
            child_size = ifs.piece_size(system, depth)
            if system.shape == ifs.DISC:
                assert gap + child_size <= parent_size + 1e-9
            else:
                d = child - parent
                reach = max(abs(d.real), abs(d.imag)) + child_size
                assert reach <= parent_size + 1e-9


def test_json_round_trip():
    for name in ("gasket", "corner4", "random-3-seed7"):
        system = ifs.preset(name)
        again = ifs.system_from_json(ifs.system_to_json(system))
        assert again == system


def test_json_defaults_root_size():
    text = '{"label":"demo","shape":"disc","ratio":0.25,"centers":[[0.5,0],[-0.5,0]]}'
    system = ifs.system_from_json(text)
    assert system.root_size == 1.0
    assert system.branching == 2
