"""Geometry, path loss, SNR, and neighbor-graph tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamsense.network import (
    Placement,
    build_neighbor_graph,
    default_placement,
    jammer_distance_km,
    received_power_db,
    snr_at_node,
)

from oracles import edges_loop, neighbor_rows_loop


class TestReceivedPower:
    def test_unit_ratio(self):
        assert received_power_db(15.0, 0.05, 0.05, -2.3) == 15.0

    def test_reference_arithmetic(self):
        expected = 15.0 + 10.0 * (-2.3) * math.log10(2.0)
        assert received_power_db(15.0, 0.1, 0.05, -2.3) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(8.076310099728431, abs=1e-12)

    def test_zero_exponent(self):
        for d in (0.01, 0.5, 7.0):
            assert received_power_db(15.0, d, 0.05, 0.0) == 15.0

    def test_strictly_decreasing_with_distance(self):
        distances = np.linspace(0.05, 2.0, 50)
        powers = [received_power_db(15.0, d, 0.05, -2.3) for d in distances]
        assert all(b < a for a, b in zip(powers, powers[1:]))

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            received_power_db(15.0, 0.0, 0.05, -2.3)
        with pytest.raises(ValueError):
            received_power_db(15.0, 0.1, 0.0, -2.3)


class TestSnr:
    def test_zero_db_power_unit_noise(self):
        placement = Placement(
            nodes=((0.05, 0.0),), jammer=(0.0, 0.0), jammer_power_db=0.0
        )
        assert snr_at_node(placement, 0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fifteen_db(self):
        placement = Placement(
            nodes=((0.05, 0.0),), jammer=(0.0, 0.0), jammer_power_db=15.0
        )
        assert snr_at_node(placement, 0, 1.0) == pytest.approx(
            31.622776601683793, abs=1e-9
        )

    def test_doubling_noise_halves_snr(self):
        placement = default_placement(10)
        assert snr_at_node(placement, 2, 2.0) == pytest.approx(
            snr_at_node(placement, 2, 1.0) / 2.0, abs=1e-15
        )

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            snr_at_node(default_placement(4), 4)
        with pytest.raises(ValueError, match="noise_var"):
            snr_at_node(default_placement(4), 0, noise_var=0.0)


@st.composite
def lattice_placements(draw):
    """Up to 300 nodes (the distance test runs in blocks of 128 rows) on a
    1/64-km lattice, where differences and axis-aligned distances are exact.

    Each node after the first is a random lattice point, a copy of an
    earlier node, an earlier node moved exactly `range_km` along an axis,
    or an isolated node 2 km from every other; a jitter off the lattice
    leaves the boundary pairs to rounding.
    """
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from([128, 129, 256, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    range_km = draw(st.integers(1, 40)) / 64
    span = draw(st.integers(1, 200)) / 64
    nodes = [rng.integers(-64 * span, 64 * span, 2, endpoint=True) / 64]
    for i in range(1, n):
        kind = rng.integers(4)
        earlier = nodes[rng.integers(i)]
        if kind == 0:
            nodes.append(rng.integers(-64 * span, 64 * span, 2, endpoint=True) / 64)
        elif kind == 1:
            nodes.append(earlier.copy())
        elif kind == 2:
            step = np.zeros(2)
            step[rng.integers(2)] = rng.choice([-range_km, range_km])
            nodes.append(earlier + step)
        else:
            nodes.append(np.array([1000.0 + 2.0 * i, -1000.0]))
    nodes = np.array(nodes)
    if draw(st.booleans()):
        nodes += rng.uniform(-1e-3, 1e-3, nodes.shape)
    return Placement(nodes=tuple(map(tuple, nodes.tolist())), range_km=range_km)


class TestNeighborGraph:
    def test_boundary_distance_counts_as_neighbor(self):
        placement = Placement(nodes=((0.0, 0.0), (0.45, 0.0)), range_km=0.45)
        graph = build_neighbor_graph(placement)
        assert graph.edges() == ((0, 1),)
        # A graph refuses to compare with anything but a graph.
        assert graph.__eq__(graph.edges()) is NotImplemented and graph != graph.edges()

    def test_tiny_range_gives_empty_graph(self):
        placement = Placement(nodes=((0.0, 0.0), (0.2, 0.0)), range_km=1e-9)
        graph = build_neighbor_graph(placement)
        assert graph.edges() == ()

    def test_far_coordinates_are_not_neighbours(self):
        # 1e308 - (-1e308) overflows to inf, which is out of range, while
        # nodes 0 and 2 differ by 0.1 km.  The build warns about neither.
        placement = Placement(nodes=((1e308, 0.0), (-1e308, 0.0), (1e308, 0.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_neighbor_graph(placement)
        assert graph.edges() == ((0, 2),)

    def test_default_scenario_edges_pinned_and_brute_forced(self):
        placement = default_placement(10)
        graph = build_neighbor_graph(placement)
        assert len(graph.edges()) == 15
        # Brute-force recomputation from pairwise distances.
        expected = set()
        for i in range(10):
            for j in range(i + 1, 10):
                dx = placement.nodes[i][0] - placement.nodes[j][0]
                dy = placement.nodes[i][1] - placement.nodes[j][1]
                if math.hypot(dx, dy) <= placement.range_km:
                    expected.add((i, j))
        assert set(graph.edges()) == expected
        # Ring structure: inner nodes see 4 neighbors, outer nodes 2.
        degrees = np.bincount(graph.fuse_owner) - 1
        assert degrees.tolist() == [4] * 5 + [2] * 5

    def test_symmetric_irreflexive_fuzzed(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            nodes = tuple((float(x), float(y)) for x, y in rng.uniform(-1, 1, (n, 2)))
            placement = Placement(nodes=nodes, range_km=float(rng.uniform(0.05, 1.5)))
            graph = build_neighbor_graph(placement)
            # Each segment lists its owner exactly once, and every other
            # (owner, index) pair appears reversed as well.
            pairs = list(zip(graph.fuse_owner.tolist(), graph.fuse_index.tolist()))
            assert len(set(pairs)) == len(pairs)
            links = [(i, j) for i, j in pairs if i != j]
            assert len(links) == len(pairs) - n
            assert set(links) == {(j, i) for i, j in links}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lattice_placements())
    def test_build_matches_row_loop(self, placement):
        rows = neighbor_rows_loop(placement)
        graph = build_neighbor_graph(placement)
        # Segment i is node i, then rows[i].
        segments = [(i, *row) for i, row in enumerate(rows)]
        expected = {
            "fuse_index": [j for segment in segments for j in segment],
            "fuse_starts": np.cumsum([0] + list(map(len, segments[:-1]))),
            "fuse_owner": [i for i, segment in enumerate(segments) for _ in segment],
        }
        for name, values in expected.items():
            built = getattr(graph, name)
            assert built.dtype == np.intp, name
            assert np.array_equal(built, values), name
            assert not built.flags.writeable, name
        assert graph.edges() == edges_loop(rows)


class TestPlacement:
    def test_default_layout_radii(self):
        placement = default_placement(10)
        assert placement.n_nodes == 10
        for node in placement.nodes[:5]:
            assert math.hypot(*node) == pytest.approx(0.3, abs=1e-12)
        for node in placement.nodes[5:]:
            assert math.hypot(*node) == pytest.approx(0.6, abs=1e-12)
        assert jammer_distance_km(placement, 0) == pytest.approx(0.3, abs=1e-12)

    def test_snr_constant_within_ring(self):
        placement = default_placement(10)
        inner = {round(snr_at_node(placement, i), 12) for i in range(5)}
        outer = {round(snr_at_node(placement, i), 12) for i in range(5, 10)}
        assert len(inner) == 1 and len(outer) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Placement(nodes=((0, 0),), range_km=0.0)
        with pytest.raises(ValueError):
            Placement(nodes=((0, 0),), d0_km=-1.0)
        # NaN fails every comparison, so each check is written to refuse it.
        with pytest.raises(ValueError, match="range_km"):
            Placement(nodes=((0, 0),), range_km=math.nan)
        for d0_km in (math.nan, math.inf):
            with pytest.raises(ValueError, match="d0_km"):
                Placement(nodes=((0, 0),), d0_km=d0_km)
        with pytest.raises(ValueError):
            default_placement(0)
