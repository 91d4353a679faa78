import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmarl import netgraph
from nmarl.errors import DisconnectedGraph, IndexOutOfRange

from support import bfs_distances, connected_graphs, line_graph


class TestBuildGraph:
    def test_smallest_connected_graph(self):
        g = netgraph.build_graph(2, [(1, 2)])
        assert g.neighbors[0] == (0, 1)
        assert g.neighbors[1] == (0, 1)

    def test_isolated_node_rejected(self):
        with pytest.raises(DisconnectedGraph):
            netgraph.build_graph(3, [(1, 2)])

    def test_bad_ids_rejected(self):
        with pytest.raises(IndexOutOfRange):
            netgraph.build_graph(3, [(1, 4)])
        with pytest.raises(IndexOutOfRange):
            netgraph.build_graph(3, [(0, 1)])
        with pytest.raises(IndexOutOfRange):
            netgraph.build_graph(3, [(2, 2)])

    @pytest.mark.parametrize(
        "n, edges",
        [(3, [(1, "x"), (2, 3)]), (3, [(1.5, 2), (2, 3)]), (3, [(True, 2), (2, 3)]),
         (3.7, [(1, 2), (2, 3)]), (True, [])],
        ids=["text_id", "float_id", "bool_id", "float_n", "bool_n"],
    )
    def test_non_integer_ids_rejected(self, n, edges):
        with pytest.raises(IndexOutOfRange, match="integer"):
            netgraph.build_graph(n, edges)

    def test_one_agent_ring_has_no_edges(self):
        g = netgraph.ring_graph(1)
        assert g.edges == ()
        assert g.neighbors == ((0,),)

    def test_duplicate_edges_tolerated(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 1), (2, 3), (2, 3)])
        assert g.edges == ((0, 1), (1, 2))

    def test_ring_diameter_five(self):
        g = netgraph.ring_graph(10)
        assert max(bfs_distances(g, 0).values()) == 5
        assert len(netgraph.khop(g, 0, 4)) < 10
        assert netgraph.khop(g, 0, 5) == tuple(range(10))

    def test_json_round_trip(self):
        g = netgraph.build_graph(**{"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]})
        assert g == netgraph.ring_graph(4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


class TestWeightMatrix:
    def test_two_agents_half_half(self):
        w = netgraph.weight_matrix(netgraph.build_graph(2, [(1, 2)]))
        assert np.allclose(w, 0.5)

    def test_three_agent_path_columns(self):
        w = netgraph.weight_matrix(line_graph(3))
        np.testing.assert_allclose(w[:, 1], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(w[:, 0], [1 / 2, 1 / 2, 0.0])
        np.testing.assert_allclose(w[:, 2], [0.0, 1 / 2, 1 / 2])

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_column_stochastic_and_positive_diagonal(self, g):
        w = netgraph.weight_matrix(g)
        sums = w.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert np.all(np.diag(w) > 0)
        # support exactly on the direct neighborhood
        for j in range(g.n):
            support = tuple(np.flatnonzero(w[:, j] > 0))
            assert support == g.neighbors[j]

    def test_powers_approach_rank_one(self):
        w = netgraph.weight_matrix(netgraph.ring_graph(10))
        gaps = []
        power = np.linalg.matrix_power(w, 10)
        for _ in range(5):  # t = 10, 20, 40, 80, 160
            nxt = power @ power
            gaps.append(np.linalg.norm(power @ w - power))
            power = nxt
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert np.linalg.norm(np.linalg.matrix_power(w, 200) @ w
                              - np.linalg.matrix_power(w, 200)) < 1e-9


class TestKhop:
    def test_path_center_radius_one(self):
        g = line_graph(3)
        assert netgraph.khop(g, 1, 1) == (0, 1, 2)

    @given(connected_graphs(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_radius_zero_and_bfs_agreement(self, g, kappa):
        for i in range(g.n):
            assert netgraph.khop(g, i, 0) == (i,)
            dist = bfs_distances(g, i)
            expected = tuple(sorted(j for j, dd in dist.items() if dd <= kappa))
            assert netgraph.khop(g, i, kappa) == expected

    def test_ring_center_radius_two(self):
        g = netgraph.ring_graph(10)
        assert netgraph.khop(g, 0, 2) == (0, 1, 2, 8, 9)

    @given(connected_graphs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nesting_and_symmetry(self, g, kappa):
        for i in range(g.n):
            inner = set(netgraph.khop(g, i, kappa))
            outer = set(netgraph.khop(g, i, kappa + 1))
            assert inner <= outer
            for j in range(g.n):
                assert (j in inner) == (i in set(netgraph.khop(g, j, kappa)))

    def test_bad_center(self):
        with pytest.raises(IndexOutOfRange):
            netgraph.khop(line_graph(3), 3, 1)
        with pytest.raises(IndexOutOfRange):
            netgraph.khop(line_graph(3), 0, -1)


class TestHopMask:
    @given(connected_graphs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_rows_mark_khop_members(self, g, kappa):
        mask = netgraph.hop_mask(g, kappa)
        assert mask.shape == (g.n, g.n)
        for i in range(g.n):
            expected = tuple(sorted(j for j, d in bfs_distances(g, i).items() if d <= kappa))
            assert tuple(np.flatnonzero(mask[i])) == expected
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_cached_and_read_only(self):
        g = netgraph.ring_graph(10)
        mask = netgraph.hop_mask(g, 2)
        assert netgraph.hop_mask(netgraph.ring_graph(10), 2) is mask
        with pytest.raises(ValueError):
            mask[0, 5] = 1.0


class TestMaxNeighborhoodSize:
    def test_radius_zero_is_one(self):
        assert netgraph.max_neighborhood_size(line_graph(4), 0) == 1

    def test_ring_radius_one_is_three(self):
        assert netgraph.max_neighborhood_size(netgraph.ring_graph(10), 1) == 3

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_saturates(self, g):
        sizes = [netgraph.max_neighborhood_size(g, k) for k in range(g.n + 1)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == g.n
