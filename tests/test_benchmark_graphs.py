"""Unit tests for random-regular-graph generation."""

import pytest

from repro.benchmarks.graphs import (
    complete_graph_edges,
    edge_count_for_regular,
    is_regular,
    random_regular_graph,
    ring_graph,
)
from repro.exceptions import BenchmarkError


class TestRegularGraphs:
    @pytest.mark.parametrize("n,d", [(8, 3), (16, 4), (32, 4), (32, 8), (64, 8)])
    def test_generated_graph_is_regular(self, n, d):
        edges = random_regular_graph(n, d, seed=5)
        assert len(edges) == edge_count_for_regular(n, d)
        assert is_regular(edges, n, d)

    def test_deterministic_for_seed(self):
        assert random_regular_graph(20, 4, seed=9) == random_regular_graph(20, 4, seed=9)

    def test_different_seeds_differ(self):
        assert random_regular_graph(20, 4, seed=1) != random_regular_graph(20, 4, seed=2)

    def test_edges_are_normalised_and_unique(self):
        edges = random_regular_graph(16, 4, seed=3)
        assert all(a < b for a, b in edges)
        assert len(set(edges)) == len(edges)

    def test_odd_product_rejected(self):
        with pytest.raises(BenchmarkError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(BenchmarkError):
            random_regular_graph(4, 4)

    def test_degree_too_small_rejected(self):
        with pytest.raises(BenchmarkError):
            random_regular_graph(4, 0)


class TestOtherGraphs:
    def test_ring(self):
        edges = ring_graph(6)
        assert len(edges) == 6
        assert is_regular(edges, 6, 2)
        with pytest.raises(BenchmarkError):
            ring_graph(2)

    def test_complete_graph(self):
        edges = complete_graph_edges(5)
        assert len(edges) == 10
        assert is_regular(edges, 5, 4)

    def test_is_regular_rejects_wrong_degree(self):
        assert not is_regular(ring_graph(6), 6, 3)

    def test_is_regular_rejects_out_of_range_node(self):
        # Node 6 is outside range(6); the degree counts would otherwise match.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]
        assert not is_regular(edges, 6, 2)
        assert not is_regular([(0, -1), (-1, 0)], 2, 1)

    def test_is_regular_rejects_self_loops_and_repeated_edges(self):
        assert not is_regular([(0, 0), (1, 1)], 2, 2)
        assert not is_regular([(0, 1), (1, 0)], 2, 1)
