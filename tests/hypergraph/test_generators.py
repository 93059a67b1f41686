"""Tests for hypergraph generators: almost-uniform, colorable, interval, sunflower."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import verify_conflict_free_coloring
from repro.exceptions import HypergraphError
from repro.graphs import cycle_graph
from repro.hypergraph import (
    almost_uniform_hypergraph,
    colorable_almost_uniform_hypergraph,
    interval_hypergraph,
    random_interval_hypergraph,
    sunflower_hypergraph,
    uniform_random_hypergraph,
)

from tests.conftest import assert_consistent_hypergraph, graph_as_hypergraph


class TestUniformRandom:
    def test_sizes_and_edge_cardinality(self):
        h = uniform_random_hypergraph(20, 10, 4, seed=1)
        assert h.num_vertices() == 20
        assert h.num_edges() == 10
        assert all(len(h.edge(e)) == 4 for e in h.edge_ids)

    def test_edge_size_larger_than_n_rejected(self):
        with pytest.raises(HypergraphError):
            uniform_random_hypergraph(3, 1, 5)

    def test_zero_edge_size_rejected(self):
        with pytest.raises(HypergraphError):
            uniform_random_hypergraph(3, 1, 0)

    def test_reproducible(self):
        a = uniform_random_hypergraph(15, 8, 3, seed=9)
        b = uniform_random_hypergraph(15, 8, 3, seed=9)
        assert a == b


class TestAlmostUniform:
    def test_edge_sizes_within_band(self):
        h = almost_uniform_hypergraph(30, 20, k=4, epsilon=0.5, seed=2)
        for e in h.edge_ids:
            assert 4 <= len(h.edge(e)) <= 6
        sizes = [len(h.edge(e)) for e in h.edge_ids]
        assert max(sizes) <= 1.5 * min(sizes)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(10, 5, k=2, epsilon=0.0)
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(10, 5, k=2, epsilon=1.5)

    def test_band_exceeding_n_rejected(self):
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(5, 3, k=4, epsilon=1.0)


class TestColorableAlmostUniform:
    def test_planted_coloring_is_conflict_free(self):
        h, planted = colorable_almost_uniform_hypergraph(40, 25, k=4, epsilon=0.5, seed=3)
        verify_conflict_free_coloring(h, planted, k=4, require_total=True)

    def test_edge_sizes_respect_band(self):
        h, _ = colorable_almost_uniform_hypergraph(40, 25, k=4, epsilon=0.5, seed=3)
        sizes = [len(h.edge(e)) for e in h.edge_ids]
        assert max(sizes) <= 1.5 * min(sizes)

    def test_single_color_case(self):
        # With k = 1 every vertex has color 1, so only singleton edges can be happy.
        h, planted = colorable_almost_uniform_hypergraph(10, 5, k=1, epsilon=1.0, seed=4)
        verify_conflict_free_coloring(h, planted, k=1)
        assert all(len(h.edge(e)) == 1 for e in h.edge_ids)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(HypergraphError):
            colorable_almost_uniform_hypergraph(3, 2, k=4, epsilon=0.5)

    @pytest.mark.parametrize("k, epsilon", [(2, 0.0), (2, 1.5), (0, 0.5), (-1, 1.0)])
    def test_invalid_parameters_rejected(self, k, epsilon):
        with pytest.raises(HypergraphError):
            colorable_almost_uniform_hypergraph(10, 5, k=k, epsilon=epsilon)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=30, deadline=None)
    def test_planted_coloring_property(self, k, m, seed):
        n = 4 * k + 2
        h, planted = colorable_almost_uniform_hypergraph(n, m, k=k, epsilon=1.0, seed=seed)
        assert_consistent_hypergraph(h)
        verify_conflict_free_coloring(h, planted, k=k, require_total=True)
        assert h.num_edges() == m


class TestIntervalHypergraphs:
    def test_membership_matches_geometry(self):
        points = [0.1, 0.4, 0.6, 0.9]
        h = interval_hypergraph(points, [(0.0, 0.5), (0.5, 1.0), (0.35, 0.65)])
        assert h.edge(0) == frozenset({0, 1})
        assert h.edge(1) == frozenset({2, 3})
        assert h.edge(2) == frozenset({1, 2})

    def test_empty_intervals_skipped(self):
        h = interval_hypergraph([0.1, 0.9], [(0.4, 0.5)])
        assert h.num_edges() == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(HypergraphError):
            interval_hypergraph([0.5], [(0.9, 0.1)])

    def test_random_interval_hypergraph_edges_are_contiguous(self):
        h = random_interval_hypergraph(20, 12, seed=5)
        for _, members in h.edges():
            indices = sorted(members)
            assert indices == list(range(indices[0], indices[-1] + 1))


class TestStructured:
    def test_graph_as_hypergraph(self):
        g = cycle_graph(5)
        h = graph_as_hypergraph(g)
        assert h.num_edges() == 5
        assert all(len(h.edge(e)) == 2 for e in h.edge_ids)
        assert h.vertices == g.vertices

    def test_sunflower_core_intersection(self):
        h = sunflower_hypergraph(n_petals=4, petal_size=2, core_size=1)
        edges = [h.edge(e) for e in h.edge_ids]
        core = set.intersection(*(set(e) for e in edges))
        assert core == {("core", 0)}
        assert all(len(e) == 3 for e in edges)

    def test_sunflower_invalid_parameters(self):
        with pytest.raises(HypergraphError):
            sunflower_hypergraph(0, 1)
        with pytest.raises(HypergraphError):
            sunflower_hypergraph(2, 0, core_size=0)
