"""Tests for the deterministic and random graph generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import (
    cycle_graph,
    empty_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_tree,
)

from tests.conftest import (
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    is_connected,
    star_graph,
)


class TestDeterministicGenerators:
    def test_empty_graph(self):
        g = empty_graph(4)
        assert g.num_vertices() == 4 and g.num_edges() == 0

    def test_empty_graph_negative_raises(self):
        with pytest.raises(GraphError):
            empty_graph(-1)

    def test_complete_graph_edge_count(self):
        g = complete_graph(6)
        assert g.num_edges() == 15
        assert g.max_degree() == 5

    def test_path_and_cycle(self):
        assert path_graph(5).num_edges() == 4
        assert cycle_graph(5).num_edges() == 5
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_graph(self):
        g = star_graph(7)
        assert g.degree(0) == 7
        assert all(g.degree(leaf) == 1 for leaf in range(1, 8))

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3, 4)
        assert g.num_edges() == 12
        assert g.max_degree() == 4

    def test_grid_graph_size(self):
        g = grid_graph(3, 5)
        assert g.num_vertices() == 15
        assert g.num_edges() == 3 * 4 + 5 * 2

    def test_grid_graph_zero_dimension(self):
        assert grid_graph(0, 5).num_vertices() == 0


class TestRandomGenerators:
    def test_erdos_renyi_extreme_probabilities(self):
        assert erdos_renyi_graph(10, 0.0, seed=1).num_edges() == 0
        assert erdos_renyi_graph(10, 1.0, seed=1).num_edges() == 45

    def test_erdos_renyi_invalid_probability(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(5, 1.5)

    def test_erdos_renyi_reproducible_with_seed(self):
        a = erdos_renyi_graph(20, 0.3, seed=42)
        b = erdos_renyi_graph(20, 0.3, seed=42)
        assert a == b

    def test_erdos_renyi_accepts_random_instance(self):
        rng = random.Random(7)
        g = erdos_renyi_graph(10, 0.5, seed=rng)
        assert g.num_vertices() == 10

    def test_random_tree_is_tree(self):
        g = random_tree(15, seed=3)
        assert g.num_edges() == 14
        assert is_connected(g)

    def test_random_tree_tiny_cases(self):
        assert random_tree(0).num_vertices() == 0
        assert random_tree(1).num_edges() == 0
        assert random_tree(2).num_edges() == 1

    @given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_random_tree_property(self, n, seed):
        g = random_tree(n, seed=seed)
        assert g.num_vertices() == n
        assert g.num_edges() == n - 1
        assert is_connected(g)


class TestDisjointUnion:
    def test_sizes_add_up(self):
        g = disjoint_union(complete_graph(3), path_graph(4))
        assert g.num_vertices() == 7
        assert g.num_edges() == 3 + 3

    def test_no_cross_edges(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert not is_connected(g)
