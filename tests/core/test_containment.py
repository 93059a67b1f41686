"""Tests for the containment-direction companion: cluster-by-cluster SLOCAL MaxIS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clusterwise_maxis
from repro.core.containment import is_maximal
from repro.decomposition import ball_carving_decomposition
from repro.exceptions import ReductionError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    independence_number,
    is_maximal_independent_set,
    path_graph,
    random_tree,
    verify_independent_set,
)

from tests.conftest import graphs


class TestClusterwiseMaxIS:
    def test_result_is_maximal_independent_set(self, random_graph):
        result = clusterwise_maxis(random_graph)
        verify_independent_set(random_graph, result.independent_set)
        assert is_maximal(random_graph, result)

    def test_empty_graph(self):
        result = clusterwise_maxis(Graph())
        assert result.independent_set == set()
        assert result.locality == 0

    def test_path_graph_is_solved_optimally(self):
        g = path_graph(9)
        result = clusterwise_maxis(g)
        # Path graphs are easy: every cluster solve is exact, and since the
        # decomposition covers the whole path the selection is near-optimal;
        # at minimum it is maximal and at least half the optimum.
        assert len(result.independent_set) * 2 >= independence_number(g)

    def test_quality_on_small_random_graphs(self):
        for seed in range(3):
            g = erdos_renyi_graph(20, 0.2, seed=seed)
            result = clusterwise_maxis(g)
            alpha = independence_number(g)
            # The cluster-by-cluster optimum never does worse than the trivial
            # (Δ+1) maximality guarantee and usually much better.
            assert len(result.independent_set) * (g.max_degree() + 1) >= alpha

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(grid_graph(6, 6), id="grid-6x6"),
            pytest.param(random_tree(40, seed=61), id="tree-40"),
            pytest.param(erdos_renyi_graph(36, 0.10, seed=62), id="G(36,0.10)"),
            pytest.param(erdos_renyi_graph(36, 0.25, seed=63), id="G(36,0.25)"),
        ],
    )
    def test_within_factor_three_of_optimum(self, graph):
        """E9: the cluster-by-cluster set is within 3 of α on these graphs."""
        result = clusterwise_maxis(graph)
        assert independence_number(graph) <= 3 * len(result.independent_set)

    @pytest.mark.parametrize("radius", range(4))
    def test_every_carving_radius_within_factor_two_on_a_grid(self, radius):
        """E9: on the 7x7 grid every carving radius gives a set within 2 of α."""
        g = grid_graph(7, 7)
        result = clusterwise_maxis(g, decomposition=ball_carving_decomposition(g, radius))
        assert independence_number(g) <= 2 * len(result.independent_set)

    def test_respects_given_decomposition(self):
        g = grid_graph(4, 4)
        decomposition = ball_carving_decomposition(g, radius=1)
        result = clusterwise_maxis(g, decomposition=decomposition)
        assert result.decomposition is decomposition
        assert is_maximal_independent_set(g, result.independent_set)

    def test_cluster_contributions_sum_to_set_size(self, random_graph):
        result = clusterwise_maxis(random_graph)
        assert sum(result.cluster_contributions.values()) == len(result.independent_set)

    def test_locality_reflects_cluster_diameter(self):
        g = cycle_graph(16)
        decomposition = ball_carving_decomposition(g, radius=2)
        result = clusterwise_maxis(g, decomposition=decomposition)
        assert result.locality <= 2 * 2 + 1

    def test_greedy_fallback_for_large_clusters(self):
        g = erdos_renyi_graph(30, 0.15, seed=9)
        result = clusterwise_maxis(g, cluster_size_limit=2)
        assert is_maximal_independent_set(g, result.independent_set)

    def test_uncolored_cluster_rejected(self):
        g = path_graph(4)
        decomposition = ball_carving_decomposition(g, radius=1)
        decomposition.cluster_colors.clear()
        with pytest.raises(ReductionError):
            clusterwise_maxis(g, decomposition=decomposition)

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_always_maximal_property(self, g, radius):
        decomposition = ball_carving_decomposition(g, radius=radius)
        result = clusterwise_maxis(g, decomposition=decomposition)
        assert is_maximal_independent_set(g, result.independent_set)
