"""Tests for Luby's MIS, randomized coloring, and virtual-graph embeddings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import graph_family
from repro.core import ConflictGraph
from repro.exceptions import ModelError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_graph,
    is_maximal_independent_set,
    is_proper_coloring,
    num_colors,
    path_graph,
)
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.local_model import (
    VirtualGraphEmbedding,
    luby_mis,
    randomized_coloring,
    run_simulated,
)

from tests.conftest import complete_graph, graphs


class TestLubyMIS:
    def test_output_is_maximal_independent_set(self, random_graph):
        mis, result = luby_mis(random_graph, seed=1)
        assert result.terminated
        assert is_maximal_independent_set(random_graph, mis)

    def test_isolated_vertices_join(self):
        g = Graph(vertices=[1, 2, 3])
        mis, _ = luby_mis(g, seed=0)
        assert mis == {1, 2, 3}

    def test_complete_graph_selects_exactly_one(self):
        mis, _ = luby_mis(complete_graph(8), seed=2)
        assert len(mis) == 1

    def test_every_vertex_decides(self, random_graph):
        _, result = luby_mis(random_graph, seed=3)
        assert all(out in (True, False) for out in result.outputs.values())

    def test_round_count_reported(self, random_graph):
        _, result = luby_mis(random_graph, seed=4)
        assert result.rounds >= 1

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=30, deadline=None)
    def test_luby_valid_on_random_graphs_and_seeds(self, g, seed):
        mis, result = luby_mis(g, seed=seed)
        assert result.terminated
        assert is_maximal_independent_set(g, mis)

    def test_different_seeds_may_give_different_sets_but_both_valid(self):
        g = erdos_renyi_graph(30, 0.2, seed=11)
        a, _ = luby_mis(g, seed=1)
        b, _ = luby_mis(g, seed=2)
        assert is_maximal_independent_set(g, a)
        assert is_maximal_independent_set(g, b)


class TestRandomizedColoring:
    def test_output_is_proper_and_within_palette(self, random_graph):
        coloring, result = randomized_coloring(random_graph, seed=5)
        assert result.terminated
        assert is_proper_coloring(random_graph, coloring)
        for v, c in coloring.items():
            assert 0 <= c <= random_graph.degree(v)

    def test_total_colors_at_most_delta_plus_one(self, random_graph):
        cases = [(random_graph, 6)] + [(g, 17) for _, g in graph_family()]
        for g, seed in cases:
            coloring, _ = randomized_coloring(g, seed=seed)
            assert is_proper_coloring(g, coloring)
            assert num_colors(coloring) <= g.max_degree() + 1

    def test_path_graph_colors(self):
        coloring, _ = randomized_coloring(path_graph(10), seed=7)
        assert is_proper_coloring(path_graph(10), coloring)

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_randomized_coloring_property(self, g, seed):
        coloring, result = randomized_coloring(g, seed=seed)
        assert result.terminated
        assert is_proper_coloring(g, coloring)


class TestVirtualGraphEmbedding:
    def _embedding(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=9)
        conflict_graph = ConflictGraph(hypergraph, 2)
        host = hypergraph.primal_graph()
        return VirtualGraphEmbedding(host, conflict_graph.graph, conflict_graph.host_assignment())

    def test_conflict_graph_embedding_has_dilation_at_most_two(self):
        embedding = self._embedding()
        assert embedding.dilation() <= 2
        embedding.verify_dilation_bound(2)

    def test_simulation_rounds_scale_with_dilation(self):
        embedding = self._embedding()
        assert embedding.simulation_rounds(0) == 0
        assert embedding.simulation_rounds(5) == 5 * max(embedding.dilation(), 1)

    def test_negative_virtual_rounds_rejected(self):
        embedding = self._embedding()
        with pytest.raises(ModelError):
            embedding.simulation_rounds(-1)

    def test_missing_host_rejected(self):
        host = path_graph(3)
        virtual = Graph(edges=[("a", "b")])
        with pytest.raises(ModelError):
            VirtualGraphEmbedding(host, virtual, {"a": 0})

    def test_host_not_in_host_graph_rejected(self):
        host = path_graph(3)
        virtual = Graph(vertices=["a"])
        with pytest.raises(ModelError):
            VirtualGraphEmbedding(host, virtual, {"a": 99})

    def test_dilation_bound_violation_detected(self):
        host = path_graph(5)
        virtual = Graph(edges=[("a", "b")])
        embedding = VirtualGraphEmbedding(host, virtual, {"a": 0, "b": 4})
        with pytest.raises(ModelError):
            embedding.verify_dilation_bound(2)

    def test_run_simulated_requires_full_output(self):
        embedding = self._embedding()

        def partial_algorithm(graph):
            return {}

        with pytest.raises(ModelError):
            run_simulated(embedding, partial_algorithm)

    def test_run_simulated_passes_through_outputs(self):
        embedding = self._embedding()

        def constant_algorithm(graph):
            return {v: 1 for v in graph.vertices}

        outputs = run_simulated(embedding, constant_algorithm)
        assert set(outputs) == embedding.virtual_graph.vertices

    def test_disconnected_hosts_raise(self):
        host = Graph(vertices=[0, 1])
        virtual = Graph(edges=[("a", "b")])
        embedding = VirtualGraphEmbedding(host, virtual, {"a": 0, "b": 1})
        with pytest.raises(ModelError):
            embedding.dilation()


class TestModelGapComparison:
    def test_slocal_and_local_both_solve_mis_on_same_graph(self):
        from repro.analysis import mis_model_comparison

        g = cycle_graph(12)
        row = mis_model_comparison(g, seed=3)
        assert row["slocal_valid"] == 1.0
        assert row["luby_valid"] == 1.0
        assert row["slocal_locality"] == 1.0
        assert row["luby_rounds"] >= 1.0
