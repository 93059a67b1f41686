"""Tests for the concrete SLOCAL algorithms (MIS, greedy coloring)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    is_maximal_independent_set,
    is_proper_coloring,
    num_colors,
)
from repro.slocal import (
    SLOCALEngine,
    SLOCALMIS,
    adversarial_orders,
    slocal_greedy_coloring,
    slocal_mis,
)

from tests.conftest import complete_graph, graphs, star_graph


class TestSLOCALMIS:
    def test_produces_maximal_independent_set(self, random_graph):
        mis = slocal_mis(random_graph)
        assert is_maximal_independent_set(random_graph, mis)

    def test_valid_for_every_adversarial_order(self, random_graph):
        for order in adversarial_orders(random_graph, n_random=2, seed=5):
            mis = slocal_mis(random_graph, order=order)
            assert is_maximal_independent_set(random_graph, mis)

    def test_locality_is_one(self):
        assert SLOCALMIS.locality == 1

    def test_complete_graph_mis_is_single_vertex(self):
        assert len(slocal_mis(complete_graph(6))) == 1

    def test_empty_graph(self):
        from repro.graphs import Graph

        assert slocal_mis(Graph()) == set()

    def test_isolated_vertices_always_join(self):
        from repro.graphs import Graph

        g = Graph(vertices=[1, 2, 3])
        assert slocal_mis(g) == {1, 2, 3}

    @given(graphs(), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=40, deadline=None)
    def test_mis_valid_for_random_orders(self, g, seed):
        from repro.slocal import random_order

        mis = slocal_mis(g, order=random_order(g, seed=seed))
        assert is_maximal_independent_set(g, mis)


class TestSLOCALColoring:
    def test_produces_proper_coloring_with_delta_plus_one_colors(self, random_graph):
        coloring = slocal_greedy_coloring(random_graph)
        assert is_proper_coloring(random_graph, coloring)
        assert num_colors(coloring) <= random_graph.max_degree() + 1

    def test_star_graph_two_colors(self):
        assert num_colors(slocal_greedy_coloring(star_graph(6))) == 2

    @given(graphs(), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=40, deadline=None)
    def test_coloring_valid_for_random_orders(self, g, seed):
        from repro.slocal import random_order

        coloring = slocal_greedy_coloring(g, order=random_order(g, seed=seed))
        assert is_proper_coloring(g, coloring)
        if g.num_vertices():
            assert num_colors(coloring) <= g.max_degree() + 1


class TestEngineIntegration:
    def test_mis_and_coloring_share_engine(self, random_graph):
        engine = SLOCALEngine(random_graph)
        mis_result = engine.run(SLOCALMIS())
        assert mis_result.locality == 1
        assert set(mis_result.outputs) == random_graph.vertices
