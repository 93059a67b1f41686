"""Unit and property tests for the core Graph data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, IndependenceError
from repro.graphs import Graph, erdos_renyi_graph, verify_independent_set

from tests.conftest import complete_graph, graphs


class TestConstruction:
    def test_empty_graph_has_no_vertices_or_edges(self):
        g = Graph()
        assert g.num_vertices() == 0
        assert g.num_edges() == 0
        assert len(g) == 0

    def test_add_vertex_is_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices() == 1

    def test_add_edge_adds_missing_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_add_edge_rejects_self_loops(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_constructor_accepts_vertices_and_edges(self):
        g = Graph(vertices=[5], edges=[(1, 2), (2, 3)])
        assert g.vertices == {1, 2, 3, 5}
        assert g.num_edges() == 2

    def test_duplicate_edge_is_not_double_counted(self):
        g = Graph(edges=[(1, 2), (2, 1)])
        assert g.num_edges() == 1

    def test_vertices_may_be_arbitrary_hashables(self):
        g = Graph(edges=[((1, "a"), frozenset({2}))])
        assert g.has_edge((1, "a"), frozenset({2}))


class TestRemoval:
    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert 1 in g

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            g.remove_edge(1, 3)

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_vertex(2)
        assert 2 not in g
        assert g.num_edges() == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.remove_vertex("missing")


class TestQueries:
    def test_neighbors_returns_copy(self, small_graph):
        nbrs = small_graph.neighbors(1)
        nbrs.add("junk")
        assert "junk" not in small_graph.neighbors(1)

    def test_neighbors_of_missing_vertex_raises(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.neighbors("missing")

    def test_degree_and_max_degree(self, small_graph):
        assert small_graph.degree(2) == 3
        assert small_graph.max_degree() == 3

    def test_degree_of_missing_vertex_raises(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.degree(99)

    @pytest.mark.parametrize(
        "query",
        [
            lambda g: g.adjacent("missing"),
            lambda g: g.remove_edge(0, "missing"),
        ],
        ids=["adjacent", "remove_edge"],
    )
    def test_more_queries_reject_missing_vertices(self, small_graph, query):
        with pytest.raises(GraphError):
            query(small_graph)

    def test_edges_iterates_each_edge_once(self, small_graph):
        edges = list(small_graph.edges())
        assert len(edges) == small_graph.num_edges() == 7
        as_sets = [frozenset(e) for e in edges]
        assert len(set(as_sets)) == len(as_sets)

    def test_contains_and_iter(self, small_graph):
        assert 0 in small_graph
        assert set(iter(small_graph)) == small_graph.vertices

    def test_equality(self):
        a = Graph(edges=[(1, 2)])
        b = Graph(edges=[(2, 1)])
        assert a == b
        b.add_vertex(3)
        assert a != b

    def test_comparison_with_other_types_is_unequal(self):
        assert Graph(vertices=[1, 2]) != {1: set(), 2: set()}


class TestDerivedGraphs:
    def test_copy_is_independent(self, small_graph):
        copy = small_graph.copy()
        copy.add_edge(0, 5)
        assert not small_graph.has_edge(0, 5)
        assert copy.has_edge(0, 5)

    def test_subgraph_keeps_only_internal_edges(self, small_graph):
        sub = small_graph.subgraph({0, 1, 2, 3})
        assert sub.vertices == {0, 1, 2, 3}
        assert sub.has_edge(2, 3)
        assert not sub.has_edge(3, 4)

    def test_subgraph_ignores_foreign_vertices(self, small_graph):
        sub = small_graph.subgraph({0, 1, "not-there"})
        assert sub.vertices == {0, 1}

    def test_complement_of_complete_graph_is_empty(self):
        comp = complete_graph(5).complement()
        assert comp.num_edges() == 0
        assert comp.num_vertices() == 5

    def test_independent_sets_and_cliques(self, small_graph):
        verify_independent_set(small_graph, {0, 4})
        with pytest.raises(IndependenceError):
            verify_independent_set(small_graph, {0, 1})
        # A clique is an independent set of the complement.
        complement = small_graph.complement()
        verify_independent_set(complement, {3, 4, 5})
        with pytest.raises(IndependenceError):
            verify_independent_set(complement, {0, 1, 3})


class TestInterop:
    def test_to_networkx_keeps_vertices_and_edges(self, random_graph):
        nx_graph = random_graph.to_networkx()
        assert set(nx_graph.nodes()) == random_graph.vertices
        assert Graph(vertices=nx_graph.nodes(), edges=nx_graph.edges()) == random_graph


class TestProperties:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges()

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    @given(graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_subgraph_edge_subset(self, g, seed):
        import random as _random

        rng = _random.Random(seed)
        subset = {v for v in g.vertices if rng.random() < 0.5}
        sub = g.subgraph(subset)
        for u, v in sub.edges():
            assert g.has_edge(u, v)
        assert sub.vertices == subset

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_edge_count_matches_complement(self, g):
        n = g.num_vertices()
        assert g.num_edges() + g.complement().num_edges() == n * (n - 1) // 2


def test_repr_contains_sizes():
    g = erdos_renyi_graph(5, 0.5, seed=1)
    assert "Graph" in repr(g)
