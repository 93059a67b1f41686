"""Regression tests: the maintained num_edges() and the computed max_degree().

``Graph`` keeps an edge counter so that ``num_edges()`` is O(1), and
computes ``max_degree()`` in one pass over the adjacency sets when called.
These tests drive random mutation sequences and compare both values
against a naive recount after every single operation, so any bookkeeping
drift is pinned to the exact mutation that caused it.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph

from tests.conftest import graphs


def _naive_num_edges(g: Graph) -> int:
    return sum(len(g.neighbors(v)) for v in g.vertices) // 2


def _naive_max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in g.vertices), default=0)


def _assert_counters_consistent(g: Graph) -> None:
    assert g.num_edges() == _naive_num_edges(g)
    assert g.max_degree() == _naive_max_degree(g)


class TestIncrementalCounters:
    def test_fresh_graph(self):
        _assert_counters_consistent(Graph())
        _assert_counters_consistent(Graph(vertices=[1, 2], edges=[(3, 4)]))

    def test_duplicate_edge_add_is_noop(self):
        g = Graph(edges=[(1, 2)])
        g.add_edge(2, 1)
        g.add_edge(1, 2)
        _assert_counters_consistent(g)
        assert g.num_edges() == 1

    def test_remove_edge_updates_counters(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_edge(1, 2)
        _assert_counters_consistent(g)
        assert g.max_degree() == 2

    def test_remove_vertex_updates_counters(self):
        g = Graph(edges=[(0, 1), (0, 2), (0, 3), (2, 3)])
        assert g.max_degree() == 3
        g.remove_vertex(0)
        _assert_counters_consistent(g)
        assert g.max_degree() == 1

    def test_max_degree_decays_through_gaps(self):
        # Degree histogram must walk down past empty buckets: one hub of
        # degree 5 among leaves of degree 1.
        g = Graph(edges=[(0, i) for i in range(1, 6)])
        assert g.max_degree() == 5
        g.remove_vertex(0)
        assert g.max_degree() == 0
        _assert_counters_consistent(g)

    def test_copy_and_subgraph_carry_consistent_counters(self, small_graph):
        _assert_counters_consistent(small_graph.copy())
        _assert_counters_consistent(small_graph.subgraph({0, 1, 2, 3}))
        _assert_counters_consistent(small_graph.subgraph(set()))

    def test_random_mutation_sequence(self):
        rng = random.Random(42)
        g = Graph()
        for step in range(400):
            op = rng.random()
            if op < 0.45:
                u, v = rng.sample(range(12), 2)
                g.add_edge(u, v)
            elif op < 0.6:
                g.add_vertex(rng.randrange(16))
            elif op < 0.8:
                edges = list(g.edges())
                if edges:
                    u, v = edges[rng.randrange(len(edges))]
                    g.remove_edge(u, v)
            else:
                verts = sorted(g.vertices)
                if verts:
                    g.remove_vertex(verts[rng.randrange(len(verts))])
            _assert_counters_consistent(g)

    @given(graphs(max_n=10), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_graphs_stay_consistent(self, g, seed):
        rng = random.Random(seed)
        _assert_counters_consistent(g)
        for _ in range(10):
            verts = sorted(g.vertices, key=repr)
            if verts and rng.random() < 0.5:
                g.remove_vertex(verts[rng.randrange(len(verts))])
            else:
                g.add_edge(rng.randrange(14), 14 + rng.randrange(2))
            _assert_counters_consistent(g)
