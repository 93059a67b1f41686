"""Unit and property tests for the Hypergraph data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exceptions import HypergraphError
from repro.hypergraph import Hypergraph

from tests.conftest import assert_consistent_hypergraph, hypergraphs


class TestConstruction:
    def test_add_edge_returns_id_and_registers_vertices(self):
        h = Hypergraph()
        eid = h.add_edge([1, 2, 3])
        assert h.has_edge(eid)
        assert h.vertices == {1, 2, 3}

    def test_explicit_edge_ids(self):
        h = Hypergraph(edges=[("a", [1, 2]), ("b", [2, 3])])
        assert set(h.edge_ids) == {"a", "b"}
        assert h.edge("a") == frozenset({1, 2})

    def test_bare_edge_iterables_get_auto_ids(self):
        h = Hypergraph(edges=[[1, 2], [3]])
        assert h.num_edges() == 2

    def test_bare_edge_lists_get_sequential_ids(self):
        h = Hypergraph(edges=[[0, 1], [1, 2], [2, 3]])
        assert h.edge_ids == [0, 1, 2]

    def test_empty_edge_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph().add_edge([])

    def test_duplicate_edge_id_rejected(self):
        h = Hypergraph()
        h.add_edge([1], edge_id="x")
        with pytest.raises(HypergraphError):
            h.add_edge([2], edge_id="x")

    def test_duplicate_vertex_sets_allowed_with_distinct_ids(self):
        h = Hypergraph(edges=[(0, [1, 2]), (1, [1, 2])])
        assert h.num_edges() == 2

    def test_auto_ids_do_not_collide_with_explicit_ints(self):
        h = Hypergraph()
        h.add_edge([1], edge_id=0)
        auto = h.add_edge([2])
        assert auto != 0
        assert h.num_edges() == 2


class TestRemoval:
    def test_remove_edge_keeps_vertices(self, small_hypergraph):
        small_hypergraph.remove_edge(0)
        assert not small_hypergraph.has_edge(0)
        assert 0 in small_hypergraph.vertices

    def test_remove_missing_edge_raises(self, small_hypergraph):
        with pytest.raises(HypergraphError):
            small_hypergraph.remove_edge("nope")

    def test_remove_edges_bulk(self, small_hypergraph):
        small_hypergraph.remove_edges([0, 1])
        assert small_hypergraph.num_edges() == 2


class TestQueries:
    def test_sizes(self, small_hypergraph):
        assert small_hypergraph.num_vertices() == 5
        assert small_hypergraph.num_edges() == 4
        assert small_hypergraph.total_edge_size() == 3 + 2 + 3 + 2

    def test_edges_containing_and_degree(self, small_hypergraph):
        assert small_hypergraph.edges_containing(2) == {0, 1}
        assert len(small_hypergraph.edges_containing(0)) == 2

    def test_edges_containing_missing_vertex_raises(self, small_hypergraph):
        with pytest.raises(HypergraphError):
            small_hypergraph.edges_containing(99)

    def test_neighbors(self, small_hypergraph):
        assert small_hypergraph.neighbors(0) == {1, 2, 4}

    def test_equality_and_copy(self, small_hypergraph):
        clone = small_hypergraph.copy()
        assert clone == small_hypergraph
        clone.remove_edge(0)
        assert clone != small_hypergraph

    def test_edge_lookup_missing_raises(self, small_hypergraph):
        with pytest.raises(HypergraphError):
            small_hypergraph.edge("missing")


class TestDerived:
    def test_restrict_to_edges_keeps_vertex_set(self, small_hypergraph):
        restricted = small_hypergraph.restrict_to_edges([1, 3])
        assert restricted.vertices == small_hypergraph.vertices
        assert set(restricted.edge_ids) == {1, 3}

    def test_restrict_to_unknown_edges_raises(self, small_hypergraph):
        with pytest.raises(HypergraphError):
            small_hypergraph.restrict_to_edges([0, "nope"])

    def test_primal_graph_adjacency(self, small_hypergraph):
        primal = small_hypergraph.primal_graph()
        assert primal.has_edge(0, 1)
        assert primal.has_edge(1, 4)
        assert not primal.has_edge(2, 4)

    def test_edge_list_hypergraph_is_consistent(self, small_hypergraph):
        assert_consistent_hypergraph(small_hypergraph)


class TestProperties:
    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_incidence_consistency(self, h):
        assert_consistent_hypergraph(h)
        assert h.total_edge_size() == sum(len(h.edges_containing(v)) for v in h.vertices)

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_copy_round_trip(self, h):
        assert h.copy() == h

    @given(hypergraphs())
    @settings(max_examples=30, deadline=None)
    def test_restrict_then_count(self, h):
        keep = h.edge_ids[::2]
        restricted = h.restrict_to_edges(keep)
        assert restricted.num_edges() == len(keep)
        for e in keep:
            assert restricted.edge(e) == h.edge(e)
