"""Tests for the conflict graph construction G_k (Section 2 of the paper)."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConflictGraph, ConflictVertex, conflict_vertices, legacy_build_graph
from repro.core.conflict_graph import classify_conflict_edge
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.exceptions import ReductionError
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator

from tests.conftest import hypergraphs


@pytest.fixture
def tiny_hypergraph() -> Hypergraph:
    """Two overlapping edges: e0 = {0, 1}, e1 = {1, 2}."""
    return Hypergraph(edges=[[0, 1], [1, 2]])


class TestVertexSet:
    def test_vertex_count_formula(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        assert cg.num_vertices() == 2 * (2 + 2)
        assert cg.num_vertices() == cg.expected_num_vertices()

    def test_triples_enumeration(self, tiny_hypergraph):
        triples = conflict_vertices(tiny_hypergraph, 2)
        assert ConflictVertex(0, 0, 1) in triples
        assert ConflictVertex(1, 2, 2) in triples
        # Vertex 1 appears in both edges, so it contributes 2 * k triples.
        assert sum(1 for t in triples if t.vertex == 1) == 4

    def test_invalid_k_rejected(self, tiny_hypergraph):
        with pytest.raises(ReductionError):
            ConflictGraph(tiny_hypergraph, k=0)
        with pytest.raises(ReductionError):
            conflict_vertices(tiny_hypergraph, 0)

    def test_legacy_builder_rejects_an_empty_palette(self, tiny_hypergraph):
        with pytest.raises(ReductionError, match="palette size"):
            legacy_build_graph(tiny_hypergraph, 0)

    def test_triples_of_edge_and_vertex(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        assert len(cg.triples_of_edge(0)) == 2 * 2
        assert len(cg.triples_of_vertex(1)) == 2 * 2
        assert all(t.edge == 0 for t in cg.triples_of_edge(0))
        assert all(t.vertex == 1 for t in cg.triples_of_vertex(1))

    def test_triples_of_edge_and_vertex_read_the_surviving_blocks_in_id_order(self):
        # k = 10: each (e, v) block's colors run 1, 10, 2, ..., 9 in id order.
        cg = ConflictGraph(Hypergraph(edges=[[0, 1], [1, 2]]), k=10)
        labels = cg.frozen().labels()
        assert cg.triples_of_edge(1) == [t for t in labels if t.edge == 1]
        assert cg.triples_of_vertex(1) == [t for t in labels if t.vertex == 1]
        assert [t.color for t in cg.triples_of_vertex(2)] == sorted(range(1, 11), key=repr)
        cg.remove_hyperedges([0])
        with pytest.raises(ReductionError):
            cg.triples_of_edge(0)
        alive = list(cg.frozen())
        assert cg.triples_of_edge(1) == [t for t in alive if t.edge == 1]
        assert cg.triples_of_vertex(1) == [t for t in alive if t.vertex == 1]
        assert cg.triples_of_vertex(0) == []


class TestEdgeRelations:
    def test_e_vertex_joins_same_vertex_different_colors(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 2)
        assert "vertex" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_vertex_same_color_not_vertex_related(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 1)
        assert "vertex" not in cg.edge_kinds(a, b)

    def test_e_edge_joins_triples_of_same_hyperedge(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(0, 1, 2)
        assert "edge" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_edge_makes_each_hyperedge_a_clique(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        triples = cg.triples_of_edge(0)
        assert all(cg.graph.has_edge(u, v) for u, v in combinations(triples, 2))

    def test_e_color_joins_same_color_across_shared_edge(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        # Vertices 0 and 1 are both in hyperedge 0, so (e0, 0, c) ~ (e1, 1, c).
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 1, 1)
        assert "color" in cg.edge_kinds(a, b)
        assert cg.graph.has_edge(a, b)

    def test_e_color_requires_distinct_vertices(self, tiny_hypergraph):
        # Same vertex, same color, different edges: NOT adjacent (the paper's
        # Lemma 2.1(a) proof requires u != v; see DESIGN.md).
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 1, 1)
        b = ConflictVertex(1, 1, 1)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_e_color_requires_witnessing_edge_among_the_two(self):
        # Vertices 0 and 2 never share a hyperedge; their same-color triples
        # must not be adjacent even though both share edges with vertex 1.
        h = Hypergraph(edges=[[0, 1], [1, 2]])
        cg = ConflictGraph(h, k=1)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 2, 1)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_non_adjacent_triples(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(1, 2, 2)
        assert cg.edge_kinds(a, b) == set()
        assert not cg.graph.has_edge(a, b)

    def test_classify_self_pair_is_empty(self, tiny_hypergraph):
        a = ConflictVertex(0, 0, 1)
        assert classify_conflict_edge(a, a, tiny_hypergraph) == set()

    def test_relations_can_overlap(self, tiny_hypergraph):
        cg = ConflictGraph(tiny_hypergraph, k=2)
        # Same hyperedge and same color: both E_edge and E_color apply.
        a = ConflictVertex(0, 0, 1)
        b = ConflictVertex(0, 1, 1)
        kinds = cg.edge_kinds(a, b)
        assert "edge" in kinds and "color" in kinds


class TestStructuralInvariants:
    def test_every_graph_edge_is_classified(self, colorable_instance):
        hypergraph, _ = colorable_instance
        cg = ConflictGraph(hypergraph, k=3)
        for a, b in cg.graph.edges():
            assert cg.edge_kinds(a, b), f"edge ({a}, {b}) has no defining relation"

    def test_host_assignment_maps_each_triple_to_its_vertex(self, colorable_instance):
        hypergraph, _ = colorable_instance
        cg = ConflictGraph(hypergraph, k=2)
        for triple, host in cg.host_assignment().items():
            assert host == triple.vertex

    @given(hypergraphs(max_n=8, max_m=5, max_edge=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_adjacency_matches_classification_exactly(self, h, k):
        cg = ConflictGraph(h, k)
        triples = sorted(cg.graph.vertices, key=repr)
        for i, a in enumerate(triples):
            for b in triples[i + 1:]:
                expected = bool(classify_conflict_edge(a, b, h))
                assert cg.graph.has_edge(a, b) == expected

    @given(hypergraphs(max_n=10, max_m=6, max_edge=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_vertex_count_formula_property(self, h, k):
        cg = ConflictGraph(h, k)
        assert cg.num_vertices() == k * h.total_edge_size()

    def test_conflict_graph_of_edgeless_hypergraph_is_empty(self):
        h = Hypergraph(vertices=[0, 1, 2])
        cg = ConflictGraph(h, k=3)
        assert cg.num_vertices() == 0
        assert cg.num_edges() == 0


class Tagged:
    """An id with a custom ``__repr__`` (hashed by identity)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _with_edge_ids(a, b) -> Hypergraph:
    h = Hypergraph()
    h.add_edge([0, 1], edge_id=a)
    h.add_edge([1, 2], edge_id=b)
    return h


def _with_vertices(a, b) -> Hypergraph:
    h = Hypergraph()
    h.add_edge([a, b], edge_id=0)
    h.add_edge([b, 7], edge_id=1)
    return h


def _run(h: Hypergraph):
    oracle = get_approximator("greedy-first-fit")
    return ConflictFreeMulticoloringViaMaxIS(k=2, approximator=oracle, lam=2.0).run(h)


class TestReprOrderGuard:
    """The builder refuses ids whose reprs would break the repr order of the triples."""

    REFUSED = {
        "equal-edge-id-reprs": lambda: _with_edge_ids(Tagged("<e>"), Tagged("<e>")),
        "edge-id-extended-by-space": lambda: _with_edge_ids(Tagged("<a>"), Tagged("<a> b")),
        "vertex-extended-by-bang": lambda: _with_vertices(Tagged("<a>"), Tagged("<a>!")),
    }

    ACCEPTED = {
        "ints": (1, 2, 10),
        "strs": ("a", "a b"),
        "tuples": ((1, 2), (1, 2, 3)),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_by_the_builder_and_the_reduction(self, case):
        with pytest.raises(ReductionError, match="repr order"):
            ConflictGraph(self.REFUSED[case](), 2)
        with pytest.raises(ReductionError, match="repr order"):
            _run(self.REFUSED[case]())

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    @pytest.mark.parametrize("role", ["edge ids", "vertices"])
    def test_accepted_and_repr_sorted(self, case, role):
        ids = self.ACCEPTED[case]
        h = Hypergraph()
        for i, x in enumerate(ids):
            if role == "edge ids":
                h.add_edge([i, i + 1], edge_id=x)
            else:
                h.add_edge([x, "hub"], edge_id=i)
        labels = ConflictGraph(h, 11).frozen().labels()
        assert list(labels) == sorted(labels, key=repr)
        assert _run(h).multicoloring
