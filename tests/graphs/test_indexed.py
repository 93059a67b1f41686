"""Tests for the IndexedGraph core and its bitset independent-set kernels."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    IndexedGraph,
    erdos_renyi_graph,
    greedy_maximal_independent_set,
    greedy_min_degree_independent_set,
    verify_independent_set,
)
from repro.graphs.indexed import (
    first_fit_mis_ids,
    iter_bits,
    maximum_independent_set_mask,
    min_degree_greedy_ids,
    popcount,
)
from repro.maxis.exact import exact_via_networkx

from tests.conftest import graphs, mask_of, rows_of


class TestInterning:
    def test_freeze_defaults_to_insertion_order(self):
        g = Graph(edges=[("c", "a"), ("a", "b")])
        frozen = g.freeze()
        assert frozen.labels() == ("c", "a", "b")
        assert [frozen.index_of(v) for v in ("c", "a", "b")] == [0, 1, 2]

    def test_freeze_with_explicit_order(self):
        g = Graph(edges=[(2, 1), (1, 0)])
        frozen = g.freeze(order=[0, 1, 2])
        assert frozen.labels() == (0, 1, 2)
        assert list(iter_bits(rows_of(frozen)[1])) == [0, 2]

    def test_freeze_rejects_non_permutation(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            g.freeze(order=[1])
        with pytest.raises(GraphError):
            g.freeze(order=[1, 2, 3])

    def test_index_of_unknown_label_raises(self):
        frozen = Graph(vertices=[1]).freeze()
        with pytest.raises(GraphError):
            frozen.index_of("missing")

    def test_freeze_is_deterministic(self, random_graph):
        a = random_graph.freeze(order=sorted(random_graph.vertices, key=repr))
        b = random_graph.freeze(order=sorted(random_graph.vertices, key=repr))
        assert a.labels() == b.labels()
        assert rows_of(a) == rows_of(b)


class TestStructure:
    def test_counts_match_source(self, random_graph):
        frozen = random_graph.freeze()
        degrees = [popcount(row) for row in rows_of(frozen)]
        assert frozen.num_vertices() == len(frozen) == random_graph.num_vertices()
        assert sum(degrees) // 2 == random_graph.num_edges()
        assert max(degrees) == random_graph.max_degree()

    def test_rows_hold_the_source_neighborhoods(self, random_graph):
        frozen = random_graph.freeze()
        rows = rows_of(frozen)
        for i in frozen.vertex_ids():
            neighbors = {frozen.label(j) for j in iter_bits(rows[i])}
            assert neighbors == random_graph.neighbors(frozen.label(i))

    def test_row_bits_match_source_edges(self, random_graph):
        frozen = random_graph.freeze()
        rows = rows_of(frozen)
        for u in random_graph.vertices:
            for v in random_graph.vertices:
                if u == v:
                    continue
                bit = (rows[frozen.index_of(u)] >> frozen.index_of(v)) & 1
                assert bool(bit) == random_graph.has_edge(u, v)

    def test_mask_round_trip(self, random_graph):
        frozen = random_graph.freeze()
        subset = set(list(random_graph.vertices)[::2])
        assert frozen.labels_for_mask(mask_of(frozen, subset)) == subset

    def test_rejects_self_loops_and_bad_ids(self):
        with pytest.raises(GraphError):
            IndexedGraph(["a"], [[0]])
        with pytest.raises(GraphError):
            IndexedGraph(["a", "b"], [[5], []])
        with pytest.raises(GraphError):
            IndexedGraph(["a", "a"], [[], []])

    @pytest.mark.parametrize(
        "labels, rows, message",
        [
            (["a", "b"], [[1]], "length mismatch"),
            (["a", "b", "c"], [[1], [], []], "not symmetric"),
        ],
        ids=["length-mismatch", "asymmetric"],
    )
    def test_rejects_malformed_rows(self, labels, rows, message):
        with pytest.raises(GraphError, match=message):
            IndexedGraph(labels, rows)

    @given(graphs(max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_to_graph(self, g):
        assert g.freeze().to_graph() == g


class TestKernels:
    @given(graphs(max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_min_degree_kernel_matches_reference(self, g):
        frozen = g.freeze(order=sorted(g.vertices, key=repr))
        fast = {frozen.label(i) for i in min_degree_greedy_ids(frozen)}
        assert fast == greedy_min_degree_independent_set(g)

    @given(graphs(max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_first_fit_kernel_matches_reference(self, g):
        frozen = g.freeze(order=sorted(g.vertices, key=repr))
        fast = {frozen.label(i) for i in first_fit_mis_ids(frozen, range(len(frozen)))}
        assert fast == greedy_maximal_independent_set(g)

    @given(graphs(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_exact_kernel_matches_networkx(self, g):
        frozen = g.freeze(order=sorted(g.vertices, key=repr))
        mask = maximum_independent_set_mask(frozen)
        chosen = frozen.labels_for_mask(mask)
        verify_independent_set(g, chosen)
        assert popcount(mask) == len(exact_via_networkx(g))

    def test_kernels_on_random_shuffled_orders(self):
        g = erdos_renyi_graph(25, 0.2, seed=3)
        frozen = g.freeze(order=sorted(g.vertices, key=repr))
        order = list(range(len(frozen)))
        random.Random(0).shuffle(order)
        chosen = {frozen.label(i) for i in first_fit_mis_ids(frozen, order)}
        verify_independent_set(g, chosen)
        assert chosen
