"""Tests for independent-set verification, greedy heuristics and the exact solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exceptions import GraphError, IndependenceError
from repro.graphs import (
    Graph,
    cycle_graph,
    empty_graph,
    greedy_maximal_independent_set,
    greedy_min_degree_independent_set,
    independence_number,
    is_maximal_independent_set,
    maximum_independent_set,
    path_graph,
    verify_independent_set,
)
from repro.maxis.exact import exact_via_networkx

from tests.conftest import complete_bipartite_graph, complete_graph, graphs, star_graph


class TestVerification:
    def test_accepts_valid_set(self, small_graph):
        verify_independent_set(small_graph, {0, 4})

    def test_rejects_adjacent_pair(self, small_graph):
        with pytest.raises(IndependenceError):
            verify_independent_set(small_graph, {0, 1})

    def test_rejects_foreign_vertex(self, small_graph):
        with pytest.raises(IndependenceError):
            verify_independent_set(small_graph, {0, 99})

    def test_rejects_duplicates(self, small_graph):
        with pytest.raises(IndependenceError):
            verify_independent_set(small_graph, [0, 0])

    def test_empty_set_is_independent(self, small_graph):
        verify_independent_set(small_graph, set())

    def test_maximality_detection(self):
        g = path_graph(4)
        assert is_maximal_independent_set(g, {0, 2})
        assert not is_maximal_independent_set(g, {1})
        assert is_maximal_independent_set(g, {1, 3})


class TestGreedy:
    def test_first_fit_is_maximal(self, random_graph):
        mis = greedy_maximal_independent_set(random_graph)
        assert is_maximal_independent_set(random_graph, mis)

    def test_first_fit_respects_order(self):
        g = path_graph(3)
        assert greedy_maximal_independent_set(g, order=[1, 0, 2]) == {1}
        assert greedy_maximal_independent_set(g, order=[0, 1, 2]) == {0, 2}

    def test_first_fit_rejects_bad_order(self):
        with pytest.raises(GraphError):
            greedy_maximal_independent_set(path_graph(3), order=[0, 1])

    def test_min_degree_greedy_is_independent(self, random_graph):
        result = greedy_min_degree_independent_set(random_graph)
        verify_independent_set(random_graph, result)

    def test_min_degree_greedy_on_star_takes_leaves(self):
        g = star_graph(6)
        assert greedy_min_degree_independent_set(g) == set(range(1, 7))

    def test_min_degree_turan_bound(self, random_graph):
        result = greedy_min_degree_independent_set(random_graph)
        n = random_graph.num_vertices()
        delta = random_graph.max_degree()
        assert len(result) * (delta + 1) >= n


class TestExact:
    def test_known_values(self):
        assert independence_number(complete_graph(6)) == 1
        assert independence_number(empty_graph(6)) == 6
        assert independence_number(path_graph(5)) == 3
        assert independence_number(cycle_graph(7)) == 3
        assert independence_number(complete_bipartite_graph(3, 5)) == 5

    def test_exact_result_is_independent(self, random_graph):
        result = maximum_independent_set(random_graph)
        verify_independent_set(random_graph, result)

    def test_exact_on_empty_graph(self):
        assert maximum_independent_set(Graph()) == set()

    @given(graphs(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_exact_matches_networkx_cross_check(self, g):
        ours = maximum_independent_set(g)
        theirs = exact_via_networkx(g)
        assert len(ours) == len(theirs)

    @given(graphs(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_exact_at_least_as_large_as_greedy(self, g):
        greedy = greedy_min_degree_independent_set(g) if g.num_vertices() else set()
        assert independence_number(g) >= len(greedy)

