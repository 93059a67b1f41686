"""Tests for proper vertex colorings of simple graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exceptions import ColoringError, GraphError
from repro.graphs import (
    cycle_graph,
    greedy_coloring,
    is_proper_coloring,
    num_colors,
    path_graph,
    verify_proper_coloring,
)

from tests.conftest import complete_graph, graphs, star_graph


class TestVerification:
    def test_valid_coloring_passes(self):
        g = path_graph(3)
        verify_proper_coloring(g, {0: 0, 1: 1, 2: 0})

    def test_monochromatic_edge_rejected(self):
        g = path_graph(2)
        with pytest.raises(ColoringError):
            verify_proper_coloring(g, {0: 0, 1: 0})

    def test_missing_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ColoringError):
            verify_proper_coloring(g, {0: 0, 1: 1})

    def test_foreign_vertex_rejected(self):
        g = path_graph(2)
        with pytest.raises(ColoringError):
            verify_proper_coloring(g, {0: 0, 1: 1, 7: 2})

    def test_boolean_wrapper(self):
        g = path_graph(2)
        assert is_proper_coloring(g, {0: 0, 1: 1})
        assert not is_proper_coloring(g, {0: 0, 1: 0})


class TestGreedy:
    def test_uses_at_most_delta_plus_one_colors(self, random_graph):
        coloring = greedy_coloring(random_graph)
        verify_proper_coloring(random_graph, coloring)
        assert num_colors(coloring) <= random_graph.max_degree() + 1

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(5)
        assert num_colors(greedy_coloring(g)) == 5

    def test_star_graph_needs_two_colors(self):
        assert num_colors(greedy_coloring(star_graph(8))) == 2

    def test_even_cycle_two_colors(self):
        assert num_colors(greedy_coloring(cycle_graph(6))) == 2

    def test_bad_order_rejected(self):
        with pytest.raises(GraphError):
            greedy_coloring(path_graph(3), order=[0, 1])

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_greedy_always_proper_and_bounded(self, g):
        coloring = greedy_coloring(g)
        assert is_proper_coloring(g, coloring)
        if g.num_vertices():
            assert num_colors(coloring) <= g.max_degree() + 1

