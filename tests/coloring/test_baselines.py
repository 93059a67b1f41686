"""Tests for the greedy and interval conflict-free coloring baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import (
    greedy_conflict_free_coloring,
    interval_color_bound,
    interval_conflict_free_coloring,
    is_interval_hypergraph,
    num_colors_used,
    verify_conflict_free_coloring,
)
from repro.coloring.interval import canonical_point_order, divide_and_conquer_coloring
from repro.exceptions import ColoringError
from repro.graphs import greedy_coloring
from repro.hypergraph import (
    Hypergraph,
    random_interval_hypergraph,
    sunflower_hypergraph,
    uniform_random_hypergraph,
)

from tests.conftest import hypergraphs


def _primal_coloring(h):
    """A proper coloring of the primal graph on colors 1, 2, …: no edge repeats a color."""
    return {v: c + 1 for v, c in greedy_coloring(h.primal_graph()).items()}


class TestPrimalBaseline:
    def test_primal_coloring_is_conflict_free(self, small_hypergraph):
        coloring = _primal_coloring(small_hypergraph)
        verify_conflict_free_coloring(small_hypergraph, coloring, require_total=True)

    def test_primal_coloring_respects_bound(self, small_hypergraph):
        coloring = _primal_coloring(small_hypergraph)
        assert num_colors_used(coloring) <= small_hypergraph.primal_graph().max_degree() + 1

    @given(hypergraphs())
    @settings(max_examples=25, deadline=None)
    def test_primal_coloring_property(self, h):
        verify_conflict_free_coloring(h, _primal_coloring(h))


class TestGreedyCF:
    def test_greedy_result_is_conflict_free(self, small_hypergraph):
        coloring = greedy_conflict_free_coloring(small_hypergraph)
        verify_conflict_free_coloring(small_hypergraph, coloring)

    def test_greedy_on_sunflower(self):
        h = sunflower_hypergraph(n_petals=5, petal_size=2, core_size=1)
        coloring = greedy_conflict_free_coloring(h)
        verify_conflict_free_coloring(h, coloring)

    def test_greedy_respects_cap(self):
        h = uniform_random_hypergraph(20, 12, 4, seed=3)
        with pytest.raises(ColoringError):
            greedy_conflict_free_coloring(h, max_colors=0)

    def test_greedy_on_edgeless_hypergraph_uses_no_colors(self):
        h = Hypergraph(vertices=[0, 1])
        assert greedy_conflict_free_coloring(h) == {}

    @given(hypergraphs(max_n=10, max_m=6))
    @settings(max_examples=25, deadline=None)
    def test_greedy_property(self, h):
        coloring = greedy_conflict_free_coloring(h)
        verify_conflict_free_coloring(h, coloring)


class TestIntervalColoring:
    def test_divide_and_conquer_color_count_bound(self):
        order = list(range(31))
        coloring = divide_and_conquer_coloring(order)
        assert max(coloring.values()) <= interval_color_bound(31)
        assert set(coloring) == set(order)

    def test_interval_coloring_is_conflict_free(self):
        h = random_interval_hypergraph(30, 20, seed=4)
        order = canonical_point_order(h)
        coloring = interval_conflict_free_coloring(h, order)
        verify_conflict_free_coloring(h, coloring, require_total=True)
        assert num_colors_used(coloring) <= interval_color_bound(30)

    def test_non_interval_hypergraph_rejected(self):
        h = Hypergraph(edges=[[0, 2]])  # skips point 1 -> not contiguous
        h.add_vertex(1)
        with pytest.raises(ColoringError):
            interval_conflict_free_coloring(h, [0, 1, 2])

    def test_is_interval_hypergraph_predicate(self):
        h = Hypergraph(edges=[[0, 1], [1, 2, 3]])
        assert is_interval_hypergraph(h, [0, 1, 2, 3])
        assert not is_interval_hypergraph(h, [0, 2, 1, 3])

    def test_interval_color_bound_values(self):
        assert interval_color_bound(0) == 0
        assert interval_color_bound(1) == 1
        assert interval_color_bound(7) == 3
        with pytest.raises(ColoringError):
            interval_color_bound(-1)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=25),
           st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_interval_coloring_property(self, n_points, n_intervals, seed):
        h = random_interval_hypergraph(n_points, n_intervals, seed=seed)
        order = canonical_point_order(h)
        coloring = interval_conflict_free_coloring(h, order)
        verify_conflict_free_coloring(h, coloring)
        assert num_colors_used(coloring) <= interval_color_bound(n_points)
