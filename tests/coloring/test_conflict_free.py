"""Tests for conflict-free colorings: happiness, verification, partial colorings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import (
    UNCOLORED,
    color_of,
    colors_used,
    happy_edges,
    is_conflict_free,
    is_happy,
    num_colors_used,
    unhappy_edges,
    unique_color_vertices,
    verify_conflict_free_coloring,
)
from repro.exceptions import ColoringError
from repro.hypergraph import Hypergraph

from tests.conftest import colorable_hypergraphs


@pytest.fixture
def triangle_hypergraph() -> Hypergraph:
    """Three vertices, one hyperedge containing all of them."""
    return Hypergraph(edges=[[0, 1, 2]])


class TestHappiness:
    def test_unique_color_makes_edge_happy(self, triangle_hypergraph):
        assert is_happy(triangle_hypergraph, {0: 1, 1: 2, 2: 2}, 0)

    def test_all_same_color_is_unhappy(self, triangle_hypergraph):
        assert not is_happy(triangle_hypergraph, {0: 1, 1: 1, 2: 1}, 0)

    def test_uncolored_vertices_do_not_count(self, triangle_hypergraph):
        # Only vertex 0 is colored, and its color is unique among colored ones.
        assert is_happy(triangle_hypergraph, {0: 1}, 0)
        # No vertex colored: unhappy.
        assert not is_happy(triangle_hypergraph, {}, 0)

    def test_unique_color_vertices_identifies_witnesses(self, triangle_hypergraph):
        witnesses = unique_color_vertices(triangle_hypergraph, {0: 1, 1: 2, 2: 2}, 0)
        assert witnesses == {0}

    def test_happy_and_unhappy_partition_edges(self, small_hypergraph):
        coloring = {0: 1, 1: 1, 2: 2, 3: 1, 4: 2}
        happy = happy_edges(small_hypergraph, coloring)
        unhappy = unhappy_edges(small_hypergraph, coloring)
        assert happy | unhappy == set(small_hypergraph.edge_ids)
        assert not happy & unhappy

    def test_singleton_edge_happy_once_colored(self):
        h = Hypergraph(edges=[[7]])
        assert not is_happy(h, {}, 0)
        assert is_happy(h, {7: 3}, 0)


class TestVerification:
    def test_valid_coloring_accepted(self, triangle_hypergraph):
        verify_conflict_free_coloring(triangle_hypergraph, {0: 1, 1: 2, 2: 3}, k=3)

    def test_unhappy_edge_rejected(self, triangle_hypergraph):
        with pytest.raises(ColoringError):
            verify_conflict_free_coloring(triangle_hypergraph, {0: 1, 1: 1, 2: 1})

    def test_color_budget_enforced(self, triangle_hypergraph):
        with pytest.raises(ColoringError):
            verify_conflict_free_coloring(triangle_hypergraph, {0: 1, 1: 2, 2: 3}, k=2)

    def test_totality_enforced_when_requested(self, triangle_hypergraph):
        with pytest.raises(ColoringError):
            verify_conflict_free_coloring(
                triangle_hypergraph, {0: 1}, require_total=True
            )

    def test_foreign_vertices_rejected(self, triangle_hypergraph):
        with pytest.raises(ColoringError):
            verify_conflict_free_coloring(triangle_hypergraph, {0: 1, 99: 2})

    def test_is_conflict_free_boolean(self, triangle_hypergraph):
        assert is_conflict_free(triangle_hypergraph, {0: 1})
        assert not is_conflict_free(triangle_hypergraph, {0: 1, 1: 1, 2: 1})


class TestHelpers:
    def test_color_of_defaults_to_uncolored(self):
        assert color_of({}, 5) is UNCOLORED
        assert color_of({5: 2}, 5) == 2

    def test_colors_used_ignores_uncolored(self):
        assert colors_used({0: 1, 1: UNCOLORED, 2: 2}) == {1, 2}
        assert num_colors_used({0: 1, 1: 1}) == 1


class TestPlantedColoringsProperty:
    @given(colorable_hypergraphs())
    @settings(max_examples=30, deadline=None)
    def test_planted_coloring_is_conflict_free_with_k_colors(self, instance):
        hypergraph, planted, k = instance
        verify_conflict_free_coloring(hypergraph, planted, k=k, require_total=True)
        assert num_colors_used(planted) <= k

    @given(colorable_hypergraphs(), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_removing_colors_only_hurts_monotonically(self, instance, seed):
        import random as _random

        hypergraph, planted, _ = instance
        rng = _random.Random(seed)
        partial = {v: c for v, c in planted.items() if rng.random() < 0.5}
        # Every edge happy under the partial coloring is also happy under the
        # full planted coloring?  Not in general (adding colors can break
        # uniqueness) — but the reverse direction of *unhappiness* holds for
        # the edges whose unique witness was removed.  The invariant we do
        # check: happiness is determined per edge and the partition is total.
        happy = happy_edges(hypergraph, partial)
        unhappy = unhappy_edges(hypergraph, partial)
        assert happy | unhappy == set(hypergraph.edge_ids)
