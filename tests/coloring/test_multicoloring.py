"""Tests for conflict-free multicolorings."""

from __future__ import annotations

import pytest

from repro.coloring import (
    Multicoloring,
    edge_color_census,
    is_edge_happy,
    single_coloring_as_multicoloring,
    verify_conflict_free_multicoloring,
)
from repro.exceptions import ColoringError
from repro.hypergraph import Hypergraph


@pytest.fixture
def pair_hypergraph() -> Hypergraph:
    return Hypergraph(edges=[[0, 1, 2], [1, 2, 3]])


class TestMulticoloringContainer:
    def test_add_and_query_colors(self):
        mc = Multicoloring()
        mc.add_color(0, "a")
        mc.add_color(0, "b")
        mc.add_color(1, "a")
        assert mc.colors_of(0) == {"a", "b"}
        assert mc.colors_of(2) == set()
        assert mc.all_colors() == {"a", "b"}
        assert mc.num_colors() == 2
        assert max(len(cs) for cs in mc.as_dict().values()) == 2
        assert mc.colored_vertices() == {0, 1}

    def test_none_color_rejected(self):
        with pytest.raises(ColoringError):
            Multicoloring().add_color(0, None)

    def test_constructor_from_assignment(self):
        mc = Multicoloring({0: ["x"], 1: ["x", "y"]})
        assert mc.colors_of(1) == {"x", "y"}

    def test_merge_single_coloring_skips_uncolored(self):
        mc = Multicoloring()
        mc.merge_single_coloring({0: 1, 1: None})
        assert mc.colors_of(0) == {1}
        assert mc.colors_of(1) == set()

    def test_equality_and_snapshot(self):
        a = Multicoloring({0: [1]})
        b = single_coloring_as_multicoloring({0: 1})
        assert a == b
        assert a.as_dict() == {0: frozenset({1})}


class TestHappiness:
    def test_unique_color_in_edge_makes_it_happy(self, pair_hypergraph):
        mc = Multicoloring({0: ["r"], 1: ["r"], 2: ["g"], 3: ["g"]})
        # Edge 0 = {0,1,2}: 'r' appears twice, 'g' once -> happy via vertex 2.
        assert is_edge_happy(pair_hypergraph, mc, 0)
        # Edge 1 = {1,2,3}: 'r' once (vertex 1) -> happy.
        assert is_edge_happy(pair_hypergraph, mc, 1)
        verify_conflict_free_multicoloring(pair_hypergraph, mc)

    def test_census_counts_multicolor_vertices_once_per_color(self, pair_hypergraph):
        mc = Multicoloring({1: ["r", "g"], 2: ["r"]})
        census = edge_color_census(pair_hypergraph, mc, 0)
        assert census == {"r": 2, "g": 1}

    def test_all_shared_colors_is_unhappy(self, pair_hypergraph):
        mc = Multicoloring({0: ["r"], 1: ["r"], 2: ["r"], 3: ["r"]})
        assert not is_edge_happy(pair_hypergraph, mc, 0)
        with pytest.raises(ColoringError):
            verify_conflict_free_multicoloring(pair_hypergraph, mc)


class TestVerification:
    def test_valid_multicoloring_accepted(self, pair_hypergraph):
        mc = Multicoloring({0: [1], 1: [2], 2: [3], 3: [1]})
        verify_conflict_free_multicoloring(pair_hypergraph, mc)

    def test_unhappy_edge_rejected(self, pair_hypergraph):
        mc = Multicoloring({0: [1], 1: [1], 2: [1], 3: [1]})
        with pytest.raises(ColoringError):
            verify_conflict_free_multicoloring(pair_hypergraph, mc)

    def test_color_budget_enforced(self, pair_hypergraph):
        mc = Multicoloring({0: [1], 1: [2], 2: [3], 3: [4]})
        with pytest.raises(ColoringError):
            verify_conflict_free_multicoloring(pair_hypergraph, mc, max_total_colors=2)

    def test_foreign_vertices_rejected(self, pair_hypergraph):
        mc = Multicoloring({99: [1]})
        with pytest.raises(ColoringError):
            verify_conflict_free_multicoloring(pair_hypergraph, mc)
