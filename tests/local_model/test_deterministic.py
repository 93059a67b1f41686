"""Tests for the deterministic LOCAL algorithms (Cole–Vishkin, colour reduction)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    is_proper_coloring,
    num_colors,
    path_graph,
)
from repro.local_model import (
    ColorReductionColoring,
    LocalNetwork,
    cole_vishkin_ring,
    cole_vishkin_rounds_needed,
    color_reduction,
    luby_mis,
    randomized_coloring,
)

from tests.conftest import star_graph


class TestColeVishkinRoundsNeeded:
    def test_small_values_need_no_reduction(self):
        assert cole_vishkin_rounds_needed(0) == 0
        assert cole_vishkin_rounds_needed(6) == 0

    def test_grows_extremely_slowly(self):
        assert cole_vishkin_rounds_needed(100) <= 4
        assert cole_vishkin_rounds_needed(10**6) <= 6
        assert cole_vishkin_rounds_needed(10**9) <= 7

    def test_monotone(self):
        values = [cole_vishkin_rounds_needed(n) for n in (10, 100, 1000, 10**6)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            cole_vishkin_rounds_needed(-1)


class TestColeVishkinRing:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 64, 129])
    def test_produces_proper_three_coloring(self, n):
        g = cycle_graph(n)
        coloring, result = cole_vishkin_ring(g)
        assert result.terminated
        assert is_proper_coloring(g, coloring)
        assert set(coloring.values()) <= {0, 1, 2}

    def test_round_count_is_log_star_plus_constant(self):
        g = cycle_graph(128)
        _, result = cole_vishkin_ring(g)
        assert result.rounds <= cole_vishkin_rounds_needed(128) + 4

    def test_faster_than_the_generic_color_reduction(self):
        g = cycle_graph(96)
        _, cv_result = cole_vishkin_ring(g)
        _, generic_result = color_reduction(g)
        assert cv_result.rounds < generic_result.rounds

    def test_rejects_non_cycles(self):
        with pytest.raises(ModelError):
            cole_vishkin_ring(path_graph(5))

    def test_rejects_non_canonical_labels(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(ModelError):
            cole_vishkin_ring(g)


class TestColorReduction:
    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: path_graph(12),
            lambda: cycle_graph(15),
            lambda: star_graph(7),
            lambda: grid_graph(4, 4),
            lambda: erdos_renyi_graph(20, 0.2, seed=4),
        ],
    )
    def test_produces_proper_coloring_within_palette(self, graph_builder):
        g = graph_builder()
        coloring, result = color_reduction(g)
        assert result.terminated
        assert is_proper_coloring(g, coloring)
        for v, c in coloring.items():
            assert 0 <= c <= g.degree(v)
        assert num_colors(coloring) <= g.max_degree() + 1

    def test_single_vertex_graph(self):
        g = Graph(vertices=[0])
        coloring, result = color_reduction(g)
        assert coloring == {0: 0}
        assert result.terminated

    def test_arbitrary_vertex_names_supported(self):
        g = Graph(edges=[("x", "y"), ("y", "z")])
        coloring, result = color_reduction(g)
        assert result.terminated
        assert is_proper_coloring(g, coloring)

    def test_rounds_scale_linearly_with_n(self):
        small = color_reduction(cycle_graph(12))[1].rounds
        large = color_reduction(cycle_graph(48))[1].rounds
        assert large > small
        assert large >= 40  # ~ n - Δ rounds: the deliberately slow baseline

    def test_invalid_id_space_rejected(self):
        with pytest.raises(ModelError):
            ColorReductionColoring(id_space=0)

    def test_class_requires_integer_names_without_wrapper(self):
        g = Graph(edges=[("a", "b")])
        with pytest.raises(ModelError):
            LocalNetwork(g).run(ColorReductionColoring(id_space=2), max_rounds=10)

    @given(st.integers(min_value=2, max_value=24), st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=0, max_value=9999))
    @settings(max_examples=20, deadline=None)
    def test_color_reduction_property(self, n, p, seed):
        g = erdos_renyi_graph(n, p, seed=seed)
        coloring, result = color_reduction(g)
        assert result.terminated
        assert is_proper_coloring(g, coloring)


class TestDeterministicVersusRandomized:
    def test_round_count_contrast_on_cycles(self):
        """The model-gap story of the introduction, in numbers.

        On a cycle: Cole–Vishkin (deterministic, special structure) needs
        O(log* n) + O(1) rounds, the generic deterministic colour reduction
        needs Θ(n) rounds, and the randomized algorithms need only a few
        rounds as well — the open question behind the paper is closing the
        general deterministic gap.
        """
        for n, seed in [(64, 9), (32, 19), (64, 19), (128, 19)]:
            g = cycle_graph(n)
            _, cv = cole_vishkin_ring(g)
            _, generic = color_reduction(g)
            _, rand = randomized_coloring(g, seed=seed)
            _, luby = luby_mis(g, seed=seed)

            assert cv.rounds <= cole_vishkin_rounds_needed(n) + 3
            assert cv.rounds < generic.rounds
            assert rand.rounds < generic.rounds
            assert luby.rounds < generic.rounds
