"""Tests for the closed-form bounds used by the reduction's analysis."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    color_budget,
    conflict_graph_edge_count_upper_bound,
    conflict_graph_vertex_count,
    expected_remaining_edges,
    is_polylog,
    phase_budget,
)
from repro.exceptions import ReductionError


class TestPhaseBudget:
    def test_matches_paper_formula_up_to_ceiling(self):
        assert phase_budget(2.0, 100) == math.ceil(2.0 * math.log(100)) + 1

    def test_tiny_edge_counts(self):
        assert phase_budget(3.0, 0) == 1
        assert phase_budget(3.0, 1) == 1

    def test_lambda_one_still_needs_log_phases_by_formula(self):
        # With a perfect oracle the formula still allocates ~ln(m)+1 phases;
        # the actual run finishes after one phase, which is within budget.
        assert phase_budget(1.0, 50) >= 1

    def test_monotone_in_lambda_and_m(self):
        assert phase_budget(4.0, 100) >= phase_budget(2.0, 100)
        assert phase_budget(2.0, 1000) >= phase_budget(2.0, 10)

    @pytest.mark.parametrize(
        "lam, m, rho",
        [
            (1.0, 2, 2),  # an exact oracle is still allotted ⌈ln m⌉ + 1 phases
            (1.0, 10, 4),
            (1.0, 1000, 8),
            (2.0, 10, 6),
            (4.0, 100, 20),
            (1.5, 1, 1),
            (3.0, 0, 1),
        ],
    )
    def test_closed_form_values(self, lam, m, rho):
        assert phase_budget(lam, m) == rho
        assert color_budget(3, lam, m) == 3 * rho

    def test_invalid_inputs(self):
        with pytest.raises(ReductionError):
            phase_budget(0.5, 10)
        with pytest.raises(ReductionError):
            phase_budget(2.0, -1)

    @given(st.floats(min_value=1.0, max_value=50.0), st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_budget_suffices_for_geometric_decay(self, lam, m):
        # (1 - 1/λ)^ρ · m < 1 — the inequality the paper's proof rests on.
        rho = phase_budget(lam, m)
        assert expected_remaining_edges(m, lam, rho) < 1.0


class TestColorBudget:
    def test_color_budget_is_k_times_rho(self):
        assert color_budget(5, 2.0, 100) == 5 * phase_budget(2.0, 100)

    def test_invalid_k(self):
        with pytest.raises(ReductionError):
            color_budget(0, 2.0, 10)

    def test_polylog_check(self):
        n = 1024
        k = 4
        lam = math.log2(n)
        assert is_polylog(color_budget(k, lam, n), n, exponent=3.0, constant=16.0)

    def test_is_polylog_small_n(self):
        assert is_polylog(1e9, 1)


class TestDecayHelpers:
    def test_expected_remaining_edges_decreases(self):
        values = [expected_remaining_edges(100, 2.0, i) for i in range(5)]
        assert values == sorted(values, reverse=True)
        assert values[0] == 100

    def test_expected_remaining_invalid_inputs(self):
        with pytest.raises(ReductionError):
            expected_remaining_edges(10, 0.5, 1)
        with pytest.raises(ReductionError):
            expected_remaining_edges(10, 2.0, -1)
        with pytest.raises(ReductionError):
            expected_remaining_edges(-1, 2.0, 1)


class TestConflictGraphSizeBounds:
    def test_vertex_count_formula(self):
        assert conflict_graph_vertex_count(12, 3) == 36

    def test_edge_count_upper_bound(self):
        assert conflict_graph_edge_count_upper_bound(4, 2) == 8 * 8 // 2

    def test_invalid_inputs(self):
        with pytest.raises(ReductionError):
            conflict_graph_vertex_count(5, 0)
        with pytest.raises(ReductionError):
            conflict_graph_vertex_count(-1, 2)

    def test_measured_sizes_respect_bounds(self, colorable_instance):
        from repro.core import ConflictGraph
        from repro.hypergraph import colorable_almost_uniform_hypergraph

        cases = [(colorable_instance[0], 3)]
        for i, (n, m) in enumerate([(20, 12), (40, 25), (60, 40), (80, 55)]):
            hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=3, seed=200 + i)
            cases += [(hypergraph, k) for k in (2, 3, 5)]
        for hypergraph, k in cases:
            cg = ConflictGraph(hypergraph, k)
            total = hypergraph.total_edge_size()
            assert cg.num_vertices() == conflict_graph_vertex_count(total, k)
            assert cg.num_edges() <= conflict_graph_edge_count_upper_bound(total, k)
