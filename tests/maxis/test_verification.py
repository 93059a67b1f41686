"""Tests for approximation-guarantee verification."""

from __future__ import annotations

import pytest

from repro.exceptions import ApproximationError, IndependenceError
from repro.graphs import Graph, path_graph
from repro.maxis import ApproximationReport, check_approximation, require_approximation

from tests.conftest import complete_graph, star_graph


class TestCheckApproximation:
    def test_exact_solution_has_ratio_one(self):
        g = path_graph(5)
        report = check_approximation(g, {0, 2, 4}, claimed_lambda=1.0)
        assert report.achieved_ratio == 1.0
        assert report.satisfied

    def test_suboptimal_solution_measured(self):
        g = star_graph(4)
        report = check_approximation(g, {0}, claimed_lambda=2.0)
        assert report.achieved_ratio == 4.0
        assert not report.satisfied

    def test_explicit_optimum_avoids_exact_solve(self):
        g = star_graph(4)
        report = check_approximation(g, {1, 2}, claimed_lambda=2.0, optimum=4)
        assert report.optimum == 4.0
        assert report.satisfied

    def test_non_independent_candidate_rejected(self):
        g = path_graph(3)
        with pytest.raises(IndependenceError):
            check_approximation(g, {0, 1})

    def test_empty_candidate_on_empty_graph(self):
        report = check_approximation(Graph(), set(), claimed_lambda=1.0)
        assert report.achieved_ratio == 1.0
        assert report.satisfied

    def test_empty_candidate_on_nonempty_graph_has_infinite_ratio(self):
        report = check_approximation(path_graph(3), set())
        assert report.achieved_ratio == float("inf")

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ApproximationError):
            check_approximation(path_graph(3), {0}, claimed_lambda=0.5)

    def test_negative_optimum_rejected(self):
        with pytest.raises(ApproximationError):
            check_approximation(path_graph(3), {0}, optimum=-1)

    def test_no_claim_is_always_satisfied(self):
        g = complete_graph(4)
        report = check_approximation(g, {0})
        assert report.claimed_lambda is None
        assert report.satisfied


class TestRequireApproximation:
    def test_passes_for_valid_guarantee(self):
        g = star_graph(6)
        report = require_approximation(g, set(range(1, 7)), claimed_lambda=1.0)
        assert isinstance(report, ApproximationReport)

    def test_raises_for_violated_guarantee(self):
        g = star_graph(6)
        with pytest.raises(ApproximationError):
            require_approximation(g, {0}, claimed_lambda=2.0)
