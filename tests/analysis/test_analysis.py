"""Tests for the analysis helpers: decay curves, metrics, table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import (
    decay_curve,
    effective_lambda,
    format_records,
    format_table,
    mis_model_comparison,
    observed_removal_fractions,
    phase_summary,
    run_summary,
)
from repro.bench import graph_family
from repro.core import solve_conflict_free_multicoloring
from repro.graphs import cycle_graph
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator


@pytest.fixture(scope="module")
def reduction_result():
    hypergraph, _ = colorable_almost_uniform_hypergraph(n=24, m=14, k=3, seed=19)
    result = solve_conflict_free_multicoloring(
        hypergraph, k=3, approximator=get_approximator("luby-best-of-5"), lam=6.0
    )
    return hypergraph, result


class TestPhaseStats:
    def test_decay_curve_shape(self, reduction_result):
        hypergraph, result = reduction_result
        curve = decay_curve(result)
        assert len(curve.observed) == len(curve.guaranteed) == result.num_phases + 1
        assert curve.observed[0] == hypergraph.num_edges()
        assert curve.observed[-1] == 0

    def test_removal_fractions_positive(self, reduction_result):
        _, result = reduction_result
        fractions = observed_removal_fractions(result)
        assert fractions
        assert all(0 < f <= 1 for f in fractions)

    def test_effective_lambda_at_least_one(self, reduction_result):
        _, result = reduction_result
        assert effective_lambda(result) >= 1.0

    def test_phase_summary_rows(self, reduction_result):
        _, result = reduction_result
        rows = phase_summary(result)
        assert len(rows) == result.num_phases
        assert all("removal_fraction" in row for row in rows)

    def test_run_summary_keys_and_flags(self, reduction_result):
        _, result = reduction_result
        summary = run_summary(result)
        assert summary["phases"] == result.num_phases
        assert summary["within_color_bound"] == 1.0


class TestMetrics:
    def test_mis_model_comparison_row(self):
        cases = [(cycle_graph(10), 2)] + [(g, 13) for _, g in graph_family()]
        for graph, seed in cases:
            row = mis_model_comparison(graph, seed=seed)
            assert row["slocal_valid"] == 1.0 and row["luby_valid"] == 1.0
            assert row["slocal_locality"] == 1.0

    def test_mis_model_comparison_reports_the_engine_locality(self, monkeypatch):
        from repro.slocal.algorithms import SLOCALMIS

        monkeypatch.setattr(SLOCALMIS, "locality", 2)
        row = mis_model_comparison(cycle_graph(10), seed=2)
        assert row["slocal_locality"] == 2.0 and row["slocal_valid"] == 1.0


class TestTables:
    def test_format_table_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_format_table_float_precision(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.235" in text
        assert format_table(["x"], [[float("-inf")]]).endswith("-inf")
        assert format_records([{"x": float("nan")}]).endswith("nan")
        assert format_records([{"x": float("inf")}]).endswith("inf")

    def test_format_records(self):
        text = format_records([{"a": 1, "b": True}, {"a": 2, "b": False}])
        assert "yes" in text and "no" in text

    def test_format_records_empty(self):
        assert format_records([]) == "(no rows)"
