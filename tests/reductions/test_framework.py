"""Tests for the problem / local-reduction framework and the completeness registry."""

from __future__ import annotations

import pytest

from repro.coloring import Multicoloring
from repro.core import color_budget, phase_budget
from repro.covering import SetCoverInstance
from repro.decomposition import ball_carving_decomposition
from repro.exceptions import ReductionError, ReproError, VerificationError
from repro.graphs import Graph, path_graph
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator
from repro.reductions import (
    CF_MULTICOLORING,
    CompletenessStatus,
    DOMINATING_SET_APPROXIMATION,
    LocalReduction,
    MAXIS_APPROXIMATION,
    MIS,
    NETWORK_DECOMPOSITION,
    Problem,
    ReductionOverhead,
    ReductionRun,
    SET_COVER,
    VERTEX_COLORING,
    cf_multicoloring_to_maxis_reduction,
    polylog_lambda,
    registry,
    summary_table,
)

from tests.conftest import star_graph


def _three_set_cover() -> SetCoverInstance:
    instance = SetCoverInstance()
    for set_id, members in (("a", {1, 2}), ("b", {3, 4}), ("c", {2, 3})):
        instance.add_set(set_id, members)
    return instance


#: A planted conflict-free 2-coloring, as a multicoloring with one color per vertex.
_CF_HYPERGRAPH, _planted = colorable_almost_uniform_hypergraph(n=12, m=6, k=2, seed=2)
_CF_PLANTED = Multicoloring({v: [c] for v, c in _planted.items()})

#: Ball carving at radius 1 cuts P6 into three 2-vertex clusters on two colors.
_PATH6_DECOMPOSITION = ball_carving_decomposition(path_graph(6), 1)


class TestProblems:
    @pytest.mark.parametrize(
        "problem, instance, solution, valid",
        [
            (MIS, path_graph(4), {0, 2}, True),
            (MIS, path_graph(4), {0, 1}, False),
            (MIS, path_graph(4), {1}, False),
            (VERTEX_COLORING, star_graph(3), {0: 0, 1: 1, 2: 1, 3: 1}, True),
            (VERTEX_COLORING, star_graph(3), {0: 0, 1: 0, 2: 1, 3: 1}, False),
            (MAXIS_APPROXIMATION, (star_graph(5), 1.0), set(range(1, 6)), True),
            (MAXIS_APPROXIMATION, (star_graph(5), 2.0), {0}, False),
            (CF_MULTICOLORING, (_CF_HYPERGRAPH, 2), _CF_PLANTED, True),
            (CF_MULTICOLORING, (_CF_HYPERGRAPH, 1), _CF_PLANTED, False),
            (VERTEX_COLORING, Graph(vertices=[0, 1]), {0: 0, 1: 1}, False),
            (DOMINATING_SET_APPROXIMATION, (star_graph(4), 1.0), {0}, True),
            (DOMINATING_SET_APPROXIMATION, (star_graph(4), 1.0), {1, 2, 3, 4}, False),
            (DOMINATING_SET_APPROXIMATION, (star_graph(4), 4.0), {1, 2, 3, 4}, True),
            (DOMINATING_SET_APPROXIMATION, (star_graph(4), 4.0), {1}, False),
            (SET_COVER, _three_set_cover(), ["a", "b"], True),
            (SET_COVER, _three_set_cover(), ["a", "c"], False),
            (NETWORK_DECOMPOSITION, (path_graph(6), 2, 1), _PATH6_DECOMPOSITION, True),
            (NETWORK_DECOMPOSITION, (path_graph(6), 1, 1), _PATH6_DECOMPOSITION, False),
            (NETWORK_DECOMPOSITION, (path_graph(6), 2, 0), _PATH6_DECOMPOSITION, False),
        ],
        ids=[
            "mis",
            "mis-adjacent",
            "mis-not-maximal",
            "coloring",
            "coloring-improper",
            "maxis-optimal",
            "maxis-over-factor",
            "cf-multicoloring",
            "cf-multicoloring-over-palette",
            "coloring-above-delta-plus-one",
            "dominating-optimal",
            "dominating-over-factor",
            "dominating-within-factor",
            "dominating-misses-vertices",
            "set-cover",
            "set-cover-misses-element",
            "decomposition",
            "decomposition-too-many-colors",
            "decomposition-too-wide",
        ],
    )
    def test_problem_verifiers(self, problem, instance, solution, valid):
        if valid:
            problem.verify(instance, solution)
        else:
            with pytest.raises(ReproError):
                problem.verify(instance, solution)


class TestOverhead:
    def test_polylog_check(self):
        assert ReductionOverhead(oracle_calls=3, locality_factor=2.0).is_polylog(1000)
        assert not ReductionOverhead(oracle_calls=10_000, locality_factor=2.0).is_polylog(100)

    def test_small_n_is_always_fine(self):
        assert ReductionOverhead(oracle_calls=999).is_polylog(1)

    @pytest.mark.parametrize(
        "oracle_calls, locality_factor, n, expected",
        [
            (16, 1.0, 2, True),  # envelope 16 * log2(2)^3 = 16
            (17, 1.0, 2, False),
            (1, 16.0, 2, True),
            (1, 16.5, 2, False),
            (16_000, 1.0, 1024, True),  # envelope 16 * 10^3
            (16_001, 1.0, 1024, False),
            (10**9, 10.0**9, 0, True),
        ],
    )
    def test_polylog_envelope_boundary(self, oracle_calls, locality_factor, n, expected):
        overhead = ReductionOverhead(oracle_calls=oracle_calls, locality_factor=locality_factor)
        assert overhead.is_polylog(n) is expected


class TestPaperReduction:
    def _oracle(self, name="greedy-min-degree"):
        approximator = get_approximator(name)
        return lambda instance: approximator(instance[0])

    def test_reduction_solves_cf_multicoloring(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=20, m=12, k=3, seed=5)
        lam = 6.0
        reduction = cf_multicoloring_to_maxis_reduction(k=3, lam=lam)
        budget = color_budget(3, lam, hypergraph.num_edges())
        run = reduction.apply((hypergraph, budget), self._oracle())
        assert isinstance(run, ReductionRun)
        assert run.overhead.oracle_calls >= 1
        assert run.overhead.oracle_calls <= phase_budget(lam, hypergraph.num_edges())
        assert run.details["total_colors"] <= budget

    def test_reduction_verifies_solution_against_source_problem(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=6)
        reduction = cf_multicoloring_to_maxis_reduction(k=2, lam=4.0)
        # A budget of 0 colors is unsatisfiable, so verification must fail.
        with pytest.raises(VerificationError):
            reduction.apply((hypergraph, 0), self._oracle())

    def test_overhead_is_polylog_for_polylog_lambda(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=30, m=15, k=3, seed=7)
        lam = polylog_lambda(hypergraph.num_vertices())
        reduction = cf_multicoloring_to_maxis_reduction(k=3, lam=lam)
        budget = color_budget(3, lam, hypergraph.num_edges())
        run = reduction.apply((hypergraph, budget), self._oracle())
        assert run.overhead.is_polylog(hypergraph.num_vertices())
        assert run.overhead.locality_factor == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ReductionError):
            cf_multicoloring_to_maxis_reduction(k=0, lam=2.0)
        with pytest.raises(ReductionError):
            cf_multicoloring_to_maxis_reduction(k=2, lam=0.0)

    def test_polylog_lambda_values(self):
        assert polylog_lambda(1) == 1.0
        assert polylog_lambda(1024) == pytest.approx(100.0)


class TestLocalReduction:
    def test_reduction_must_return_reduction_run(self):
        identity = Problem(name="identity2", description="", verify=lambda i, s: None)
        broken = LocalReduction(identity, identity, lambda i, o: "not-a-run")
        with pytest.raises(ReductionError):
            broken.apply("x", lambda v: v)


class TestRegistry:
    @staticmethod
    def _rows():
        return {row["problem"]: row for row in summary_table()}

    def test_maxis_approx_is_recorded_complete_with_paper_source(self):
        row = self._rows()["maxis-approx"]
        assert row["status"] == CompletenessStatus.COMPLETE.value
        assert row["source"] == "Maus19"

    def test_mis_is_recorded_open_for_completeness_but_member(self):
        assert self._rows()["mis"]["status"] == CompletenessStatus.MEMBER.value

    def test_complete_problems_contains_known_entries(self):
        complete = {p for p, row in self._rows().items() if row["status"] == "complete"}
        assert {"network-decomposition", "conflict-free-multicoloring", "maxis-approx"} <= complete

    def test_summary_table_shape(self):
        rows = summary_table()
        assert len(rows) == len(registry._FACTS)
        assert all({"problem", "status", "source", "note"} <= set(r) for r in rows)
