"""End-to-end integration tests across subsystems.

These tests exercise the whole chain the paper describes: generate a hard
instance, build conflict graphs, call MaxIS oracles, run the phase-based
reduction, verify the multicoloring, and cross-check against the SLOCAL /
LOCAL simulators and baseline conflict-free coloring algorithms.
"""

from __future__ import annotations

import pytest

from repro import (
    colorable_almost_uniform_hypergraph,
    get_approximator,
    solve_conflict_free_multicoloring,
    verify_reduction_result,
)
from repro.analysis import decay_curve, effective_lambda, run_summary
from repro.coloring import (
    Multicoloring,
    greedy_conflict_free_coloring,
    interval_color_bound,
    interval_conflict_free_coloring,
    num_colors_used,
    single_coloring_as_multicoloring,
    verify_conflict_free_multicoloring,
)
from repro.coloring.interval import canonical_point_order
from repro.core import (
    ConflictGraph,
    color_budget,
    phase_budget,
    verify_lemma_21a,
    verify_lemma_21b,
)
from repro.graphs import is_maximal_independent_set
from repro.hypergraph import random_interval_hypergraph
from repro.local_model import VirtualGraphEmbedding, luby_mis
from repro.maxis import available_approximators
from repro.reductions import cf_multicoloring_to_maxis_reduction
from repro.slocal import slocal_mis

from tests.conftest import graph_as_hypergraph


class TestFullPipelinePerOracle:
    @pytest.mark.parametrize("oracle_name", sorted(set(available_approximators()) - {"exact"}))
    def test_reduction_with_every_registered_oracle(self, oracle_name):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=30, m=18, k=3, seed=41)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator(oracle_name), lam=6.0
        )
        report = verify_reduction_result(hypergraph, result)
        assert report.conflict_free
        assert result.total_colors <= result.color_bound
        assert result.num_phases <= result.phase_bound

    def test_exact_oracle_on_small_instance(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=10, m=5, k=2, seed=42)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=get_approximator("exact"), lam=1.0
        )
        assert result.num_phases == 1
        assert result.total_colors <= 2


class TestLemmaPipeline:
    def test_lemmas_and_reduction_agree_on_the_same_instance(self):
        hypergraph, planted = colorable_almost_uniform_hypergraph(n=24, m=12, k=3, seed=43)
        cg = ConflictGraph(hypergraph, 3)
        witness = verify_lemma_21a(cg, planted)
        assert len(witness) == hypergraph.num_edges()

        oracle = get_approximator("greedy-min-degree")
        independent_set = oracle(cg.graph)
        happy = verify_lemma_21b(cg, independent_set)
        # Lemma 2.1(a) says the optimum equals m, so the (Δ+1)-approximation
        # must cover at least m / (Δ+1) edges in one phase.
        delta = cg.graph.max_degree()
        assert len(happy) >= hypergraph.num_edges() / (delta + 1)

    def test_reduction_phase_count_matches_effective_lambda(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=28, m=16, k=3, seed=44)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("luby-best-of-5"), lam=8.0
        )
        lam_eff = effective_lambda(result)
        assert result.num_phases <= phase_budget(lam_eff, hypergraph.num_edges()) + 1
        curve = decay_curve(result)
        assert curve.observed[-1] == 0
        summary = run_summary(result)
        assert summary["within_color_bound"] == 1.0


class TestAgainstBaselines:
    def test_reduction_and_greedy_baseline_both_conflict_free(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=26, m=14, k=3, seed=45)
        reduction_result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=5.0
        )
        baseline = greedy_conflict_free_coloring(hypergraph)
        verify_conflict_free_multicoloring(hypergraph, reduction_result.multicoloring)
        baseline_mc = single_coloring_as_multicoloring(baseline)
        verify_conflict_free_multicoloring(hypergraph, baseline_mc)

    def test_interval_instance_solved_by_both_routes(self):
        # (points, intervals, seed, λ): the [DN18] setting the paper adapts.
        for n_points, n_intervals, seed, lam in [
            (24, 16, 46, 5.0), (16, 12, 1, 4.0), (32, 24, 2, 4.0), (48, 36, 3, 4.0),
        ]:
            hypergraph = random_interval_hypergraph(n_points, n_intervals, seed=seed)
            order = canonical_point_order(hypergraph)
            direct = interval_conflict_free_coloring(hypergraph, order)
            assert num_colors_used(direct) <= interval_color_bound(n_points)

            result = solve_conflict_free_multicoloring(
                hypergraph,
                k=max(num_colors_used(direct), 2),
                approximator=get_approximator("greedy-min-degree"),
                lam=lam,
            )
            report = verify_reduction_result(hypergraph, result)
            assert report.conflict_free

    def test_mis_instance_as_two_uniform_hypergraph(self):
        # A conflict-free coloring of the 2-uniform hypergraph of a graph is
        # related to, but weaker than, proper coloring; the pipeline must
        # still handle the 2-uniform case.
        from repro.graphs import erdos_renyi_graph

        g = erdos_renyi_graph(15, 0.25, seed=47)
        if g.num_edges() == 0:
            pytest.skip("degenerate random instance")
        hypergraph = graph_as_hypergraph(g)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        report = verify_reduction_result(hypergraph, result)
        assert report.conflict_free


class TestModelsIntegration:
    def test_conflict_graph_runs_inside_virtual_embedding(self):
        for n, m, k, seed in [(18, 9, 2, 48), (20, 12, 3, 300), (40, 25, 3, 301), (60, 40, 3, 302)]:
            hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=k, seed=seed)
            cg = ConflictGraph(hypergraph, k)
            host = hypergraph.primal_graph()
            embedding = VirtualGraphEmbedding(host, cg.graph, cg.host_assignment())
            assert embedding.dilation() <= 2
            assert embedding.virtual_graph.num_vertices() == cg.num_vertices()
            # Simulating an O(log n)-round virtual algorithm costs only a
            # constant factor more on the host.
            assert embedding.simulation_rounds(10) <= 20

    def test_slocal_and_local_mis_agree_on_validity(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=20, m=10, k=2, seed=49)
        cg = ConflictGraph(hypergraph, 2)
        graph = cg.graph
        slocal_result = slocal_mis(graph)
        luby_result, run = luby_mis(graph, seed=50)
        assert is_maximal_independent_set(graph, slocal_result)
        assert is_maximal_independent_set(graph, luby_result)
        assert run.terminated

    def test_mis_oracle_built_from_luby_drives_the_reduction(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=22, m=12, k=2, seed=51)

        def luby_oracle(graph):
            mis, _ = luby_mis(graph, seed=52)
            return mis

        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=luby_oracle, lam=10.0
        )
        report = verify_reduction_result(hypergraph, result)
        assert report.conflict_free


class TestFrameworkIntegration:
    def test_paper_reduction_through_framework_interface(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=24, m=13, k=3, seed=53)
        lam = 6.0
        reduction = cf_multicoloring_to_maxis_reduction(k=3, lam=lam)
        budget = color_budget(3, lam, hypergraph.num_edges())
        oracle = lambda instance: get_approximator("greedy-min-degree")(instance[0])  # noqa: E731
        run = reduction.apply((hypergraph, budget), oracle)
        assert isinstance(run.solution, Multicoloring)
        assert run.details["phases"] <= run.details["phase_bound"]
        assert run.overhead.oracle_calls == run.details["phases"]
