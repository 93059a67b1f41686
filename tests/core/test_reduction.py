"""Tests for the phase-based reduction of Theorem 1.1 and its certificates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import verify_conflict_free_multicoloring
from repro.core import (
    ConflictFreeMulticoloringViaMaxIS,
    phase_budget,
    solve_conflict_free_multicoloring,
    verify_reduction_result,
)
from repro.core.certificates import check_decay, check_phase_accounting
from repro.exceptions import ReductionError, VerificationError
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph, sunflower_hypergraph
from repro.maxis import get_approximator

from tests.conftest import colorable_hypergraphs


def _weak_oracle(fraction_of_max: float):
    """An intentionally weak oracle returning roughly a fraction of the greedy set.

    Used to exercise multi-phase behaviour: the reduction must still finish
    (every phase removes at least one edge) but needs more phases.
    """

    def solve(graph):
        full = get_approximator("greedy-min-degree")(graph)
        target = max(1, int(len(full) * fraction_of_max))
        return set(sorted(full, key=repr)[:target])

    return solve


class TestBasicRuns:
    def test_greedy_oracle_run_is_conflict_free_and_within_budget(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)
        assert result.within_phase_bound()
        assert result.within_color_bound()
        assert result.phase_bound == phase_budget(4.0, hypergraph.num_edges())

    def test_exact_oracle_finishes_in_one_phase_on_colorable_instance(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=12, m=6, k=2, seed=31)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=get_approximator("exact"), lam=1.0
        )
        assert result.num_phases == 1
        assert result.total_colors <= 2

    def test_weak_oracle_needs_more_phases_but_still_finishes(self, colorable_instance):
        hypergraph, _ = colorable_instance
        strong = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        weak = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.3), lam=4.0
        )
        verify_conflict_free_multicoloring(hypergraph, weak.multicoloring)
        assert weak.num_phases >= strong.num_phases
        assert weak.total_colors >= strong.total_colors

    def test_edgeless_hypergraph_trivially_solved(self):
        hypergraph = Hypergraph(vertices=[0, 1, 2])
        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=get_approximator("greedy-min-degree"), lam=2.0
        )
        # No phase runs on an edgeless input: the phase list is empty (no
        # synthetic all-zero record) and the empty multicoloring is
        # vacuously conflict-free.
        assert result.total_colors == 0
        assert result.num_phases == 0
        assert result.phases == []
        assert result.remaining_edges_series() == []
        assert result.within_phase_bound() and result.within_color_bound()

    def test_sunflower_instance(self):
        hypergraph = sunflower_hypergraph(n_petals=6, petal_size=2, core_size=1)
        result = solve_conflict_free_multicoloring(
            hypergraph, k=2, approximator=get_approximator("greedy-min-degree"), lam=3.0
        )
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)


class TestPhaseRecords:
    def test_phase_accounting_is_consistent(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.4), lam=5.0
        )
        assert check_phase_accounting(result) == []
        series = result.remaining_edges_series()
        assert series[0] == hypergraph.num_edges()
        assert series[-1] == 0
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_each_phase_uses_a_private_palette(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.4), lam=5.0
        )
        for color in result.multicoloring.all_colors():
            phase, palette_color = color
            assert 1 <= phase <= result.num_phases
            assert 1 <= palette_color <= 3

    def test_total_colors_bounded_by_k_times_phases(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.5), lam=5.0
        )
        assert result.total_colors <= 3 * result.num_phases

    def test_phase_records_report_conflict_graph_sizes(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        first = result.phases[0]
        assert first.conflict_graph_vertices == 3 * hypergraph.total_edge_size()
        assert first.conflict_graph_edges > 0
        assert first.removal_fraction > 0


class TestParameterValidation:
    def test_invalid_k_and_lambda(self):
        with pytest.raises(ReductionError):
            ConflictFreeMulticoloringViaMaxIS(k=0, approximator=lambda g: set(), lam=2.0)
        with pytest.raises(ReductionError):
            ConflictFreeMulticoloringViaMaxIS(k=2, approximator=lambda g: set(), lam=0.5)

    def test_empty_oracle_output_detected(self, colorable_instance):
        hypergraph, _ = colorable_instance
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=lambda graph: set(), lam=2.0
        )
        with pytest.raises(ReductionError):
            reduction.run(hypergraph)

    @pytest.mark.parametrize("path", ["run", "run_rebuild"])
    def test_phase_loop_is_bounded_by_m_and_reports_a_rho_overrun(
        self, colorable_instance, path
    ):
        hypergraph, _ = colorable_instance
        # λ = 1 allocates very few phases; the deliberately weak oracle cannot
        # keep that pace.  Every phase still removes an edge, so the loop
        # ends within m phases, and the ρ overrun is reported, not raised.
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=_weak_oracle(0.05), lam=1.0
        )
        result = getattr(reduction, path)(hypergraph)
        assert result.phase_bound < result.num_phases <= hypergraph.num_edges()
        assert not result.within_phase_bound()
        report = verify_reduction_result(hypergraph, result)
        assert report.conflict_free and not report.within_phase_budget


class TestCertificates:
    def test_report_for_valid_run(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        report = verify_reduction_result(hypergraph, result)
        assert report.conflict_free
        assert report.within_color_budget
        assert report.within_phase_budget
        assert report.issues == []

    def test_decay_check_flags_slow_phases(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.05), lam=1.0
        )
        # λ = 1 promises that every phase removes all edges; the weak oracle
        # cannot achieve that, so the decay check reports violations.
        assert check_decay(result)
        with pytest.raises(VerificationError):
            verify_reduction_result(hypergraph, result, require_decay=True)

    def test_certificate_rejects_tampered_multicoloring(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        # Remove all colors to break conflict-freeness.
        from repro.coloring import Multicoloring

        result.multicoloring = Multicoloring()
        with pytest.raises(VerificationError):
            verify_reduction_result(hypergraph, result)

    @staticmethod
    def _multi_phase_run(hypergraph):
        result = solve_conflict_free_multicoloring(
            hypergraph, k=3, approximator=_weak_oracle(0.3), lam=4.0
        )
        assert result.num_phases > 2
        return result

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                lambda ps: setattr(ps[1], "edges_before", ps[1].edges_before + 1),
                "previous phase left",
            ),
            (lambda ps: setattr(ps[0], "edges_after", ps[0].edges_after - 1), "does not equal"),
            (
                lambda ps: setattr(ps[0], "independent_set_size", len(ps[0].happy_edges) + 1),
                r"Lemma 2\.1\(b\) violated",
            ),
            (lambda ps: ps.pop(), "final phase leaves 1 unhappy edges"),
        ],
        ids=["chain-break", "edges-after", "lemma-2.1b", "unfinished"],
    )
    def test_certificate_rejects_tampered_phase_accounting(
        self, colorable_instance, tamper, message
    ):
        hypergraph, _ = colorable_instance
        result = self._multi_phase_run(hypergraph)
        tamper(result.phases)
        with pytest.raises(VerificationError, match=message):
            verify_reduction_result(hypergraph, result)

    def test_color_budget_overrun_is_reported_not_raised(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = self._multi_phase_run(hypergraph)
        result.color_bound = result.total_colors - 1
        report = verify_reduction_result(hypergraph, result)
        assert not report.within_color_budget
        assert [issue for issue in report.issues if "exceeding the budget" in issue]

    def test_phase_overrun_is_reported_not_raised(self, colorable_instance):
        hypergraph, _ = colorable_instance
        result = self._multi_phase_run(hypergraph)
        result.phase_bound = result.num_phases - 1
        report = verify_reduction_result(hypergraph, result)
        assert not report.within_phase_budget
        assert report.issues == []


class TestProperties:
    @given(colorable_hypergraphs(max_n=16, max_m=8, max_k=3),
           st.sampled_from(["greedy-min-degree", "luby-best-of-5", "clique-cover"]))
    @settings(max_examples=20, deadline=None)
    def test_reduction_always_produces_conflict_free_multicoloring(self, triple, oracle_name):
        hypergraph, _, k = triple
        result = solve_conflict_free_multicoloring(
            hypergraph, k=k, approximator=get_approximator(oracle_name), lam=8.0
        )
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)
        assert check_phase_accounting(result) == []

    @given(colorable_hypergraphs(max_n=14, max_m=7, max_k=2))
    @settings(max_examples=15, deadline=None)
    def test_exact_oracle_respects_lemma_guarantee(self, triple):
        hypergraph, _, k = triple
        result = solve_conflict_free_multicoloring(
            hypergraph, k=k, approximator=get_approximator("exact"), lam=1.0
        )
        # With λ = 1 and a colorable instance, Lemma 2.1(a) forces one phase.
        assert result.num_phases == 1
        assert result.within_phase_bound()
