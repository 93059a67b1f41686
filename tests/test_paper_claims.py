"""Theorem 1.1's phase and color budgets, and the oracle premise, on fixed workloads.

The reduction runs on ``repro bench``'s instance sweep with the min-degree
greedy oracle and two weakened copies of it, which keep 50% and 20% of its
answer and so behave like genuinely λ-approximate oracles; each runs at the
λ it is assumed to achieve.
"""

from __future__ import annotations

import pytest

from repro.analysis import decay_curve
from repro.core import (
    ConflictGraph,
    color_budget,
    is_polylog,
    phase_budget,
    solve_conflict_free_multicoloring,
)
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator
from repro.reductions import polylog_lambda


def _weakened(oracle, keep_fraction):
    """``oracle``, keeping the ``repr``-smallest ``keep_fraction`` of its set (at least one)."""

    def solve(graph):
        full = oracle(graph)
        return set(sorted(full, key=repr)[: max(1, int(len(full) * keep_fraction))])

    return solve


GREEDY = get_approximator("greedy-min-degree")
#: ``(oracle, assumed λ)``: the λ of each is backed by a worst-case argument here.
ORACLES = [
    pytest.param(GREEDY, 6.0, id="greedy-min-degree"),
    pytest.param(_weakened(GREEDY, 0.5), 8.0, id="greedy@50%"),
    pytest.param(_weakened(GREEDY, 0.2), 12.0, id="greedy@20%"),
]
#: Luby's λ = 6 is a heuristic choice, not a proven bound: its phase count
#: is checked, its decay is not.
LUBY = pytest.param(get_approximator("luby-best-of-5"), 6.0, id="luby-best-of-5")


@pytest.mark.parametrize("oracle, lam", ORACLES + [LUBY])
def test_phases_within_rho(bench_family, oracle, lam):
    """E3: at most ρ = λ·ln m + 1 phases."""
    for label, hypergraph, _, k in bench_family[:3]:
        result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=oracle, lam=lam)
        assert result.num_phases <= phase_budget(lam, hypergraph.num_edges()), label


@pytest.mark.parametrize("oracle, lam", ORACLES)
def test_decay_within_envelope(bench_family, oracle, lam):
    """E3: after phase i at most (1 − 1/λ)^i · m edges are unhappy."""
    for label, hypergraph, _, k in bench_family[:3]:
        result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=oracle, lam=lam)
        curve = decay_curve(result)
        assert curve.respects_guarantee(), (label, curve)


@pytest.mark.parametrize("oracle, lam", ORACLES)
def test_colors_within_k_rho(bench_family, oracle, lam):
    """E4: at most k·ρ colors, a budget within 32·log2(n)^3."""
    for label, hypergraph, _, k in bench_family:
        result = solve_conflict_free_multicoloring(hypergraph, k=k, approximator=oracle, lam=lam)
        budget = color_budget(k, lam, hypergraph.num_edges())
        assert result.total_colors <= budget, label
        assert is_polylog(budget, hypergraph.num_vertices(), exponent=3.0, constant=32.0), label


@pytest.mark.parametrize(
    "name", ["greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover"]
)
def test_oracle_ratio_on_conflict_graphs_within_polylog(name):
    """E6: on G_k, where α = m (Lemma 2.1(a)), m/|I| ≤ log2(|V(G_k)|)^2."""
    for n, m, k, seed in [(14, 7, 2, 4), (18, 9, 2, 5), (20, 8, 3, 6)]:
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=k, seed=seed)
        conflict_graph = ConflictGraph(hypergraph, k)
        independent_set = get_approximator(name)(conflict_graph.graph)
        ratio = hypergraph.num_edges() / len(independent_set)
        assert ratio <= polylog_lambda(conflict_graph.num_vertices()), (n, m, k, seed)
