"""Concrete problem definitions and the paper's reduction as a :class:`LocalReduction`.

The problems defined here are the ones the paper discusses:

* maximal independent set (MIS),
* (Δ+1)-vertex coloring,
* λ-approximate maximum independent set,
* conflict-free multicoloring of hypergraphs, and
* (C, D)-network decomposition.

``cf_multicoloring_to_maxis_reduction`` packages Theorem 1.1's hardness
construction in the :class:`~repro.reductions.framework.LocalReduction`
interface so the overhead accounting (one oracle call per phase, phases
``≤ ρ``, conflict-graph blow-up ``k·Σ|e|``) can be measured and asserted.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Set, Tuple

from repro.coloring.multicoloring import verify_conflict_free_multicoloring
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.exceptions import IndependenceError, ReductionError, VerificationError
from repro.graphs.coloring import verify_proper_coloring
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import is_maximal_independent_set
from repro.hypergraph.hypergraph import Hypergraph
from repro.maxis.verification import require_approximation
from repro.reductions.framework import (
    LocalReduction,
    Problem,
    ReductionOverhead,
    ReductionRun,
)


# ----------------------------------------------------------------------
# Problem definitions
# ----------------------------------------------------------------------
def _verify_mis(graph: Graph, solution: Set) -> None:
    if not is_maximal_independent_set(graph, solution):
        raise IndependenceError("solution is not a maximal independent set")


MIS = Problem(
    name="mis",
    description="Maximal independent set (inclusion-maximal).",
    verify=_verify_mis,
)


def _verify_coloring(graph: Graph, solution: Dict) -> None:
    verify_proper_coloring(graph, solution)
    if solution and max(len(set(solution.values())), 0) > graph.max_degree() + 1:
        raise VerificationError("coloring uses more than Δ+1 colors")


VERTEX_COLORING = Problem(
    name="delta-plus-one-coloring",
    description="Proper vertex coloring with at most Δ+1 colors.",
    verify=_verify_coloring,
)


def _verify_maxis_approx(instance: Tuple[Graph, float], solution: Set) -> None:
    graph, lam = instance
    require_approximation(graph, solution, claimed_lambda=lam)


MAXIS_APPROXIMATION = Problem(
    name="maxis-approx",
    description="λ-approximate maximum independent set (instance = (graph, λ)).",
    verify=_verify_maxis_approx,
)


def _verify_cf_multicoloring(instance: Tuple[Hypergraph, int], solution) -> None:
    hypergraph, max_colors = instance
    verify_conflict_free_multicoloring(hypergraph, solution, max_total_colors=max_colors)


CF_MULTICOLORING = Problem(
    name="conflict-free-multicoloring",
    description=(
        "Conflict-free multicoloring of a hypergraph "
        "(instance = (hypergraph, total color budget))."
    ),
    verify=_verify_cf_multicoloring,
)


def _verify_dominating_set_approx(instance: Tuple[Graph, float], solution: Set) -> None:
    from repro.covering.dominating_set import domination_number, verify_dominating_set

    graph, factor = instance
    verify_dominating_set(graph, solution)
    optimum = domination_number(graph)
    if optimum > 0 and len(set(solution)) > factor * optimum + 1e-9:
        raise VerificationError(
            f"dominating set of size {len(set(solution))} exceeds {factor} x optimum {optimum}"
        )


DOMINATING_SET_APPROXIMATION = Problem(
    name="dominating-set-approx",
    description=(
        "Approximate minimum dominating set (instance = (graph, approximation factor)); "
        "the exact optimum is computed for verification, so instances must stay small."
    ),
    verify=_verify_dominating_set_approx,
)


def _verify_set_cover(instance, solution) -> None:
    from repro.covering.set_cover import verify_set_cover

    verify_set_cover(instance, solution)


SET_COVER = Problem(
    name="set-cover-approx",
    description="Set cover (instance = SetCoverInstance, solution = iterable of set ids).",
    verify=_verify_set_cover,
)


def _verify_network_decomposition(instance: Tuple[Graph, int, int], solution) -> None:
    from repro.decomposition.network_decomposition import verify_network_decomposition

    graph, max_colors, max_diameter = instance
    verify_network_decomposition(graph, solution, max_colors, max_diameter)


NETWORK_DECOMPOSITION = Problem(
    name="network-decomposition",
    description="(C, D)-network decomposition (instance = (graph, C, D)).",
    verify=_verify_network_decomposition,
)


# ----------------------------------------------------------------------
# The paper's reduction in the LocalReduction interface
# ----------------------------------------------------------------------
def cf_multicoloring_to_maxis_reduction(k: int, lam: float) -> LocalReduction:
    """Return Theorem 1.1's reduction ``CF-multicoloring ≤ MaxIS-approximation``.

    The returned :class:`LocalReduction` expects instances of the source
    problem of the form ``(hypergraph, color_budget)`` — the budget is
    checked against the produced multicoloring — and an oracle for the
    target problem that accepts ``(graph, λ)`` instances and returns an
    independent set.

    Parameters
    ----------
    k:
        Per-phase palette size.
    lam:
        The approximation factor the oracle is assumed to provide.
    """
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    if lam < 1:
        raise ReductionError(f"approximation factor must be ≥ 1, got {lam}")

    def run(instance: Tuple[Hypergraph, int], oracle: Callable[[Any], Any]) -> ReductionRun:
        hypergraph, _budget = instance
        calls = {"count": 0, "largest": 0}

        def counting_oracle(graph: Graph) -> Set:
            calls["count"] += 1
            calls["largest"] = max(calls["largest"], graph.num_vertices())
            return oracle((graph, lam))

        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=k, approximator=counting_oracle, lam=lam
        )
        result = reduction.run(hypergraph)

        n = max(hypergraph.num_vertices(), 1)
        overhead = ReductionOverhead(
            oracle_calls=calls["count"],
            locality_factor=2.0,  # conflict-graph edges span host distance ≤ 2
            instance_blowup=calls["largest"] / n,
        )
        return ReductionRun(
            solution=result.multicoloring,
            overhead=overhead,
            details={
                "phases": result.num_phases,
                "phase_bound": result.phase_bound,
                "total_colors": result.total_colors,
                "color_bound": result.color_bound,
            },
        )

    return LocalReduction(
        source=CF_MULTICOLORING,
        target=MAXIS_APPROXIMATION,
        run=run,
        name=f"cf-multicoloring<=maxis-approx(k={k}, λ={lam})",
    )


def polylog_lambda(n: int, exponent: float = 2.0) -> float:
    """A concrete polylogarithmic approximation factor ``max(1, log2(n)^exponent)``.

    Instantiates "polylogarithmic MaxIS approximation" for finite n: the E6
    claim test holds every oracle's ratio on a conflict graph ``G_k`` to
    ``polylog_lambda(|V(G_k)|)``.
    """
    if n < 2:
        return 1.0
    return max(1.0, math.log2(n) ** exponent)
