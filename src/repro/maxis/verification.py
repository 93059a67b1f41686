"""Verification of approximation guarantees.

The reduction's analysis hinges on the inequality ``|I| ≥ α(G)/λ``.  When
``α(G)`` is known (exactly, or via a lower bound such as the planted
independent set of Lemma 2.1(a)), the helpers here check whether a
computed independent set actually meets a claimed approximation factor —
this is how a caller certifies, per phase, that the oracle it plugged into
the reduction really behaved as a λ-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Set

from repro.exceptions import ApproximationError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import independence_number, verify_independent_set

Vertex = Hashable


@dataclass(frozen=True)
class ApproximationReport:
    """Outcome of checking an approximation guarantee.

    Attributes
    ----------
    candidate_size:
        Size of the checked independent set.
    optimum:
        The value of α(G) used for the check (exact or a lower bound).
    achieved_ratio:
        ``optimum / candidate_size`` (``1.0`` when the optimum is 0).
    claimed_lambda:
        The factor that was claimed, if any.
    satisfied:
        Whether ``achieved_ratio ≤ claimed_lambda`` (``True`` when no claim).
    """

    candidate_size: int
    optimum: float
    achieved_ratio: float
    claimed_lambda: Optional[float]
    satisfied: bool


def check_approximation(
    graph: Graph,
    candidate: Iterable[Vertex],
    claimed_lambda: Optional[float] = None,
    optimum: Optional[float] = None,
) -> ApproximationReport:
    """Verify that ``candidate`` is an independent set meeting ``claimed_lambda``.

    Parameters
    ----------
    graph:
        The instance.
    candidate:
        The independent set to check (independence itself is always verified).
    claimed_lambda:
        The approximation factor to check against; ``None`` disables the
        ratio check and only reports the achieved ratio.
    optimum:
        A known value of (or lower bound on) α(G).  If omitted, α(G) is
        computed exactly — only sensible on small instances.
    """
    candidate_set: Set[Vertex] = set(candidate)
    verify_independent_set(graph, candidate_set)
    if optimum is None:
        optimum = float(independence_number(graph))
    if optimum < 0:
        raise ApproximationError(f"optimum must be non-negative, got {optimum}")

    if optimum == 0:
        achieved = 1.0
    elif not candidate_set:
        achieved = float("inf")
    else:
        achieved = optimum / len(candidate_set)

    satisfied = True
    if claimed_lambda is not None:
        if claimed_lambda < 1:
            raise ApproximationError(
                f"an approximation factor must be at least 1, got {claimed_lambda}"
            )
        # A strict tolerance is unnecessary: both sides are exact rationals
        # represented in floating point well within precision for the sizes
        # the library handles.
        satisfied = achieved <= claimed_lambda + 1e-9

    return ApproximationReport(
        candidate_size=len(candidate_set),
        optimum=float(optimum),
        achieved_ratio=achieved,
        claimed_lambda=claimed_lambda,
        satisfied=satisfied,
    )


def require_approximation(
    graph: Graph,
    candidate: Iterable[Vertex],
    claimed_lambda: float,
    optimum: Optional[float] = None,
) -> ApproximationReport:
    """Like :func:`check_approximation` but raise if the guarantee is violated."""
    report = check_approximation(graph, candidate, claimed_lambda, optimum)
    if not report.satisfied:
        raise ApproximationError(
            f"claimed {claimed_lambda}-approximation violated: achieved ratio "
            f"{report.achieved_ratio:.3f} with |I| = {report.candidate_size} "
            f"and optimum {report.optimum}"
        )
    return report
