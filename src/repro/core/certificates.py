"""End-to-end certificates for the reduction's output.

P-SLOCAL membership results (and the derandomization theorem of [GHK18]
the paper cites) hinge on solutions being *efficiently verifiable*.  The
functions here verify, given only the reduction's output and the original
hypergraph, that

* the produced multicoloring is conflict-free,
* the total number of colors respects the ``k·ρ`` budget,
* the per-phase accounting is internally consistent
  (``|E_{i+1}| = |E_i| − #happy`` and ``#happy ≥ |I_i|``), and
* when the oracle honoured its λ guarantee, the phase count stayed within
  ``ρ`` and the decay followed ``|E_{i+1}| ≤ (1 − 1/λ)·|E_i|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.coloring.multicoloring import verify_conflict_free_multicoloring
from repro.core.reduction import ReductionResult
from repro.exceptions import VerificationError
from repro.hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of verifying a :class:`ReductionResult`.

    Attributes
    ----------
    conflict_free:
        The multicoloring makes every hyperedge happy.
    within_color_budget:
        At most ``k·ρ`` colors were used.
    within_phase_budget:
        At most ``ρ`` phases were executed.
    decay_respected:
        Every phase removed at least a ``1/λ`` fraction of the surviving
        edges (the inequality the analysis guarantees under its premise).
    issues:
        Human-readable list of violations (empty when everything holds).
    """

    conflict_free: bool
    within_color_budget: bool
    within_phase_budget: bool
    decay_respected: bool
    issues: List[str]


def check_phase_accounting(result: ReductionResult) -> List[str]:
    """Return a list of per-phase bookkeeping inconsistencies (empty when clean)."""
    issues: List[str] = []
    previous_after: Optional[int] = None
    for record in result.phases:
        if previous_after is not None and record.edges_before != previous_after:
            issues.append(
                f"phase {record.phase}: starts with {record.edges_before} edges but the "
                f"previous phase left {previous_after}"
            )
        if record.edges_after != record.edges_before - len(record.happy_edges):
            issues.append(
                f"phase {record.phase}: edges_after={record.edges_after} does not equal "
                f"edges_before - #happy = {record.edges_before - len(record.happy_edges)}"
            )
        if record.edges_before > 0 and len(record.happy_edges) < record.independent_set_size:
            issues.append(
                f"phase {record.phase}: {len(record.happy_edges)} happy edges but the "
                f"independent set had size {record.independent_set_size} "
                "(Lemma 2.1(b) violated)"
            )
        previous_after = record.edges_after
    if result.phases and result.phases[-1].edges_after != 0:
        issues.append(
            f"final phase leaves {result.phases[-1].edges_after} unhappy edges"
        )
    return issues


def check_decay(result: ReductionResult) -> List[str]:
    """Return violations of the ``|E_{i+1}| ≤ (1 − 1/λ)·|E_i|`` guarantee."""
    issues: List[str] = []
    for record in result.phases:
        if record.edges_before == 0:
            continue
        bound = (1.0 - 1.0 / result.lam) * record.edges_before
        # The bound is only promised when α(G^i_k) = |E_i|; we still report
        # (rather than fail) so callers can see where weaker oracles fall
        # short.
        if record.edges_after > bound + 1e-9:
            issues.append(
                f"phase {record.phase}: {record.edges_after} edges remain, above the "
                f"(1 - 1/λ)·|E_i| = {bound:.2f} guarantee"
            )
    return issues


def verify_reduction_result(
    hypergraph: Hypergraph,
    result: ReductionResult,
    require_decay: bool = False,
) -> CertificateReport:
    """Verify a reduction output against the original hypergraph.

    Parameters
    ----------
    hypergraph:
        The *original* instance the reduction was run on.
    result:
        The reduction's output.
    require_decay:
        When set, a phase that breaks the ``(1 − 1/λ)·|E_i|`` decay
        guarantee raises :class:`VerificationError` instead of merely being
        reported through ``decay_respected``.  The conflict-freeness of the
        multicoloring and the internal bookkeeping are always enforced.  A
        phase count above ``ρ`` is only reported through
        ``within_phase_budget``: it is legitimate when the analysis premise
        does not hold.
    """
    issues: List[str] = []

    conflict_free = True
    try:
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)
    except Exception as exc:  # ColoringError subclasses ReproError
        conflict_free = False
        issues.append(f"multicoloring is not conflict-free: {exc}")

    accounting_issues = check_phase_accounting(result)
    issues.extend(accounting_issues)

    within_color_budget = result.total_colors <= result.color_bound
    if not within_color_budget:
        issues.append(
            f"{result.total_colors} colors used, exceeding the budget k·ρ = {result.color_bound}"
        )

    within_phase_budget = result.num_phases <= result.phase_bound

    decay_issues = check_decay(result)
    decay_respected = not decay_issues
    if require_decay:
        issues.extend(decay_issues)

    report = CertificateReport(
        conflict_free=conflict_free,
        within_color_budget=within_color_budget,
        within_phase_budget=within_phase_budget,
        decay_respected=decay_respected,
        issues=issues,
    )
    if not conflict_free or accounting_issues or (require_decay and not decay_respected):
        raise VerificationError("; ".join(report.issues))
    return report
