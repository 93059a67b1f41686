"""Core contribution of the paper: conflict graph, Lemma 2.1 correspondence,
the phase-based reduction of Theorem 1.1, bounds, and certificates."""

from repro.core.conflict_graph import (
    ConflictGraph,
    ConflictVertex,
    classify_conflict_edge,
    conflict_vertices,
    legacy_build_graph,
)
from repro.core.correspondence import (
    coloring_to_independent_set,
    happy_edges_of_independent_set,
    independent_set_to_coloring,
    maximum_independent_set_size_bound,
    verify_lemma_21a,
    verify_lemma_21b,
)
from repro.core.happiness import HappinessTracker
from repro.core.reduction import (
    ConflictFreeMulticoloringViaMaxIS,
    PhaseRecord,
    ReductionResult,
    solve_conflict_free_multicoloring,
)
from repro.core.bounds import (
    color_budget,
    conflict_graph_edge_count_upper_bound,
    conflict_graph_vertex_count,
    expected_remaining_edges,
    is_polylog,
    phase_budget,
)
from repro.core.certificates import (
    CertificateReport,
    check_decay,
    check_phase_accounting,
    verify_reduction_result,
)
from repro.core.containment import ClusterwiseMaxISResult, clusterwise_maxis

__all__ = [
    "ConflictGraph",
    "ConflictVertex",
    "classify_conflict_edge",
    "conflict_vertices",
    "legacy_build_graph",
    "coloring_to_independent_set",
    "happy_edges_of_independent_set",
    "independent_set_to_coloring",
    "maximum_independent_set_size_bound",
    "verify_lemma_21a",
    "verify_lemma_21b",
    "ConflictFreeMulticoloringViaMaxIS",
    "HappinessTracker",
    "PhaseRecord",
    "ReductionResult",
    "solve_conflict_free_multicoloring",
    "color_budget",
    "conflict_graph_edge_count_upper_bound",
    "conflict_graph_vertex_count",
    "expected_remaining_edges",
    "is_polylog",
    "phase_budget",
    "CertificateReport",
    "check_decay",
    "check_phase_accounting",
    "verify_reduction_result",
    "ClusterwiseMaxISResult",
    "clusterwise_maxis",
]
