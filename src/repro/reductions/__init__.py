"""Local-reduction framework, concrete problems, and the P-SLOCAL completeness registry."""

from repro.reductions.framework import (
    LocalReduction,
    Problem,
    ReductionOverhead,
    ReductionRun,
)
from repro.reductions.problems import (
    CF_MULTICOLORING,
    DOMINATING_SET_APPROXIMATION,
    MAXIS_APPROXIMATION,
    MIS,
    NETWORK_DECOMPOSITION,
    SET_COVER,
    VERTEX_COLORING,
    cf_multicoloring_to_maxis_reduction,
    polylog_lambda,
)
from repro.reductions.registry import (
    CompletenessFact,
    CompletenessStatus,
    summary_table,
)

__all__ = [
    "LocalReduction",
    "Problem",
    "ReductionOverhead",
    "ReductionRun",
    "CF_MULTICOLORING",
    "DOMINATING_SET_APPROXIMATION",
    "MAXIS_APPROXIMATION",
    "MIS",
    "NETWORK_DECOMPOSITION",
    "SET_COVER",
    "VERTEX_COLORING",
    "cf_multicoloring_to_maxis_reduction",
    "polylog_lambda",
    "CompletenessFact",
    "CompletenessStatus",
    "summary_table",
]
