"""SLOCAL model simulator: engine, restricted views, persistent state, algorithms."""

from repro.slocal.engine import SLOCALAlgorithm, SLOCALEngine, SLOCALResult
from repro.slocal.state import NodeState, StateMap
from repro.slocal.view import LocalView
from repro.slocal.orderings import (
    adversarial_orders,
    bfs_order,
    degree_order,
    random_order,
    sorted_order,
    validate_order,
)
from repro.slocal.algorithms import (
    SLOCALGreedyColoring,
    SLOCALMIS,
    slocal_greedy_coloring,
    slocal_mis,
)

__all__ = [
    "SLOCALAlgorithm",
    "SLOCALEngine",
    "SLOCALResult",
    "NodeState",
    "StateMap",
    "LocalView",
    "adversarial_orders",
    "bfs_order",
    "degree_order",
    "random_order",
    "sorted_order",
    "validate_order",
    "SLOCALGreedyColoring",
    "SLOCALMIS",
    "slocal_greedy_coloring",
    "slocal_mis",
]
