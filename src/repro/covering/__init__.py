"""Covering problems from the P-SLOCAL completeness landscape: dominating set, set cover."""

from repro.covering.dominating_set import (
    closed_neighborhood,
    domination_number,
    exact_minimum_dominating_set,
    greedy_dominating_set,
    slocal_dominating_set,
    verify_dominating_set,
)
from repro.covering.set_cover import (
    SetCoverInstance,
    dominating_set_as_set_cover,
    exact_minimum_set_cover,
    greedy_set_cover,
    harmonic_number,
    hypergraph_vertex_cover_as_set_cover,
    set_cover_optimum,
    verify_set_cover,
)

__all__ = [
    "closed_neighborhood",
    "domination_number",
    "exact_minimum_dominating_set",
    "greedy_dominating_set",
    "slocal_dominating_set",
    "verify_dominating_set",
    "SetCoverInstance",
    "dominating_set_as_set_cover",
    "exact_minimum_set_cover",
    "greedy_set_cover",
    "harmonic_number",
    "hypergraph_vertex_cover_as_set_cover",
    "set_cover_optimum",
    "verify_set_cover",
]
