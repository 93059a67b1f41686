"""Conflict-free (multi)coloring of hypergraphs: definitions, baselines, interval case."""

from repro.coloring.conflict_free import (
    UNCOLORED,
    color_of,
    colors_used,
    happy_edges,
    happy_edges_incident,
    is_conflict_free,
    is_happy,
    num_colors_used,
    unhappy_edges,
    unique_color_vertices,
    verify_conflict_free_coloring,
)
from repro.coloring.multicoloring import (
    Multicoloring,
    edge_color_census,
    is_edge_happy,
    single_coloring_as_multicoloring,
    verify_conflict_free_multicoloring,
)
from repro.coloring.greedy import greedy_conflict_free_coloring
from repro.coloring.interval import (
    canonical_point_order,
    divide_and_conquer_coloring,
    interval_color_bound,
    interval_conflict_free_coloring,
    is_interval_hypergraph,
)

__all__ = [
    "UNCOLORED",
    "color_of",
    "colors_used",
    "happy_edges",
    "happy_edges_incident",
    "is_conflict_free",
    "is_happy",
    "num_colors_used",
    "unhappy_edges",
    "unique_color_vertices",
    "verify_conflict_free_coloring",
    "Multicoloring",
    "edge_color_census",
    "is_edge_happy",
    "single_coloring_as_multicoloring",
    "verify_conflict_free_multicoloring",
    "greedy_conflict_free_coloring",
    "canonical_point_order",
    "divide_and_conquer_coloring",
    "interval_color_bound",
    "interval_conflict_free_coloring",
    "is_interval_hypergraph",
]
