"""Simple-graph substrate: data structure, traversal, generators, IS/coloring tools."""

from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.graphs.traversal import ball, bfs_distances, diameter
from repro.graphs.generators import (
    cycle_graph,
    empty_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.independent_sets import (
    greedy_maximal_independent_set,
    greedy_min_degree_independent_set,
    independence_number,
    is_maximal_independent_set,
    luby_mis,
    maximum_independent_set,
    verify_independent_set,
)
from repro.graphs.coloring import (
    greedy_coloring,
    is_proper_coloring,
    num_colors,
    verify_proper_coloring,
)

__all__ = [
    "Graph",
    "IndexedGraph",
    "ball",
    "bfs_distances",
    "diameter",
    "cycle_graph",
    "empty_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "path_graph",
    "random_tree",
    "greedy_maximal_independent_set",
    "greedy_min_degree_independent_set",
    "independence_number",
    "is_maximal_independent_set",
    "luby_mis",
    "maximum_independent_set",
    "verify_independent_set",
    "greedy_coloring",
    "is_proper_coloring",
    "num_colors",
    "verify_proper_coloring",
]
