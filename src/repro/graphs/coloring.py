"""Proper vertex colorings of simple graphs.

The paper motivates the P-SLOCAL class through the (Δ+1)-vertex-coloring
and MIS problems; this module provides the centralized building blocks
(verification and greedy colorings) on top of which the SLOCAL and LOCAL
simulators implement the distributed variants.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Set

from repro.exceptions import ColoringError, GraphError
from repro.graphs.graph import Graph

Vertex = Hashable
Color = int


def verify_proper_coloring(graph: Graph, coloring: Dict[Vertex, Color]) -> None:
    """Raise :class:`ColoringError` unless ``coloring`` is a proper total coloring.

    Every vertex of the graph must be assigned a color and no edge may be
    monochromatic.
    """
    missing = graph.vertices - set(coloring)
    if missing:
        raise ColoringError(f"{len(missing)} vertices are uncolored, e.g. {next(iter(missing))!r}")
    foreign = set(coloring) - graph.vertices
    if foreign:
        raise ColoringError(f"coloring mentions non-vertices, e.g. {next(iter(foreign))!r}")
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            raise ColoringError(
                f"edge ({u!r}, {v!r}) is monochromatic with color {coloring[u]!r}"
            )


def is_proper_coloring(graph: Graph, coloring: Dict[Vertex, Color]) -> bool:
    """Boolean variant of :func:`verify_proper_coloring`."""
    try:
        verify_proper_coloring(graph, coloring)
    except ColoringError:
        return False
    return True


def num_colors(coloring: Dict[Vertex, Color]) -> int:
    """Return the number of distinct colors used by ``coloring``."""
    return len(set(coloring.values()))


def greedy_coloring(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> Dict[Vertex, Color]:
    """Greedy first-fit coloring along ``order`` (uses at most Δ+1 colors).

    This is the SLOCAL-with-locality-1 algorithm for (Δ+1)-vertex coloring:
    each vertex inspects the colors of its already processed neighbors and
    picks the smallest free color.
    """
    if order is None:
        order = sorted(graph.vertices, key=repr)
    else:
        order = list(order)
        if set(order) != graph.vertices:
            raise GraphError("order must be a permutation of the vertex set")
    coloring: Dict[Vertex, Color] = {}
    for v in order:
        used: Set[Color] = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        color = 0
        while color in used:
            color += 1
        coloring[v] = color
    return coloring
