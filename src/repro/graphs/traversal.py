"""Breadth-first traversal utilities: distances, balls and the diameter.

The SLOCAL model is defined in terms of *r-hop neighborhoods* ("balls"),
so these helpers are the geometric backbone of the simulator in
:mod:`repro.slocal`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional, Set

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

Vertex = Hashable


def bfs_distances(graph: Graph, source: Vertex, radius: Optional[int] = None) -> Dict[Vertex, int]:
    """Return hop distances from ``source`` to every reachable vertex.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Starting vertex; must be present in ``graph``.
    radius:
        If given, the traversal stops after ``radius`` hops and only
        vertices within that distance are reported.

    Returns
    -------
    dict
        Mapping ``vertex -> distance`` with ``distances[source] == 0``.
    """
    if source not in graph:
        raise GraphError(f"source vertex {source!r} not in graph")
    distances: Dict[Vertex, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = distances[u]
        if radius is not None and d >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in distances:
                distances[v] = d + 1
                queue.append(v)
    return distances


def ball(graph: Graph, center: Vertex, radius: int) -> Set[Vertex]:
    """Return the set of vertices at hop distance ≤ ``radius`` from ``center``.

    ``radius = 0`` returns ``{center}``.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    return set(bfs_distances(graph, center, radius=radius))


def diameter(graph: Graph) -> int:
    """Return the diameter of a connected graph.

    Raises
    ------
    GraphError
        If the graph is empty or disconnected.
    """
    verts = graph.vertices
    if not verts:
        raise GraphError("diameter of an empty graph is undefined")
    best = 0
    for v in verts:
        dist = bfs_distances(graph, v)
        if len(dist) != len(verts):
            raise GraphError("diameter of a disconnected graph is undefined")
        best = max(best, max(dist.values()))
    return best
