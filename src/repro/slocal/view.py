"""Restricted r-hop views handed to SLOCAL algorithms.

The central rule of the SLOCAL model is that, when node ``v`` is processed
with locality ``r``, the algorithm may inspect *only* the ``r``-hop
neighborhood of ``v``: its topology, the identifiers of the nodes in it,
and the current state (including outputs) of those nodes.  :class:`LocalView`
is the capability object that enforces this: any attempt to read a vertex
outside the ball raises :class:`~repro.exceptions.LocalityViolation`, which
is how the engine measures/validates the locality of an algorithm.
"""

from __future__ import annotations

from typing import Any, Hashable, Set

from repro.exceptions import LocalityViolation
from repro.graphs.graph import Graph
from repro.graphs.traversal import ball
from repro.slocal.state import StateMap

Vertex = Hashable


class LocalView:
    """Read-only window onto the ``radius``-ball around ``center``.

    Parameters
    ----------
    graph:
        The full network graph (never exposed directly).
    state:
        The global state map (reads are restricted to the ball).
    center:
        The node currently being processed.
    radius:
        The locality of the algorithm.
    """

    def __init__(self, graph: Graph, state: StateMap, center: Vertex, radius: int) -> None:
        self._state = state
        self.center = center
        self.radius = radius
        self._ball: Set[Vertex] = ball(graph, center, radius)
        self._subgraph = graph.subgraph(self._ball)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Set[Vertex]:
        """The vertices visible in this view (the ``radius``-ball)."""
        return set(self._ball)

    def subgraph(self) -> Graph:
        """The subgraph induced on the visible ball (a copy)."""
        return self._subgraph.copy()

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Neighbors of ``vertex`` *within the view*.

        Note that for vertices on the boundary of the ball this may be a
        strict subset of their true neighborhood — exactly as in the model,
        where edges leaving the ball are invisible.
        """
        self._check_visible(vertex)
        return self._subgraph.neighbors(vertex)

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def is_processed(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` (visible in the view) has already been processed."""
        self._check_visible(vertex)
        return self._state[vertex].processed

    def output_of(self, vertex: Vertex) -> Any:
        """The output of an already-processed visible vertex."""
        self._check_visible(vertex)
        return self._state[vertex].output

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_visible(self, vertex: Vertex) -> None:
        if vertex not in self._ball:
            raise LocalityViolation(
                f"vertex {vertex!r} is outside the {self.radius}-hop view of {self.center!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalView(center={self.center!r}, radius={self.radius}, "
            f"|ball|={len(self._ball)})"
        )
