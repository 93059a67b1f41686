"""Concrete SLOCAL algorithms from the paper's introduction and related work.

* :class:`SLOCALMIS` — the locality-1 maximal-independent-set algorithm the
  paper describes verbatim: iterate through the nodes in an arbitrary order
  and join the set if no already-processed neighbor has joined.
* :class:`SLOCALGreedyColoring` — the locality-1 greedy (Δ+1)-coloring.
* :func:`slocal_mis`, :func:`slocal_greedy_coloring` — convenience wrappers
  returning plain Python structures.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Set

from repro.graphs.graph import Graph
from repro.slocal.engine import SLOCALAlgorithm, SLOCALEngine
from repro.slocal.state import NodeState
from repro.slocal.view import LocalView

Vertex = Hashable


class SLOCALMIS(SLOCALAlgorithm):
    """Maximal independent set with locality 1 (the paper's introductory example).

    Output per node: ``True`` if the node joins the independent set.
    """

    locality = 1
    name = "slocal-mis"

    def process(self, view: LocalView, state: NodeState) -> bool:
        for u in view.neighbors(view.center):
            if view.is_processed(u) and view.output_of(u) is True:
                return False
        return True


class SLOCALGreedyColoring(SLOCALAlgorithm):
    """Greedy (Δ+1)-vertex-coloring with locality 1.

    Output per node: the smallest color (a non-negative integer) not used
    by an already-processed neighbor.
    """

    locality = 1
    name = "slocal-greedy-coloring"

    def process(self, view: LocalView, state: NodeState) -> int:
        used: Set[int] = set()
        for u in view.neighbors(view.center):
            if view.is_processed(u):
                used.add(view.output_of(u))
        color = 0
        while color in used:
            color += 1
        return color


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def slocal_mis(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> Set[Vertex]:
    """Run :class:`SLOCALMIS` and return the selected vertex set."""
    result = SLOCALEngine(graph).run(SLOCALMIS(), order=order)
    return {v for v, joined in result.outputs.items() if joined}


def slocal_greedy_coloring(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> Dict[Vertex, int]:
    """Run :class:`SLOCALGreedyColoring` and return the coloring."""
    result = SLOCALEngine(graph).run(SLOCALGreedyColoring(), order=order)
    return dict(result.outputs)
