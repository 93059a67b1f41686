"""Dominating sets: verification, greedy approximation, and an SLOCAL algorithm.

O(log Δ)-approximate minimum dominating set is one of the problems [GHK18]
proved P-SLOCAL-complete, and the paper lists it alongside conflict-free
multicoloring in the completeness landscape its result joins.  This module
provides the centralized machinery (verifier, greedy ln(Δ)+1
approximation, exact solver for ground truth) and the locality-1 SLOCAL
algorithm, mirroring how the MIS problem is treated elsewhere in the
library.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Optional, Sequence, Set

from repro.exceptions import GraphError, VerificationError
from repro.graphs.graph import Graph

Vertex = Hashable


def closed_neighborhood(graph: Graph, vertex: Vertex) -> Set[Vertex]:
    """Return ``N[v] = N(v) ∪ {v}``."""
    return graph.neighbors(vertex) | {vertex}


def verify_dominating_set(graph: Graph, candidate: Iterable[Vertex]) -> None:
    """Raise :class:`VerificationError` unless ``candidate`` dominates every vertex.

    A set ``D`` dominates the graph if every vertex is in ``D`` or has a
    neighbor in ``D``.  Membership of every candidate vertex in the graph is
    also checked.
    """
    dominators = set(candidate)
    for v in dominators:
        if v not in graph:
            raise VerificationError(f"dominator {v!r} is not a vertex of the graph")
    for v in graph.vertices:
        if v not in dominators and not (graph.neighbors(v) & dominators):
            raise VerificationError(f"vertex {v!r} is not dominated")


def greedy_dominating_set(graph: Graph) -> Set[Vertex]:
    """Greedy minimum-dominating-set approximation (factor ``ln Δ + 2``).

    Repeatedly adds the vertex whose closed neighborhood covers the most
    still-undominated vertices — the classical set-cover greedy specialised
    to domination.
    """
    undominated = graph.vertices
    chosen: Set[Vertex] = set()
    while undominated:
        best = max(
            graph.vertices,
            key=lambda v: (len(closed_neighborhood(graph, v) & undominated), repr(v)),
        )
        gain = closed_neighborhood(graph, best) & undominated
        if not gain:
            # Isolated undominated vertices must dominate themselves.
            best = next(iter(undominated))
            gain = {best}
        chosen.add(best)
        undominated = undominated - closed_neighborhood(graph, best)
    verify_dominating_set(graph, chosen)
    return chosen


def exact_minimum_dominating_set(graph: Graph, size_limit: int = 24) -> Set[Vertex]:
    """Exact minimum dominating set by branch and bound (small instances only).

    Parameters
    ----------
    size_limit:
        Refuse graphs with more vertices than this; the search is
        exponential and exists purely as ground truth for tests/benches.
    """
    n = graph.num_vertices()
    if n > size_limit:
        raise GraphError(
            f"exact dominating set refused an instance with {n} vertices (limit {size_limit})"
        )
    if n == 0:
        return set()

    vertices = sorted(graph.vertices, key=repr)
    best: Set[Vertex] = set(vertices)  # the whole vertex set always dominates

    def search(chosen: Set[Vertex], undominated: FrozenSet[Vertex]) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not undominated:
            best = set(chosen)
            return
        # Branch on covering one fixed undominated vertex: some vertex of its
        # closed neighborhood must be chosen.
        target = min(undominated, key=repr)
        for candidate in sorted(closed_neighborhood(graph, target), key=repr):
            search(
                chosen | {candidate},
                undominated - frozenset(closed_neighborhood(graph, candidate)),
            )

    search(set(), frozenset(vertices))
    verify_dominating_set(graph, best)
    return best


def domination_number(graph: Graph, size_limit: int = 24) -> int:
    """Return ``γ(G)``, the size of a minimum dominating set."""
    return len(exact_minimum_dominating_set(graph, size_limit=size_limit))


def slocal_dominating_set(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> Set[Vertex]:
    """Locality-1 SLOCAL dominating set.

    A node joins the dominating set iff, at its processing time, neither it
    nor any already-processed neighbor that joined dominates it.  Every
    vertex is dominated from its own processing step onwards, so the output
    is a dominating set for every processing order — the SLOCAL analogue of
    the MIS example in the paper's introduction (here without any
    approximation guarantee; the greedy above provides the ln Δ factor).
    """
    from repro.slocal.engine import SLOCALAlgorithm, SLOCALEngine

    class _Rule(SLOCALAlgorithm):
        locality = 1
        name = "slocal-dominating-set"

        def process(self, view, state):
            for u in view.neighbors(view.center):
                if view.is_processed(u) and view.output_of(u) is True:
                    return False
            return True

    result = SLOCALEngine(graph).run(_Rule(), order=order)
    chosen = {v for v, joined in result.outputs.items() if joined}
    verify_dominating_set(graph, chosen)
    return chosen
