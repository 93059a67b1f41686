"""A centralized baseline for conflict-free coloring.

This is *not* part of the paper's reduction; it serves as a reference
point (how many colors does a direct greedy approach use versus the
reduction's ``k·ρ`` budget?) and as a generator of valid conflict-free
colorings for testing Lemma 2.1(a).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.coloring.conflict_free import (
    UNCOLORED,
    is_conflict_free,
    verify_conflict_free_coloring,
)
from repro.exceptions import ColoringError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable


def greedy_conflict_free_coloring(
    hypergraph: Hypergraph, max_colors: Optional[int] = None
) -> Dict[Vertex, int]:
    """Round-based conflict-free coloring (the classical framework algorithm).

    Rounds are numbered ``1, 2, 3, …``.  In round ``c`` let ``U`` be the set
    of still-uncolored vertices; build the *trace primal graph* on ``U``
    whose edges join two uncolored vertices that appear together in some
    hyperedge, take a maximal independent set ``S`` of it, and give every
    vertex of ``S`` color ``c``.  The procedure stops as soon as the partial
    coloring is conflict-free.

    Correctness: consider any hyperedge ``e`` once every vertex is colored
    and let ``c`` be the largest color inside ``e``.  Two vertices of ``e``
    with color ``c`` would both have been uncolored in round ``c`` and
    adjacent in that round's trace primal graph, contradicting the
    independence of ``S``; hence exactly one vertex of ``e`` carries ``c``
    and ``e`` is happy.  Termination: every round colors at least one vertex
    (a maximal independent set of a non-empty vertex set is non-empty), so
    there are at most ``n`` rounds.

    Parameters
    ----------
    max_colors:
        Safety cap; raise :class:`ColoringError` when more rounds would be
        needed.

    Returns
    -------
    dict
        A partial coloring (vertices may remain uncolored) that is
        conflict-free for the whole hypergraph.
    """
    from repro.graphs.graph import Graph
    from repro.graphs.independent_sets import greedy_maximal_independent_set

    coloring: Dict[Vertex, int] = {}
    color = 0
    while not is_conflict_free(hypergraph, coloring):
        color += 1
        if max_colors is not None and color > max_colors:
            raise ColoringError(
                f"greedy conflict-free coloring exceeded the cap of {max_colors} colors"
            )
        uncolored = {
            v for v in hypergraph.vertices if coloring.get(v, UNCOLORED) is UNCOLORED
        }
        if not uncolored:
            # Every vertex is colored yet some edge is unhappy: impossible by
            # the correctness argument above, so reaching this line means the
            # hypergraph was mutated concurrently.
            raise ColoringError("no uncolored vertices remain but some edge is unhappy")
        trace_primal = Graph(vertices=uncolored)
        for _, members in hypergraph.edges():
            trace = sorted(members & uncolored, key=repr)
            for i, u in enumerate(trace):
                for v in trace[i + 1:]:
                    if not trace_primal.has_edge(u, v):
                        trace_primal.add_edge(u, v)
        for v in greedy_maximal_independent_set(trace_primal):
            coloring[v] = color
    verify_conflict_free_coloring(hypergraph, coloring)
    return coloring
