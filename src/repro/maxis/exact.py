"""Exact maximum-independent-set solvers (ground truth for tests and benches)."""

from __future__ import annotations

from typing import Hashable, Optional, Set

from repro.exceptions import ApproximationError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import maximum_independent_set

Vertex = Hashable

#: Soft cap on the instance size the exact solver accepts by default.  The
#: branch-and-bound is exponential in the worst case; the cap protects the
#: reduction pipeline from accidentally being pointed at a huge conflict
#: graph with the exact oracle selected.
DEFAULT_SIZE_LIMIT = 260


def exact_maximum_independent_set(
    graph: Graph, size_limit: Optional[int] = DEFAULT_SIZE_LIMIT
) -> Set[Vertex]:
    """Return a maximum independent set of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    size_limit:
        Refuse instances with more vertices than this (pass ``None`` to
        disable the guard).

    Raises
    ------
    ApproximationError
        If the instance exceeds ``size_limit``.
    """
    if size_limit is not None and graph.num_vertices() > size_limit:
        raise ApproximationError(
            f"exact solver refused an instance with {graph.num_vertices()} vertices "
            f"(limit {size_limit}); use an approximation algorithm instead"
        )
    return maximum_independent_set(graph)


def exact_via_networkx(graph: Graph) -> Set[Vertex]:
    """Exact MaxIS via networkx's clique machinery on the complement graph.

    Provided as an independent cross-check of the library's own
    branch-and-bound solver; used in tests to validate
    :func:`exact_maximum_independent_set` on random instances.
    """
    import networkx as nx

    if graph.num_vertices() == 0:
        return set()
    complement = graph.complement().to_networkx()
    # networkx >= 3 removed max_clique from the main namespace; find_cliques
    # enumerates maximal cliques, from which we take a maximum one.
    best: Set[Vertex] = set()
    for clique in nx.find_cliques(complement):
        if len(clique) > len(best):
            best = set(clique)
    return best
