"""The networkx reference for the exact maximum-independent-set solver."""

from __future__ import annotations

from typing import Hashable, Set

from repro.graphs.graph import Graph

Vertex = Hashable


def exact_via_networkx(graph: Graph) -> Set[Vertex]:
    """Exact MaxIS via networkx's clique machinery on the complement graph.

    Provided as an independent cross-check of the library's own
    branch-and-bound solver: the tests compare its size with
    :func:`~repro.graphs.independent_sets.maximum_independent_set` and the
    bitset kernel :func:`~repro.graphs.indexed.maximum_independent_set_mask`
    on random instances.
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
