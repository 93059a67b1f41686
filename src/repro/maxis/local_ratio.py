"""Partition-based ("local-ratio" style) MaxIS approximation.

``clique_cover_approximation`` partitions the vertices into cliques
greedily and keeps one vertex per clique; if the graph can be covered by
``t`` cliques then any independent set contains at most one vertex per
clique, so α(G) ≤ t and taking one (independent) representative from a
maximal subfamily of the cliques gives an approximation whose factor is
bounded by the largest clique-cover class count.  On conflict graphs the
``E_edge`` relation already provides a natural clique per hyperedge, which
is why this family of baselines is interesting for the reduction: picking
one triple per hyperedge clique mirrors the structure of Lemma 2.1(a).
"""

from __future__ import annotations

from typing import Hashable, List, Set

from repro.graphs.graph import Graph
from repro.graphs.independent_sets import verify_independent_set
from repro.graphs.indexed import IndexedGraph, iter_bits

Vertex = Hashable


def greedy_clique_cover(graph: Graph) -> List[Set[Vertex]]:
    """Partition the vertex set into cliques greedily.

    Processes vertices in ``repr`` order and adds each vertex to the
    first existing clique it is fully adjacent to, opening a new clique
    otherwise.  Always returns a partition (every vertex in exactly one
    clique); the number of cliques upper-bounds α(G)'s trivial certificate.
    """
    cliques: List[Set[Vertex]] = []
    for v in sorted(graph.vertices, key=repr):
        placed = False
        neighbors = graph.neighbors(v)
        for clique in cliques:
            if clique <= neighbors:
                clique.add(v)
                placed = True
                break
        if not placed:
            cliques.append({v})
    return cliques


def clique_cover_approximation(graph: Graph) -> Set[Vertex]:
    """Independent set built by picking mutually non-adjacent clique representatives.

    Iterates over the cliques of a greedy clique cover and selects, from
    each clique in turn, a vertex not adjacent to the representatives
    chosen so far (if one exists).  The result is a maximal-within-structure
    independent set of size at least ``(#cliques) / (Δ + 1)``.  This
    label-native version is the reference the ``clique-cover`` kernel
    :func:`clique_cover_ids` is tested against.
    """
    representatives: Set[Vertex] = set()
    for clique in greedy_clique_cover(graph):
        for v in sorted(clique, key=repr):
            if not (graph.neighbors(v) & representatives):
                representatives.add(v)
                break
    verify_independent_set(graph, representatives)
    return representatives


def clique_cover_ids(graph: IndexedGraph) -> List[int]:
    """The bitset port of :func:`clique_cover_approximation` on a frozen graph or view: ids.

    The cover visits ids ascending and tests "clique ⊆ N(v)" with one
    ``mask & ~row`` per clique; raw parent rows are safe for views
    because cliques only ever contain alive ids.  Cliques are then
    visited in cover order and their members in ascending id, so on a
    ``repr``-sorted interning this selects the labels the mutable path
    selects.
    """
    bitsets = graph._bitsets
    cliques: List[int] = []
    for v in graph.vertex_ids():
        nb = bitsets[v]
        bit = 1 << v
        for idx, clique in enumerate(cliques):
            if not clique & ~nb:
                cliques[idx] = clique | bit
                break
        else:
            cliques.append(bit)
    selected = 0
    chosen: List[int] = []
    for clique in cliques:
        for v in iter_bits(clique):
            if not bitsets[v] & selected:
                selected |= 1 << v
                chosen.append(v)
                break
    return chosen
