"""Greedy maximum-independent-set approximation algorithms.

The minimum-degree greedy algorithm achieves the classical Turán-type
guarantee ``|I| ≥ n / (Δ + 1) ≥ α(G) / (Δ + 1)``, i.e. it is a
(Δ+1)-approximation.  On the conflict graphs produced by the reduction the
maximum degree is polynomially bounded, so this already suffices for the
end-to-end pipeline to terminate; the paper's theorem only needs *some*
polylogarithmic approximation, which stronger oracles (or the exact solver
on small instances) provide.

Both algorithms here are the production ports running on a frozen
:class:`~repro.graphs.indexed.IndexedGraph` (plain :class:`Graph` inputs
are auto-frozen in ``repr`` order, which reproduces the reference
implementations in :mod:`repro.graphs.independent_sets` bit-for-bit):
min-degree greedy runs one bucket-queue loop over the bitset rows that
recomputes each affected vertex's degree by popcount after a deletion,
instead of an O(n) min-scan per selection; first-fit uses bitset
neighborhood tests.  Alive-mask subgraph views
(:meth:`IndexedGraph.subgraph_view`) are accepted directly — the
reduction's phase loop passes them to avoid re-freezing per phase — and
produce exactly what a from-scratch rebuild of the subgraph would.
"""

from __future__ import annotations

from typing import Hashable, Set, Union

from repro.graphs.graph import Graph
from repro.graphs.indexed import (
    IndexedGraph,
    first_fit_mis_ids,
    freeze_sorted,
    min_degree_greedy_ids,
)

Vertex = Hashable


def min_degree_greedy(graph: Union[Graph, IndexedGraph]) -> Set[Vertex]:
    """Return the independent set found by the minimum-degree greedy algorithm."""
    frozen = freeze_sorted(graph)
    return {frozen.label(i) for i in min_degree_greedy_ids(frozen)}


def first_fit_greedy(graph: Union[Graph, IndexedGraph]) -> Set[Vertex]:
    """Return the maximal independent set found by first-fit (sorted order) greedy."""
    frozen = freeze_sorted(graph)
    return {frozen.label(i) for i in first_fit_mis_ids(frozen, frozen.vertex_ids())}


def turan_guarantee(graph: Union[Graph, IndexedGraph]) -> float:
    """Return the worst-case approximation factor ``Δ + 1`` of the greedy algorithms.

    Any maximal independent set has size at least ``n / (Δ+1)`` while
    ``α(G) ≤ n``, hence ``α(G) / |I| ≤ Δ + 1``.
    """
    return float(graph.max_degree() + 1)


def turan_lower_bound(graph: Graph) -> float:
    """Return the Turán lower bound ``Σ_v 1/(deg(v)+1)`` on ``α(G)``."""
    return sum(1.0 / (graph.degree(v) + 1) for v in graph.vertices)
