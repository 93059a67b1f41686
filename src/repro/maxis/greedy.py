"""The worst-case guarantee of the greedy maximum-independent-set algorithms.

The minimum-degree greedy algorithm achieves the classical Turán-type
guarantee ``|I| ≥ n / (Δ + 1) ≥ α(G) / (Δ + 1)``, i.e. it is a
(Δ+1)-approximation.  On the conflict graphs produced by the reduction the
maximum degree is polynomially bounded, so this already suffices for the
end-to-end pipeline to terminate; the paper's theorem only needs *some*
polylogarithmic approximation, which stronger oracles (or the exact solver
on small instances) provide.

The greedy algorithms themselves are the bitset kernels
:func:`~repro.graphs.indexed.min_degree_greedy_ids` and
:func:`~repro.graphs.indexed.ascending_first_fit_ids`, registered as the
``greedy-min-degree`` and ``greedy-first-fit`` approximators.
"""

from __future__ import annotations

from typing import Union

from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph


def turan_guarantee(graph: Union[Graph, IndexedGraph]) -> float:
    """Return the worst-case approximation factor ``Δ + 1`` of the greedy algorithms.

    Any maximal independent set has size at least ``n / (Δ+1)`` while
    ``α(G) ≤ n``, hence ``α(G) / |I| ≤ Δ + 1``.
    """
    return float(graph.max_degree() + 1)
