"""The per-phase edge removal of the rebuild reference path."""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.exceptions import HypergraphError
from repro.hypergraph.hypergraph import Hypergraph

EdgeId = Hashable


def remove_happy_edges(hypergraph: Hypergraph, happy_edges: Iterable[EdgeId]) -> Hypergraph:
    """Return ``H`` with the edges in ``happy_edges`` removed (vertex set unchanged).

    This is the per-phase step ``E_{i+1} = E_i \\ {happy edges}`` of the
    reduction in Theorem 1.1.
    """
    happy = set(happy_edges)
    unknown = happy - set(hypergraph.edge_ids)
    if unknown:
        raise HypergraphError(f"unknown edge ids: {sorted(unknown, key=repr)!r}")
    keep = [e for e in hypergraph.edge_ids if e not in happy]
    return hypergraph.restrict_to_edges(keep)
