"""``G_k`` snapshots and their views are freed by reference counting.

A root :class:`~repro.graphs.indexed.IndexedGraph` refers to no graph
(``_root`` is ``None``) and a view refers only to its root, so dropping
the last reference frees a graph at once.  A graph in a reference cycle
would wait for the cyclic collector instead, and a campaign worker makes
a ``G_k`` snapshot for every task.  Each shape below runs once to fill
lazy imports and caches, then again with the collector disabled, and a
collection afterwards must find nothing to collect.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import ConflictFreeMulticoloringViaMaxIS, ConflictGraph
from repro.graphs import erdos_renyi_graph
from repro.graphs.indexed import freeze_sorted
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import capped_oracle


def _touch(graph) -> None:
    """Read the label table, the alive ids and the mutable form of ``graph``."""
    assert list(graph) == [graph.label(i) for i in graph.vertex_ids()]
    graph.to_graph()


def frozen_graph_and_views_of_views() -> None:
    frozen = freeze_sorted(erdos_renyi_graph(40, 0.2, seed=5))
    view = frozen.subgraph_view(frozen.alive_mask() & ~0b1011)
    inner = view.subgraph_view((1 << 30) - 1)
    innermost = inner.subgraph_view(inner.alive_mask() & ~(1 << 7))
    for graph in (frozen, view, inner, innermost):
        _touch(graph)
    assert innermost._root is frozen


def conflict_graph_after_removals() -> None:
    hypergraph, _ = colorable_almost_uniform_hypergraph(n=24, m=12, k=3, seed=7)
    conflict_graph = ConflictGraph(hypergraph, 3)
    _touch(conflict_graph.frozen())
    conflict_graph.remove_hyperedges(hypergraph.edge_ids[:5])
    _touch(conflict_graph.frozen_sorted())
    assert conflict_graph.graph.num_vertices() == conflict_graph.num_vertices()


def capped_first_fit_run() -> None:
    hypergraph, _ = colorable_almost_uniform_hypergraph(n=24, m=12, k=3, seed=7)
    reduction = ConflictFreeMulticoloringViaMaxIS(
        k=3, approximator=capped_oracle("greedy-first-fit", 4.0), lam=4.0
    )
    assert reduction.run(hypergraph).num_phases > 1


@pytest.mark.parametrize(
    "shape",
    [frozen_graph_and_views_of_views, conflict_graph_after_removals, capped_first_fit_run],
    ids=lambda shape: shape.__name__,
)
def test_graphs_are_freed_by_reference_counting(shape):
    shape()
    gc.collect()
    gc.disable()
    try:
        shape()
        assert gc.collect() == 0
    finally:
        gc.enable()
