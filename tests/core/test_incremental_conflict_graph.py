"""Property tests: incrementally maintained conflict graph vs. rebuilds.

The reduction's phase engine maintains one :class:`ConflictGraph` across
phases via :meth:`ConflictGraph.remove_hyperedges` instead of rebuilding
``G^i_k`` from scratch.  These tests simulate random phase histories on
~50 random hypergraphs for every palette size k ∈ {1, 2, 3, 4, 10} and,
after *every* deletion batch, compare the maintained instance against a
from-scratch ``ConflictGraph(H_i, k)`` rebuild on three axes:

* the vertex set and interning order (the ``repr`` order of the triples),
* the full edge set (mutable graph equality + frozen bitsets), and
* the E_vertex/E_edge/E_color groupings of the surviving triples.

A second, unmirrored pass removes edges from the conflict graph only, as
the reduction engine does: the input must stay intact, and the size
helpers must count the surviving blocks at every step.

At k = 10 color 10 repr-sorts before color 2, so every ``(e, v)`` block
lays its colors out as 1, 10, 2, …, 9; ``frozen_sorted()`` is ``frozen()``
at every k.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ConflictGraph, maximum_independent_set_size_bound
from repro.core.conflict_graph import conflict_vertices
from repro.exceptions import ReductionError
from repro.graphs.indexed import iter_bits
from repro.hypergraph import Hypergraph

from tests.conftest import rows_of

N_INSTANCES = 50


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(1, 10)
    m = rng.randint(1, 7)
    h = Hypergraph(vertices=range(n))
    for i in range(m):
        size = rng.randint(1, min(4, n))
        h.add_edge(rng.sample(range(n), size), edge_id=i)
    return h


def _instances():
    rng = random.Random(20260728)
    return [(i, _random_hypergraph(rng), rng) for i in range(N_INSTANCES)]


def _assert_matches_rebuild(cg: ConflictGraph, h: Hypergraph, k: int, ctx: str) -> None:
    rebuilt = ConflictGraph(h, k)
    # Vertex set, repr interning order, closed-form count.
    assert list(cg.graph) == conflict_vertices(h, k), f"{ctx}: interning order"
    assert cg.num_vertices() == rebuilt.num_vertices() == k * h.total_edge_size(), ctx
    # Edge set (mutable graph equality is label-based and order-free).
    assert cg.graph == rebuilt.graph, f"{ctx}: edge set"
    assert cg.num_edges() == rebuilt.num_edges(), ctx
    assert cg.num_edges() == cg.graph.num_edges(), f"{ctx}: maintained edge counter"
    # Frozen view: alive subsequence of the original table == fresh table,
    # with identical masked adjacency under the order-preserving id map.
    view, fresh = cg.frozen(), rebuilt.frozen()
    ids = list(view.vertex_ids())
    assert [view.label(i) for i in ids] == list(fresh.labels()), f"{ctx}: frozen labels"
    pos = {orig: p for p, orig in enumerate(ids)}
    view_rows, fresh_rows = rows_of(view), rows_of(fresh)
    for p, orig in enumerate(ids):
        mapped = {pos[j] for j in iter_bits(view_rows[orig])}
        assert mapped == set(iter_bits(fresh_rows[p])), f"{ctx}: row {p}"
    # Relation groupings of the survivors == those of the rebuild.
    assert cg.bucket_structure() == rebuilt.bucket_structure(), f"{ctx}: buckets"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
def test_incremental_deletions_match_rebuilds(k):
    for idx, h, rng in _instances():
        working = h.copy()
        cg = ConflictGraph(working, k)
        _assert_matches_rebuild(cg, working, k, f"instance {idx} (k={k}) initial")
        step = 0
        while working.num_edges() > 0:
            step += 1
            ids = working.edge_ids
            batch = rng.sample(ids, rng.randint(1, len(ids)))
            working.remove_edges(batch)
            cg.remove_hyperedges(batch)
            _assert_matches_rebuild(
                cg, working, k, f"instance {idx} (k={k}) step {step}"
            )
        # Unmirrored, as the engine runs: removals reach the conflict graph
        # only, the input stays intact and the size helpers count blocks.
        cg = ConflictGraph(h, k)
        original = h.copy()
        while True:
            ctx = f"instance {idx} (k={k}) unmirrored, {cg.num_hyperedges()} edges left"
            assert cg.num_vertices() == cg.expected_num_vertices(), ctx
            assert maximum_independent_set_size_bound(cg) == cg.num_hyperedges(), ctx
            ids = cg.hyperedge_ids()
            if not ids:
                break
            cg.remove_hyperedges(rng.sample(ids, rng.randint(1, len(ids))))
        assert h == original, f"instance {idx} (k={k}): remove_hyperedges mutated the input"


def test_remove_unknown_edge_is_rejected_and_state_preserved():
    h = Hypergraph(edges=[[0, 1], [1, 2]])
    cg = ConflictGraph(h, 2)
    before = cg.bucket_structure()
    with pytest.raises(ReductionError):
        cg.remove_hyperedges([0, "missing"])
    assert cg.bucket_structure() == before
    assert cg.num_vertices() == 2 * h.total_edge_size()


def test_remove_with_duplicate_ids_behaves_like_single_removal():
    h = Hypergraph(edges=[[0, 1, 2], [2, 3], [1, 3]])
    cg = ConflictGraph(h, 2)
    cg.remove_hyperedges([1, 1, 1])
    h.remove_edge(1)
    assert cg.graph == ConflictGraph(h, 2).graph
    assert cg.bucket_structure() == ConflictGraph(h, 2).bucket_structure()


def test_remove_all_edges_empties_the_graph():
    h = Hypergraph(edges=[[0, 1, 2], [2, 3]])
    cg = ConflictGraph(h, 3)
    cg.remove_hyperedges([0, 1])
    h.remove_edges([0, 1])
    assert cg.num_vertices() == 0
    assert cg.num_edges() == 0
    assert cg.graph.num_vertices() == 0
    assert cg.bucket_structure() == {
        "vertex_color": {},
        "by_vertex": {},
        "edge_blocks": {},
    }


@pytest.mark.parametrize("k", [2, 10])
def test_frozen_sorted_view_tracks_deletions(k):
    """frozen_sorted() after deletions == freeze_sorted of a fresh rebuild."""
    from repro.graphs.indexed import freeze_sorted

    h = Hypergraph(edges=[[0, 1, 2], [2, 3], [1, 3, 4], [0, 4]])
    cg = ConflictGraph(h, k)
    cg.frozen_sorted()  # materialize before deleting: masks must track
    cg.remove_hyperedges([1, 3])
    h.remove_edges([1, 3])
    view = cg.frozen_sorted()
    assert view.labels() == cg.frozen().labels()
    reference = freeze_sorted(ConflictGraph(h, k).graph)
    ids = list(view.vertex_ids())
    assert [view.label(i) for i in ids] == list(reference.labels())
    pos = {orig: p for p, orig in enumerate(ids)}
    view_rows, reference_rows = rows_of(view), rows_of(reference)
    for p, orig in enumerate(ids):
        mapped = {pos[j] for j in iter_bits(view_rows[orig])}
        assert mapped == set(iter_bits(reference_rows[p]))


@pytest.mark.parametrize("k", [2, 10])
def test_frozen_sorted_created_after_deletions(k):
    h = Hypergraph(edges=[[0, 1, 2], [2, 3], [1, 3, 4]])
    cg = ConflictGraph(h, k)
    cg.remove_hyperedges([0])
    h.remove_edges([0])
    from repro.graphs.indexed import freeze_sorted

    view = cg.frozen_sorted()
    reference = freeze_sorted(ConflictGraph(h, k).graph)
    assert [view.label(i) for i in view.vertex_ids()] == list(reference.labels())
    assert view.to_graph() == reference.to_graph()
