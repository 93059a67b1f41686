"""Differential fuzzing of the incidence-driven happiness kernel.

The full-scan :func:`repro.coloring.conflict_free.happy_edges` is the
equality oracle for :func:`happy_edges_incident`, for the engine's
:meth:`repro.core.conflict_graph.ConflictGraph.happy_edges` and for the
stateful :class:`repro.core.happiness.HappinessTracker`, across random
partial colorings and random edge removals (including batches with
duplicate ids and hypergraphs with duplicate/overlapping edges).  The
engine's check removes edges only through ``remove_hyperedges``, so its
tests compare against a mirrored copy and assert the input stays intact.
"""

from __future__ import annotations

import random

import pytest

from repro.coloring.conflict_free import happy_edges, happy_edges_incident
from repro.core.conflict_graph import ConflictGraph
from repro.core.happiness import HappinessTracker
from repro.exceptions import ReductionError
from repro.hypergraph import Hypergraph
from tests.fuzz.corpus import make_hypergraph, FAMILIES

SEED_COUNT = 110


def _random_partial_coloring(hypergraph, rng, k=3):
    coloring = {}
    for v in sorted(hypergraph.vertices, key=repr):
        roll = rng.random()
        if roll < 0.4:
            continue  # uncolored
        if roll < 0.45:
            coloring[v] = None  # explicit UNCOLORED entry
        else:
            coloring[v] = rng.randint(1, k)
    return coloring


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_incident_kernel_matches_full_scan(seed):
    rng = random.Random(seed)
    hypergraph = make_hypergraph(rng.choice(FAMILIES), rng)
    coloring = _random_partial_coloring(hypergraph, rng)
    expected = happy_edges(hypergraph, coloring)
    got = happy_edges_incident(hypergraph, coloring)
    assert got == expected, f"[seed={seed}] incident {got!r} != full-scan {expected!r}"


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_tracker_matches_full_scan_across_removals(seed):
    """Tracker commits equal the full scan before and after edge removals."""
    rng = random.Random(seed)
    hypergraph = make_hypergraph(rng.choice(FAMILIES), rng)
    tracker = HappinessTracker(hypergraph)
    for _round in range(3):
        coloring = _random_partial_coloring(hypergraph, rng)
        expected = happy_edges(hypergraph, coloring)
        got = tracker.commit(coloring)
        assert got == expected, (
            f"[seed={seed}] round {_round}: tracker {got!r} != full-scan {expected!r}"
        )
        edge_ids = hypergraph.edge_ids
        if not edge_ids:
            break
        batch = rng.sample(edge_ids, rng.randint(1, len(edge_ids)))
        # Duplicate ids in the batch must be tolerated (dedup semantics,
        # mirroring ConflictGraph.remove_hyperedges).
        batch = batch + batch[: rng.randint(0, len(batch))]
        hypergraph.remove_edges(set(batch))
        tracker.remove_edges(batch)
        assert tracker.num_edges() == hypergraph.num_edges(), f"[seed={seed}]"


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_conflict_graph_check_matches_full_scan_across_removals(seed):
    """The engine's check equals the full scan on a mirror; the input is never touched."""
    rng = random.Random(seed)
    hypergraph = make_hypergraph(rng.choice(FAMILIES), rng)
    original = hypergraph.copy()
    mirror = hypergraph.copy()
    cg = ConflictGraph(hypergraph, rng.randint(1, 3))
    for _round in range(3):
        coloring = _random_partial_coloring(hypergraph, rng)
        expected = happy_edges(mirror, coloring)
        got = cg.happy_edges(coloring)
        assert got == expected, (
            f"[seed={seed}] round {_round}: conflict graph {got!r} != full-scan {expected!r}"
        )
        edge_ids = cg.hyperedge_ids()
        if not edge_ids:
            break
        batch = rng.sample(edge_ids, rng.randint(1, len(edge_ids)))
        batch = batch + batch[: rng.randint(0, len(batch))]
        cg.remove_hyperedges(batch)
        mirror.remove_edges(set(batch))
        assert cg.num_hyperedges() == mirror.num_edges(), f"[seed={seed}]"
        assert hypergraph == original, f"[seed={seed}] remove_hyperedges mutated the input"


def _overlapping_instance():
    # Two identical member sets under distinct ids plus overlapping
    # supersets — the shapes that corrupted naive index maintenance.
    return Hypergraph(
        edges=[
            ("a", [0, 1, 2]),
            ("a-dup", [0, 1, 2]),
            ("b", [0, 1, 2, 3]),
            ("c", [3, 4]),
        ]
    )


def test_conflict_graph_check_forgets_a_removed_superset():
    h = _overlapping_instance()
    cg = ConflictGraph(h, 2)
    assert cg.happy_edges({3: 1}) == {"b", "c"}
    cg.remove_hyperedges(["b", "b"])
    # Vertex 3 still lies in "b" in the untouched input; the check must
    # read the surviving blocks and not resurrect it.
    assert h.edges_containing(3) == {"b", "c"}
    assert cg.happy_edges({3: 1}) == {"c"}


class TestTrackerDuplicateOverlapRegression:
    """Happiness-state analogue of the PR 2 `remove_hyperedges` dedup fix."""

    def test_duplicate_ids_in_removal_batch_do_not_corrupt_state(self):
        h = _overlapping_instance()
        tracker = HappinessTracker(h)
        happy = tracker.commit({0: 1, 1: 2, 2: 2})
        # Both duplicates are happy together (identical censuses).
        assert {"a", "a-dup"} <= happy
        tracker.remove_edges(["a", "a", "a", "a-dup"])
        h.remove_edges({"a", "a-dup"})
        assert tracker.num_edges() == h.num_edges() == 2
        # The index entry for vertex 0 must still know edge "b".
        assert tracker.edges_containing(0) == {"b"}
        assert happy_edges(h, {3: 1}) == tracker.commit({3: 1})

    def test_removed_edges_leave_the_happy_state(self):
        h = _overlapping_instance()
        tracker = HappinessTracker(h)
        tracker.commit({4: 1})
        assert tracker.happy == {"c"}
        tracker.remove_edges(["c"])
        assert tracker.happy == set()
        assert tracker.edges_containing(4) == set()

    def test_unknown_edge_raises_without_mutating(self):
        h = _overlapping_instance()
        tracker = HappinessTracker(h)
        with pytest.raises(ReductionError):
            tracker.remove_edges(["a", "missing"])
        assert tracker.num_edges() == 4
        assert tracker.edges_containing(0) == {"a", "a-dup", "b"}

    def test_overlapping_edges_diverge_after_superset_removal(self):
        h = _overlapping_instance()
        tracker = HappinessTracker(h)
        tracker.remove_edges(["b"])
        h.remove_edges(["b"])
        # Vertex 3 now only touches "c"; a coloring of vertex 3 must not
        # resurrect the removed superset edge.
        got = tracker.commit({3: 1})
        assert got == happy_edges(h, {3: 1}) == {"c"}
