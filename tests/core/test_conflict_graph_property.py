"""Property tests: the mask conflict-graph builder vs. the edge oracle.

The mask builder in :mod:`repro.core.conflict_graph` computes each
adjacency row in closed form from per-vertex color-1 masks.  These tests
check it on ~50 random small hypergraphs for every palette size
k ∈ {1, 2, 3, 4, 10} against two independent references:

* the :func:`classify_conflict_edge` oracle (pairwise definition of the
  paper's three relations), and
* the retained legacy pairwise-emit builder from the seed.

They also pin the closed-form vertex count, the interning order (the
``repr`` order of the triples, which the MIS oracles intern by) and
determinism across rebuilds.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    ConflictGraph,
    classify_conflict_edge,
    conflict_vertices,
    legacy_build_graph,
)
from repro.hypergraph import Hypergraph

from tests.conftest import rows_of

N_INSTANCES = 50
#: Palette sizes: the small ones, the k = 4 of the multi-phase benchmark,
#: and k = 10, where color 10 repr-sorts before color 2, so every block
#: lays its colors out as 1, 10, 2, …, 9.
PALETTES = [1, 2, 3, 4, 10]


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(1, 10)
    m = rng.randint(0, 7)
    h = Hypergraph(vertices=range(n))
    for i in range(m):
        size = rng.randint(1, min(4, n))
        h.add_edge(rng.sample(range(n), size), edge_id=i)
    return h


def _instances():
    rng = random.Random(20260727)
    return [(i, _random_hypergraph(rng)) for i in range(N_INSTANCES)]


@pytest.mark.parametrize("k", PALETTES)
def test_builder_matches_classification_oracle(k):
    for idx, h in _instances():
        cg = ConflictGraph(h, k)
        triples = conflict_vertices(h, k)
        assert list(cg.graph) == triples, f"instance {idx}: interning order drifted"
        assert triples == sorted(triples, key=repr), f"instance {idx} (k={k}): not repr order"
        assert cg.num_vertices() == cg.expected_num_vertices() == k * h.total_edge_size()
        expected_edges = set()
        for i, a in enumerate(triples):
            for b in triples[i + 1:]:
                if classify_conflict_edge(a, b, h):
                    expected_edges.add(frozenset((a, b)))
        actual_edges = {frozenset(e) for e in cg.graph.edges()}
        assert actual_edges == expected_edges, f"instance {idx} (k={k}): edge set differs"
        assert cg.num_edges() == len(expected_edges), f"instance {idx} (k={k}): edge count"


@pytest.mark.parametrize("k", PALETTES)
def test_builder_matches_legacy_builder(k):
    for idx, h in _instances():
        cg = ConflictGraph(h, k)
        assert cg.graph == legacy_build_graph(h, k), f"instance {idx} (k={k})"


def test_builder_is_deterministic_across_rebuilds():
    for _idx, h in _instances()[:10]:
        first = ConflictGraph(h, 3)
        second = ConflictGraph(h, 3)
        assert list(first.graph) == list(second.graph)
        assert list(first.graph.edges()) == list(second.graph.edges())
        frozen_a, frozen_b = first.frozen(), second.frozen()
        assert frozen_a.labels() == frozen_b.labels()
        assert rows_of(frozen_a) == rows_of(frozen_b)


def test_frozen_view_is_cached_and_consistent():
    h = Hypergraph(edges=[[0, 1, 2], [2, 3], [1, 3, 4]])
    cg = ConflictGraph(h, 2)
    frozen = cg.frozen()
    assert frozen is cg.frozen()
    assert frozen.to_graph().num_edges() == cg.num_edges()
    assert frozen.labels() == tuple(conflict_vertices(h, 2))
