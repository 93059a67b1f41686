"""Edge-case coverage for `repro.coloring.conflict_free` / `multicoloring`:
empty hypergraphs, single-vertex edges, and the unhappy-edge complement
identity on randomized instances (including the shared-computation /
precomputed-`happy` fast paths)."""

from __future__ import annotations

import random

import pytest

from repro.coloring import conflict_free as cf
from repro.coloring import multicoloring as mc
from repro.exceptions import ColoringError
from repro.hypergraph import Hypergraph, uniform_random_hypergraph


class TestEmptyHypergraph:
    def test_single_coloring_functions(self):
        h = Hypergraph()
        assert cf.happy_edges(h, {}) == set()
        assert cf.happy_edges_incident(h, {}) == set()
        assert cf.unhappy_edges(h, {}) == set()
        assert cf.is_conflict_free(h, {})
        cf.verify_conflict_free_coloring(h, {}, require_total=True)

    def test_vertices_but_no_edges(self):
        h = Hypergraph(vertices=range(4))
        coloring = {0: 1, 1: 2}
        assert cf.happy_edges(h, coloring) == set()
        assert cf.happy_edges_incident(h, coloring) == set()
        assert cf.is_conflict_free(h, coloring)

    def test_multicoloring_functions(self):
        h = Hypergraph()
        empty = mc.Multicoloring()
        assert mc.happy_edges(h, empty) == set()
        assert mc.unhappy_edges(h, empty) == set()
        mc.verify_conflict_free_multicoloring(h, empty, max_total_colors=0)


class TestSingleVertexEdges:
    def test_single_vertex_edge_happy_iff_colored(self):
        h = Hypergraph(edges=[("loop", [0])])
        assert cf.happy_edges(h, {}) == set()
        assert cf.unhappy_edges(h, {}) == {"loop"}
        assert cf.happy_edges(h, {0: 1}) == {"loop"}
        assert cf.happy_edges_incident(h, {0: 1}) == {"loop"}
        assert cf.happy_edges(h, {0: None}) == set()

    def test_single_vertex_edges_in_multicoloring(self):
        h = Hypergraph(edges=[("a", [0]), ("b", [0, 1]), ("c", [1])])
        coloring = mc.Multicoloring({0: [1], 1: [1]})
        # Edge "b" sees color 1 twice; the singletons each see it once.
        assert mc.happy_edges(h, coloring) == {"a", "c"}
        assert mc.unhappy_edges(h, coloring) == {"b"}
        with pytest.raises(ColoringError):
            mc.verify_conflict_free_multicoloring(h, coloring)
        coloring.add_color(1, 2)
        assert mc.happy_edges(h, coloring) == {"a", "b", "c"}
        mc.verify_conflict_free_multicoloring(h, coloring)


class TestUnhappyComplementIdentity:
    @pytest.mark.parametrize("seed", range(40))
    def test_complement_identity_randomized(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        h = uniform_random_hypergraph(
            n=n,
            m=rng.randint(0, 9),
            edge_size=rng.randint(1, n),
            seed=rng.randrange(10_000),
        )
        coloring = {
            v: rng.randint(1, 3) for v in h.vertices if rng.random() < 0.7
        }
        happy = cf.happy_edges(h, coloring)
        unhappy = cf.unhappy_edges(h, coloring)
        assert happy | unhappy == set(h.edge_ids), f"[seed={seed}]"
        assert happy & unhappy == set(), f"[seed={seed}]"
        # The precomputed-happy fast path answers identically.
        assert cf.unhappy_edges(h, coloring, happy=happy) == unhappy
        assert cf.is_conflict_free(h, coloring) == (not unhappy)
        assert cf.happy_edges_incident(h, coloring) == happy

    @pytest.mark.parametrize("seed", range(20))
    def test_multicoloring_complement_identity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        h = uniform_random_hypergraph(
            n=n,
            m=rng.randint(0, 8),
            edge_size=rng.randint(1, n),
            seed=rng.randrange(10_000),
        )
        coloring = mc.Multicoloring(
            {
                v: [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
                for v in h.vertices
                if rng.random() < 0.7
            }
        )
        happy = mc.happy_edges(h, coloring)
        unhappy = mc.unhappy_edges(h, coloring)
        assert happy | unhappy == set(h.edge_ids), f"[seed={seed}]"
        assert happy & unhappy == set(), f"[seed={seed}]"
        if unhappy:
            with pytest.raises(ColoringError):
                mc.verify_conflict_free_multicoloring(h, coloring)
        else:
            mc.verify_conflict_free_multicoloring(h, coloring)
