"""Regression tests: cached ``edge_ids`` and incremental size counters.

``Hypergraph`` caches the ``repr``-sorted edge-id list (invalidated when
the edge family changes) and maintains ``Σ|e|`` so that
``total_edge_size()`` never rescans the edge family.  These tests drive random mutation sequences and compare
every cached value against a naive recount after every single operation, so any bookkeeping drift is pinned to the exact mutation that
caused it (mirroring ``tests/graphs/test_graph_caches.py``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import HypergraphError
from repro.hypergraph import Hypergraph

from tests.conftest import hypergraphs


def _naive_edge_ids(h: Hypergraph):
    return sorted((e for e, _ in h.edges()), key=repr)


def _assert_caches_consistent(h: Hypergraph) -> None:
    sizes = [len(members) for _, members in h.edges()]
    assert h.edge_ids == sorted(h.edge_ids, key=repr)
    assert h.edge_ids == _naive_edge_ids(h)
    assert h.total_edge_size() == sum(sizes)


class TestIncrementalCounters:
    def test_fresh_hypergraphs(self):
        _assert_caches_consistent(Hypergraph())
        _assert_caches_consistent(Hypergraph(vertices=[1, 2, 3]))
        _assert_caches_consistent(Hypergraph(edges=[[0, 1], [1, 2, 3]]))

    def test_add_and_remove_edge(self):
        h = Hypergraph(edges=[[0, 1, 2]])
        h.add_edge([2, 3], edge_id="x")
        _assert_caches_consistent(h)
        h.remove_edge(0)
        _assert_caches_consistent(h)
        assert h.total_edge_size() == 2

    def test_remove_edges_bulk(self):
        h = Hypergraph(edges=[[0, 1], [1, 2], [2, 3, 4]])
        h.remove_edges([0, 2])
        _assert_caches_consistent(h)
        assert h.edge_ids == [1]

    def test_edge_ids_returns_a_fresh_list(self):
        h = Hypergraph(edges=[[0, 1], [1, 2]])
        ids = h.edge_ids
        ids.append("garbage")
        assert h.edge_ids == [0, 1]

    def test_failed_remove_leaves_caches_intact(self):
        h = Hypergraph(edges=[[0, 1]])
        h.edge_ids  # warm the cache
        with pytest.raises(HypergraphError):
            h.remove_edge("missing")
        _assert_caches_consistent(h)

    def test_removing_a_vertexs_edges_keeps_incidence_of_other_members(self):
        h = Hypergraph(edges=[[0, 1, 2], [1, 2], [2, 3]])
        h.remove_edges(h.edges_containing(0))
        assert h.edge_ids == [1, 2]
        assert h.edges_containing(0) == set()
        assert h.edges_containing(2) == {1, 2}
        _assert_caches_consistent(h)

    def test_random_mutation_sequence(self):
        rng = random.Random(20260727)
        h = Hypergraph()
        next_id = 0
        for _ in range(300):
            op = rng.random()
            if op < 0.4 or h.num_edges() == 0:
                size = rng.randint(1, 4)
                h.add_edge(rng.sample(range(12), size), edge_id=next_id)
                next_id += 1
            elif op < 0.6:
                ids = h.edge_ids
                h.remove_edge(ids[rng.randrange(len(ids))])
            elif op < 0.75:
                ids = h.edge_ids
                keep = rng.randrange(len(ids) + 1)
                h.remove_edges(rng.sample(ids, len(ids) - keep))
            elif op < 0.9:
                verts = sorted(h.vertices, key=repr)
                if verts:
                    h.remove_edges(h.edges_containing(verts[rng.randrange(len(verts))]))
            else:
                h.add_vertex(rng.randrange(16))
            _assert_caches_consistent(h)

    @given(hypergraphs(max_n=10, max_m=6, max_edge=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_hypergraphs_stay_consistent(self, h, seed):
        rng = random.Random(seed)
        _assert_caches_consistent(h)
        for _ in range(8):
            choice = rng.random()
            ids = h.edge_ids
            if ids and choice < 0.35:
                h.remove_edge(ids[rng.randrange(len(ids))])
            elif choice < 0.6:
                verts = sorted(h.vertices, key=repr)
                if verts:
                    h.remove_edges(h.edges_containing(verts[rng.randrange(len(verts))]))
            else:
                h.add_edge([rng.randrange(14) for _ in range(rng.randint(1, 3))])
            _assert_caches_consistent(h)
