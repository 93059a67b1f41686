"""Tests for the alive-mask subgraph views of :class:`IndexedGraph`.

The views keep the parent's interning table and raw adjacency and only
carry an alive bitmask; every query must answer for the induced subgraph,
and the independent-set kernels must select exactly what they would select
on a dense from-scratch freeze of that subgraph.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError
from repro.graphs import Graph, verify_independent_set
from repro.graphs.indexed import (
    IndexedSubgraph,
    first_fit_mis_ids,
    freeze_sorted,
    maximum_independent_set_mask,
    min_degree_greedy_ids,
)
from repro.exceptions import IndependenceError

from tests.conftest import mask_of


def _random_graph(rng: random.Random, n: int) -> Graph:
    g = Graph(vertices=range(n))
    if n >= 2:
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


@pytest.fixture
def diamond():
    """4-cycle with one chord, frozen in sorted order, plus a pendant."""
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
    return g, freeze_sorted(g)


class TestViewQueries:
    def test_full_mask_returns_self(self, diamond):
        _, frozen = diamond
        assert frozen.subgraph_view(frozen.alive_mask()) is frozen

    def test_out_of_range_mask_rejected(self, diamond):
        _, frozen = diamond
        with pytest.raises(GraphError):
            frozen.subgraph_view(1 << frozen.num_vertices())

    def test_masked_sizes_degrees_and_neighbors(self, diamond):
        g, frozen = diamond
        alive = mask_of(frozen, [0, 1, 3, 4])  # drop vertex 2
        view = frozen.subgraph_view(alive)
        assert view.num_vertices() == len(view) == 4
        assert view.num_edges() == 3  # (0,1), (0,3), (3,4)
        assert sorted(view) == [0, 1, 3, 4]
        i0, i3 = frozen.index_of(0), frozen.index_of(3)
        assert view.degree(i0) == 2
        assert view.neighbors(i3) == sorted([frozen.index_of(0), frozen.index_of(4)])
        assert view.max_degree() == 2
        # Indexed by parent id, like the base class; dead ids read as 0.
        assert view.degrees() == [2, 1, 0, 2, 1]
        assert view.degrees()[i3] == view.degree(i3)

    def test_dead_ids_are_rejected(self, diamond):
        _, frozen = diamond
        view = frozen.subgraph_view(mask_of(frozen, [0, 1, 3, 4]))
        dead = frozen.index_of(2)
        assert 2 not in view
        with pytest.raises(GraphError):
            view.index_of(2)
        with pytest.raises(GraphError):
            view.degree(dead)
        assert not view.has_edge(dead, frozen.index_of(1))
        # The parent interning table stays fully addressable.
        assert view.label(dead) == 2

    def test_view_composition_intersects_masks(self, diamond):
        _, frozen = diamond
        a = frozen.subgraph_view(mask_of(frozen, [0, 1, 2, 3]))
        b = a.subgraph_view(mask_of(frozen, [1, 2, 3, 4]))
        assert isinstance(b, IndexedSubgraph)
        assert b._parent is frozen
        assert sorted(b) == [1, 2, 3]
        assert b.subgraph_view(b.alive_mask()) is b

    def test_a_view_built_on_a_view_restricts_the_base_graph(self, diamond):
        _, frozen = diamond
        a = frozen.subgraph_view(mask_of(frozen, [0, 1, 2, 3]))
        b = IndexedSubgraph(a, mask_of(frozen, [1, 2, 3, 4]))
        assert b._parent is frozen
        assert sorted(b) == [1, 2, 3]

    def test_out_of_range_mask_on_a_view_rejected(self, diamond):
        _, frozen = diamond
        view = frozen.subgraph_view(mask_of(frozen, [0, 1, 3, 4]))
        with pytest.raises(GraphError):
            view.subgraph_view(1 << frozen.num_vertices())

    def test_masked_bitsets_and_edges(self, diamond):
        _, frozen = diamond
        view = frozen.subgraph_view(mask_of(frozen, [0, 1, 3, 4]))
        dead = frozen.index_of(2)
        rows = view.bitsets()
        assert rows[dead] == 0
        for i in view.vertex_ids():
            assert rows[i] == view.neighbor_bitset(i)
            for j in view.vertex_ids():
                assert view.has_edge(i, j) == frozen.has_edge(i, j)
        assert not view.has_edge(frozen.index_of(1), dead)

    def test_to_graph_matches_mutable_subgraph(self, diamond):
        g, frozen = diamond
        keep = [0, 2, 3, 4]
        view = frozen.subgraph_view(mask_of(frozen, keep))
        assert view.to_graph() == g.subgraph(keep)

    def test_verify_independent_set_on_views(self, diamond):
        _, frozen = diamond
        view = frozen.subgraph_view(mask_of(frozen, [0, 1, 3, 4]))
        verify_independent_set(view, {1, 4})
        with pytest.raises(IndependenceError):
            verify_independent_set(view, {0, 1})
        with pytest.raises(IndependenceError):
            verify_independent_set(view, {2})  # dead vertex = not a vertex


class TestKernelsOnViews:
    """Kernels on a view == kernels on a dense rebuild of the subgraph."""

    def _cases(self):
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randint(2, 16)
            g = _random_graph(rng, n)
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            yield trial, g, keep

    def test_first_fit_and_min_degree_match_dense_rebuild(self):
        for trial, g, keep in self._cases():
            frozen = freeze_sorted(g)
            view = frozen.subgraph_view(mask_of(frozen, keep))
            dense = freeze_sorted(g.subgraph(keep))
            ff_view = {view.label(i) for i in first_fit_mis_ids(view, view.vertex_ids())}
            ff_dense = {
                dense.label(i) for i in first_fit_mis_ids(dense, dense.vertex_ids())
            }
            assert ff_view == ff_dense, f"first-fit differs on trial {trial}"
            md_view = {view.label(i) for i in min_degree_greedy_ids(view)}
            md_dense = {dense.label(i) for i in min_degree_greedy_ids(dense)}
            assert md_view == md_dense, f"min-degree differs on trial {trial}"

    def test_exact_solver_matches_dense_rebuild(self):
        for trial, g, keep in self._cases():
            frozen = freeze_sorted(g)
            view = frozen.subgraph_view(mask_of(frozen, keep))
            dense = freeze_sorted(g.subgraph(keep))
            best_view = view.labels_for_mask(maximum_independent_set_mask(view))
            best_dense = dense.labels_for_mask(maximum_independent_set_mask(dense))
            assert best_view == best_dense, f"exact solver differs on trial {trial}"

    def test_oracle_wrappers_match_dense_rebuild(self):
        from repro.maxis import available_approximators

        solvers = available_approximators()
        for trial, g, keep in self._cases():
            frozen = freeze_sorted(g)
            view = frozen.subgraph_view(mask_of(frozen, keep))
            sub = g.subgraph(keep)
            for name, solver in solvers.items():
                assert solver(view) == solver(sub), (
                    f"{name} differs on trial {trial}"
                )
