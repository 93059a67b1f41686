"""Tests for hypergraph generators: almost-uniform, colorable, interval, sunflower."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import verify_conflict_free_coloring
from repro.exceptions import HypergraphError
from repro.graphs import cycle_graph
from repro.hypergraph import (
    almost_uniform_hypergraph,
    colorable_almost_uniform_hypergraph,
    interval_hypergraph,
    random_interval_hypergraph,
    sunflower_hypergraph,
    uniform_random_hypergraph,
)

from tests.conftest import assert_consistent_hypergraph, graph_as_hypergraph


class TestUniformRandom:
    def test_sizes_and_edge_cardinality(self):
        h = uniform_random_hypergraph(20, 10, 4, seed=1)
        assert h.num_vertices() == 20
        assert h.num_edges() == 10
        assert all(len(h.edge(e)) == 4 for e in h.edge_ids)

    def test_edge_size_larger_than_n_rejected(self):
        with pytest.raises(HypergraphError):
            uniform_random_hypergraph(3, 1, 5)

    def test_zero_edge_size_rejected(self):
        with pytest.raises(HypergraphError):
            uniform_random_hypergraph(3, 1, 0)

    def test_reproducible(self):
        a = uniform_random_hypergraph(15, 8, 3, seed=9)
        b = uniform_random_hypergraph(15, 8, 3, seed=9)
        assert a == b


class TestAlmostUniform:
    def test_edge_sizes_within_band(self):
        h = almost_uniform_hypergraph(30, 20, k=4, epsilon=0.5, seed=2)
        for e in h.edge_ids:
            assert 4 <= len(h.edge(e)) <= 6
        sizes = [len(h.edge(e)) for e in h.edge_ids]
        assert max(sizes) <= 1.5 * min(sizes)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(10, 5, k=2, epsilon=0.0)
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(10, 5, k=2, epsilon=1.5)

    def test_band_exceeding_n_rejected(self):
        with pytest.raises(HypergraphError):
            almost_uniform_hypergraph(5, 3, k=4, epsilon=1.0)


class TestColorableAlmostUniform:
    def test_planted_coloring_is_conflict_free(self):
        h, planted = colorable_almost_uniform_hypergraph(40, 25, k=4, epsilon=0.5, seed=3)
        verify_conflict_free_coloring(h, planted, k=4, require_total=True)

    def test_edge_sizes_respect_band(self):
        h, _ = colorable_almost_uniform_hypergraph(40, 25, k=4, epsilon=0.5, seed=3)
        sizes = [len(h.edge(e)) for e in h.edge_ids]
        assert max(sizes) <= 1.5 * min(sizes)

    def test_single_color_case(self):
        # With k = 1 every vertex has color 1, so only singleton edges can be happy.
        h, planted = colorable_almost_uniform_hypergraph(10, 5, k=1, epsilon=1.0, seed=4)
        verify_conflict_free_coloring(h, planted, k=1)
        assert all(len(h.edge(e)) == 1 for e in h.edge_ids)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(HypergraphError):
            colorable_almost_uniform_hypergraph(3, 2, k=4, epsilon=0.5)

    @pytest.mark.parametrize("k, epsilon", [(2, 0.0), (2, 1.5), (0, 0.5), (-1, 1.0)])
    def test_invalid_parameters_rejected(self, k, epsilon):
        with pytest.raises(HypergraphError):
            colorable_almost_uniform_hypergraph(10, 5, k=k, epsilon=epsilon)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=30, deadline=None)
    def test_planted_coloring_property(self, k, m, seed):
        n = 4 * k + 2
        h, planted = colorable_almost_uniform_hypergraph(n, m, k=k, epsilon=1.0, seed=seed)
        assert_consistent_hypergraph(h)
        verify_conflict_free_coloring(h, planted, k=k, require_total=True)
        assert h.num_edges() == m


def _per_edge_pool_reference(n, m, k, epsilon, rng):
    """The colorable generator with one candidate list built per edge (reference).

    It scans all ``n`` vertices for every edge.  Returns the edges in id
    order, the planted coloring and how many edges took the size-shrink
    branch.
    """
    max_size = int((1 + epsilon) * k)
    colors = list(range(1, k + 1))
    planted = {}
    for v in range(n):
        planted[v] = colors[v % k] if v < k else rng.choice(colors)
    by_color = {c: [] for c in colors}
    for v, c in planted.items():
        by_color[c].append(v)
    pool_size = {c: n - len(by_color[c]) for c in colors}
    edges = []
    shrinks = 0
    for _ in range(m):
        size = rng.randint(k, max_size)
        feasible = [c for c in colors if pool_size[c] >= size - 1]
        if not feasible:
            shrinks += 1
            size = max(k, 1 + max(pool_size.values()))
            feasible = [c for c in colors if pool_size[c] >= size - 1]
        unique_color = rng.choice(feasible)
        unique_vertex = rng.choice(by_color[unique_color])
        pool = [v for v in range(n) if planted[v] != unique_color and v != unique_vertex]
        edges.append(frozenset(rng.sample(pool, size - 1) + [unique_vertex]))
    return edges, planted, shrinks


class _RecordingRandom(random.Random):
    """A ``Random`` that keeps every population handed to :meth:`sample`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.populations = []

    def sample(self, population, k, **kwargs):
        # Holding the population keeps its id from being reused.
        self.populations.append(population)
        return super().sample(population, k, **kwargs)


class TestColorableDraws:
    """The pooled generator draws exactly what the per-edge reference draws."""

    #: The multi-phase benchmark's shape, the demo grid's sizes at k ∈ {2, 3},
    #: a single color, and a shape whose drawn sizes often exceed every pool.
    SHAPES = [
        (120, 80, 4, 0.5),
        (20, 12, 2, 0.5),
        (20, 12, 3, 0.5),
        (30, 20, 2, 0.5),
        (30, 20, 3, 0.5),
        (10, 5, 1, 1.0),
        (4, 20, 2, 1.0),
    ]
    SEEDS = range(50)

    @pytest.mark.parametrize("n, m, k, epsilon", SHAPES)
    def test_matches_per_edge_pool_reference(self, n, m, k, epsilon):
        for seed in self.SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            h, planted = colorable_almost_uniform_hypergraph(n, m, k, epsilon, seed=ours)
            edges, expected_planted, _ = _per_edge_pool_reference(n, m, k, epsilon, theirs)
            assert sorted(h.edge_ids) == list(range(m)), f"seed {seed}"
            assert [h.edge(i) for i in range(m)] == edges, f"seed {seed}"
            assert planted == expected_planted, f"seed {seed}"
            assert ours.getstate() == theirs.getstate(), f"seed {seed}"

    def test_shrink_shape_takes_the_shrink_branch(self):
        shrunk = [
            seed
            for seed in self.SEEDS
            if _per_edge_pool_reference(4, 20, 2, 1.0, random.Random(seed))[2]
        ]
        assert 10 <= len(shrunk) <= 40

    @pytest.mark.parametrize("n, m, k, epsilon", [(120, 80, 4, 0.5), (30, 20, 3, 0.5)])
    def test_one_pool_per_color(self, n, m, k, epsilon):
        rng = _RecordingRandom(7)
        colorable_almost_uniform_hypergraph(n, m, k, epsilon, seed=rng)
        assert len(rng.populations) == m
        assert len({id(population) for population in rng.populations}) <= k


class TestIntervalHypergraphs:
    def test_membership_matches_geometry(self):
        points = [0.1, 0.4, 0.6, 0.9]
        h = interval_hypergraph(points, [(0.0, 0.5), (0.5, 1.0), (0.35, 0.65)])
        assert h.edge(0) == frozenset({0, 1})
        assert h.edge(1) == frozenset({2, 3})
        assert h.edge(2) == frozenset({1, 2})

    def test_empty_intervals_skipped(self):
        h = interval_hypergraph([0.1, 0.9], [(0.4, 0.5)])
        assert h.num_edges() == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(HypergraphError):
            interval_hypergraph([0.5], [(0.9, 0.1)])

    def test_random_interval_hypergraph_edges_are_contiguous(self):
        h = random_interval_hypergraph(20, 12, seed=5)
        for _, members in h.edges():
            indices = sorted(members)
            assert indices == list(range(indices[0], indices[-1] + 1))


class TestStructured:
    def test_graph_as_hypergraph(self):
        g = cycle_graph(5)
        h = graph_as_hypergraph(g)
        assert h.num_edges() == 5
        assert all(len(h.edge(e)) == 2 for e in h.edge_ids)
        assert h.vertices == g.vertices

    def test_sunflower_core_intersection(self):
        h = sunflower_hypergraph(n_petals=4, petal_size=2, core_size=1)
        edges = [h.edge(e) for e in h.edge_ids]
        core = set.intersection(*(set(e) for e in edges))
        assert core == {("core", 0)}
        assert all(len(e) == 3 for e in edges)

    def test_sunflower_invalid_parameters(self):
        with pytest.raises(HypergraphError):
            sunflower_hypergraph(0, 1)
        with pytest.raises(HypergraphError):
            sunflower_hypergraph(2, 0, core_size=0)
