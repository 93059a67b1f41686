"""Tests for BFS distances, balls, the diameter and the components helper."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exceptions import GraphError
from repro.graphs import Graph, ball, bfs_distances, cycle_graph, diameter, grid_graph, path_graph

from tests.conftest import complete_graph, connected_components, graphs, is_connected, star_graph


class TestBFS:
    def test_distances_on_path(self):
        g = path_graph(5)
        dist = bfs_distances(g, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distances_respect_radius(self):
        g = path_graph(10)
        dist = bfs_distances(g, 0, radius=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_missing_source_raises(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), 99)

    def test_distances_only_cover_component(self):
        g = Graph(edges=[(0, 1)], vertices=[2])
        assert set(bfs_distances(g, 0)) == {0, 1}


class TestBalls:
    def test_ball_radius_zero_is_center(self):
        g = cycle_graph(6)
        assert ball(g, 0, 0) == {0}

    def test_ball_radius_one_is_closed_neighborhood(self):
        g = star_graph(4)
        assert ball(g, 0, 1) == {0, 1, 2, 3, 4}
        assert ball(g, 1, 1) == {0, 1}

    def test_negative_radius_raises(self):
        with pytest.raises(GraphError):
            ball(path_graph(3), 0, -1)


class TestGlobalMeasures:
    def test_diameter_of_path(self):
        assert diameter(path_graph(5)) == 4

    def test_diameter_of_complete_graph(self):
        assert diameter(complete_graph(4)) == 1

    def test_diameter_of_disconnected_graph_raises(self):
        g = Graph(vertices=[0, 1])
        with pytest.raises(GraphError):
            diameter(g)

    def test_diameter_of_empty_graph_raises(self):
        with pytest.raises(GraphError):
            diameter(Graph())

    def test_diameter_of_grid(self):
        assert diameter(grid_graph(3, 4)) == 2 + 3


class TestComponents:
    def test_connected_components_partition(self):
        g = Graph(edges=[(0, 1), (2, 3)], vertices=[4])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]

    def test_is_connected(self):
        assert is_connected(path_graph(4))
        assert is_connected(Graph())
        assert not is_connected(Graph(vertices=[0, 1]))


class TestProperties:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_ball_monotone_in_radius(self, g):
        for v in list(g.vertices)[:3]:
            assert ball(g, v, 0) <= ball(g, v, 1) <= ball(g, v, 2)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_distance_triangle_step(self, g):
        # Distances along an edge differ by at most one.
        for v in list(g.vertices)[:2]:
            dist = bfs_distances(g, v)
            for a, b in g.edges():
                if a in dist and b in dist:
                    assert abs(dist[a] - dist[b]) <= 1

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_bfs_distances_are_shortest_path_lengths(self, g):
        # With the triangle step above, a neighbor one step closer for every
        # reached vertex and a reached set closed under neighbors pin the
        # distances down to the shortest-path lengths.
        for source in sorted(g.vertices, key=repr)[:2]:
            dist = bfs_distances(g, source)
            assert dist[source] == 0
            for v, d in dist.items():
                assert g.neighbors(v) <= set(dist)
                if v != source:
                    assert any(dist[u] == d - 1 for u in g.neighbors(v))
            assert bfs_distances(g, source, radius=1) == {v: d for v, d in dist.items() if d <= 1}

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_components_cover_all_vertices_exactly_once(self, g):
        comps = connected_components(g)
        union = set()
        total = 0
        for comp in comps:
            union |= comp
            total += len(comp)
        assert union == g.vertices
        assert total == g.num_vertices()
