"""Tests for the SLOCAL execution engine, views, state and orderings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LocalityViolation, ModelError
from repro.graphs import Graph, cycle_graph, path_graph
from repro.slocal import (
    LocalView,
    SLOCALAlgorithm,
    SLOCALEngine,
    StateMap,
    adversarial_orders,
    bfs_order,
    degree_order,
    random_order,
    sorted_order,
    validate_order,
)

from tests.conftest import graphs, star_graph


class TestStateMap:
    def test_missing_vertex_raises(self):
        state = StateMap([1])
        with pytest.raises(ModelError):
            state[99]

    def test_outputs_only_cover_processed(self):
        state = StateMap([1, 2])
        state[1].output = "x"
        state[1].processed = True
        assert state.outputs() == {1: "x"}


class TestLocalView:
    def test_view_restricted_to_ball(self):
        g = path_graph(6)
        view = LocalView(g, StateMap(g.vertices), center=2, radius=1)
        assert view.vertices == {1, 2, 3}

    def test_reads_outside_ball_raise(self):
        g = path_graph(6)
        view = LocalView(g, StateMap(g.vertices), center=0, radius=1)
        with pytest.raises(LocalityViolation):
            view.neighbors(5)
        with pytest.raises(LocalityViolation):
            view.output_of(5)
        with pytest.raises(LocalityViolation):
            view.is_processed(5)

    def test_boundary_vertices_hide_outside_edges(self):
        g = path_graph(5)
        view = LocalView(g, StateMap(g.vertices), center=2, radius=1)
        # Vertex 3 really has neighbors {2, 4}, but 4 is invisible.
        assert view.neighbors(3) == {2}
        assert view.subgraph().degree(3) == 1

    def test_state_access_within_ball(self):
        g = path_graph(3)
        state = StateMap(g.vertices)
        state[0].processed = True
        state[0].output = True
        view = LocalView(g, state, center=1, radius=1)
        assert view.is_processed(0)
        assert view.output_of(0) is True
        assert {v for v in view.vertices if view.is_processed(v)} == {0}


class TestOrderings:
    def test_sorted_and_reverse(self):
        g = path_graph(4)
        assert sorted_order(g) == [0, 1, 2, 3]

    def test_random_order_is_permutation(self):
        g = cycle_graph(8)
        order = random_order(g, seed=3)
        assert sorted(order) == sorted(g.vertices)

    def test_degree_order(self):
        g = star_graph(4)
        assert degree_order(g, descending=True)[0] == 0
        assert degree_order(g, descending=False)[-1] == 0

    def test_bfs_order_starts_at_root_component(self):
        g = path_graph(4)
        order = bfs_order(g, root=2)
        assert order[0] == 2

    def test_bfs_order_covers_disconnected_graphs(self):
        g = Graph(edges=[(0, 1)], vertices=[5])
        assert sorted(bfs_order(g)) == [0, 1, 5]

    def test_validate_order_rejects_bad_orders(self):
        g = path_graph(3)
        with pytest.raises(ModelError):
            validate_order(g, [0, 1])
        with pytest.raises(ModelError):
            validate_order(g, [0, 1, 1])
        with pytest.raises(ModelError):
            validate_order(g, [0, 1, 2, 3])

    def test_adversarial_orders_are_all_permutations(self):
        g = cycle_graph(7)
        for order in adversarial_orders(g, n_random=2, seed=1):
            assert sorted(order, key=repr) == sorted(g.vertices, key=repr)


class _CountingRule(SLOCALAlgorithm):
    """Outputs how many processed vertices are visible (for engine tests)."""

    locality = 1
    name = "counting"

    def process(self, view, state):
        return sum(view.is_processed(v) for v in view.vertices)


class TestEngine:
    def test_all_vertices_get_outputs(self, random_graph):
        result = SLOCALEngine(random_graph).run(_CountingRule())
        assert set(result.outputs) == random_graph.vertices
        assert result.locality == 1

    def test_first_processed_vertex_sees_no_processed_neighbors(self):
        g = path_graph(4)
        result = SLOCALEngine(g).run(_CountingRule(), order=[2, 1, 3, 0])
        assert result.outputs[2] == 0
        assert result.order == [2, 1, 3, 0]

    def test_bare_rule_requires_locality(self):
        g = path_graph(3)
        with pytest.raises(ModelError):
            SLOCALEngine(g).run(lambda view, state: 0)

    def test_bare_rule_with_locality(self):
        g = path_graph(3)
        result = SLOCALEngine(g).run(lambda view, state: len(view.vertices), locality=2)
        assert result.outputs[0] == 3

    def test_negative_locality_rejected(self):
        with pytest.raises(ModelError):
            SLOCALEngine(path_graph(2)).run(lambda v, s: 0, locality=-1)

    def test_invalid_order_rejected(self):
        with pytest.raises(ModelError):
            SLOCALEngine(path_graph(3)).run(_CountingRule(), order=[0, 1])

    def test_ball_sizes_recorded(self):
        g = star_graph(5)
        result = SLOCALEngine(g).run(_CountingRule())
        assert result.ball_sizes[0] == 6
        assert max(result.ball_sizes.values()) == 6

    def test_finalize_must_preserve_vertices(self):
        class BadFinalize(SLOCALAlgorithm):
            locality = 0

            def process(self, view, state):
                return 1

            def finalize(self, outputs):
                outputs.pop(next(iter(outputs)))
                return outputs

        with pytest.raises(ModelError):
            SLOCALEngine(path_graph(3)).run(BadFinalize())

    def test_each_adversarial_order_is_the_processing_order(self):
        g = cycle_graph(5)
        for order in adversarial_orders(g, n_random=1, seed=0):
            assert SLOCALEngine(g).run(_CountingRule(), order=order).order == list(order)

    @given(graphs(max_n=10), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_locality_enforced_for_any_radius(self, g, radius):
        def nosy_rule(view, state):
            # Touch every visible vertex; the view itself guards the radius.
            return sum(1 for v in view.vertices if view.is_processed(v) or True)

        result = SLOCALEngine(g).run(nosy_rule, locality=radius)
        assert set(result.outputs) == g.vertices
