"""Tests for dominating-set verification, greedy approximation and the SLOCAL algorithm."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.covering import (
    closed_neighborhood,
    domination_number,
    exact_minimum_dominating_set,
    greedy_dominating_set,
    slocal_dominating_set,
    verify_dominating_set,
)
from repro.exceptions import GraphError, VerificationError
from repro.graphs import Graph, cycle_graph, erdos_renyi_graph, grid_graph, path_graph

from tests.conftest import complete_graph, graphs, star_graph


class TestVerification:
    def test_accepts_valid_dominating_set(self):
        g = star_graph(5)
        verify_dominating_set(g, {0})

    def test_rejects_non_dominating_set(self):
        g = path_graph(5)
        with pytest.raises(VerificationError):
            verify_dominating_set(g, {0})

    def test_rejects_foreign_vertices(self):
        g = path_graph(3)
        with pytest.raises(VerificationError):
            verify_dominating_set(g, {99})

    def test_empty_set_dominates_empty_graph(self):
        verify_dominating_set(Graph(), set())

    def test_closed_neighborhood(self):
        g = path_graph(4)
        assert closed_neighborhood(g, 1) == {0, 1, 2}


class TestExactAndGreedy:
    def test_known_domination_numbers(self):
        assert domination_number(star_graph(6)) == 1
        assert domination_number(complete_graph(5)) == 1
        assert domination_number(path_graph(3)) == 1
        assert domination_number(path_graph(6)) == 2
        assert domination_number(cycle_graph(9)) == 3

    def test_exact_refuses_large_instances(self):
        with pytest.raises(GraphError):
            exact_minimum_dominating_set(erdos_renyi_graph(40, 0.1, seed=1), size_limit=10)

    def test_exact_on_empty_graph(self):
        assert exact_minimum_dominating_set(Graph()) == set()

    def test_greedy_is_dominating(self):
        for seed in range(4):
            g = erdos_renyi_graph(24, 0.15, seed=seed)
            verify_dominating_set(g, greedy_dominating_set(g))

    def test_greedy_handles_isolated_vertices(self):
        g = Graph(vertices=[0, 1, 2], edges=[(0, 1)])
        result = greedy_dominating_set(g)
        verify_dominating_set(g, result)
        assert 2 in result

    def test_greedy_within_logarithmic_factor(self):
        for seed in range(3):
            g = erdos_renyi_graph(18, 0.25, seed=seed)
            greedy = greedy_dominating_set(g)
            optimum = domination_number(g)
            bound = (math.log(g.max_degree() + 1) + 2) * max(optimum, 1)
            assert len(greedy) <= bound

    @given(graphs(max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_greedy_always_dominates(self, g):
        verify_dominating_set(g, greedy_dominating_set(g))

    @given(graphs(max_n=10))
    @settings(max_examples=20, deadline=None)
    def test_exact_never_larger_than_greedy(self, g):
        assert domination_number(g) <= len(greedy_dominating_set(g))


class TestSLOCALDominatingSet:
    def test_output_dominates(self, random_graph):
        verify_dominating_set(random_graph, slocal_dominating_set(random_graph))

    def test_grid_instance(self):
        g = grid_graph(5, 5)
        verify_dominating_set(g, slocal_dominating_set(g))

    def test_every_order_yields_a_dominating_set(self):
        from repro.slocal import adversarial_orders

        g = erdos_renyi_graph(20, 0.15, seed=5)
        for order in adversarial_orders(g, n_random=2, seed=6):
            verify_dominating_set(g, slocal_dominating_set(g, order=order))

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_slocal_dominating_set_property(self, g, seed):
        from repro.slocal import random_order

        order = random_order(g, seed=seed)
        verify_dominating_set(g, slocal_dominating_set(g, order=order))
