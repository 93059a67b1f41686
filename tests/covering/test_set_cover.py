"""Tests for the set-cover instance model, greedy approximation, and bridges."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.covering import (
    SetCoverInstance,
    dominating_set_as_set_cover,
    exact_minimum_set_cover,
    greedy_set_cover,
    harmonic_number,
    hypergraph_vertex_cover_as_set_cover,
    set_cover_optimum,
    verify_set_cover,
)
from repro.covering.dominating_set import domination_number
from repro.exceptions import VerificationError
from repro.graphs import path_graph
from repro.hypergraph import Hypergraph

from tests.conftest import star_graph


@pytest.fixture
def simple_instance() -> SetCoverInstance:
    instance = SetCoverInstance(universe={1, 2, 3, 4, 5})
    instance.add_set("a", {1, 2, 3})
    instance.add_set("b", {3, 4})
    instance.add_set("c", {4, 5})
    instance.add_set("d", {5})
    return instance


class TestInstanceModel:
    def test_add_set_grows_universe(self):
        instance = SetCoverInstance()
        instance.add_set("x", {1, 2})
        assert instance.universe == {1, 2}

    def test_duplicate_set_id_rejected(self, simple_instance):
        with pytest.raises(VerificationError):
            simple_instance.add_set("a", {9})

    def test_coverable(self, simple_instance):
        assert simple_instance.coverable()

    def test_uncoverable_instance_detected(self):
        instance = SetCoverInstance(universe={1, 2, 99})
        instance.add_set("a", {1, 2})
        assert not instance.coverable()


class TestVerification:
    def test_valid_cover_accepted(self, simple_instance):
        verify_set_cover(simple_instance, ["a", "c"])

    def test_incomplete_cover_rejected(self, simple_instance):
        with pytest.raises(VerificationError):
            verify_set_cover(simple_instance, ["a", "b"])

    def test_unknown_set_id_rejected(self, simple_instance):
        with pytest.raises(VerificationError):
            verify_set_cover(simple_instance, ["nope"])


class TestGreedyAndExact:
    def test_greedy_finds_a_cover(self, simple_instance):
        cover = greedy_set_cover(simple_instance)
        verify_set_cover(simple_instance, cover)

    def test_greedy_on_uncoverable_instance_raises(self):
        instance = SetCoverInstance(universe={1, 2, 3})
        instance.add_set("a", {1})
        with pytest.raises(VerificationError):
            greedy_set_cover(instance)

    def test_exact_optimum(self, simple_instance):
        assert set_cover_optimum(simple_instance) == 2

    def test_exact_refuses_large_families(self):
        instance = SetCoverInstance()
        for i in range(25):
            instance.add_set(i, {i})
        with pytest.raises(VerificationError):
            exact_minimum_set_cover(instance, limit=20)

    def test_greedy_within_harmonic_factor(self, simple_instance):
        greedy = greedy_set_cover(simple_instance)
        optimum = set_cover_optimum(simple_instance)
        max_set_size = max(len(s) for s in simple_instance.sets.values())
        assert len(greedy) <= harmonic_number(max_set_size) * optimum + 1e-9

    def test_harmonic_number(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(1 + 0.5 + 1 / 3)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_property_random_instances(self, n_elements, n_sets, seed):
        import random as _random

        rng = _random.Random(seed)
        instance = SetCoverInstance(universe=set(range(n_elements)))
        # Guarantee coverability with singleton sets, then add random ones.
        for i in range(n_elements):
            instance.add_set(("single", i), {i})
        for j in range(n_sets):
            members = {e for e in range(n_elements) if rng.random() < 0.5}
            if members:
                instance.add_set(("rand", j), members)
        cover = greedy_set_cover(instance)
        verify_set_cover(instance, cover)


class TestBridges:
    def test_dominating_set_bridge(self):
        g = star_graph(4)
        instance = dominating_set_as_set_cover(g)
        assert instance.universe == g.vertices
        assert set_cover_optimum(instance) == domination_number(g) == 1

    def test_dominating_set_bridge_on_path(self):
        g = path_graph(6)
        instance = dominating_set_as_set_cover(g)
        assert set_cover_optimum(instance) == domination_number(g)

    def test_hypergraph_vertex_cover_bridge(self):
        h = Hypergraph(edges=[[0, 1], [1, 2], [2, 3]])
        instance = hypergraph_vertex_cover_as_set_cover(h)
        assert instance.universe == set(h.edge_ids)
        cover = greedy_set_cover(instance)
        # The chosen vertices must together touch every hyperedge.
        touched = set()
        for v in cover:
            touched |= h.edges_containing(v)
        assert touched == set(h.edge_ids)
