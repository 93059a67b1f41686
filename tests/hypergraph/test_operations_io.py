"""Tests for the per-phase edge removal and the hypergraph's dict/JSON forms."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.exceptions import HypergraphError
from repro.hypergraph import (
    Hypergraph,
    hypergraph_to_dict,
    hypergraph_to_json,
    remove_happy_edges,
)

from tests.conftest import hypergraphs


def _rebuild(data) -> Hypergraph:
    """The hypergraph a :func:`hypergraph_to_dict` form describes."""
    return Hypergraph(vertices=data["vertices"], edges=[tuple(item) for item in data["edges"]])


class TestOperations:
    def test_remove_happy_edges(self, small_hypergraph):
        result = remove_happy_edges(small_hypergraph, [0, 2])
        assert set(result.edge_ids) == {1, 3}
        assert result.vertices == small_hypergraph.vertices

    def test_remove_unknown_edges_raises(self, small_hypergraph):
        with pytest.raises(HypergraphError):
            remove_happy_edges(small_hypergraph, ["bogus"])


class TestIO:
    def test_dict_round_trip(self, small_hypergraph):
        assert _rebuild(hypergraph_to_dict(small_hypergraph)) == small_hypergraph

    def test_json_round_trip(self, small_hypergraph):
        assert _rebuild(json.loads(hypergraph_to_json(small_hypergraph))) == small_hypergraph

    @given(hypergraphs())
    @settings(max_examples=25, deadline=None)
    def test_dict_round_trip_property(self, h):
        assert _rebuild(hypergraph_to_dict(h)) == h
