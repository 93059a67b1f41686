"""Hypergraph substrate: data structure, generators, edge removal, IO."""

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    almost_uniform_hypergraph,
    colorable_almost_uniform_hypergraph,
    interval_hypergraph,
    random_interval_hypergraph,
    sunflower_hypergraph,
    uniform_random_hypergraph,
)
from repro.hypergraph.operations import remove_happy_edges
from repro.hypergraph.io import (
    hypergraph_to_dict,
    hypergraph_to_json,
    reduction_result_from_dict,
    reduction_result_to_dict,
)

__all__ = [
    "Hypergraph",
    "almost_uniform_hypergraph",
    "colorable_almost_uniform_hypergraph",
    "interval_hypergraph",
    "random_interval_hypergraph",
    "sunflower_hypergraph",
    "uniform_random_hypergraph",
    "remove_happy_edges",
    "hypergraph_to_dict",
    "hypergraph_to_json",
    "reduction_result_from_dict",
    "reduction_result_to_dict",
]
