"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.bench import hypergraph_family
from repro.graphs import Graph, erdos_renyi_graph
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph


# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def small_graph() -> Graph:
    """A fixed 6-vertex graph with a known structure (two triangles joined by an edge)."""
    g = Graph()
    g.add_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    return g


@pytest.fixture
def random_graph() -> Graph:
    """A fixed-seed G(30, 0.15) instance."""
    return erdos_renyi_graph(30, 0.15, seed=7)


@pytest.fixture
def small_hypergraph() -> Hypergraph:
    """A fixed 5-vertex hypergraph with 4 edges."""
    return Hypergraph.from_edge_list([[0, 1, 2], [2, 3], [1, 3, 4], [0, 4]])


@pytest.fixture
def colorable_instance():
    """A colorable almost-uniform hypergraph together with its planted coloring."""
    return colorable_almost_uniform_hypergraph(n=24, m=15, k=3, epsilon=0.5, seed=11)


@pytest.fixture(scope="session")
def bench_family():
    """``repro bench``'s sweep ``[(label, hypergraph, planted, k)]``: n = 30…120, k = 4.

    The paper's claims are checked on it; Lemma 2.1(b) and the phase
    decay on its first three instances.
    """
    return hypergraph_family()


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def graphs(max_n: int = 12, max_p: float = 0.6):
    """Strategy producing small random graphs (decided by a seed + parameters)."""

    @st.composite
    def _build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        p = draw(st.floats(min_value=0.0, max_value=max_p))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        return erdos_renyi_graph(n, p, seed=seed)

    return _build()


def hypergraphs(max_n: int = 12, max_m: int = 8, max_edge: int = 4):
    """Strategy producing small random hypergraphs."""

    @st.composite
    def _build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        m = draw(st.integers(min_value=0, max_value=max_m))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        h = Hypergraph(vertices=range(n))
        for i in range(m):
            size = rng.randint(1, min(max_edge, n))
            h.add_edge(rng.sample(range(n), size), edge_id=i)
        return h

    return _build()


def colorable_hypergraphs(max_n: int = 20, max_m: int = 10, max_k: int = 3):
    """Strategy producing (hypergraph, planted CF coloring, k) triples."""

    @st.composite
    def _build(draw):
        k = draw(st.integers(min_value=1, max_value=max_k))
        n = draw(st.integers(min_value=2 * k + 1, max_value=max_n))
        m = draw(st.integers(min_value=1, max_value=max_m))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        h, planted = colorable_almost_uniform_hypergraph(
            n=n, m=m, k=k, epsilon=1.0, seed=seed
        )
        return h, planted, k

    return _build()
