"""Shared fixtures, graph builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import List, Set

import pytest
from hypothesis import strategies as st

from repro.bench import hypergraph_family
from repro.exceptions import GraphError
from repro.graphs import Graph, bfs_distances, empty_graph, erdos_renyi_graph
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph


# ----------------------------------------------------------------------
# Graph and hypergraph helpers (only the tests use them)
# ----------------------------------------------------------------------
def complete_graph(n: int) -> Graph:
    """Return the complete graph K_n on vertices ``0..n-1``."""
    g = empty_graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def star_graph(n_leaves: int) -> Graph:
    """Return a star with center ``0`` and leaves ``1..n_leaves``."""
    if n_leaves < 0:
        raise GraphError(f"n_leaves must be non-negative, got {n_leaves}")
    g = empty_graph(n_leaves + 1)
    for leaf in range(1, n_leaves + 1):
        g.add_edge(0, leaf)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Return K_{a,b} with left part ``('L', i)`` and right part ``('R', j)``."""
    if a < 0 or b < 0:
        raise GraphError("part sizes must be non-negative")
    g = Graph(vertices=[("L", i) for i in range(a)] + [("R", j) for j in range(b)])
    for i in range(a):
        for j in range(b):
            g.add_edge(("L", i), ("R", j))
    return g


def disjoint_union(*graphs: Graph) -> Graph:
    """Return the disjoint union; vertices are relabelled ``(index, vertex)``."""
    result = Graph()
    for idx, g in enumerate(graphs):
        for v in g.vertices:
            result.add_vertex((idx, v))
        for u, v in g.edges():
            result.add_edge((idx, u), (idx, v))
    return result


def connected_components(graph: Graph) -> List[Set]:
    """Return the connected components as a list of vertex sets."""
    remaining = graph.vertices
    components: List[Set] = []
    while remaining:
        start = next(iter(remaining))
        comp = set(bfs_distances(graph, start))
        components.append(comp)
        remaining -= comp
    return components


def is_connected(graph: Graph) -> bool:
    """Return ``True`` if the graph is connected (empty graphs count as connected)."""
    if graph.num_vertices() == 0:
        return True
    return len(connected_components(graph)) == 1


def assert_consistent_hypergraph(h: Hypergraph) -> None:
    """Every edge is a non-empty set of vertices, and the incidence index agrees with the edges."""
    vertices = h.vertices
    for e, members in h.edges():
        assert members and members <= vertices, e
    for v in vertices:
        assert h.edges_containing(v) == {e for e, members in h.edges() if v in members}, v


def completed_of(latest) -> Set[str]:
    """Task keys whose latest entry (a row or a summary) is ``"done"``."""
    return {key for key, entry in latest.items() if entry["status"] == "done"}


def mask_of(graph, vertices) -> int:
    """The bitset over ``graph``'s ids of the labels ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << graph.index_of(v)
    return mask


def graph_as_hypergraph(graph) -> Hypergraph:
    """View a simple graph as a 2-uniform hypergraph (edges become hyperedges)."""
    h = Hypergraph(vertices=graph.vertices)
    for i, (u, v) in enumerate(sorted(graph.edges(), key=repr)):
        h.add_edge([u, v], edge_id=i)
    return h


# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def small_graph() -> Graph:
    """A fixed 6-vertex graph with a known structure (two triangles joined by an edge)."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


@pytest.fixture
def random_graph() -> Graph:
    """A fixed-seed G(30, 0.15) instance."""
    return erdos_renyi_graph(30, 0.15, seed=7)


@pytest.fixture
def small_hypergraph() -> Hypergraph:
    """A fixed 5-vertex hypergraph with 4 edges."""
    return Hypergraph(edges=[[0, 1, 2], [2, 3], [1, 3, 4], [0, 4]])


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
