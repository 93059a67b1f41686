"""A simple undirected graph implemented on adjacency sets.

The library deliberately ships its own light-weight :class:`Graph` class
instead of building everything directly on :mod:`networkx`:

* the LOCAL / SLOCAL simulators need cheap, predictable neighborhood
  queries and stable vertex identity semantics (vertices may be arbitrary
  hashable objects such as the ``(edge, vertex, color)`` triples of the
  conflict graph);
* :meth:`Graph.to_networkx` converts to :mod:`networkx` where a
  reference algorithm needs it.

Vertices may be any hashable object.  Self-loops are rejected because none
of the problems studied in the paper are defined on graphs with loops, and
a silent self-loop would corrupt independent-set semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.indexed import IndexedGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of 2-tuples of vertices.  Endpoints that are not
        yet present are added automatically.

    Examples
    --------
    >>> g = Graph(edges=[(1, 2), (2, 3)])
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.degree(2)
    2
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges: int = 0
        # degree -> number of vertices with that degree (zero counts removed);
        # together with _max_degree this makes num_edges()/max_degree() O(1).
        self._degree_hist: Dict[int, int] = {}
        self._max_degree: int = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # incremental bookkeeping
    # ------------------------------------------------------------------
    def _degree_changed(self, old: int, new: int) -> None:
        """Move one vertex from degree bucket ``old`` to ``new``."""
        hist = self._degree_hist
        count = hist[old] - 1
        if count:
            hist[old] = count
        else:
            del hist[old]
        hist[new] = hist.get(new, 0) + 1
        if new > self._max_degree:
            self._max_degree = new
        elif old == self._max_degree and old not in hist:
            d = old
            while d > 0 and d not in hist:
                d -= 1
            self._max_degree = d

    def _degree_dropped(self, old: int) -> None:
        """Forget one vertex that had degree ``old`` (vertex removal)."""
        hist = self._degree_hist
        count = hist[old] - 1
        if count:
            hist[old] = count
        else:
            del hist[old]
        if old == self._max_degree and old not in hist:
            d = old
            while d > 0 and d not in hist:
                d -= 1
            self._max_degree = d

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._adj:
            self._adj[v] = set()
            self._degree_hist[0] = self._degree_hist.get(0, 0) + 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``; endpoints are auto-added.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loops are not supported).
        """
        if u == v:
            raise GraphError(f"self-loops are not supported (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        nbrs_u = self._adj[u]
        if v in nbrs_u:
            return
        nbrs_v = self._adj[v]
        nbrs_u.add(v)
        nbrs_v.add(u)
        self._num_edges += 1
        self._degree_changed(len(nbrs_u) - 1, len(nbrs_u))
        self._degree_changed(len(nbrs_v) - 1, len(nbrs_v))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        GraphError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._degree_changed(len(self._adj[u]) + 1, len(self._adj[u]))
        self._degree_changed(len(self._adj[v]) + 1, len(self._adj[v]))

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all incident edges.

        Raises
        ------
        GraphError
            If the vertex is not present.
        """
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        for u in self._adj[v]:
            self._adj[u].discard(v)
            self._degree_changed(len(self._adj[u]) + 1, len(self._adj[u]))
        self._num_edges -= len(self._adj[v])
        self._degree_dropped(len(self._adj[v]))
        del self._adj[v]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return a copy of the neighbor set of ``v``.

        Raises
        ------
        GraphError
            If the vertex is not present.
        """
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        return set(self._adj[v])

    def adjacent(self, v: Vertex) -> Set[Vertex]:
        """Return the *internal* neighbor set of ``v`` without copying.

        The returned set is a live view: callers must treat it as read-only
        (mutating it would corrupt the graph's bookkeeping).  Use
        :meth:`neighbors` when a defensive copy is needed.

        Raises
        ------
        GraphError
            If the vertex is not present.
        """
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Return the degree of ``v``."""
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Return the maximum degree Δ of the graph (0 for empty graphs).

        Maintained incrementally via a degree histogram, so this is O(1).
        """
        return self._max_degree

    @property
    def vertices(self) -> Set[Vertex]:
        """The vertex set (a copy)."""
        return set(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        Each edge ``{u, v}`` is reported from the endpoint that was inserted
        first, so the iteration is deterministic for deterministic
        construction orders and needs no per-pair ``frozenset`` dedup.
        """
        position = {v: i for i, v in enumerate(self._adj)}
        for u, nbrs in self._adj.items():
            pu = position[u]
            for v in nbrs:
                if position[v] > pu:
                    yield (u, v)

    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._adj)

    def num_edges(self) -> int:
        """Return ``|E|`` (maintained incrementally, O(1))."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_vertices()}, m={self.num_edges()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    @classmethod
    def _from_adjacency_unchecked(cls, adj: Dict[Vertex, Set[Vertex]]) -> "Graph":
        """Adopt a prebuilt adjacency dict without re-validating it.

        ``adj`` must be symmetric and loop-free; the caller transfers
        ownership of the dict and its sets.  Used by :meth:`copy`, the
        conflict-graph builder, and :class:`IndexedGraph` round-trips to
        skip per-edge checks.
        """
        g = cls.__new__(cls)
        g._adj = adj
        total = 0
        hist: Dict[int, int] = {}
        max_degree = 0
        for nbrs in adj.values():
            d = len(nbrs)
            total += d
            hist[d] = hist.get(d, 0) + 1
            if d > max_degree:
                max_degree = d
        g._num_edges = total // 2
        g._degree_hist = hist
        g._max_degree = max_degree
        return g

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        g = Graph.__new__(Graph)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._degree_hist = dict(self._degree_hist)
        g._max_degree = self._max_degree
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced on ``vertices``.

        Vertices not present in the graph are silently ignored so that the
        method can be used with over-approximated vertex sets (e.g. the
        union of several neighborhoods).
        """
        keep = {v for v in vertices if v in self._adj}
        return Graph._from_adjacency_unchecked(
            {v: self._adj[v] & keep for v in keep}
        )

    def complement(self) -> "Graph":
        """Return the complement graph on the same vertex set."""
        verts = list(self._adj)
        g = Graph(vertices=verts)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if v not in self._adj[u]:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def freeze(self, order: Optional[Iterable[Vertex]] = None) -> "IndexedGraph":
        """Return an immutable :class:`~repro.graphs.indexed.IndexedGraph` view.

        Parameters
        ----------
        order:
            Optional interning order (a permutation of the vertex set).
            Defaults to insertion order, which is deterministic whenever the
            graph was built deterministically.
        """
        from repro.graphs.indexed import IndexedGraph

        return IndexedGraph.from_graph(self, order=order)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (vertices kept verbatim)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g
