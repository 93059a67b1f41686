"""Hypergraph data structure.

A hypergraph ``H = (V, E)`` consists of a vertex set and a family of
hyperedges, each of which is a non-empty subset of ``V``.  Hyperedges carry
stable identifiers so that the conflict-graph construction of the paper can
refer to "edge ``e``" unambiguously even when two hyperedges contain the
same vertex set (multi-hypergraphs are allowed, as the paper never forbids
them and the reduction treats each edge individually).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import HypergraphError

Vertex = Hashable
EdgeId = Hashable


class Hypergraph:
    """A hypergraph with identified hyperedges.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of hyperedges.  Each element is either a bare
        iterable of vertices (an edge id is assigned automatically) or a
        pair ``(edge_id, iterable_of_vertices)``.

    Examples
    --------
    >>> h = Hypergraph(edges=[(0, [1, 2, 3]), (1, [3, 4])])
    >>> h.edge_size(0)
    3
    >>> sorted(h.edges_containing(3))
    [0, 1]
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable = (),
    ) -> None:
        self._vertices: Set[Vertex] = set()
        self._edges: Dict[EdgeId, FrozenSet[Vertex]] = {}
        self._incidence: Dict[Vertex, Set[EdgeId]] = {}
        self._next_auto_id = 0
        # Incremental bookkeeping: the sorted edge-id list is cached until the
        # edge family changes, and Σ|e| is a running counter.
        self._edge_ids_cache: Optional[List[EdgeId]] = None
        self._total_edge_size: int = 0
        for v in vertices:
            self.add_vertex(v)
        for item in edges:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and not isinstance(item[0], (set, frozenset, list))
                and isinstance(item[1], (set, frozenset, list, tuple, range))
            ):
                edge_id, members = item
                self.add_edge(members, edge_id=edge_id)
            else:
                self.add_edge(item)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._vertices:
            self._vertices.add(v)
            self._incidence[v] = set()

    def add_edge(self, members: Iterable[Vertex], edge_id: Optional[EdgeId] = None) -> EdgeId:
        """Add a hyperedge with vertex set ``members`` and return its id.

        Member vertices that are not yet present are added automatically.

        Raises
        ------
        HypergraphError
            If ``members`` is empty or ``edge_id`` is already in use.
        """
        member_set = frozenset(members)
        if not member_set:
            raise HypergraphError("hyperedges must be non-empty")
        if edge_id is None:
            while self._next_auto_id in self._edges:
                self._next_auto_id += 1
            edge_id = self._next_auto_id
            self._next_auto_id += 1
        if edge_id in self._edges:
            raise HypergraphError(f"edge id {edge_id!r} already in use")
        for v in member_set:
            self.add_vertex(v)
        self._edges[edge_id] = member_set
        for v in member_set:
            self._incidence[v].add(edge_id)
        self._total_edge_size += len(member_set)
        self._edge_ids_cache = None
        return edge_id

    def remove_edge(self, edge_id: EdgeId) -> None:
        """Remove the hyperedge ``edge_id`` (its vertices are kept).

        Raises
        ------
        HypergraphError
            If no edge with this id exists.
        """
        if edge_id not in self._edges:
            raise HypergraphError(f"edge id {edge_id!r} not in hypergraph")
        for v in self._edges[edge_id]:
            self._incidence[v].discard(edge_id)
        self._total_edge_size -= len(self._edges[edge_id])
        del self._edges[edge_id]
        self._edge_ids_cache = None

    def remove_edges(self, edge_ids: Iterable[EdgeId]) -> None:
        """Remove every hyperedge in ``edge_ids``."""
        for e in list(edge_ids):
            self.remove_edge(e)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Set[Vertex]:
        """The vertex set (a copy)."""
        return set(self._vertices)

    @property
    def edge_ids(self) -> List[EdgeId]:
        """The list of hyperedge identifiers (sorted by ``repr`` for determinism).

        The sorted order is computed once and cached until an edge is added
        or removed, so the per-phase scans of the reduction pay O(m) per
        access instead of O(m log m).  A fresh list is returned each time;
        callers may mutate it freely.
        """
        if self._edge_ids_cache is None:
            self._edge_ids_cache = sorted(self._edges, key=repr)
        return list(self._edge_ids_cache)

    def edge(self, edge_id: EdgeId) -> FrozenSet[Vertex]:
        """Return the member set of hyperedge ``edge_id``."""
        if edge_id not in self._edges:
            raise HypergraphError(f"edge id {edge_id!r} not in hypergraph")
        return self._edges[edge_id]

    def edges(self) -> Iterator[Tuple[EdgeId, FrozenSet[Vertex]]]:
        """Iterate ``(edge_id, member_set)`` pairs in deterministic order."""
        for e in self.edge_ids:
            yield e, self._edges[e]

    def has_edge(self, edge_id: EdgeId) -> bool:
        """Return ``True`` if an edge with this id exists."""
        return edge_id in self._edges

    def has_vertex(self, v: Vertex) -> bool:
        """Return ``True`` if ``v`` is a vertex of the hypergraph."""
        return v in self._vertices

    def edge_size(self, edge_id: EdgeId) -> int:
        """Return ``|e|`` for hyperedge ``edge_id``."""
        return len(self.edge(edge_id))

    def edges_containing(self, v: Vertex) -> Set[EdgeId]:
        """Return the ids of every hyperedge containing ``v``."""
        if v not in self._vertices:
            raise HypergraphError(f"vertex {v!r} not in hypergraph")
        return set(self._incidence[v])

    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._vertices)

    def num_edges(self) -> int:
        """Return ``m = |E|``."""
        return len(self._edges)

    def total_edge_size(self) -> int:
        """Return ``Σ_e |e|`` — the number of incidences (O(1), counter-maintained)."""
        return self._total_edge_size

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return all vertices that co-occur with ``v`` in some hyperedge."""
        result: Set[Vertex] = set()
        for e in self.edges_containing(v):
            result |= self._edges[e]
        result.discard(v)
        return result

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypergraph(n={self.num_vertices()}, m={self.num_edges()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "Hypergraph":
        """Return a deep copy (edge ids are preserved)."""
        h = Hypergraph(vertices=self._vertices)
        for e, members in self._edges.items():
            h.add_edge(members, edge_id=e)
        return h

    def restrict_to_edges(self, edge_ids: Iterable[EdgeId]) -> "Hypergraph":
        """Return the hypergraph on the same vertex set keeping only ``edge_ids``.

        This is the ``H_i = (V, E_i)`` operation of the reduction: the
        vertex set is kept intact while the edge family shrinks.
        """
        keep = set(edge_ids)
        unknown = keep - set(self._edges)
        if unknown:
            raise HypergraphError(f"unknown edge ids: {sorted(unknown, key=repr)!r}")
        h = Hypergraph(vertices=self._vertices)
        for e in keep:
            h.add_edge(self._edges[e], edge_id=e)
        return h

    def primal_graph(self):
        """Return the primal (2-section) graph: vertices adjacent iff they share an edge."""
        from repro.graphs.graph import Graph

        g = Graph(vertices=self._vertices)
        for members in self._edges.values():
            members_list = sorted(members, key=repr)
            for i, u in enumerate(members_list):
                for v in members_list[i + 1:]:
                    if not g.has_edge(u, v):
                        g.add_edge(u, v)
        return g
