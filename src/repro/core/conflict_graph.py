"""Construction of the conflict graph ``G_k`` (Section 2 of the paper).

Given a hypergraph ``H = (V, E)`` and a palette size ``k``, the conflict
graph ``G_k`` has

* vertex set ``V(G_k) = {(e, v, c) : e ∈ E(H), v ∈ e, 1 ≤ c ≤ k}`` and
* edge set ``E(G_k) = E_vertex ∪ E_edge ∪ E_color`` where

  - ``E_vertex`` joins ``(e, v, c)`` and ``(g, v, d)`` for every vertex
    ``v`` and distinct colors ``c ≠ d`` — a vertex may only commit to one
    color;
  - ``E_edge`` joins ``(e, v, c)`` and ``(e, u, d)`` for every edge ``e``
    — an edge contributes at most one triple to an independent set;
  - ``E_color`` joins ``(e, v, c)`` and ``(g, u, c)`` for *distinct*
    vertices ``u ≠ v`` whenever ``{u, v} ⊆ e`` or ``{u, v} ⊆ g`` — the
    chosen color must be unique within the edge that selected it.  (The
    paper's displayed definition does not spell out ``u ≠ v``, but its
    proof of Lemma 2.1(a) requires it; see DESIGN.md "interpretation
    notes".)

The triples are represented as :class:`ConflictVertex` named tuples; the
graph itself is an ordinary :class:`repro.graphs.Graph`, so every
independent-set algorithm in :mod:`repro.maxis` applies directly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.exceptions import ReductionError
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph, iter_bits, popcount
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable
EdgeId = Hashable
Color = int


class ConflictVertex(NamedTuple):
    """A vertex ``(e, v, c)`` of the conflict graph.

    Attributes
    ----------
    edge:
        The hyperedge id ``e``.
    vertex:
        A vertex ``v ∈ e`` of the hypergraph.
    color:
        A palette color ``c ∈ {1, …, k}``.
    """

    edge: EdgeId
    vertex: Vertex
    color: Color


def conflict_vertices(hypergraph: Hypergraph, k: int) -> List[ConflictVertex]:
    """Enumerate ``V(G_k)`` in deterministic order."""
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    result: List[ConflictVertex] = []
    for e in hypergraph.edge_ids:
        for v in sorted(hypergraph.edge(e), key=repr):
            for c in range(1, k + 1):
                result.append(ConflictVertex(edge=e, vertex=v, color=c))
    return result


def classify_conflict_edge(a: ConflictVertex, b: ConflictVertex, hypergraph: Hypergraph) -> Set[str]:
    """Return the subset of ``{"vertex", "edge", "color"}`` relations that join ``a`` and ``b``.

    An empty set means the two triples are *not* adjacent in ``G_k``.  The
    three relations are not mutually exclusive (e.g. two triples of the same
    edge and the same color lie in both ``E_edge`` and ``E_color``); the
    conflict graph simply contains the union.
    """
    if a == b:
        return set()
    kinds: Set[str] = set()
    if a.vertex == b.vertex and a.color != b.color:
        kinds.add("vertex")
    if a.edge == b.edge:
        kinds.add("edge")
    if a.color == b.color and a.vertex != b.vertex:
        # The E_color relation is between triples of *distinct* hypergraph
        # vertices: the paper's proof of Lemma 2.1(a) derives its contradiction
        # from "u ∈ e and u ≠ v also has color c", and with u = v allowed the
        # lemma would be false (one vertex may legitimately witness happiness
        # of two different edges).  See DESIGN.md, "interpretation notes".
        ea = hypergraph.edge(a.edge)
        eb = hypergraph.edge(b.edge)
        pair = {a.vertex, b.vertex}
        if pair <= ea or pair <= eb:
            kinds.add("color")
    return kinds


def _build_structures(
    hypergraph: Hypergraph, k: int
) -> Tuple[List[ConflictVertex], List[int], Dict[EdgeId, Tuple[List[Vertex], int]]]:
    """Build ``G_k``'s adjacency rows from per-vertex color-1 masks.

    Returns ``(triples, rows, blocks)``: ``V(G_k)`` in the canonical order of
    :func:`conflict_vertices`, the neighbor *bitset* of each triple, and
    ``edge id -> (sorted members, base index)``.

    Triple ``(e, v, c)`` sits at index ``base_e + k·pos_e(v) + (c − 1)``, so
    every base is a multiple of ``k`` and the color-``c`` triples of any set
    are its color-1 triples shifted by ``c − 1``.  With ``M[v]`` the color-1
    triples of ``v``, ``A_e = ∪_{u∈e} M[u]``, ``B_v = ∪_{g∋v}`` (color-1
    triples of ``g``) and ``R = 2^k − 1``, four word operations per row give::

        row(e, v, c) = ((block_e | M[v]·R) ^ (M[v] << c−1))
                       | (((A_e | B_v) & ~M[v]) << c−1)

    It is exact: ``M[v]·R`` has no carries (its bits are ``k`` apart) and is
    every triple of ``v`` (``E_vertex``); ``block_e`` is the ``E_edge``
    clique; the XOR removes exactly the ``(·, v, c)`` triples, the triple
    itself included, which no relation joins to it; and the last term is
    ``E_color`` (``u ≠ v``), witnessed by ``e`` through ``A_e`` or by the
    other triple's edge ``g`` through ``B_v``.
    """
    triples: List[ConflictVertex] = []
    # edge id -> (sorted members, base index); insertion is edge_ids order.
    blocks: Dict[EdgeId, Tuple[List[Vertex], int]] = {}
    color_one: Dict[Vertex, int] = {}  # M[v]
    reach: Dict[Vertex, int] = {}  # B_v
    radix = (1 << k) - 1  # R
    colors = range(1, k + 1)
    # ConflictVertex(e, v, c) without the named tuple constructor's frame.
    make = tuple.__new__
    for e in hypergraph.edge_ids:
        members = sorted(hypergraph.edge(e), key=repr)
        base = len(triples)
        blocks[e] = (members, base)
        # The color-1 triples of e: bits base, base + k, base + 2k, ...
        ones = ((1 << (len(members) * k)) - 1) // radix << base
        for pos, v in enumerate(members):
            color_one[v] = color_one.get(v, 0) | (1 << (base + pos * k))
            reach[v] = reach.get(v, 0) | ones
        triples += [make(ConflictVertex, (e, v, c)) for v in members for c in colors]

    shifts = range(k)
    rows: List[int] = []
    for members, base in blocks.values():
        block = ((1 << (len(members) * k)) - 1) << base
        around = 0  # A_e
        for v in members:
            around |= color_one[v]
        for v in members:
            mine = color_one[v]
            keep = block | mine * radix
            # M[v] ⊆ A_e, so the XOR is the set difference (A_e | B_v) & ~M[v].
            witness = (around | reach[v]) ^ mine
            rows += [(keep ^ (mine << s)) | (witness << s) for s in shifts]
    return triples, rows, blocks


def _edge_vertex_pairs(hypergraph: Hypergraph, k: int) -> Iterator[Tuple[ConflictVertex, ConflictVertex]]:
    """Yield each adjacent pair of conflict vertices exactly once (internal).

    This is the original quadratic-overhead enumeration (pairwise
    ``frozenset`` dedup, ``repr``-sorted inner loops).  It is retained as
    the *reference* builder: the property tests check the mask builder
    :func:`_build_structures` against it, and the perf harness times it to
    report the speedup trajectory.
    """
    # E_vertex: same hypergraph vertex, different colors (edges may coincide or differ).
    triples_by_vertex: Dict[Vertex, List[ConflictVertex]] = {}
    # E_edge / E_color bookkeeping below reuses the full triple list per edge.
    triples_by_edge: Dict[EdgeId, List[ConflictVertex]] = {}
    all_triples = conflict_vertices(hypergraph, k)
    for t in all_triples:
        triples_by_vertex.setdefault(t.vertex, []).append(t)
        triples_by_edge.setdefault(t.edge, []).append(t)

    emitted: Set[frozenset] = set()

    def emit(a: ConflictVertex, b: ConflictVertex):
        key = frozenset((a, b))
        if key not in emitted:
            emitted.add(key)
            return (a, b)
        return None

    # E_vertex
    for triples in triples_by_vertex.values():
        for i, a in enumerate(triples):
            for b in triples[i + 1:]:
                if a.color != b.color:
                    pair = emit(a, b)
                    if pair:
                        yield pair

    # E_edge
    for triples in triples_by_edge.values():
        for i, a in enumerate(triples):
            for b in triples[i + 1:]:
                pair = emit(a, b)
                if pair:
                    yield pair

    # E_color: same color c, distinct vertices u ≠ v, and {u, v} contained
    # in one of the *two edges named by the triples*.  Iterate over each
    # triple a = (e, v, c); for every other vertex u of the same hyperedge e
    # and every hyperedge g containing u, the triple b = (g, u, c) is an
    # E_color neighbor of a (this covers the "{u, v} ⊆ e" branch; the
    # "{u, v} ⊆ g" branch is produced when the roles of a and b are swapped).
    for a in all_triples:
        members = hypergraph.edge(a.edge)
        for u in sorted(members, key=repr):
            if u == a.vertex:
                # Same-vertex pairs are excluded from E_color; see
                # classify_conflict_edge for the rationale.
                continue
            for g in sorted(hypergraph.edges_containing(u), key=repr):
                b = ConflictVertex(edge=g, vertex=u, color=a.color)
                pair = emit(a, b)
                if pair:
                    yield pair


def legacy_build_graph(hypergraph: Hypergraph, k: int) -> Graph:
    """Build ``G_k`` with the original pairwise-emit algorithm (reference).

    Kept verbatim from the seed implementation so that (a) the property
    tests have an independent oracle for the mask builder and (b) the
    perf harness can measure the before/after speedup on identical
    workloads.
    """
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    graph = Graph(vertices=conflict_vertices(hypergraph, k))
    for a, b in _edge_vertex_pairs(hypergraph, k):
        if not graph.has_edge(a, b):
            graph.add_edge(a, b)
    return graph


class ConflictGraph:
    """The conflict graph ``G_k`` of conflict-free ``k``-coloring a hypergraph.

    The instance is built once and can then be *maintained* across the
    phases of the reduction: :meth:`remove_hyperedges` deletes the triples
    of happy hyperedges (and every conflict edge incident to them) in time
    proportional to the deleted part, because removing hyperedges never
    creates new conflicts between surviving triples — ``G^{i+1}_k`` is
    exactly the induced subgraph of ``G^i_k`` on the surviving triples.
    Internally the adjacency lives in one immutable
    :class:`~repro.graphs.indexed.IndexedGraph` snapshot plus an alive
    bitmask; :meth:`frozen` and :meth:`frozen_sorted` serve alive-mask
    subgraph views of it, and the mutable :attr:`graph` is materialized
    lazily from the current view.

    Parameters
    ----------
    hypergraph:
        The instance ``H``.  Callers that use :meth:`remove_hyperedges`
        are expected to mirror the removals on ``hypergraph`` (the
        reduction's phase loop removes from both); the conflict graph
        itself never mutates it.
    k:
        The palette size.

    Attributes
    ----------
    graph:
        The underlying :class:`repro.graphs.Graph` whose vertices are
        :class:`ConflictVertex` triples (lazily materialized; insertion
        order is the canonical triple order restricted to the surviving
        edges).
    """

    def __init__(self, hypergraph: Hypergraph, k: int) -> None:
        if k <= 0:
            raise ReductionError(f"palette size k must be positive, got {k}")
        self.hypergraph = hypergraph
        self.k = k
        triples, rows, blocks = _build_structures(hypergraph, k)
        self._triples = triples
        self._blocks = blocks
        self._canonical = IndexedGraph._from_bitsets(triples, rows)
        self._alive = (1 << len(triples)) - 1
        # |E(G_k)| over the surviving triples, maintained under
        # remove_hyperedges in O(deleted part) — num_edges() must not pay a
        # full popcount sweep per phase of the reduction.
        self._alive_edge_count = self._canonical.num_edges()
        self._graph: Optional[Graph] = None
        self._frozen_view: Optional["IndexedGraph"] = self._canonical
        # repr-sorted snapshot for the MIS oracles (built on first use).
        self._sorted_full: Optional["IndexedGraph"] = None
        self._sorted_alive = 0
        # canonical id -> sorted id; only built when the orders differ.
        self._canon_to_sorted: List[int] = []
        self._sorted_view: Optional["IndexedGraph"] = None

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def remove_hyperedges(self, edge_ids: Iterable[EdgeId]) -> None:
        """Delete every triple of the given hyperedges from the conflict graph.

        All conflict edges incident to a deleted triple disappear with it:
        the alive masks of the frozen snapshots and the edge counter are
        updated in time proportional to the deleted part.  This realizes
        the phase step ``G^{i+1}_k = G^i_k[surviving triples]``: hyperedge
        removal never makes two surviving triples adjacent, so the
        maintained graph equals a from-scratch rebuild on the surviving
        hypergraph.

        The caller is responsible for removing the same edges from
        :attr:`hypergraph` (before or after this call).

        Raises
        ------
        ReductionError
            If some edge id is unknown (or already removed); no state is
            modified in that case.
        """
        ids = list(dict.fromkeys(edge_ids))  # dedupe, preserving order
        unknown = [e for e in ids if e not in self._blocks]
        if unknown:
            raise ReductionError(
                f"edges not in conflict graph: {sorted(unknown, key=repr)!r}"
            )
        if not ids:
            return
        k = self.k
        dead_mask = 0
        dead_ids: List[int] = []
        for e in ids:
            members, base = self._blocks.pop(e)
            size = len(members) * k
            dead_mask |= ((1 << size) - 1) << base
            dead_ids.extend(range(base, base + size))
        # Conflict edges incident to the deleted triples: each dead triple
        # counts its alive neighbors; edges with both endpoints dead are
        # counted once per endpoint, so subtract half the within-dead sum.
        bitsets = self._canonical.bitsets()
        alive_old = self._alive
        incident = 0
        within = 0
        for i in dead_ids:
            row = bitsets[i]
            incident += popcount(row & alive_old)
            within += popcount(row & dead_mask)
        self._alive_edge_count -= incident - within // 2
        self._alive &= ~dead_mask
        self._frozen_view = None
        self._graph = None
        if self._sorted_full is not None:
            if self._sorted_full is self._canonical:
                self._sorted_alive = self._alive
            else:
                sorted_dead = 0
                perm = self._canon_to_sorted
                for i in dead_ids:
                    sorted_dead |= 1 << perm[i]
                self._sorted_alive &= ~sorted_dead
            self._sorted_view = None

    def _current_frozen(self) -> "IndexedGraph":
        """The canonical-order frozen graph restricted to the alive triples."""
        if self._frozen_view is None:
            self._frozen_view = self._canonical.subgraph_view(self._alive)
        return self._frozen_view

    @property
    def graph(self) -> Graph:
        """The mutable :class:`Graph` over the surviving triples (lazy)."""
        if self._graph is None:
            self._graph = self._current_frozen().to_graph()
        return self._graph

    def frozen(self) -> "IndexedGraph":
        """Return (and cache) the conflict graph as an :class:`IndexedGraph`.

        The interning table is the canonical triple order of
        :func:`conflict_vertices`; after :meth:`remove_hyperedges` the
        result is an alive-mask subgraph view of the original snapshot
        (same table, dead ids masked out), so the frozen form stays valid
        across deletions without re-interning.

        The cache assumes the conflict graph is only mutated through
        :meth:`remove_hyperedges` (as the whole pipeline does): mutating
        ``self.graph`` directly would leave the cached snapshot stale —
        call ``self.graph.freeze()`` instead if you do.
        """
        return self._current_frozen()

    def frozen_sorted(self) -> "IndexedGraph":
        """Return the surviving conflict graph frozen in ``repr`` order.

        This is the interning order the MIS oracles use
        (:func:`~repro.graphs.indexed.freeze_sorted`), so handing this
        view to an approximator reproduces, bit for bit, what the
        approximator would compute on a freshly rebuilt conflict graph of
        the surviving hypergraph.  The full snapshot is derived from the
        canonical one exactly once per :class:`ConflictGraph`; subsequent
        calls only re-mask.
        """
        if self._sorted_full is None:
            triples = self._triples
            n = len(triples)
            # The sort keys are exactly repr(triple); the f-string mirrors
            # NamedTuple.__repr__ to skip its per-call overhead (guarded by
            # a unit test), and an is-sorted scan avoids the argsort in the
            # common case where the canonical order already repr-sorts.
            keys = [
                f"ConflictVertex(edge={t[0]!r}, vertex={t[1]!r}, color={t[2]!r})"
                for t in triples
            ]
            if all(keys[i] <= keys[i + 1] for i in range(n - 1)):
                # The canonical order already is the repr order (true for
                # every instance whose labels repr-sort component-wise,
                # e.g. integer ids) — reuse the snapshot, skip the remap.
                self._sorted_full = self._canonical
                self._sorted_alive = self._alive
            else:
                order = sorted(range(n), key=keys.__getitem__)
                self._sorted_full = self._canonical._permuted(order)
                perm = [0] * n
                for p, old in enumerate(order):
                    perm[old] = p
                self._canon_to_sorted = perm
                alive = 0
                if self._alive == (1 << n) - 1:
                    alive = self._alive
                else:
                    for i in iter_bits(self._alive):
                        alive |= 1 << perm[i]
                self._sorted_alive = alive
        if self._sorted_view is None:
            self._sorted_view = self._sorted_full.subgraph_view(self._sorted_alive)
        return self._sorted_view

    def verification_graph(self):
        """The cheapest already-materialized form for independence checks.

        Returns the mutable :attr:`graph` when it has been materialized
        (so pre-existing callers keep their exact behavior) and the
        canonical frozen view otherwise — the reduction's phase engine
        never needs the mutable graph at all.  Either form is accepted by
        :func:`~repro.graphs.independent_sets.verify_independent_set`.
        """
        if self._graph is not None:
            return self._graph
        return self._current_frozen()

    def bucket_structure(self) -> Dict[str, Dict]:
        """The relation groupings of the surviving triples, derived from ``_blocks``.

        ``vertex_color`` (the ``(v, c)`` classes of ``E_vertex`` and
        ``E_color``), ``by_vertex`` (the groups of ``E_vertex``) and
        ``edge_blocks`` (the cliques of ``E_edge``), each in ascending
        triple index, so tests can compare a maintained instance with a
        from-scratch rebuild.
        """
        k = self.k
        structure: Dict[str, Dict] = {"vertex_color": {}, "by_vertex": {}, "edge_blocks": {}}
        for e, (members, base) in self._blocks.items():
            block = self._triples[base:base + len(members) * k]
            structure["edge_blocks"][e] = block
            for t in block:
                structure["vertex_color"].setdefault((t.vertex, t.color), []).append(t)
                structure["by_vertex"].setdefault(t.vertex, []).append(t)
        return structure

    # ------------------------------------------------------------------
    # size accounting (benchmark E5)
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        """Return ``|V(G_k)| = k · Σ_e |e|`` (over the surviving edges)."""
        return popcount(self._alive)

    def num_edges(self) -> int:
        """Return ``|E(G_k)|`` (over the surviving edges; O(1), counter-maintained)."""
        return self._alive_edge_count

    def expected_num_vertices(self) -> int:
        """The closed-form vertex count ``k · Σ_e |e|`` (cross-check for tests)."""
        return self.k * self.hypergraph.total_edge_size()

    # ------------------------------------------------------------------
    # structure helpers used by the correspondence and by tests
    # ------------------------------------------------------------------
    def triples_of_edge(self, edge_id: EdgeId) -> List[ConflictVertex]:
        """Return all triples ``(edge_id, ·, ·)``."""
        return [
            ConflictVertex(edge_id, v, c)
            for v in sorted(self.hypergraph.edge(edge_id), key=repr)
            for c in range(1, self.k + 1)
        ]

    def triples_of_vertex(self, vertex: Vertex) -> List[ConflictVertex]:
        """Return all triples ``(·, vertex, ·)``."""
        return [
            ConflictVertex(e, vertex, c)
            for e in sorted(self.hypergraph.edges_containing(vertex), key=repr)
            for c in range(1, self.k + 1)
        ]

    def edge_kinds(self, a: ConflictVertex, b: ConflictVertex) -> Set[str]:
        """Classify the relation(s) connecting two triples (empty if non-adjacent)."""
        return classify_conflict_edge(a, b, self.hypergraph)

    def host_assignment(self) -> Dict[ConflictVertex, Vertex]:
        """Return the natural host map used for local simulation: ``(e, v, c) ↦ v``."""
        return {t: t.vertex for t in self.graph.vertices}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConflictGraph(k={self.k}, |V|={self.num_vertices()}, "
            f"|E|={self.num_edges()})"
        )


def build_conflict_graph(hypergraph: Hypergraph, k: int) -> ConflictGraph:
    """Convenience constructor mirroring the paper's ``G_k`` notation."""
    return ConflictGraph(hypergraph, k)
