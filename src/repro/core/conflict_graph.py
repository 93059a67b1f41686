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

Representation
--------------
A triple is a :class:`ConflictVertex` named tuple, but no build stores
one.  A :class:`ConflictGraphBuild` keeps two *pair arrays* over the
``(e, v)`` pairs, ``pair_edge`` and ``pair_vertex``, the colors ``1..k``
in ``repr`` order, and one bitset row per triple in an immutable
:class:`~repro.graphs.indexed.IndexedGraph`.  The block of each edge
starts at a multiple of ``k`` and every block uses the same color slots,
so triple id ``i`` is::

    (pair_edge[i // k], pair_vertex[i // k], colors[i % k])

and ascending id is ``repr`` order (below).  The labels are built from
the pair arrays on first use — ``frozen().labels()``,
:attr:`ConflictGraph.graph`, :meth:`ConflictGraph.bucket_structure` —
while the reduction's phase engine works on ids from the build to the
phase coloring and builds none.  Every independent-set algorithm in
:mod:`repro.maxis` applies to the frozen form, or to the mutable
:class:`repro.graphs.Graph` materialized from it.

Build and run
-------------
``G_k`` depends only on ``(H, k)``.  A :class:`ConflictGraphBuild` is
that immutable part; a :class:`ConflictGraph` is one run's phase state
over it (its own block dict, alive mask and edge counter), so several
runs on one instance — one per oracle or λ of a campaign — can start
from one build without building ``G_k`` again.

Edge counts
-----------
Permuting the ``k`` color slots maps ``G_k`` onto itself and fixes every
mask that is a union of whole edge blocks.  Against such a mask the ``k``
rows of one pair have equal popcounts, so edges are counted once per
pair: ``|E(G_k)| = k · Σ popcount(slot-0 row) / 2`` at build time, and
:meth:`ConflictGraph.remove_hyperedges`, whose alive and dead masks are
always unions of whole blocks, takes one row per dead pair.

Triple order
------------
Every ``G_k`` is laid out in ``repr`` order, the interning order of the
MIS oracles (:func:`~repro.graphs.indexed.freeze_sorted`): edges by
``repr``, then the members of each edge by ``repr``, then the colors by
``repr`` (``1, 10, 11, 2, …`` once ``k ≥ 10``).  That nested order is
the sort by the whole triple ``repr``
``ConflictVertex(edge=R(e), vertex=R(v), color=R(c))`` unless two sorted
edge-id (or vertex) reprs ``a < b`` have ``b == a``, or ``b`` starting
with ``a`` followed by a character ``≤ ','``: the character after
``R(e)`` and ``R(v)`` is always ``','``, so only such pairs can order
differently.  Ints, strs, bytes, non-NaN floats, and tuples and
frozensets of these never form one; :class:`ConflictGraph` refuses ids
(typically a custom ``__repr__``) that do.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.coloring.conflict_free import happy_from_incidence
from repro.exceptions import ReductionError
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph, popcount
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
    """Enumerate ``V(G_k)`` in ``repr`` order (module docstring, "Triple order")."""
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    colors = sorted(range(1, k + 1), key=repr)
    result: List[ConflictVertex] = []
    for e in hypergraph.edge_ids:
        for v in sorted(hypergraph.edge(e), key=repr):
            for c in colors:
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


def _refuse_ambiguous_reprs(reprs: List[str], what: str) -> None:
    """Raise :class:`ReductionError` if two of the sorted ``reprs`` break the triple order.

    Adjacent ``a < b`` break it when ``b == a`` or ``b`` extends ``a`` by a
    character ``≤ ','`` (module docstring, "Triple order").  Adjacent pairs
    suffice: whatever sorts between ``a`` and such a ``b`` extends ``a`` the
    same way.
    """
    for a, b in zip(reprs, reprs[1:]):
        if b.startswith(a) and b[len(a):len(a) + 1] <= ",":
            raise ReductionError(
                f"{what} {a} and {b} would break the repr order of G_k's triples "
                "(equal reprs, or one extends the other by a character <= ',')"
            )


class ConflictGraphBuild(NamedTuple):
    """The immutable part of ``G_k``: what every run on one ``(hypergraph, k)`` shares.

    Only :class:`ConflictGraph`'s constructor makes one (the full build);
    ``ConflictGraph(hypergraph, k, build)`` starts another run from it in
    O(m).  Nothing a run does writes to it: the block mapping is read-only
    and each run takes its own copy, and the snapshot's rows are never
    written (its label table is built once, on first use, for every run).
    """

    #: The instance the build was made from: a run may start from the
    #: build only on this very object.
    hypergraph: Hypergraph
    #: The palette size.
    k: int
    #: The member ``v`` of each ``(e, v)`` pair, in id order.
    pair_vertex: List[Vertex]
    #: The colors ``1..k`` in ``repr`` order.
    colors: List[Color]
    #: The adjacency rows of every triple, labels built on first use.
    snapshot: IndexedGraph
    #: ``edge id -> (sorted members, base index)`` of every edge of ``H``,
    #: in ``repr`` order: the blocks each run starts from.
    blocks: Mapping[EdgeId, Tuple[List[Vertex], int]]
    #: ``|E(G_k)|``.
    num_edges: int


def _build_structures(hypergraph: Hypergraph, k: int) -> ConflictGraphBuild:
    """Build ``G_k``'s adjacency rows from per-vertex color-1 masks.

    Returns the :class:`ConflictGraphBuild`: the ``(e, v)`` pairs in the
    ``repr`` order of :func:`conflict_vertices`, the colors ``1..k`` in
    ``repr`` order, the neighbor *bitset* of each triple,
    ``edge id -> (sorted members, base index)`` and ``|E(G_k)|``.
    Triple id ``i`` is ``(pair_edge[i // k], pair_vertex[i // k],
    colors[i % k])``; no triple is built.  Edge ids and member vertices
    whose reprs would make that nested order differ from the sort by
    triple ``repr`` are refused with :class:`ReductionError`; each ``repr``
    is taken once, and members sort by a rank map.

    Triple ``(e, v, c)`` sits at index ``base_e + k·pos_e(v) + s``, with
    ``s`` the slot of ``c`` in ``colors`` (``c − 1`` while ``k ≤ 9``; slot 0
    is always color 1).  Every block uses the same slots, so every base is
    a multiple of ``k`` and the color-``c`` triples of any set are its
    color-1 triples shifted by ``s``.  With ``M[v]`` the color-1 triples of
    ``v``, ``A_e = ∪_{u∈e} M[u]``, ``B_v = ∪_{g∋v}`` (color-1 triples of
    ``g``) and ``R = 2^k − 1``, four word operations per row give::

        row(e, v, c) = ((block_e | M[v]·R) ^ (M[v] << s))
                       | (((A_e | B_v) & ~M[v]) << s)

    It is exact: ``M[v]·R`` has no carries (its bits are ``k`` apart) and is
    every triple of ``v`` (``E_vertex``); ``block_e`` is the ``E_edge``
    clique; the XOR removes exactly the ``(·, v, c)`` triples, the triple
    itself included, which no relation joins to it; and the last term is
    ``E_color`` (``u ≠ v``), witnessed by ``e`` through ``A_e`` or by the
    other triple's edge ``g`` through ``B_v``.

    The edge count takes one popcount per pair (module docstring, "Edge
    counts").
    """
    edge_ids = hypergraph.edge_ids
    _refuse_ambiguous_reprs([repr(e) for e in edge_ids], "edge ids")
    reprs = {v: repr(v) for v in set().union(*map(hypergraph.edge, edge_ids))}
    order = sorted(reprs, key=reprs.__getitem__)
    _refuse_ambiguous_reprs([reprs[v] for v in order], "vertices")
    rank = {v: i for i, v in enumerate(order)}

    pair_edge: List[EdgeId] = []
    pair_vertex: List[Vertex] = []
    # edge id -> (sorted members, base index); insertion is edge_ids order.
    blocks: Dict[EdgeId, Tuple[List[Vertex], int]] = {}
    color_one: Dict[Vertex, int] = {}  # M[v]
    reach: Dict[Vertex, int] = {}  # B_v
    radix = (1 << k) - 1  # R
    for e in edge_ids:
        members = sorted(hypergraph.edge(e), key=rank.__getitem__)
        base = len(pair_vertex) * k
        blocks[e] = (members, base)
        # The color-1 triples of e: bits base, base + k, base + 2k, ...
        ones = ((1 << (len(members) * k)) - 1) // radix << base
        for pos, v in enumerate(members):
            color_one[v] = color_one.get(v, 0) | (1 << (base + pos * k))
            reach[v] = reach.get(v, 0) | ones
        pair_edge += [e] * len(members)
        pair_vertex += members

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
    num_edges = k * sum(map(popcount, rows[::k])) // 2
    colors = sorted(range(1, k + 1), key=repr)
    snapshot = IndexedGraph._from_bitsets(
        rows, partial(_triple_labels, pair_edge, pair_vertex, colors)
    )
    return ConflictGraphBuild(
        hypergraph, k, pair_vertex, colors, snapshot, MappingProxyType(blocks), num_edges
    )


def _triple_labels(
    pair_edge: List[EdgeId], pair_vertex: List[Vertex], colors: List[Color]
) -> List[ConflictVertex]:
    """``V(G_k)`` in id order from the pair arrays: the label factory of the snapshot.

    A module-level function bound with :func:`functools.partial`, so the
    snapshot holds no reference back to its build and is freed by
    reference counting.
    """
    # ConflictVertex(e, v, c) without the named tuple constructor's frame.
    make = tuple.__new__
    return [
        make(ConflictVertex, (e, v, c)) for e, v in zip(pair_edge, pair_vertex) for c in colors
    ]


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

    One run's view of ``G_k``, *maintained* across the phases of the
    reduction: :meth:`remove_hyperedges` deletes the triples of happy
    hyperedges (and every conflict edge incident to them) in time
    proportional to the deleted part, because removing hyperedges never
    creates new conflicts between surviving triples — ``G^{i+1}_k`` is
    exactly the induced subgraph of ``G^i_k`` on the surviving triples.
    It is the reduction engine's only phase state: the surviving edge
    blocks are ``E_i``, which every size and happiness helper reads.

    The graph itself is the immutable :attr:`build` (module docstring,
    "Build and run"): the adjacency of every triple in one
    :class:`~repro.graphs.indexed.IndexedGraph` snapshot, laid out in
    ``repr`` order (module docstring, "Triple order"), the pair arrays and
    the initial blocks.  The run owns a copy of the block dict, an alive
    bitmask and the edge counter; :meth:`frozen` serves alive-mask
    subgraph views of the snapshot, and the mutable :attr:`graph` is
    materialized lazily from the current view.  Nothing a run does writes
    to the build, so another run can start from it.

    No triple is stored: id ``i`` is the triple ``(pair_edge[i // k],
    pair_vertex[i // k], colors[i % k])`` (module docstring,
    "Representation").  The snapshot builds its :class:`ConflictVertex`
    label table from the pair arrays on first use, and :attr:`graph`,
    :meth:`bucket_structure` and :meth:`host_assignment` read that table.
    The edge counter is maintained once per ``(e, v)`` pair (module
    docstring, "Edge counts"), which requires the alive mask to stay a
    union of whole edge blocks: mutate only through
    :meth:`remove_hyperedges`.

    Parameters
    ----------
    hypergraph:
        The instance ``H``, kept as :attr:`hypergraph` and never mutated:
        the helpers read its member sets and incidences restricted to the
        surviving blocks.
    k:
        The palette size.
    build:
        A :class:`ConflictGraphBuild` of this same ``hypergraph`` object
        at this same ``k``, as an earlier run left it in :attr:`build`: the
        run starts from it in O(m) instead of building ``G_k``.  ``None``
        (the default) builds it.

    Raises
    ------
    ReductionError
        If ``k`` is not positive, if ``build`` was made from another
        hypergraph object or at another ``k``, or if edge ids or vertices
        have reprs that would break the triple order.

    Attributes
    ----------
    build:
        The :class:`ConflictGraphBuild` this run started from.
    graph:
        The underlying :class:`repro.graphs.Graph` whose vertices are
        :class:`ConflictVertex` triples (lazily materialized; insertion
        order is the ``repr`` order restricted to the surviving edges).
    """

    def __init__(
        self, hypergraph: Hypergraph, k: int, build: Optional[ConflictGraphBuild] = None
    ) -> None:
        if k <= 0:
            raise ReductionError(f"palette size k must be positive, got {k}")
        if build is None:
            build = _build_structures(hypergraph, k)
        elif build.hypergraph is not hypergraph or build.k != k:
            raise ReductionError(
                f"a conflict-graph build of another hypergraph or palette (k={build.k}) "
                f"cannot start a run on this hypergraph at k={k}"
            )
        self.build = build
        self.hypergraph = hypergraph
        self.k = k
        self._blocks = build.blocks.copy()
        self._alive = build.snapshot.alive_mask()
        # |E(G_k)| over the surviving triples, maintained under
        # remove_hyperedges in O(deleted part) — num_edges() must not pay a
        # full popcount sweep per phase of the reduction.
        self._alive_edge_count = build.num_edges
        self._graph: Optional[Graph] = None
        self._frozen_view: Optional["IndexedGraph"] = build.snapshot

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def remove_hyperedges(self, edge_ids: Iterable[EdgeId]) -> None:
        """Delete every triple of the given hyperedges from the conflict graph.

        All conflict edges incident to a deleted triple disappear with it:
        the alive mask of the frozen snapshot and the edge counter are
        updated in time proportional to the deleted part.  This realizes
        the phase step ``G^{i+1}_k = G^i_k[surviving triples]``: hyperedge
        removal never makes two surviving triples adjacent, so the
        maintained graph equals a from-scratch rebuild on the surviving
        hypergraph.  :attr:`hypergraph` is left as it is: the removed edges
        leave the blocks, which is where every helper reads ``E_i`` from.

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
        dead_pairs: List[int] = []  # the slot-0 id of each dead (e, v)
        for e in ids:
            members, base = self._blocks.pop(e)
            size = len(members) * k
            dead_mask |= ((1 << size) - 1) << base
            dead_pairs.extend(range(base, base + size, k))
        # Conflict edges incident to the deleted triples: each dead triple
        # counts its alive neighbors; edges with both endpoints dead are
        # counted once per endpoint, so subtract half the within-dead sum.
        # Both masks are unions of whole blocks, which permuting the color
        # slots fixes, so the k triples of a pair count alike: count slot 0
        # and multiply by k.
        bitsets = self.build.snapshot._bitsets
        alive_old = self._alive
        incident = 0
        within = 0
        for i in dead_pairs:
            row = bitsets[i]
            incident += popcount(row & alive_old)
            within += popcount(row & dead_mask)
        self._alive_edge_count -= k * incident - k * within // 2
        self._alive &= ~dead_mask
        self._frozen_view = None
        self._graph = None

    @property
    def graph(self) -> Graph:
        """The mutable :class:`Graph` over the surviving triples (lazy)."""
        if self._graph is None:
            self._graph = self.frozen().to_graph()
        return self._graph

    def frozen(self) -> "IndexedGraph":
        """Return (and cache) the conflict graph as an :class:`IndexedGraph`.

        The interning table is the ``repr`` order of
        :func:`conflict_vertices`; after :meth:`remove_hyperedges` the
        result is an alive-mask subgraph view of the original snapshot
        (same table, dead ids masked out), so the frozen form stays valid
        across deletions without re-interning.

        The cache assumes the conflict graph is only mutated through
        :meth:`remove_hyperedges` (as the whole pipeline does): mutating
        ``self.graph`` directly would leave the cached snapshot stale —
        call ``self.graph.freeze()`` instead if you do.
        """
        if self._frozen_view is None:
            self._frozen_view = self.build.snapshot.subgraph_view(self._alive)
        return self._frozen_view

    def frozen_sorted(self) -> "IndexedGraph":
        """Return the surviving conflict graph frozen in ``repr`` order.

        This is the interning order the MIS oracles use
        (:func:`~repro.graphs.indexed.freeze_sorted`), so handing this
        view to an approximator reproduces, bit for bit, what the
        approximator would compute on a freshly rebuilt conflict graph of
        the surviving hypergraph.  The builder already lays the triples out
        in that order, so this is :meth:`frozen`; the phase engine calls it
        by this name to state the order it relies on.
        """
        return self.frozen()

    def bucket_structure(self) -> Dict[str, Dict]:
        """The relation groupings of the surviving triples, derived from ``_blocks``.

        ``vertex_color`` (the ``(v, c)`` classes of ``E_vertex`` and
        ``E_color``), ``by_vertex`` (the groups of ``E_vertex``) and
        ``edge_blocks`` (the cliques of ``E_edge``), each in ascending
        triple index, so tests can compare a maintained instance with a
        from-scratch rebuild.
        """
        k = self.k
        triples = self.build.snapshot.labels()
        structure: Dict[str, Dict] = {"vertex_color": {}, "by_vertex": {}, "edge_blocks": {}}
        for e, (members, base) in self._blocks.items():
            block = list(triples[base:base + len(members) * k])
            structure["edge_blocks"][e] = block
            for t in block:
                structure["vertex_color"].setdefault((t.vertex, t.color), []).append(t)
                structure["by_vertex"].setdefault(t.vertex, []).append(t)
        return structure

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        """Return ``|V(G_k)| = k · Σ_e |e|`` (over the surviving edges)."""
        return popcount(self._alive)

    def num_edges(self) -> int:
        """Return ``|E(G_k)|`` (over the surviving edges; O(1), counter-maintained)."""
        return self._alive_edge_count

    def expected_num_vertices(self) -> int:
        """The closed-form vertex count ``k · Σ_e |e|`` over the surviving blocks (tests)."""
        return self.k * sum(len(members) for members, _base in self._blocks.values())

    def num_hyperedges(self) -> int:
        """Return ``|E_i|``, the number of surviving hyperedges (O(1))."""
        return len(self._blocks)

    def hyperedge_ids(self) -> List[EdgeId]:
        """The surviving hyperedges in ``repr`` order (the order of their blocks)."""
        return list(self._blocks)

    # ------------------------------------------------------------------
    # structure helpers used by the correspondence and by tests
    # ------------------------------------------------------------------
    def happy_edges(self, coloring: Dict[Vertex, Hashable]) -> Set[EdgeId]:
        """The surviving hyperedges that ``coloring`` (over vertices of ``H``) makes happy.

        :func:`~repro.coloring.conflict_free.happy_from_incidence` over the
        incidence of :attr:`hypergraph`, filtered to the surviving blocks
        (an edge's census reads only its own members, so a dead edge never
        changes a surviving one): ``O(Σ_{v colored} deg_H(v))``, equal to
        the full scan on ``H_i``.
        """
        happy = happy_from_incidence(coloring, self.hypergraph.edges_containing)
        return self._blocks.keys() & happy

    def triples_of_edge(self, edge_id: EdgeId) -> List[ConflictVertex]:
        """Return the triples ``(edge_id, ·, ·)`` of a surviving hyperedge, in id order.

        Raises
        ------
        ReductionError
            If ``edge_id`` is not a surviving hyperedge.
        """
        if edge_id not in self._blocks:
            raise ReductionError(f"edge not in conflict graph: {edge_id!r}")
        members, base = self._blocks[edge_id]
        return list(self.build.snapshot.labels()[base:base + len(members) * self.k])

    def triples_of_vertex(self, vertex: Vertex) -> List[ConflictVertex]:
        """Return the triples ``(·, vertex, ·)`` of the surviving hyperedges, in id order."""
        k = self.k
        starts = []
        for e in self.hypergraph.edges_containing(vertex):
            if e in self._blocks:
                members, base = self._blocks[e]
                starts.append(base + k * members.index(vertex))
        labels = self.build.snapshot.labels()
        return [t for start in sorted(starts) for t in labels[start:start + k]]

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
