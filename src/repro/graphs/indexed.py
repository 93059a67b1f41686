"""Immutable indexed graph: interned vertices, CSR adjacency, bitset rows.

:class:`IndexedGraph` is the performance substrate of the library.  It
interns arbitrary hashable vertex labels to dense integer ids and stores
the adjacency structure twice:

* as CSR-style arrays (``indptr`` / ``indices``) for cache-friendly
  neighbor iteration, and
* as one Python arbitrary-precision integer per vertex (bit ``j`` of row
  ``i`` is set iff ``{i, j}`` is an edge) so that set algebra on whole
  neighborhoods — the inner loop of every independent-set algorithm —
  becomes single ``&``/``|`` machine-word-parallel operations.

Interning / determinism contract
--------------------------------
The interning table is fixed at construction time and never changes: id
``i`` maps to ``labels()[i]`` forever.  When built via :meth:`from_graph`
(or :meth:`Graph.freeze`) the default order is the *insertion order* of the
mutable :class:`~repro.graphs.graph.Graph`, so any deterministically
constructed graph freezes to a deterministic ``IndexedGraph``; callers that
need a canonical order independent of construction history pass an explicit
``order`` (the MIS ports use ``sorted(vertices, key=repr)`` to reproduce
the tie-breaking of the reference implementations bit-for-bit).  CSR rows
are sorted ascending by id, so neighbor iteration order, bitset contents
and :meth:`to_graph` round-trips are all functions of the interning table
alone.

The structure is immutable by design: algorithms that need to "remove"
vertices track an ``alive`` bitmask instead of mutating the graph, which is
both faster and side-effect free.

Alive-mask subgraph views
-------------------------
:meth:`IndexedGraph.subgraph_view` lifts that idiom to whole-pipeline
scope: it returns an :class:`IndexedSubgraph` — an induced-subgraph view
that shares the parent's interning table, CSR arrays and bitset rows and
only carries an ``alive`` bitmask.  Construction is O(1) (no re-interning,
no row copying); all size/degree/adjacency queries answer for the induced
subgraph.  Views keep the *parent's* integer ids (the id space stays
sparse), which is exactly what the bitset kernels below want: the kernels
accept views directly and restrict themselves to the alive ids, so a phase
of the paper's reduction can shrink the conflict graph without rebuilding
anything.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError

Vertex = Hashable

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(x: int) -> int:
        return bin(x).count("1")


def popcount(x: int) -> int:
    """Return the number of set bits of ``x``."""
    return _popcount(x)


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IndexedGraph:
    """An immutable graph over interned integer ids (see module docstring)."""

    __slots__ = ("_labels", "_index", "_indptr", "_indices", "_bitsets", "_num_edges")

    def __init__(self, labels: Sequence[Vertex], rows: Sequence[Iterable[int]]) -> None:
        """Build from interned ``labels`` and per-vertex neighbor-id ``rows``.

        ``rows[i]`` lists the neighbor ids of vertex ``i``; rows must be
        symmetric and loop-free.  Loops, out-of-range ids and degree-sum
        parity are checked; full symmetry is the caller's contract (every
        in-library constructor builds symmetric rows).
        """
        if len(labels) != len(rows):
            raise GraphError(
                f"labels/rows length mismatch ({len(labels)} != {len(rows)})"
            )
        self._labels: Tuple[Vertex, ...] = tuple(labels)
        self._index: Dict[Vertex, int] = {v: i for i, v in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise GraphError("duplicate vertex labels")
        indptr = array("l", [0])
        indices = array("l")
        bitsets: List[int] = []
        total = 0
        n = len(self._labels)
        for i, row in enumerate(rows):
            ids = sorted(set(row))
            if ids and (ids[0] < 0 or ids[-1] >= n):
                raise GraphError(f"neighbor id out of range in row {i}")
            bits = 0
            for j in ids:
                if j == i:
                    raise GraphError(f"self-loop on id {i}")
                bits |= 1 << j
            indices.extend(ids)
            bitsets.append(bits)
            total += len(ids)
            indptr.append(len(indices))
        if total % 2:
            raise GraphError("adjacency rows are not symmetric (odd degree sum)")
        self._indptr = indptr
        self._indices = indices
        self._bitsets = bitsets
        self._num_edges = total // 2

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_bitsets(
        cls,
        labels: Sequence[Vertex],
        bitsets: List[int],
        num_edges: Optional[int] = None,
    ) -> "IndexedGraph":
        """Adopt prebuilt bitset rows without re-validating them (internal).

        The caller guarantees symmetry and loop-freeness.  The CSR arrays
        are materialized lazily on first :meth:`neighbors` access, so
        constructing a graph this way is O(n) on top of the rows — the
        fast path used by the conflict-graph builder and :meth:`_permuted`.
        """
        g = cls.__new__(cls)
        g._labels = tuple(labels)
        g._index = {v: i for i, v in enumerate(g._labels)}
        g._indptr = None
        g._indices = None
        g._bitsets = bitsets
        if num_edges is None:
            num_edges = sum(map(_popcount, bitsets)) // 2
        g._num_edges = num_edges
        return g

    def _ensure_csr(self) -> None:
        """Materialize the CSR arrays from the bitset rows (lazy, internal)."""
        if self._indptr is not None:
            return
        indptr = array("l", [0])
        indices = array("l")
        for bits in self._bitsets:
            row = []
            m = bits
            while m:
                low = m & -m
                row.append(low.bit_length() - 1)
                m ^= low
            indices.extend(row)
            indptr.append(len(indices))
        self._indptr = indptr
        self._indices = indices

    def _permuted(self, order: Sequence[int]) -> "IndexedGraph":
        """Return the same graph re-interned so new id ``p`` is old id ``order[p]``.

        ``order`` must be a permutation of ``range(n)``.  Adjacency is
        remapped in O(n + m); used to derive a ``repr``-sorted snapshot
        from an already-frozen graph without a :class:`Graph` round-trip.
        """
        n = len(self._labels)
        perm = [0] * n  # old id -> new id
        for p, old in enumerate(order):
            perm[old] = p
        labels = tuple(self._labels[old] for old in order)
        old_bits = self._bitsets
        bitsets: List[int] = []
        for old in order:
            m = old_bits[old]
            bits = 0
            while m:
                low = m & -m
                bits |= 1 << perm[low.bit_length() - 1]
                m ^= low
            bitsets.append(bits)
        return IndexedGraph._from_bitsets(labels, bitsets, self._num_edges)

    @classmethod
    def from_graph(cls, graph, order: Optional[Iterable[Vertex]] = None) -> "IndexedGraph":
        """Intern ``graph`` (a mutable :class:`Graph`); see :meth:`Graph.freeze`."""
        if order is None:
            labels = list(graph)
        else:
            labels = list(order)
            if set(labels) != set(graph) or len(labels) != graph.num_vertices():
                raise GraphError("order must be a permutation of the vertex set")
        index = {v: i for i, v in enumerate(labels)}
        rows = [
            [index[u] for u in graph.adjacent(v)]
            for v in labels
        ]
        return cls(labels, rows)

    def _materialize_graph(self, ids: Iterable[int], mask: Optional[int]):
        """Build a mutable :class:`Graph` from the rows of ``ids`` (internal).

        ``mask`` restricts each row (``None`` keeps it whole).  The inlined
        low-bit loop is deliberate: this conversion is what the rebuild
        benchmark baseline pays per phase, and the generator form measured
        ~40% slower.
        """
        from repro.graphs.graph import Graph

        labels = self._labels
        bitsets = self._bitsets
        adj = {}
        for i in ids:
            nbrs = set()
            m = bitsets[i] if mask is None else bitsets[i] & mask
            while m:
                low = m & -m
                nbrs.add(labels[low.bit_length() - 1])
                m ^= low
            adj[labels[i]] = nbrs
        return Graph._from_adjacency_unchecked(adj)

    def to_graph(self):
        """Materialize a mutable :class:`Graph` with the original labels."""
        return self._materialize_graph(range(len(self._labels)), None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._labels)

    def num_edges(self) -> int:
        """Return ``|E|``."""
        return self._num_edges

    def labels(self) -> Tuple[Vertex, ...]:
        """The interning table: ``labels()[i]`` is the label of id ``i``."""
        return self._labels

    def label(self, i: int) -> Vertex:
        """Return the original label of id ``i``."""
        return self._labels[i]

    def index_of(self, label: Vertex) -> int:
        """Return the dense id of ``label``.

        Raises
        ------
        GraphError
            If the label is unknown.
        """
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"vertex {label!r} not in graph") from None

    def degree(self, i: int) -> int:
        """Return the degree of id ``i``."""
        if self._indptr is None:
            return _popcount(self._bitsets[i])
        return self._indptr[i + 1] - self._indptr[i]

    def degrees(self) -> List[int]:
        """Return the degree of every vertex, indexed by id."""
        indptr = self._indptr
        if indptr is None:
            return [_popcount(b) for b in self._bitsets]
        return [indptr[i + 1] - indptr[i] for i in range(len(self._labels))]

    def max_degree(self) -> int:
        """Return Δ (0 for the empty graph)."""
        return max(self.degrees(), default=0)

    def neighbors(self, i: int) -> Sequence[int]:
        """Return the neighbor ids of ``i`` (sorted ascending, no copy of labels)."""
        self._ensure_csr()
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def neighbor_bitset(self, i: int) -> int:
        """Return the adjacency row of ``i`` as a Python-int bitset."""
        return self._bitsets[i]

    def bitsets(self) -> List[int]:
        """Return the list of all adjacency bitsets, indexed by id."""
        return self._bitsets

    def has_edge(self, i: int, j: int) -> bool:
        """Return ``True`` iff ids ``i`` and ``j`` are adjacent."""
        return bool((self._bitsets[i] >> j) & 1)

    def vertex_ids(self) -> Sequence[int]:
        """Return the live vertex ids in ascending order.

        For a full graph this is simply ``range(n)``; for an
        :class:`IndexedSubgraph` view it is the ascending list of alive
        ids.  Kernels and wrappers iterate this instead of ``range(n)`` so
        they work on both without branching.
        """
        return range(len(self._labels))

    def alive_mask(self) -> int:
        """Return the bitmask of live ids (all-ones for a full graph)."""
        return (1 << len(self._labels)) - 1

    def subgraph_view(self, alive: int) -> "IndexedGraph":
        """Return the induced subgraph on the id-bitset ``alive`` as a view.

        The view shares this graph's interning table and adjacency arrays
        (construction is O(1)); ids are *parent* ids, so masks computed
        against the parent remain meaningful.  When ``alive`` covers every
        vertex, ``self`` is returned unchanged.

        Raises
        ------
        GraphError
            If ``alive`` has bits outside ``range(n)``.
        """
        full = (1 << len(self._labels)) - 1
        if alive & ~full:
            raise GraphError("alive mask has bits outside the vertex-id range")
        if alive == full:
            return self
        return IndexedSubgraph(self, alive)

    def labels_for_mask(self, mask: int) -> Set[Vertex]:
        """Translate a bitset over ids back into a set of vertex labels."""
        labels = self._labels
        return {labels[i] for i in iter_bits(mask)}

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        """Translate an iterable of labels into a bitset over ids."""
        mask = 0
        for v in vertices:
            mask |= 1 << self.index_of(v)
        return mask

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def __contains__(self, label: Vertex) -> bool:
        return label in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexedGraph(n={self.num_vertices()}, m={self.num_edges()})"


class IndexedSubgraph(IndexedGraph):
    """An induced-subgraph *view* of an :class:`IndexedGraph` (alive bitmask).

    The view keeps a reference to the parent's interning table and raw
    adjacency arrays and adds only an ``alive`` id-bitmask, so creating one
    is O(1).  Ids are **parent ids**: ``label(i)`` / ``labels()`` answer for
    the full interning table, while the size, degree, membership and
    adjacency queries answer for the induced subgraph (dead ids are
    rejected like unknown vertices).  The relative order of alive ids is
    the parent's interning order, so a view of a ``repr``-sorted graph is
    itself ``repr``-sorted — the property the MIS wrappers rely on for
    bit-for-bit reproducibility.

    Use :meth:`IndexedGraph.subgraph_view` to construct one.
    """

    __slots__ = ("_parent", "_alive", "_alive_ids", "_alive_edges")

    def __init__(self, parent: IndexedGraph, alive: int) -> None:
        if isinstance(parent, IndexedSubgraph):  # views compose on the base graph
            alive &= parent._alive
            parent = parent._parent
        self._parent = parent
        self._alive = alive
        # Shared, *raw* internals: kernels that pre-filter by id (first-fit
        # along an alive order, branch-and-bound on an active mask) read
        # these directly and never see a dead contribution.
        self._labels = parent._labels
        self._index = parent._index
        self._indptr = parent._indptr
        self._indices = parent._indices
        self._bitsets = parent._bitsets
        self._num_edges = parent._num_edges
        self._alive_ids: Optional[List[int]] = None
        self._alive_edges: Optional[int] = None

    # -- structure shared with the parent ------------------------------
    @property
    def parent(self) -> IndexedGraph:
        """The full graph this view restricts."""
        return self._parent

    def alive_mask(self) -> int:
        """The bitmask of alive ids."""
        return self._alive

    def vertex_ids(self) -> Sequence[int]:
        """The alive ids in ascending (parent interning) order."""
        if self._alive_ids is None:
            self._alive_ids = list(iter_bits(self._alive))
        return self._alive_ids

    def subgraph_view(self, alive: int) -> "IndexedGraph":
        full = (1 << len(self._labels)) - 1
        if alive & ~full:
            raise GraphError("alive mask has bits outside the vertex-id range")
        alive &= self._alive
        if alive == self._alive:
            return self
        return IndexedSubgraph(self._parent, alive)

    # -- induced-subgraph queries --------------------------------------
    def num_vertices(self) -> int:
        return _popcount(self._alive)

    def num_edges(self) -> int:
        if self._alive_edges is None:
            alive = self._alive
            bitsets = self._bitsets
            self._alive_edges = (
                sum(_popcount(bitsets[i] & alive) for i in self.vertex_ids()) // 2
            )
        return self._alive_edges

    def _check_alive(self, i: int) -> None:
        if not (self._alive >> i) & 1:
            raise GraphError(f"vertex id {i} is not alive in this view")

    def degree(self, i: int) -> int:
        self._check_alive(i)
        return _popcount(self._bitsets[i] & self._alive)

    def degrees(self) -> List[int]:
        """Masked degree for every parent id (dead ids report 0).

        Keeps the base-class "indexed by id" contract so ``degrees()[i]``
        is meaningful for any alive id regardless of which representation
        the caller holds; like :meth:`bitsets`, dead ids read as empty.
        """
        alive = self._alive
        bitsets = self._bitsets
        return [
            _popcount(row & alive) if (alive >> i) & 1 else 0
            for i, row in enumerate(bitsets)
        ]

    def max_degree(self) -> int:
        alive = self._alive
        bitsets = self._bitsets
        return max(
            (_popcount(bitsets[i] & alive) for i in self.vertex_ids()), default=0
        )

    def neighbors(self, i: int) -> Sequence[int]:
        self._check_alive(i)
        return list(iter_bits(self._bitsets[i] & self._alive))

    def neighbor_bitset(self, i: int) -> int:
        self._check_alive(i)
        return self._bitsets[i] & self._alive

    def bitsets(self) -> List[int]:
        """Masked rows for every parent id (dead rows are 0)."""
        alive = self._alive
        return [
            row & alive if (alive >> i) & 1 else 0
            for i, row in enumerate(self._bitsets)
        ]

    def has_edge(self, i: int, j: int) -> bool:
        alive = self._alive
        if not ((alive >> i) & 1 and (alive >> j) & 1):
            return False
        return bool((self._bitsets[i] >> j) & 1)

    def index_of(self, label: Vertex) -> int:
        i = self._parent.index_of(label)
        if not (self._alive >> i) & 1:
            raise GraphError(f"vertex {label!r} not in graph")
        return i

    def to_graph(self):
        """Materialize the induced subgraph as a mutable :class:`Graph`.

        Insertion order is the alive subsequence of the parent's interning
        order, matching what freezing a from-scratch rebuild would produce.
        """
        return self._materialize_graph(self.vertex_ids(), self._alive)

    def __len__(self) -> int:
        return _popcount(self._alive)

    def __iter__(self) -> Iterator[Vertex]:
        labels = self._labels
        return (labels[i] for i in self.vertex_ids())

    def __contains__(self, label: Vertex) -> bool:
        i = self._parent._index.get(label)
        return i is not None and bool((self._alive >> i) & 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexedSubgraph(n={self.num_vertices()}/{len(self._labels)}, "
            f"m={self.num_edges()})"
        )


def _base_and_mask(graph: IndexedGraph) -> Tuple[IndexedGraph, Optional[int]]:
    """Split ``graph`` into (full base graph, alive mask or None) for kernels."""
    if isinstance(graph, IndexedSubgraph):
        return graph._parent, graph._alive
    return graph, None


def freeze_sorted(graph) -> "IndexedGraph":
    """Freeze a :class:`Graph` with vertices interned in ``repr`` order.

    This is *the* canonical order of the MIS ports: it reproduces the
    ``(degree, repr)`` tie-breaking of the reference implementations in
    :mod:`repro.graphs.independent_sets` bit-for-bit.  Inputs that are
    already indexed pass through unchanged.
    """
    if isinstance(graph, IndexedGraph):
        return graph
    return graph.freeze(order=sorted(graph.vertices, key=repr))


# ----------------------------------------------------------------------
# bitset independent-set kernels
# ----------------------------------------------------------------------
def first_fit_mis_ids(graph: IndexedGraph, order: Iterable[int]) -> List[int]:
    """Greedy maximal IS along ``order`` (ids); returns chosen ids in order.

    The bitset formulation of the locality-1 SLOCAL algorithm: a vertex
    joins iff none of its already-processed neighbors joined.

    Views work unchanged: with ``order`` drawn from the view's alive ids
    (:meth:`IndexedGraph.vertex_ids`) the raw parent rows are safe because
    the selected mask only ever contains processed — hence alive — ids.
    """
    bitsets = graph._bitsets
    selected_mask = 0
    chosen: List[int] = []
    for i in order:
        if not (bitsets[i] & selected_mask):
            selected_mask |= 1 << i
            chosen.append(i)
    return chosen


def min_degree_greedy_ids(graph: IndexedGraph) -> List[int]:
    """Minimum-degree greedy IS via a bucket queue; ties break to smallest id.

    Repeatedly takes an alive vertex ``v`` of minimum residual degree and
    deletes ``N[v]``.  The rows of the deleted vertices are ORed and masked
    with ``alive``; each vertex of that union gets its degree recomputed
    once by popcount and changes bucket only if it changed, so bucket moves
    scale with the affected vertices, not with the removed conflict edges.
    Only bitset rows are read; the lazy CSR arrays are never built.  With
    labels interned in ``sorted(..., key=repr)`` order this reproduces the
    reference tie-breaking ``(degree, repr)`` exactly.

    On an :class:`IndexedSubgraph` view the selection runs on the induced
    subgraph and returns parent ids, as a rebuild of the subgraph would.
    """
    bitsets = graph._bitsets  # raw rows; a view shares its parent's
    alive = graph.alive_mask()
    if not alive:
        return []
    ids = list(iter_bits(alive))
    deg = [0] * len(bitsets)
    for i in ids:
        deg[i] = _popcount(bitsets[i] & alive)
    buckets: List[Set[int]] = [set() for _ in range(max(deg) + 1)]
    for i in ids:
        buckets[deg[i]].add(i)
    min_deg = 0
    chosen: List[int] = []
    while alive:
        while not buckets[min_deg]:
            min_deg += 1
        v = min(buckets[min_deg])
        chosen.append(v)
        buckets[min_deg].discard(v)
        dead = bitsets[v] & alive
        alive &= ~(dead | (1 << v))
        affected = 0
        while dead:
            low = dead & -dead
            u = low.bit_length() - 1
            dead ^= low
            buckets[deg[u]].discard(u)
            affected |= bitsets[u]
        affected &= alive
        while affected:
            low = affected & -affected
            w = low.bit_length() - 1
            affected ^= low
            d = _popcount(bitsets[w] & alive)
            if d != deg[w]:
                buckets[deg[w]].discard(w)
                buckets[d].add(w)
                deg[w] = d
                if d < min_deg:
                    min_deg = d
    return sorted(chosen)


def maximum_independent_set_mask(graph: IndexedGraph) -> int:
    """Exact maximum IS as a bitset, by memoized branch-and-bound.

    The recurrence is ``α(G) = max(α(G − N[v]) + 1, α(G − v))`` branching on
    a maximum-residual-degree vertex (ties to the smallest id), with
    degree-0/1 vertices taken greedily — the same search tree as the
    reference solver in :mod:`repro.graphs.independent_sets`, but with the
    active set, the memo keys and all neighborhood algebra on bitsets.

    Accepts an :class:`IndexedSubgraph` view, in which case the search
    starts from the view's alive mask and the returned bitset is over
    parent ids.
    """
    base, mask = _base_and_mask(graph)
    adj = base._bitsets
    memo: Dict[int, int] = {}

    def solve(active: int) -> int:
        if not active:
            return 0
        cached = memo.get(active)
        if cached is not None:
            return cached
        best_i = -1
        best_d = -1
        m = active
        while m:
            low = m & -m
            i = low.bit_length() - 1
            nb = adj[i] & active
            d = _popcount(nb)
            if d == 0:
                result = solve(active ^ low) | low
                memo[active] = result
                return result
            if d == 1:
                result = solve(active & ~(low | nb)) | low
                memo[active] = result
                return result
            if d > best_d:
                best_d = d
                best_i = i
            m ^= low
        bit = 1 << best_i
        with_v = solve(active & ~(bit | adj[best_i])) | bit
        without_v = solve(active ^ bit)
        result = with_v if _popcount(with_v) >= _popcount(without_v) else without_v
        memo[active] = result
        return result

    full = (1 << base.num_vertices()) - 1
    return solve(full if mask is None else mask)
