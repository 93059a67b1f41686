"""Immutable indexed graph: interned vertices, bitset rows.

:class:`IndexedGraph` is the performance substrate of the library.  It
interns arbitrary hashable vertex labels to dense integer ids and stores
the adjacency structure once, as one Python arbitrary-precision integer
per vertex (bit ``j`` of row ``i`` is set iff ``{i, j}`` is an edge), so
that set algebra on whole neighborhoods — the inner loop of every
independent-set algorithm — becomes single ``&``/``|``
machine-word-parallel operations.  Degrees are popcounts and
:meth:`IndexedGraph.neighbors` walks the row's set bits.

Interning / determinism contract
--------------------------------
The interning table is fixed at construction time and never changes: id
``i`` maps to ``labels()[i]`` forever.  The constructor and
:meth:`from_graph` build and validate it eagerly; a graph adopted with
:meth:`_from_bitsets` (the conflict-graph builder's path) holds a
zero-argument label factory instead and builds the table, and the
label → id index, on first use, so a caller that works on ids alone never
pays for labels.  Sizes and masks come from the rows, so no kernel reads
the table.  When built via :meth:`from_graph`
(or :meth:`Graph.freeze`) the default order is the *insertion order* of the
mutable :class:`~repro.graphs.graph.Graph`, so any deterministically
constructed graph freezes to a deterministic ``IndexedGraph``; callers that
need a canonical order independent of construction history pass an explicit
``order`` (the MIS ports use ``sorted(vertices, key=repr)`` to reproduce
the tie-breaking of the reference implementations bit-for-bit).  Neighbors
are listed ascending by id, so neighbor iteration order, bitset contents
and :meth:`to_graph` round-trips are all functions of the interning table
alone.

The structure is immutable by design: algorithms that need to "remove"
vertices track an ``alive`` bitmask instead of mutating the graph, which is
both faster and side-effect free.

Alive-mask subgraph views
-------------------------
:meth:`IndexedGraph.subgraph_view` lifts that idiom to whole-pipeline
scope: it returns an :class:`IndexedSubgraph` — an induced-subgraph view
that shares the parent's interning table and bitset rows and only
carries an ``alive`` bitmask.  Construction is O(1) (no re-interning,
no row copying); all size/degree/adjacency queries answer for the induced
subgraph.  Views keep the *parent's* integer ids (the id space stays
sparse), which is exactly what the bitset kernels below want: the kernels
accept views directly and restrict themselves to the alive ids, so a phase
of the paper's reduction can shrink the conflict graph without rebuilding
anything.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError

Vertex = Hashable

try:  # Python >= 3.10: the method itself, no Python frame per call
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def popcount(x: int) -> int:
        """Return the number of set bits of ``x``."""
        return bin(x).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IndexedGraph:
    """An immutable graph over interned integer ids (see module docstring)."""

    __slots__ = ("_labels", "_index", "_bitsets", "_num_edges", "_make_labels")

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
        bitsets: List[int] = []
        total = 0
        n = len(self._labels)
        for i, row in enumerate(rows):
            ids = set(row)
            if ids and (min(ids) < 0 or max(ids) >= n):
                raise GraphError(f"neighbor id out of range in row {i}")
            if i in ids:
                raise GraphError(f"self-loop on id {i}")
            bits = 0
            for j in ids:
                bits |= 1 << j
            bitsets.append(bits)
            total += len(ids)
        if total % 2:
            raise GraphError("adjacency rows are not symmetric (odd degree sum)")
        self._bitsets = bitsets
        self._num_edges = total // 2
        self._make_labels = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_bitsets(
        cls, bitsets: List[int], num_edges: int, make_labels: Callable[[], Sequence[Vertex]]
    ) -> "IndexedGraph":
        """Adopt prebuilt bitset rows without re-validating them (internal).

        The caller guarantees symmetry and loop-freeness, that ``num_edges``
        is the edge count of the rows, and that ``make_labels()`` returns
        ``len(bitsets)`` distinct labels; it is called on the first use of
        the interning table.  Constructing a graph this way is O(1)
        on top of the rows — the path the conflict-graph builder takes.
        """
        g = cls.__new__(cls)
        g._labels = g._index = None
        g._make_labels = make_labels
        g._bitsets = bitsets
        g._num_edges = num_edges
        return g

    def _lookup(self) -> Dict[Vertex, int]:
        """The label → id index of the interning table (built on first use)."""
        if self._index is None:
            self._intern()
        return self._index

    def _intern(self) -> None:
        # The factory is kept: two threads interning at once build equal tables.
        labels = tuple(self._make_labels())
        self._index = {v: i for i, v in enumerate(labels)}
        self._labels = labels

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

        labels = self.labels()
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
        return self._materialize_graph(range(len(self._bitsets)), None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._bitsets)

    def num_edges(self) -> int:
        """Return ``|E|``."""
        return self._num_edges

    def labels(self) -> Tuple[Vertex, ...]:
        """The interning table: ``labels()[i]`` is the label of id ``i``."""
        if self._labels is None:
            self._intern()
        return self._labels

    def label(self, i: int) -> Vertex:
        """Return the original label of id ``i``."""
        return self.labels()[i]

    def index_of(self, label: Vertex) -> int:
        """Return the dense id of ``label``.

        Raises
        ------
        GraphError
            If the label is unknown.
        """
        try:
            return self._lookup()[label]
        except KeyError:
            raise GraphError(f"vertex {label!r} not in graph") from None

    def degree(self, i: int) -> int:
        """Return the degree of id ``i``."""
        return popcount(self.neighbor_bitset(i))

    def degrees(self) -> List[int]:
        """Return the degree of every vertex, indexed by id."""
        return [popcount(b) for b in self._bitsets]

    def max_degree(self) -> int:
        """Return Δ (0 for the empty graph)."""
        return max(self.degrees(), default=0)

    def neighbors(self, i: int) -> List[int]:
        """Return the neighbor ids of ``i``, ascending (the set bits of its row)."""
        return list(iter_bits(self.neighbor_bitset(i)))

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
        ids, built on first use.  Kernels that visit every id (the
        shuffled random-order trials, the Luby lanes, the clique cover)
        iterate this so they work on both without branching; first-fit
        and the exact solver walk :meth:`alive_mask` instead and never
        list the ids.
        """
        return range(len(self._bitsets))

    def alive_mask(self) -> int:
        """Return the bitmask of live ids (all-ones for a full graph)."""
        return (1 << len(self._bitsets)) - 1

    def subgraph_view(self, alive: int) -> "IndexedGraph":
        """Return the induced subgraph on the id-bitset ``alive`` as a view.

        The view shares this graph's interning table and bitset rows
        (construction is O(1)); ids are *parent* ids, so masks computed
        against the parent remain meaningful.  When ``alive`` covers every
        vertex, ``self`` is returned unchanged.

        Raises
        ------
        GraphError
            If ``alive`` has bits outside ``range(n)``.
        """
        full = (1 << len(self._bitsets)) - 1
        if alive & ~full:
            raise GraphError("alive mask has bits outside the vertex-id range")
        if alive == full:
            return self
        return IndexedSubgraph(self, alive)

    def labels_for_mask(self, mask: int) -> Set[Vertex]:
        """Translate a bitset over ids back into a set of vertex labels."""
        labels = self.labels()
        return {labels[i] for i in iter_bits(mask)}

    def __len__(self) -> int:
        return len(self._bitsets)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.labels())

    def __contains__(self, label: Vertex) -> bool:
        return label in self._lookup()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexedGraph(n={self.num_vertices()}, m={self.num_edges()})"


class IndexedSubgraph(IndexedGraph):
    """An induced-subgraph *view* of an :class:`IndexedGraph` (alive bitmask).

    The view keeps a reference to its parent, whose interning table it
    reads, and to the parent's raw bitset rows, and adds only an ``alive``
    id-bitmask, so creating one is O(1).  Ids are **parent ids**:
    ``label(i)`` / ``labels()`` answer for the full interning table, while
    the size, degree, membership and adjacency queries answer for the
    induced subgraph (dead ids are rejected like unknown vertices).  The relative order of alive ids is
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
        # Shared, *raw* rows: kernels that pre-filter by id (first-fit
        # on its candidate mask, branch-and-bound on an active mask) read
        # these directly and never see a dead contribution.
        self._bitsets = parent._bitsets
        self._num_edges = parent._num_edges
        self._alive_ids: Optional[List[int]] = None
        self._alive_edges: Optional[int] = None

    # -- structure shared with the parent ------------------------------
    def labels(self) -> Tuple[Vertex, ...]:
        return self._parent.labels()

    def _lookup(self) -> Dict[Vertex, int]:
        return self._parent._lookup()

    def alive_mask(self) -> int:
        """The bitmask of alive ids."""
        return self._alive

    def vertex_ids(self) -> Sequence[int]:
        """The alive ids in ascending (parent interning) order."""
        if self._alive_ids is None:
            self._alive_ids = list(iter_bits(self._alive))
        return self._alive_ids

    def subgraph_view(self, alive: int) -> "IndexedGraph":
        full = (1 << len(self._bitsets)) - 1
        if alive & ~full:
            raise GraphError("alive mask has bits outside the vertex-id range")
        alive &= self._alive
        if alive == self._alive:
            return self
        return IndexedSubgraph(self._parent, alive)

    # -- induced-subgraph queries --------------------------------------
    def num_vertices(self) -> int:
        return popcount(self._alive)

    def num_edges(self) -> int:
        if self._alive_edges is None:
            alive = self._alive
            bitsets = self._bitsets
            self._alive_edges = (
                sum(popcount(bitsets[i] & alive) for i in self.vertex_ids()) // 2
            )
        return self._alive_edges

    def _check_alive(self, i: int) -> None:
        if not (self._alive >> i) & 1:
            raise GraphError(f"vertex id {i} is not alive in this view")

    def degrees(self) -> List[int]:
        """Masked degree for every parent id (dead ids report 0).

        Keeps the base-class "indexed by id" contract so ``degrees()[i]``
        is meaningful for any alive id regardless of which representation
        the caller holds; like :meth:`bitsets`, dead ids read as empty.
        """
        alive = self._alive
        bitsets = self._bitsets
        return [
            popcount(row & alive) if (alive >> i) & 1 else 0
            for i, row in enumerate(bitsets)
        ]

    def max_degree(self) -> int:
        alive = self._alive
        bitsets = self._bitsets
        return max(
            (popcount(bitsets[i] & alive) for i in self.vertex_ids()), default=0
        )

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
        return popcount(self._alive)

    def __iter__(self) -> Iterator[Vertex]:
        labels = self.labels()
        return (labels[i] for i in self.vertex_ids())

    def __contains__(self, label: Vertex) -> bool:
        i = self._lookup().get(label)
        return i is not None and bool((self._alive >> i) & 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexedSubgraph(n={self.num_vertices()}/{len(self._bitsets)}, "
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
    """Greedy maximal IS along an explicit ``order`` (ids); returns chosen ids in order.

    The bitset formulation of the locality-1 SLOCAL algorithm: a vertex
    joins iff none of its already-processed neighbors joined.  It tests
    one row per id of ``order``; along ascending ids
    :func:`ascending_first_fit_ids` picks the same ids without visiting
    the rest, so this form serves the shuffled orders of the random-order
    trials.

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


def ascending_first_fit_ids(graph: IndexedGraph) -> List[int]:
    """First-fit maximal IS along ascending ids, walked on the candidate mask.

    Returns ``first_fit_mis_ids(graph, graph.vertex_ids())``, ascending:
    the lowest candidate joins, and it and its neighbors leave the
    candidates.  Only a pick costs row operations, so the walk is O(picks)
    big-int operations and never lists the alive ids.  On a view the raw
    parent rows are safe because the candidate mask only ever holds alive
    ids.
    """
    bitsets = graph._bitsets
    candidates = graph.alive_mask()
    chosen: List[int] = []
    while candidates:
        low = candidates & -candidates
        i = low.bit_length() - 1
        chosen.append(i)
        candidates &= ~(low | bitsets[i])
    return chosen


#: ``bytes.translate`` tables: ``_BIT_DIGITS[b]`` maps byte ``x`` to the
#: ASCII digit of bit ``b`` of ``x``.
_BIT_DIGITS = tuple(bytes(48 | (x >> b) & 1 for x in range(256)) for b in range(8))


def bit_planes(words: bytes, width: int, byteorder: str, count: int) -> List[int]:
    """Bit-slice the unsigned ``width``-byte words packed in ``words``.

    Returns ``count`` big-int planes: bit ``i`` of plane ``j`` is bit ``j``
    of word ``i``, the words read in ``byteorder`` (``"little"`` or
    ``"big"``).  A plane is one slice of a byte lane, one
    ``bytes.translate`` to ASCII digits and one base-2 parse, all in C.
    """
    if not words:
        return [0] * count
    planes = []
    for j in range(count):
        lane, bit = divmod(j, 8)
        start = lane if byteorder == "little" else width - 1 - lane
        planes.append(int(words[start::width].translate(_BIT_DIGITS[bit])[::-1], 2))
    return planes


def min_degree_greedy_ids(graph: IndexedGraph) -> List[int]:
    """Minimum-degree greedy IS on bit-sliced residual degrees; ties break to smallest id.

    Repeatedly takes an alive vertex ``v`` of minimum residual degree and
    deletes ``N[v]``.  Residual degrees live in ``⌈log2(Δ+1)⌉`` big-int
    planes over the ids (:func:`bit_planes`; degrees at dead ids are
    don't-care).  A pick narrows the alive mask plane by plane, top plane
    first, to the minimum-degree ids and takes the lowest.  A removal adds
    the rows of ``N(v)``, restricted to the survivors, into carry-save
    count planes and subtracts those counts from the degree planes, so
    each row is added once per call, when its vertex leaves, and a pick
    costs O(|N[v]|·log|N[v]| + log Δ) big-int operations.  Every select
    and every subtraction is masked by ``alive``.  With labels interned in
    ``sorted(..., key=repr)`` order this reproduces the reference
    tie-breaking ``(degree, repr)`` exactly.

    On an :class:`IndexedSubgraph` view the selection runs on the induced
    subgraph and returns parent ids, ascending, as a rebuild of the
    subgraph would.
    """
    bitsets = graph._bitsets  # raw rows; a view shares its parent's
    alive = graph.alive_mask()
    degrees = array("Q", map(popcount, map(alive.__and__, bitsets)))
    planes = bit_planes(
        degrees.tobytes(), degrees.itemsize, sys.byteorder,
        max(degrees, default=0).bit_length(),
    )
    chosen: List[int] = []
    while alive:
        candidates = alive
        for plane in reversed(planes):
            zeros = candidates & ~plane
            if zeros:
                candidates = zeros
        low = candidates & -candidates
        v = low.bit_length() - 1
        chosen.append(v)
        dead = bitsets[v] & alive
        alive &= ~(dead | low)
        # Carry-save: counts[j] holds bit j of each survivor's number of
        # neighbors in N(v), that is, of the drop in its degree.
        counts: List[int] = []
        while dead:
            low = dead & -dead
            dead ^= low
            row = bitsets[low.bit_length() - 1] & alive
            j = 0
            while row:
                if j == len(counts):
                    counts.append(row)
                    break
                plane = counts[j]
                counts[j] = plane ^ row
                row &= plane
                j += 1
        # planes -= counts; counts, hence borrows, hold survivors only.
        borrow = 0
        for j, count in enumerate(counts):
            plane = planes[j]
            planes[j] = plane ^ count ^ borrow
            borrow = (~plane & (count | borrow)) | (count & borrow)
        j = len(counts)
        while borrow:
            plane = planes[j]
            planes[j] = plane ^ borrow
            borrow &= ~plane
            j += 1
    chosen.sort()
    return chosen


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
            d = popcount(nb)
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
        result = with_v if popcount(with_v) >= popcount(without_v) else without_v
        memo[active] = result
        return result

    full = (1 << base.num_vertices()) - 1
    return solve(full if mask is None else mask)
