"""The phase-based reduction of Theorem 1.1.

The reduction solves conflict-free multicoloring of a hypergraph ``H``
using any λ-approximation algorithm for the maximum independent set
problem:

1. Set ``ρ = λ·ln(m) + 1`` and ``H_1 = H``.
2. In phase ``i`` build the conflict graph ``G^i_k`` of ``H_i``, compute a
   λ-approximate maximum independent set ``I_i`` of it, and let every
   hypergraph vertex ``v`` with some ``(·, v, c) ∈ I_i`` color itself with
   the phase-private color ``(i, c)``.
3. Remove the edges that became happy; stop when no edge remains.

If ``H`` admits a conflict-free ``k``-coloring (the premise of
Theorem 1.2's hard instances) then Lemma 2.1(a) guarantees
``α(G^i_k) = |E_i|`` in every phase, so the λ-approximation removes at
least a ``1/λ`` fraction of the edges per phase and the reduction stops
within ``ρ`` phases, using at most ``k·ρ`` colors in total.

Even without that premise the reduction still terminates: the oracle is
required to return a non-empty independent set on a non-empty conflict
graph, each selected triple makes its edge happy (Lemma 2.1(b)), so every
phase removes at least one edge.

Incremental phase engine
------------------------
Since a phase only ever *removes* happy edges — and removing hyperedges
never makes two surviving conflict triples adjacent — the pipeline is
phase-incremental: :meth:`ConflictFreeMulticoloringViaMaxIS.run` builds
the conflict graph once, on the caller's hypergraph, as bitset rows
already laid out in the oracle's ``repr`` order; per phase it hands the
oracle an alive-mask subgraph view and deletes the happy edges' blocks in
place.  That conflict graph is the only phase state (DESIGN.md, "Phase
state"): the input is never copied or mutated.
Total work is proportional to what is deleted, not phases × full rebuild.
With an approximator that has an id kernel (``solve_ids``; every built-in
does) the engine never builds a triple: the oracle answers
``approximator(view, ids=True)`` with triple ids checked on masks, and
:func:`~repro.core.correspondence.independent_set_to_coloring` reads the
phase coloring off them as ``pair_vertex[i // k] ↦ colors[i % k]``.  Other
approximators and plain callables get the mutable ``Graph`` of labels.
The from-scratch path is retained as
:meth:`ConflictFreeMulticoloringViaMaxIS.run_rebuild`; it produces
bit-for-bit identical results and serves as the test oracle and the
benchmark baseline (``repro bench reduction``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Set, Tuple

from repro import obs
from repro.coloring.conflict_free import happy_edges as single_happy_edges
from repro.coloring.multicoloring import Multicoloring
from repro.core.bounds import color_budget, expected_remaining_edges, phase_budget
from repro.core.conflict_graph import ConflictGraph, ConflictVertex
from repro.core.correspondence import independent_set_to_coloring
from repro.exceptions import ReductionError
from repro.graphs.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.operations import remove_happy_edges
from repro.maxis.approximators import MaxISApproximator

Vertex = Hashable
PhaseColor = Tuple[int, int]
Oracle = Callable[[Graph], Set[ConflictVertex]]

# Engine metrics: process-wide totals across every reduction this process
# runs (campaign workers, bench repeats, direct library use).  Cheap
# relative to a phase — one observe/inc/set per phase — and purely
# observational: nothing here feeds back into the reduction.
_M_PHASES = obs.counter(
    "repro_reduction_phases_total", "Reduction phases executed by this process."
)
_M_PHASE_DURATION = obs.histogram(
    "repro_phase_duration_seconds",
    "Wall-clock duration of reduction phases (oracle solve + happy removal).",
)
_M_ALIVE_VERTICES = obs.gauge(
    "repro_reduction_alive_vertices",
    "Conflict-graph vertices still alive after the most recent phase.",
)
_M_HAPPY_CHECKS = obs.counter(
    "repro_happy_checks_total", "Happy-edge computations performed (one per phase)."
)
_M_HAPPY_CHECK_SECONDS = obs.counter(
    "repro_happy_check_seconds_total",
    "Wall seconds spent computing per-phase happy-edge sets.",
)


@dataclass
class PhaseRecord:
    """Everything measured about one phase of the reduction.

    Attributes
    ----------
    phase:
        1-based phase index.
    edges_before / edges_after:
        ``|E_i|`` and ``|E_{i+1}|``.
    independent_set_size:
        ``|I_i|`` returned by the oracle.
    happy_edges:
        The hyperedges removed in this phase.
    conflict_graph_vertices / conflict_graph_edges:
        Size of ``G^i_k``.
    guaranteed_edges_after:
        The bound ``(1 - 1/λ)·|E_i|`` the analysis promises (only
        meaningful when the premise of the analysis holds).
    """

    phase: int
    edges_before: int
    edges_after: int
    independent_set_size: int
    happy_edges: Set = field(default_factory=set)
    conflict_graph_vertices: int = 0
    conflict_graph_edges: int = 0
    guaranteed_edges_after: float = 0.0

    @property
    def removed(self) -> int:
        """Number of edges removed in this phase."""
        return self.edges_before - self.edges_after

    @property
    def removal_fraction(self) -> float:
        """Fraction of surviving edges removed in this phase."""
        if self.edges_before == 0:
            return 0.0
        return self.removed / self.edges_before


@dataclass
class ReductionResult:
    """The outcome of a full run of the reduction.

    Attributes
    ----------
    multicoloring:
        The conflict-free multicoloring of the input hypergraph.  Colors
        are pairs ``(phase, palette_color)``, which realizes the paper's
        "distinct palette of size k for each phase".
    phases:
        One :class:`PhaseRecord` per executed phase.
    k:
        The per-phase palette size.
    lam:
        The approximation factor assumed for the analysis.
    phase_bound:
        ``ρ = λ·ln(m) + 1`` computed for the original edge count.
    color_bound:
        ``k·ρ``.
    """

    multicoloring: Multicoloring
    phases: List[PhaseRecord]
    k: int
    lam: float
    phase_bound: int
    color_bound: int

    @property
    def num_phases(self) -> int:
        """Number of phases that were actually executed."""
        return len(self.phases)

    @property
    def total_colors(self) -> int:
        """Number of distinct colors used by the produced multicoloring."""
        return self.multicoloring.num_colors()

    def within_phase_bound(self) -> bool:
        """Whether the run finished within the theoretical phase budget ρ."""
        return self.num_phases <= self.phase_bound

    def within_color_bound(self) -> bool:
        """Whether the run used at most ``k·ρ`` colors."""
        return self.total_colors <= self.color_bound

    def remaining_edges_series(self) -> List[int]:
        """Return ``[|E_1|, |E_2|, …]`` including the final (zero or residual) count."""
        if not self.phases:
            return []
        series = [self.phases[0].edges_before]
        series.extend(p.edges_after for p in self.phases)
        return series


def _default_oracle(approximator) -> Oracle:
    """Wrap a :class:`repro.maxis.MaxISApproximator`-style callable into an oracle."""

    def oracle(graph: Graph) -> Set[ConflictVertex]:
        return set(approximator(graph))

    return oracle


class ConflictFreeMulticoloringViaMaxIS:
    """The reduction of Theorem 1.1, packaged as a reusable object.

    Parameters
    ----------
    k:
        Per-phase palette size (the ``k`` of the conflict-free coloring the
        hard instances admit).
    approximator:
        Any callable mapping a :class:`repro.graphs.Graph` to an independent
        set of it.  :class:`repro.maxis.MaxISApproximator` instances and the
        outputs of :func:`repro.maxis.get_approximator` work directly.
    lam:
        The approximation factor λ assumed when computing the phase budget
        ``ρ``.  If the oracle actually achieves a better factor the
        reduction simply finishes earlier.
    max_phases:
        Hard safety cap on the number of phases (defaults to
        ``max(ρ, m)``, which always suffices because every phase removes at
        least one edge).
    strict:
        When ``True``, exceeding the theoretical phase budget ``ρ`` raises
        :class:`ReductionError` instead of silently continuing.  Use this
        when the premise (the hypergraph admits a CF ``k``-coloring and the
        oracle honours λ) is supposed to hold and a violation indicates a
        bug.
    """

    def __init__(
        self,
        k: int,
        approximator,
        lam: float,
        max_phases: Optional[int] = None,
        strict: bool = False,
    ) -> None:
        if k <= 0:
            raise ReductionError(f"palette size k must be positive, got {k}")
        if lam < 1:
            raise ReductionError(f"approximation factor must be ≥ 1, got {lam}")
        self.k = k
        self.lam = lam
        self.oracle = _default_oracle(approximator)
        self.max_phases = max_phases
        self.strict = strict
        # Approximators with an id kernel (every built-in) answer the
        # engine's alive-mask views with ids; plain callables and
        # Graph-only approximators keep receiving the mutable Graph.
        self._id_oracle: Optional[MaxISApproximator] = (
            approximator
            if isinstance(approximator, MaxISApproximator) and approximator.solve_ids is not None
            else None
        )
        #: Wall seconds the most recent run/run_rebuild spent computing the
        #: per-phase happy-edge sets (the ``happy_check_wall_time_s`` key of
        #: ``repro bench reduction``).
        self.last_happy_check_wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    def run(self, hypergraph: Hypergraph) -> ReductionResult:
        """Execute the reduction on ``hypergraph`` and return a :class:`ReductionResult`.

        This is the incremental phase engine: the conflict graph of
        ``hypergraph`` is built (and frozen for the oracle) exactly once;
        each phase solves on an alive-mask subgraph view, finds the happy
        edges with :meth:`ConflictGraph.happy_edges` and removes them from
        the conflict graph alone, so ``hypergraph`` is neither copied nor
        mutated.  The result is bit-for-bit identical to :meth:`run_rebuild`.
        """
        return self._execute(hypergraph, rebuild=False)

    def run_rebuild(self, hypergraph: Hypergraph) -> ReductionResult:
        """Execute the reduction rebuilding ``H_i`` and ``G^i_k`` from scratch each phase.

        This is the pre-incremental reference path: every phase restricts
        ``H_i`` to a fresh ``H_{i+1}``, constructs a new
        :class:`ConflictGraph` on it and finds the happy edges by a full
        scan.  It is retained as the oracle for equality tests and as the
        baseline the ``repro bench reduction`` benchmark measures the
        incremental engine against; its output is identical to :meth:`run`.
        """
        return self._execute(hypergraph, rebuild=True)

    # ------------------------------------------------------------------
    def _execute(self, hypergraph: Hypergraph, rebuild: bool) -> ReductionResult:
        """Shared phase loop; ``rebuild`` selects how ``G^{i+1}_k`` is derived.

        Both modes start from ``G_k`` built on ``hypergraph`` itself and
        read ``|E_i|`` off its surviving blocks.  Incremental mode removes
        the happy edges from that one :class:`ConflictGraph`; rebuild mode
        builds ``H_{i+1}`` and its conflict graph afresh (the seed
        behavior).  Everything else — budgets, caps, strictness, record
        keeping — is identical by construction.
        """
        m = hypergraph.num_edges()
        rho = phase_budget(self.lam, m)
        budget = color_budget(self.k, self.lam, m)
        cap = self.max_phases if self.max_phases is not None else max(rho, m, 1)

        multicoloring = Multicoloring()
        phases: List[PhaseRecord] = []
        conflict_graph = ConflictGraph(hypergraph, self.k)
        self.last_happy_check_wall_time_s = 0.0

        phase = 0
        while conflict_graph.num_hyperedges() > 0:
            phase += 1
            if phase > cap:
                raise ReductionError(
                    f"reduction did not finish within {cap} phases; "
                    f"{conflict_graph.num_hyperedges()} edges remain unhappy"
                )
            if self.strict and phase > rho:
                raise ReductionError(
                    f"strict mode: phase {phase} exceeds the theoretical budget ρ = {rho}"
                )
            phase_start = time.perf_counter()
            with obs.span("phase", phase=phase, edges=conflict_graph.num_hyperedges()):
                record = self._run_phase(conflict_graph, phase, multicoloring, rebuild=rebuild)
                phases.append(record)
                if rebuild:
                    h_next = remove_happy_edges(conflict_graph.hypergraph, record.happy_edges)
                    conflict_graph = ConflictGraph(h_next, self.k)
                else:
                    conflict_graph.remove_hyperedges(record.happy_edges)
            _M_PHASES.inc()
            _M_PHASE_DURATION.observe(time.perf_counter() - phase_start)
            _M_ALIVE_VERTICES.set(conflict_graph.num_vertices())

        # Edgeless input: no phase runs and the empty multicoloring is
        # vacuously conflict-free (remaining_edges_series() is then empty).
        return ReductionResult(
            multicoloring=multicoloring,
            phases=phases,
            k=self.k,
            lam=self.lam,
            phase_bound=rho,
            color_bound=budget,
        )

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        conflict_graph: ConflictGraph,
        phase: int,
        multicoloring: Multicoloring,
        rebuild: bool = False,
    ) -> PhaseRecord:
        """Run one phase on ``G^i_k`` (at least one edge survives) and merge its colors.

        ``conflict_graph`` is freshly built on ``H_i`` in the rebuild path
        and incrementally maintained in the engine.  The rebuild path hands
        the oracle the mutable graph (the seed behavior) and finds the
        happy edges by a full scan of ``H_i`` — the equality oracle for
        :meth:`ConflictGraph.happy_edges`, the engine's incidence-driven
        check; the engine asks approximators with an id kernel for the ids
        of an independent set of the ``repr``-sorted frozen view, the
        triples the mutable path selects, and colors from the ids without
        building a triple.
        """
        edges_before = conflict_graph.num_hyperedges()
        if rebuild or self._id_oracle is None:
            independent_set = self.oracle(conflict_graph.graph)
        else:
            independent_set = self._id_oracle(conflict_graph.frozen_sorted(), ids=True)
        if not independent_set:
            raise ReductionError(
                f"the MaxIS oracle returned an empty set in phase {phase} although "
                f"{edges_before} edges remain; the reduction cannot progress"
            )

        # f_{I_i}: the phase's partial single-coloring over palette 1..k.
        phase_coloring = independent_set_to_coloring(conflict_graph, independent_set)
        happy_start = time.perf_counter()
        if rebuild:
            happy = single_happy_edges(conflict_graph.hypergraph, phase_coloring)
        else:
            happy = conflict_graph.happy_edges(phase_coloring)
        happy_elapsed = time.perf_counter() - happy_start
        self.last_happy_check_wall_time_s += happy_elapsed
        _M_HAPPY_CHECKS.inc()
        _M_HAPPY_CHECK_SECONDS.inc(happy_elapsed)
        if len(happy) < len(independent_set):
            raise ReductionError(
                f"phase {phase}: only {len(happy)} happy edges for an independent "
                f"set of size {len(independent_set)}; Lemma 2.1(b) is violated"
            )

        # Commit the phase colors under the phase-private palette (i, c).
        for v, c in phase_coloring.items():
            multicoloring.add_color(v, (phase, c))

        return PhaseRecord(
            phase=phase,
            edges_before=edges_before,
            edges_after=edges_before - len(happy),
            independent_set_size=len(independent_set),
            happy_edges=happy,
            conflict_graph_vertices=conflict_graph.num_vertices(),
            conflict_graph_edges=conflict_graph.num_edges(),
            guaranteed_edges_after=expected_remaining_edges(edges_before, self.lam, 1),
        )


def solve_conflict_free_multicoloring(
    hypergraph: Hypergraph,
    k: int,
    approximator,
    lam: float,
    strict: bool = False,
) -> ReductionResult:
    """One-call convenience wrapper around :class:`ConflictFreeMulticoloringViaMaxIS`."""
    reduction = ConflictFreeMulticoloringViaMaxIS(
        k=k, approximator=approximator, lam=lam, strict=strict
    )
    return reduction.run(hypergraph)
