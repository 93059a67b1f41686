"""The λ-approximation oracle interface consumed by the paper's reduction.

The hardness proof of Theorem 1.1 is parameterized by *any* algorithm that
computes a λ-approximate maximum independent set: the reduction runs
``ρ = λ·ln(m) + 1`` phases and calls the approximator once per phase on
the conflict graph of the surviving hyperedges.  :class:`MaxISApproximator`
is the corresponding interface; the registry maps names to the concrete
algorithms implemented in this package so that benchmarks can sweep over
them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set

from repro.exceptions import ApproximationError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import verify_independent_ids, verify_independent_set
from repro.graphs.indexed import IndexedGraph

Vertex = Hashable


@dataclass(frozen=True)
class MaxISApproximator:
    """A named maximum-independent-set approximation algorithm.

    Attributes
    ----------
    name:
        Registry key / display name.
    solve:
        ``solve(graph) -> set_of_vertices``.  Receives a mutable
        :class:`Graph` (the reduction's rebuild path and every plain
        caller); built-ins also accept a frozen
        :class:`~repro.graphs.indexed.IndexedGraph` or alive-mask view.
    guarantee:
        Callable mapping a graph to the approximation factor λ the
        algorithm guarantees on that graph (``None`` when no worst-case
        guarantee is claimed — e.g. purely heuristic baselines).
    description:
        One-line description used in benchmark tables.
    solve_ids:
        ``solve_ids(graph) -> iterable of ids``: the same algorithm on a
        frozen :class:`~repro.graphs.indexed.IndexedGraph` or alive-mask
        subgraph view interned in ``repr`` order, answering with the ids of
        an independent set.  It is what ``__call__(graph, ids=True)`` runs,
        and what the reduction's phase engine calls on the conflict graph,
        whose ids are laid out in ``repr`` order.  Every built-in sets it
        and returns, on such a graph, the ids of the labels ``solve``
        returns on the mutable graph.  ``None`` (the default) keeps a
        custom approximator on the mutable-:class:`Graph` path.
    """

    name: str
    solve: Callable[[Graph], Set[Vertex]]
    guarantee: Optional[Callable[[Graph], float]] = None
    description: str = ""
    solve_ids: Optional[Callable[[IndexedGraph], Iterable[int]]] = None

    def __call__(self, graph, ids: bool = False):
        """Run the approximator and verify that its output is independent.

        By default ``solve`` runs and the answer is a set of vertex labels.
        With ``ids=True``, ``graph`` must be an
        :class:`~repro.graphs.indexed.IndexedGraph` or view interned in
        ``repr`` order; ``solve_ids`` runs and the answer is a list of ids
        in ascending order, checked on masks without building a label.

        Raises
        ------
        IndependenceError
            If the answer names a vertex outside ``graph``, repeats one, or
            holds two adjacent vertices.
        ApproximationError
            If the answer is empty although ``graph`` is not.
        """
        if ids:
            result = sorted(self.solve_ids(graph))
            verify_independent_ids(graph, result)
        else:
            result = self.solve(graph)
            verify_independent_set(graph, result)
        if graph.num_vertices() > 0 and not result:
            raise ApproximationError(
                f"approximator {self.name!r} returned an empty set on a non-empty graph; "
                "no finite approximation factor can hold"
            )
        return result if ids else set(result)

    def guaranteed_lambda(self, graph: Graph) -> Optional[float]:
        """Return the guaranteed approximation factor on ``graph`` (or ``None``)."""
        if self.guarantee is None:
            return None
        value = self.guarantee(graph)
        if value < 1:
            raise ApproximationError(
                f"approximator {self.name!r} claims an approximation factor {value} < 1"
            )
        return value


_REGISTRY: Dict[str, MaxISApproximator] = {}


def register_approximator(approximator: MaxISApproximator) -> MaxISApproximator:
    """Add ``approximator`` to the global registry (overwriting by name is an error)."""
    if approximator.name in _REGISTRY:
        raise ApproximationError(f"approximator {approximator.name!r} already registered")
    _REGISTRY[approximator.name] = approximator
    return approximator


def get_approximator(name: str) -> MaxISApproximator:
    """Look up a registered approximator by name."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise ApproximationError(
            f"unknown approximator {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def available_approximators() -> Dict[str, MaxISApproximator]:
    """Return a copy of the registry (name → approximator)."""
    _ensure_builtins()
    return dict(_REGISTRY)


def _ensure_builtins() -> None:
    """Register the built-in algorithms on first use (import-cycle-free lazy init)."""
    if _REGISTRY:
        return
    from repro.maxis import builtin  # noqa: F401  (importing registers the algorithms)


def capped_oracle(base_name: str, lam: float) -> MaxISApproximator:
    """A genuinely λ-approximate oracle: the base oracle capped to ``⌈|I|/λ⌉`` triples.

    The full-strength registry oracles solve the colorable workloads in
    one or two phases, where an incremental engine cannot beat a rebuild
    by definition (there is nothing to reuse).  Capping the returned
    independent set to a ``1/λ`` fraction (any subset of an independent
    set is independent, so Lemma 2.1(b) still holds per selected triple)
    emulates an oracle that only achieves its worst-case guarantee — the
    regime the paper's analysis is about, with ``ρ = λ·ln(m) + 1`` phases.
    The kept triples are the first ``⌈|I|/λ⌉`` by ``repr``; ``solve_ids``
    keeps the ``⌈|I|/λ⌉`` smallest ids, the same triples on a graph
    interned in ``repr`` order (set only when the base oracle has one).
    The campaign runtime's ``capped:<name>`` oracles and the reduction
    benchmark use it; its name is ``<base_name>@1/<λ>``.
    """
    base = get_approximator(base_name)

    def solve(graph):
        full = sorted(base.solve(graph), key=repr)
        target = max(1, math.ceil(len(full) / lam))
        return set(full[:target])

    def solve_ids(graph) -> List[int]:
        # Ascending id is repr order on the graphs solve_ids receives.
        full = sorted(base.solve_ids(graph))
        return full[:max(1, math.ceil(len(full) / lam))]

    return MaxISApproximator(
        name=f"{base_name}@1/{lam:g}",
        solve=solve,
        solve_ids=None if base.solve_ids is None else solve_ids,
        description=f"{base_name} capped to a 1/{lam:g} fraction (worst-case λ regime).",
    )
