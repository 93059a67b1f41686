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
from typing import Callable, Dict, Hashable, Optional, Set

from repro.exceptions import ApproximationError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import verify_independent_set

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
        :class:`Graph` by default; see ``accepts_frozen``.
    accepts_frozen:
        Whether ``solve`` also handles frozen
        :class:`~repro.graphs.indexed.IndexedGraph` inputs (including
        alive-mask subgraph views).  The reduction's phase engine freezes
        the conflict graph once per run and hands such approximators views
        instead of re-materializing the mutable graph per phase — the
        indexed fast path.  Defaults to ``False`` so custom approximators
        written against the mutable-:class:`Graph` interface keep working
        unchanged (they get the mutable conflict graph, at rebuild-path
        speed); every built-in opts in, and deterministic built-ins return
        the same set on both representations when the frozen input is
        interned in ``repr`` order.
    guarantee:
        Callable mapping a graph to the approximation factor λ the
        algorithm guarantees on that graph (``None`` when no worst-case
        guarantee is claimed — e.g. purely heuristic baselines).
    description:
        One-line description used in benchmark tables.
    """

    name: str
    solve: Callable[[Graph], Set[Vertex]]
    guarantee: Optional[Callable[[Graph], float]] = None
    description: str = ""
    accepts_frozen: bool = False

    def __call__(self, graph: Graph) -> Set[Vertex]:
        """Run the approximator and verify that its output is independent."""
        result = self.solve(graph)
        verify_independent_set(graph, result)
        if graph.num_vertices() > 0 and not result:
            raise ApproximationError(
                f"approximator {self.name!r} returned an empty set on a non-empty graph; "
                "no finite approximation factor can hold"
            )
        return set(result)

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
    The campaign runtime's ``capped:<name>`` oracles and the reduction
    benchmark use it; its name is ``<base_name>@1/<λ>``.
    """
    base = get_approximator(base_name)

    def solve(graph):
        full = sorted(base.solve(graph), key=repr)
        target = max(1, math.ceil(len(full) / lam))
        return set(full[:target])

    return MaxISApproximator(
        name=f"{base_name}@1/{lam:g}",
        solve=solve,
        accepts_frozen=True,  # delegates to a built-in, which handles views
        description=f"{base_name} capped to a 1/{lam:g} fraction (worst-case λ regime).",
    )
