"""Task construction and execution for experiment campaigns.

A task payload (produced by :meth:`repro.runtime.spec.CampaignSpec.task_payloads`)
is a plain dict, so it pickles cheaply across the scheduler's worker pool.
:func:`execute_task` is a *pure function* of that payload — the instance is
generated from the payload's derived seed, the oracle comes from the
registry, and the reduction itself is deterministic — so the result row is
byte-identical no matter which process runs it.  Only the wall-time fields
(and the ``instance_cache_hit`` flag, which depends on execution order)
vary between runs; the aggregation layer excludes them from its digest.

Instance generation is memoized per process by :class:`InstanceCache`:
the cache key is the exact generator call signature — family, size, the
coordinates the family's generator actually consumes, and the derived
instance seed — so grid points that differ only in oracle or λ (which
share an instance seed, see :func:`instance_key`) build their hypergraph
once per worker and reuse it for every oracle swept over it.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.exceptions import CampaignError, ReproError, TaskTimeout
from repro.hypergraph import (
    Hypergraph,
    almost_uniform_hypergraph,
    colorable_almost_uniform_hypergraph,
    random_interval_hypergraph,
    uniform_random_hypergraph,
)
from repro.hypergraph.io import hypergraph_to_json, reduction_result_to_dict

#: Hypergraph families a campaign can sweep over.  Each maps the spec's
#: ``(n, m, k, epsilon, seed)`` coordinates onto one generator from
#: :mod:`repro.hypergraph.generators`.
FAMILIES = ("uniform", "almost-uniform", "colorable", "interval")

#: Prefix selecting the λ-capped variant of a registry oracle (the
#: worst-case multi-phase regime of ``repro bench reduction``).
CAPPED_PREFIX = "capped:"

#: Families whose generator consumes the palette size ``k`` (as edge size
#: or uniformity parameter) / the almost-uniformity slack ``epsilon``.
#: Coordinates a generator ignores are excluded from the instance key, so
#: e.g. interval tasks with different ``k`` share one instance.
_K_FAMILIES = ("uniform", "almost-uniform", "colorable")
_EPSILON_FAMILIES = ("almost-uniform", "colorable")


def instance_key(
    family: str, n: int, m: int, k: int, epsilon: float, replicate: int
) -> str:
    """Stable identifier of a task's *instance* (the seed-derivation key).

    Unlike the task key, the instance key deliberately excludes the oracle
    and λ (they never influence instance generation) and the per-family
    coordinates the generator ignores.  Tasks that differ only in those
    axes therefore derive the *same* instance seed — every oracle of a
    campaign is evaluated on identical instances, and the per-worker
    :class:`InstanceCache` can serve repeated grid points from memory.
    """
    parts = [f"family={family}", f"n={n}", f"m={m}"]
    if family in _K_FAMILIES or family not in FAMILIES:
        parts.append(f"k={k}")
    if family in _EPSILON_FAMILIES or family not in FAMILIES:
        parts.append(f"eps={epsilon:g}")
    parts.append(f"rep={replicate}")
    return " ".join(parts)


def instance_cache_key(
    family: str, n: int, m: int, k: int, epsilon: float, seed: int
) -> Tuple:
    """The memoization key of :class:`InstanceCache`: the generator call signature.

    Coordinates the family's generator ignores are normalized to ``None``
    so they cannot split cache entries that would build identical
    hypergraphs (matching the exclusions of :func:`instance_key`).
    """
    return (
        family,
        n,
        m,
        k if family in _K_FAMILIES or family not in FAMILIES else None,
        epsilon if family in _EPSILON_FAMILIES or family not in FAMILIES else None,
        seed,
    )


class InstanceCache:
    """Per-process memo of generated hypergraph instances, with hit/miss stats.

    Reductions never mutate their input (``run`` copies the hypergraph
    first), so one cached instance can safely serve every task that shares
    its cache key.  The cache is bounded (FIFO eviction) and process-local:
    pool workers each hold their own copy, and a persistent
    :class:`~repro.runtime.scheduler.WorkerPool` keeps those worker caches
    warm across ``run_campaign`` calls.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise CampaignError(f"instance cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, Hypergraph]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self.hits = 0
        self.misses = 0
        self._entries.clear()

    def get_or_build(
        self, family: str, n: int, m: int, k: int, epsilon: float, seed: int
    ) -> Tuple[Hypergraph, bool]:
        """Return ``(instance, cache_hit)``, building and caching on a miss."""
        key = instance_cache_key(family, n, m, k, epsilon, seed)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached, True
        self.misses += 1
        with obs.span("instance_build", family=family, n=n, m=m):
            hypergraph = build_instance(
                family=family, n=n, m=m, k=k, epsilon=epsilon, seed=seed
            )
        self._entries[key] = hypergraph
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return hypergraph, False


#: The process-level cache :func:`execute_task` builds instances through.
INSTANCE_CACHE = InstanceCache()


def validate_oracle_name(oracle: str) -> None:
    """Raise :class:`CampaignError` unless ``oracle`` resolves against the registry."""
    from repro.maxis import available_approximators

    if not isinstance(oracle, str) or not oracle:
        raise CampaignError(f"oracle name must be a non-empty string, got {oracle!r}")
    base = oracle[len(CAPPED_PREFIX):] if oracle.startswith(CAPPED_PREFIX) else oracle
    known = available_approximators()
    if base not in known:
        raise CampaignError(
            f"unknown oracle {oracle!r}; known registry names: {sorted(known)} "
            f"(prefix with {CAPPED_PREFIX!r} for the λ-capped variant)"
        )


def resolve_oracle(oracle: str, lam: float):
    """Resolve an oracle spec string to an approximator.

    ``capped:<name>`` wraps the registry oracle ``<name>`` with
    :func:`repro.maxis.capped_oracle` at the task's λ — an oracle that only
    achieves its worst-case guarantee, which is what makes the paper's
    ``ρ = λ·ln m + 1`` multi-phase regime observable.
    """
    from repro.maxis import capped_oracle, get_approximator

    if oracle.startswith(CAPPED_PREFIX):
        return capped_oracle(oracle[len(CAPPED_PREFIX):], lam=lam)
    return get_approximator(oracle)


def build_instance(
    family: str, n: int, m: int, k: int, epsilon: float, seed: int
) -> Hypergraph:
    """Generate the task's hypergraph instance from its grid coordinates."""
    if family == "uniform":
        return uniform_random_hypergraph(n=n, m=m, edge_size=k, seed=seed)
    if family == "almost-uniform":
        return almost_uniform_hypergraph(n=n, m=m, k=k, epsilon=epsilon, seed=seed)
    if family == "colorable":
        hypergraph, _planted = colorable_almost_uniform_hypergraph(
            n=n, m=m, k=k, epsilon=epsilon, seed=seed
        )
        return hypergraph
    if family == "interval":
        return random_interval_hypergraph(n_points=n, n_intervals=m, seed=seed)
    raise CampaignError(f"unknown hypergraph family {family!r}; known: {sorted(FAMILIES)}")


def instance_digest(hypergraph: Hypergraph) -> str:
    """Content digest of an instance (stored per task; catches seed drift)."""
    return hashlib.sha256(hypergraph_to_json(hypergraph).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def watchdog(timeout_s: Optional[float]):
    """Arm a per-task watchdog that raises :class:`TaskTimeout` after ``timeout_s``.

    Implemented with ``SIGALRM`` + ``setitimer``, so it interrupts pure
    Python and C-level sleeps alike — which is what turns a wedged oracle
    (or an injected chaos hang) into a recoverable ``timeout`` row
    instead of a stalled worker.  Armed only when a deadline is given,
    the platform has ``SIGALRM``, and we are on the process's main thread
    (worker processes of a ``multiprocessing`` pool qualify; threads
    cannot install signal handlers, so there the watchdog degrades to a
    no-op and the supervisor's heartbeat deadline is the backstop).
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded its {timeout_s:g}s watchdog deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one campaign task and return its result row (never raises).

    The row always carries ``task_key``, ``status`` and the (digest-
    excluded, like timing) ``attempt`` counter; on success it adds the
    instance digest, the serialized :class:`ReductionResult`, the timing
    fields and the (order-dependent, digest-excluded)
    ``instance_cache_hit`` flag, on failure the error type and message.
    Library errors (infeasible grid coordinates, oracle violations, …)
    become ``status="failed"`` rows so one bad grid point cannot take down
    a campaign; a task that outlives the payload's ``task_timeout_s``
    watchdog becomes a terminal ``status="timeout"`` row; everything else
    propagates, because it indicates a bug.

    When the payload carries a ``chaos`` fault plan (see
    :mod:`repro.runtime.faults`), the plan's decision for this
    ``(task_key, attempt)`` fires first: a synthetic failure raises (and
    is recorded) like a library error, a hang blocks until the watchdog
    or the supervisor cuts it short, and a kill terminates the worker
    process outright — no row is written at all, which is precisely the
    failure the shard coordinator's heartbeats exist to detect.
    """
    start = time.perf_counter()
    attempt = payload.get("attempt", 1)
    row: Dict[str, Any] = {
        "task_key": payload["task_key"],
        "family": payload["family"],
        "k": payload["k"],
        "oracle": payload["oracle"],
        "lam": payload["lam"],
        "instance_seed": payload["instance_seed"],
        "attempt": attempt,
    }
    task_span = obs.span("task", task_key=payload["task_key"], attempt=attempt)
    task_span.__enter__()
    try:
        from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS

        with watchdog(payload.get("task_timeout_s")):
            if payload.get("chaos") is not None:
                from repro.runtime.faults import inject_fault

                inject_fault(payload["chaos"], payload["task_key"], attempt)
            hypergraph, cache_hit = INSTANCE_CACHE.get_or_build(
                family=payload["family"],
                n=payload["n"],
                m=payload["m"],
                k=payload["k"],
                epsilon=payload["epsilon"],
                seed=payload["instance_seed"],
            )
            oracle = resolve_oracle(payload["oracle"], payload["lam"])
            reduction = ConflictFreeMulticoloringViaMaxIS(
                k=payload["k"], approximator=oracle, lam=payload["lam"]
            )
            result = reduction.run(hypergraph)
        row.update(
            {
                "status": "done",
                "n": hypergraph.num_vertices(),
                "m": hypergraph.num_edges(),
                "peak_triples": payload["k"] * hypergraph.total_edge_size(),
                "instance_digest": instance_digest(hypergraph),
                "result": reduction_result_to_dict(result),
                "wall_time_s": time.perf_counter() - start,
                "happy_check_wall_time_s": reduction.last_happy_check_wall_time_s,
                "instance_cache_hit": cache_hit,
            }
        )
    except TaskTimeout as exc:
        row.update(
            {
                "status": "timeout",
                "error_type": type(exc).__name__,
                "error": str(exc),
                "task_timeout_s": payload.get("task_timeout_s"),
                "wall_time_s": time.perf_counter() - start,
            }
        )
    except ReproError as exc:
        row.update(
            {
                "status": "failed",
                "error_type": type(exc).__name__,
                "error": str(exc),
                "wall_time_s": time.perf_counter() - start,
            }
        )
    finally:
        # Explicit enter/exit (not `with`): an injected chaos kill exits
        # the process inside the body, and the span must not swallow or
        # reorder the except clauses above that build the result row.
        task_span.set(status=row.get("status", "crashed"))
        task_span.__exit__(None, None, None)
    return row
