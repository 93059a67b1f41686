"""Outside-in layer ledger: in-memory spans around the public entry points of ``repro``.

The traced benchmark run installs wrappers (from this file, never from
``src/``) around one public entry point per layer, records a span per call
in memory, and reports each layer's *self time*: the span's duration minus
the time covered by its child spans.  Every measured operation runs under
one root span, so the self times of all spans sum exactly to the traced
wall time; the root's own self time is the residual, the time no wrapped
layer claims.

Wrappers record only while a root span is open, so correctness checks run
outside the measured region are not charged to any layer.  They are
installed for the traced operations only and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the root span every measured operation runs under; its self
#: time is the residual column of the layer table.
ROOT = "residual"
#: Name of the span of one garbage collection.
GC = "gc.collect_s"

#: Layer module of each per-layer metric, and the end-to-end metric and
#: workload it should move.  The names and units themselves are declared
#: once, in ``per_layer`` of ``BENCHMARK.json``; timings are self seconds
#: per traced operation, counts are per operation.
LAYERS: Dict[str, Tuple[str, str]] = {
    "maxis.greedy-min-degree.solve_s": ("repro.maxis", "tasks_per_s, task_ms.p99 on kernel-mix; none on multiphase-capped"),
    "maxis.greedy-first-fit.solve_s": ("repro.maxis", "tasks_per_s, task_ms.p99 on kernel-mix; none on multiphase-capped"),
    "maxis.capped-greedy-first-fit.solve_s": ("repro.maxis", "tasks_per_s, task_ms.p99 on kernel-mix; none on multiphase-capped"),
    "maxis.calls": ("repro.maxis", "tasks_per_s on kernel-mix"),
    "maxis.vertices_offered": ("repro.maxis", "tasks_per_s on kernel-mix"),
    "conflict_graph.build_s": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "conflict_graph.builds": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "conflict_graph.edges_built": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "conflict_graph.freeze_s": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "conflict_graph.remove_s": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "conflict_graph.hyperedges_removed": ("repro.core.conflict_graph", "tasks_per_s on multiphase-capped, then kernel-mix"),
    "happiness.init_s": ("repro.core.happiness", "task_ms.p50 on multiphase-capped"),
    "happiness.commit_s": ("repro.core.happiness", "task_ms.p50 on multiphase-capped"),
    "happiness.remove_s": ("repro.core.happiness", "task_ms.p50 on multiphase-capped"),
    "correspondence.s": ("repro.core.correspondence", "task_ms.p50 on multiphase-capped"),
    "core.happy_per_selected": ("repro.core.happiness", "task_ms.p50 on multiphase-capped (>= 1 by Lemma 2.1(b))"),
    "reduction.self_s": ("repro.core.reduction", "task_ms.p50 on multiphase-capped"),
    "reduction.phases": ("repro.core.reduction", "task_ms.p50 on multiphase-capped"),
    "hypergraph.build_s": ("repro.hypergraph", "tasks_per_s on multiphase-capped (every task misses the cache)"),
    "hypergraph.builds": ("repro.hypergraph", "tasks_per_s on multiphase-capped (every task misses the cache)"),
    "hypergraph.copy_s": ("repro.hypergraph", "tasks_per_s on multiphase-capped (every task misses the cache)"),
    "hypergraph.remove_s": ("repro.hypergraph", "tasks_per_s on multiphase-capped (every task misses the cache)"),
    "tasks.self_s": ("repro.runtime.tasks", "tasks_per_s on kernel-mix; none on multiphase-capped"),
    "tasks.instance_digest_s": ("repro.runtime.tasks", "tasks_per_s on kernel-mix (hits recompute the digest); none on multiphase-capped"),
    "tasks.cache_hit_ratio": ("repro.runtime.tasks", "tasks_per_s on kernel-mix; none on multiphase-capped"),
    "tasks.cache_lookups": ("repro.runtime.tasks", "base of tasks.cache_hit_ratio"),
    "io.serialize_s": ("repro.hypergraph.io", "tasks_per_s on kernel-mix, resume_s on resume-large"),
    "io.row_bytes": ("repro.hypergraph.io", "tasks_per_s on kernel-mix, resume_s on resume-large"),
    "store.append_s": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "store.rows_appended": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "store.latest_rows_s": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "store.rows_scanned": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "store.summaries_s": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "store.sidecar_bytes_written": ("repro.runtime.store", "resume_s, report_s on resume-large"),
    "spec.expand_s": ("repro.runtime.spec", "resume_s on resume-large"),
    "scheduler.self_s": ("repro.runtime.scheduler", "resume_s on resume-large"),
    "scheduler.pending": ("repro.runtime.scheduler", "resume_s on resume-large"),
    "summary.records_s": ("repro.runtime.summary", "report_s on resume-large"),
    "aggregate.digest_s": ("repro.runtime.aggregate", "report_s on resume-large"),
    "obs.snapshot_s": ("repro.obs", "small on every workload"),
    "gc.collect_s": ("python gc", "resume_s on resume-large (collections over the rows latest_rows holds)"),
    "trace.residual_s": ("perfbench", "time no wrapped layer claims (benchmark glue)"),
    "trace.overhead": ("perfbench", "traced over untraced operation wall time"),
    "trace.traced_wall_s": ("perfbench", "base of trace.overhead"),
    "trace.untraced_wall_s": ("perfbench", "base of trace.overhead"),
}

#: Counts read as deltas of the program's own ``repro.obs`` counters over
#: the traced operations: ``name -> (counter family, required labels)``.
REGISTRY_COUNTS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "tasks.cache_lookups": ("repro_instance_cache_total", {}),
    "tasks.cache_hits": ("repro_instance_cache_total", {"outcome": "hit"}),
    "reduction.phases": ("repro_reduction_phases_total", {}),
    "store.rows_appended": ("repro_store_rows_appended_total", {}),
}


def maxis_metric(approximator_name: str) -> str:
    """The solve-time metric of an oracle: ``capped:`` spelled ``capped-``.

    ``capped_oracle`` names its approximator ``<base>@1/<λ>``; every λ of
    one base oracle shares one metric.
    """
    base, capped, _lam = approximator_name.partition("@")
    return f"maxis.{'capped-' if capped else ''}{base}.solve_s"


def self_times(spans: Sequence[Tuple[str, Optional[int], float, float]]) -> Dict[str, float]:
    """Sum each span name's self time over ``(name, parent_index, start, end)`` spans.

    A span's self time is its duration minus the durations of its direct
    children.  Children of one span never overlap (one thread), so the
    self times of a tree sum exactly to its root's duration.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, _parent, start, end) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


class Ledger:
    """In-memory span recorder and per-layer counters for one benchmark run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(name, parent_index, start, end)`` per closed-or-open span.
        self.spans: List[List] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        # Allocating the span may run a garbage collection, whose own span
        # (see ``installed``) must land before this one is indexed.
        span = [name, parent, 0.0, None]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span[2] = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextlib.contextmanager
    def root(self):
        """One measured operation: the root span."""
        index = self.open(ROOT)
        try:
            yield self
        finally:
            self.close(index)

    def self_times(self) -> Dict[str, float]:
        return self_times([tuple(span) for span in self.spans])

    def traced_wall_s(self) -> float:
        return sum(end - start for name, parent, start, end in self.spans if parent is None)


def _wrap(ledger: Ledger, fn, metric=None, after=None, before=None):
    """Wrap ``fn``: a span named ``metric`` (a str, or a callable of the args) and count hooks.

    ``before(ledger, args)`` runs before the call and its result is handed
    to ``after(ledger, args, result, state)``; both run outside the span.
    Outside a root span the wrapper only calls through.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not ledger.recording:
            return fn(*args, **kwargs)
        state = before(ledger, args) if before is not None else None
        if metric is None:
            result = fn(*args, **kwargs)
        else:
            index = ledger.open(metric(args) if callable(metric) else metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.close(index)
        if after is not None:
            after(ledger, args, result, state)
        return result

    return wrapper


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _sidecar_state(ledger, args):
    """``(mtime, size)`` of the store's summary sidecar, or None when it does not exist."""
    try:
        stat = os.stat(args[0].aggregates_path)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


def _sidecar_written(ledger, args, result, before) -> None:
    after = _sidecar_state(ledger, args)
    if after is not None and after != before:
        ledger.count("store.sidecar_bytes_written", after[1])


def registry_counts() -> Dict[str, float]:
    """Current totals of the :data:`REGISTRY_COUNTS` counters, summed over matching label sets."""
    from repro.obs.metrics import get_registry

    families = {family.name: family for family in get_registry().families()}
    totals: Dict[str, float] = {}
    for name, (family_name, required) in REGISTRY_COUNTS.items():
        family = families.get(family_name)
        children = family.children() if family is not None else []
        totals[name] = sum(
            child.value
            for label_values, child in children
            if required.items() <= dict(zip(family.label_names, label_values)).items()
        )
    return totals


def _reduction_counts(ledger, args, result, state) -> None:
    ledger.count("core.happy_edges", sum(len(p.happy_edges) for p in result.phases))
    ledger.count("core.selected", sum(p.independent_set_size for p in result.phases))


def _hooks():
    """``(owner, attribute, metric, after, before)`` for every wrapped entry point."""
    import repro.core.reduction as reduction
    import repro.runtime as runtime
    import repro.runtime.scheduler as scheduler
    import repro.runtime.tasks as tasks
    from repro.core.conflict_graph import ConflictGraph
    from repro.core.happiness import HappinessTracker
    from repro.hypergraph import Hypergraph
    from repro.maxis import MaxISApproximator
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.spec import CampaignSpec
    from repro.runtime.store import BaseCampaignStore, CampaignStore

    def counter(name, amount):
        return lambda ledger, args, result, state: ledger.count(name, amount(args, result))

    def oracle_call(ledger, args, result, state):
        ledger.count("maxis.calls")
        ledger.count("maxis.vertices_offered", args[1].num_vertices())

    def conflict_graph_built(ledger, args, result, state):
        ledger.count("conflict_graph.builds")
        ledger.count("conflict_graph.edges_built", args[0].num_edges())

    def row_written(ledger, args, result, before):
        ledger.count("io.row_bytes", _file_size(args[0].results_path) - before)

    return [
        (runtime, "run_campaign", "scheduler.self_s",
         counter("scheduler.pending", lambda a, r: r.executed), None),
        (scheduler, "execute_task", "tasks.self_s", None, None),
        (tasks, "build_instance", "hypergraph.build_s",
         counter("hypergraph.builds", lambda a, r: 1), None),
        (tasks, "instance_digest", "tasks.instance_digest_s", None, None),
        (tasks, "reduction_result_to_dict", "io.serialize_s", None, None),
        (reduction.ConflictFreeMulticoloringViaMaxIS, "run", "reduction.self_s",
         _reduction_counts, None),
        (reduction, "independent_set_to_coloring", "correspondence.s", None, None),
        (Hypergraph, "copy", "hypergraph.copy_s", None, None),
        (Hypergraph, "remove_edges", "hypergraph.remove_s", None, None),
        (ConflictGraph, "__init__", "conflict_graph.build_s", conflict_graph_built, None),
        (ConflictGraph, "frozen_sorted", "conflict_graph.freeze_s", None, None),
        (ConflictGraph, "remove_hyperedges", "conflict_graph.remove_s",
         counter("conflict_graph.hyperedges_removed", lambda a, r: len(set(a[1]))), None),
        (HappinessTracker, "__init__", "happiness.init_s", None, None),
        (HappinessTracker, "commit", "happiness.commit_s", None, None),
        (HappinessTracker, "remove_edges", "happiness.remove_s", None, None),
        (MaxISApproximator, "__call__", lambda args: maxis_metric(args[0].name),
         oracle_call, None),
        (CampaignStore, "append", "store.append_s", row_written,
         lambda ledger, args: _file_size(args[0].results_path)),
        (BaseCampaignStore, "latest_rows", "store.latest_rows_s", None, None),
        (CampaignStore, "rows", None,
         counter("store.rows_scanned", lambda a, r: len(r)), None),
        (CampaignStore, "summaries", "store.summaries_s", _sidecar_written, _sidecar_state),
        (CampaignSpec, "task_payloads", "spec.expand_s", None, None),
        (runtime, "records_from_summaries", "summary.records_s", None, None),
        (runtime, "campaign_digest", "aggregate.digest_s", None, None),
        (MetricsRegistry, "write_snapshot", "obs.snapshot_s", None, None),
    ]


class installed:
    """Context manager: wrap every hooked entry point for ``ledger``, restore on exit.

    Garbage collections get a ``gc.collect_s`` span of their own, so a
    collection is not charged to whichever layer happened to allocate.  On
    exit the deltas of :data:`REGISTRY_COUNTS` are added to the ledger's counts.
    """

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._saved: List[Tuple[object, str, object]] = []
        self._collection: Optional[int] = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self.ledger.recording:
            self._collection = self.ledger.open(GC)
        elif phase == "stop" and self._collection is not None:
            self.ledger.close(self._collection)
            self._collection = None

    def __enter__(self) -> Ledger:
        for owner, attribute, metric, after, before in _hooks():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(self.ledger, original, metric, after, before))
        gc.callbacks.append(self._on_gc)
        self._registry_base = registry_counts()
        return self.ledger

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for name, total in registry_counts().items():
            self.ledger.count(name, total - self._registry_base[name])
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def layer_metrics(
    ledger: Ledger,
    declared: Sequence[Tuple[str, str]],
    operations: int,
    untraced_wall_s: float,
    untraced_operations: int,
    scale: float = 1.0,
) -> Dict[str, float]:
    """The value of every declared ``(name, unit)`` per-layer metric, per traced operation.

    Span times are multiplied by ``scale``, the mean reference-host scale of
    the traced operations; ``untraced_wall_s`` comes already scaled.
    """
    totals = {name: seconds * scale for name, seconds in ledger.self_times().items()}
    counts = ledger.counts
    values: Dict[str, float] = {}
    for name, unit in declared:
        if unit == "s" and not name.startswith("trace."):
            values[name] = totals.get(name, 0.0) / operations
        elif unit in ("count", "bytes"):
            values[name] = counts.get(name, 0.0) / operations
    values["core.happy_per_selected"] = _ratio(counts.get("core.happy_edges", 0), counts.get("core.selected", 0))
    values["tasks.cache_hit_ratio"] = _ratio(counts.get("tasks.cache_hits", 0), counts.get("tasks.cache_lookups", 0))
    values["io.row_bytes"] = _ratio(counts.get("io.row_bytes", 0), counts.get("store.rows_appended", 0))
    traced = ledger.traced_wall_s() * scale / operations
    untraced = untraced_wall_s / untraced_operations
    values["trace.residual_s"] = totals.get(ROOT, 0.0) / operations
    values["trace.traced_wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead"] = _ratio(traced, untraced)
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_table(ledger: Ledger) -> str:
    """Self time per layer metric over all traced operations, summing to the traced wall time."""
    totals = ledger.self_times()
    wall = ledger.traced_wall_s()
    residual = totals.pop(ROOT, 0.0)
    lines = [f"{'layer metric':<40} {'module':<28} {'self_s':>9} {'share':>7}"]
    spans = ledger.spans
    collections: Dict[str, float] = defaultdict(float)
    for name, parent, start, end in spans:
        if name == GC and parent is not None:
            collections[spans[parent][0]] += end - start
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        lines.append(
            f"{name:<40} {LAYERS.get(name, ('?',))[0]:<28} {seconds:>9.4f} {_share(seconds, wall):>7}"
        )
        if name == GC:
            for during, spent in sorted(collections.items(), key=lambda item: -item[1])[:4]:
                lines.append(f"{'  during ' + during:<40} {'':<28} {spent:>9.4f} {_share(spent, wall):>7}")
    lines.append(f"{'residual':<40} {'(no wrapped layer)':<28} {residual:>9.4f} {_share(residual, wall):>7}")
    attributed = sum(totals.values())
    lines.append(
        f"{'total = traced wall':<40} {'':<28} {attributed + residual:>9.4f} "
        f"{_share(attributed + residual, wall):>7}   (traced wall {wall:.4f} s)"
    )
    return "\n".join(lines)


def _share(seconds: float, wall: float) -> str:
    return f"{100 * seconds / wall:.1f}%" if wall else "-"
