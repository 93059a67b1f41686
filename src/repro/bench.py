"""Performance harness: timed conflict-graph builds and MIS solves.

This module is the library half of ``benchmarks/perf_harness.py`` and the
``repro bench`` CLI subcommand.  It times the two hottest layers of the
pipeline on the standard workload families (the same families the
benchmark suite under ``benchmarks/`` uses) and writes machine-readable
trajectories:

* ``BENCH_conflict_graph.json`` — wall time of the mask
  :class:`~repro.core.conflict_graph.ConflictGraph` builder next to the
  retained legacy (seed) builder, per workload;
* ``BENCH_maxis.json`` — wall time of each registered MIS approximator on
  the conflict graphs of the same workloads plus the plain-graph family;
* ``BENCH_reduction.json`` — wall time of the full Theorem 1.1 pipeline
  (``ConflictFreeMulticoloringViaMaxIS.run``, the incremental phase
  engine) next to the retained rebuild-per-phase path
  (:meth:`~repro.core.reduction.ConflictFreeMulticoloringViaMaxIS.run_rebuild`),
  per workload and oracle regime, with result equality asserted;
* ``BENCH_campaign.json`` — throughput (tasks/s) of the campaign runtime
  (:mod:`repro.runtime`): the serial reference executor vs. per-call
  worker pools vs. a sharded run fused by ``merge_shards`` vs. a
  persistent warm ``WorkerPool`` vs. a supervised sharded run,
  all on one fixed campaign, with the deterministic aggregate digest
  asserted equal across every configuration (and, per run, the
  incremental-report digest asserted equal to the full-row reference).

JSON schema (``schema_version`` 1): the top level carries
``schema_version``, ``benchmark``, ``generated_by`` and ``records``; every
record carries ``label`` (workload), ``n`` / ``m`` (size of the object
being processed), ``wall_time_s`` and ``peak_triples`` (``|V(G_k)|``, the
high-water number of conflict triples the workload materializes).
Conflict-graph records add ``k``, ``num_edges``, ``legacy_wall_time_s``
and ``speedup``; MIS records add ``algorithm``, ``is_size`` and
``kernel_wall_time_s`` (the solve alone, on a graph frozen outside the
timer; ``wall_time_s`` also pays the freeze); campaign
records add ``workers``, ``tasks``, ``tasks_per_s``, ``speedup`` (vs.
the serial executor), ``shards`` (1 unless the run was shard-split),
``pool_warm`` (persistent pool reused across runs), ``cache_hits``
(instance builds served by the per-process cache),
``report_wall_time_s`` (a warm incremental report on the
already-aggregated store — the O(new rows) query-path deliverable) and
``store_backend`` (always ``jsonl``, kept for trajectory comparability;
plus the informational ``digest``); reduction
records add ``k``, ``num_phases``, ``total_colors``,
``rebuild_wall_time_s``, ``happy_check_wall_time_s`` (seconds the
incremental engine's incidence-driven happy check,
:meth:`ConflictGraph.happy_edges`, spent across all phases of the timed
run; ``rebuild_happy_check_wall_time_s`` is the informational full-scan
counterpart) and ``speedup`` (plus the
informational ``oracle`` and ``lam``).  Later PRs must keep these keys so the trajectory stays
comparable (:func:`validate_bench_payload` is the schema check used by
tests and ``make bench-smoke``).

One deliberate semantics change since the incremental engine (PR 2):
conflict-graph ``wall_time_s`` times the :class:`ConflictGraph`
constructor, which now produces the frozen bitset snapshot the pipeline
consumes instead of an eagerly built mutable ``Graph``.  The extra
``graph_wall_time_s`` key also materializes the mutable graph — that is
the pre-PR-2 deliverable, so cross-PR comparisons spanning the change
should use it.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

CONFLICT_GRAPH_BENCH = "BENCH_conflict_graph.json"
MAXIS_BENCH = "BENCH_maxis.json"
REDUCTION_BENCH = "BENCH_reduction.json"
CAMPAIGN_BENCH = "BENCH_campaign.json"

SCHEMA_VERSION = 1

#: The benchmark families ``run()`` knows how to produce.
FAMILIES = ("conflict-graph", "maxis", "reduction", "campaign")

#: The instance-size sweep of the benchmark suite's ``hypergraph_family``.
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = ((30, 20), (60, 40), (90, 60), (120, 80))
#: The single smallest workload, for smoke runs.
SMOKE_SIZES: Tuple[Tuple[int, int], ...] = ((30, 20),)

#: MIS algorithms timed by default (registry names).  ``exact`` is omitted:
#: it is exponential and the conflict graphs here exceed its size guard.
#: ``greedy-min-degree`` exercises the popcount-recompute bucket-queue
#: kernel and ``luby-batch-of-8`` the bit-parallel batched Luby rounds.
DEFAULT_MAXIS_ALGORITHMS: Tuple[str, ...] = (
    "greedy-min-degree",
    "greedy-first-fit",
    "luby-best-of-5",
    "luby-batch-of-8",
)


# ----------------------------------------------------------------------
# workload families (shared with benchmarks/conftest.py)
# ----------------------------------------------------------------------
def hypergraph_family(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES, k: int = 4, epsilon: float = 0.5
):
    """Return ``[(label, hypergraph, planted, k)]`` for a sweep of instance sizes."""
    from repro.hypergraph import colorable_almost_uniform_hypergraph

    family = []
    for idx, (n, m) in enumerate(sizes):
        hypergraph, planted = colorable_almost_uniform_hypergraph(
            n=n, m=m, k=k, epsilon=epsilon, seed=100 + idx
        )
        family.append((f"n={n},m={m}", hypergraph, planted, k))
    return family


def graph_family():
    """Return ``[(label, graph)]`` for the MIS model-comparison experiment (E7)."""
    from repro.graphs import cycle_graph, erdos_renyi_graph, grid_graph, random_tree

    return [
        ("cycle C_64", cycle_graph(64)),
        ("grid 8x8", grid_graph(8, 8)),
        ("tree n=64", random_tree(64, seed=5)),
        ("G(64, 0.08)", erdos_renyi_graph(64, 0.08, seed=6)),
        ("G(64, 0.20)", erdos_renyi_graph(64, 0.20, seed=7)),
    ]


def interval_family():
    """Return ``[(label, hypergraph, n_points)]`` of interval hypergraphs (E8)."""
    from repro.hypergraph import random_interval_hypergraph

    result = []
    for n_points, n_intervals, seed in [(16, 12, 1), (32, 24, 2), (48, 36, 3)]:
        hypergraph = random_interval_hypergraph(n_points, n_intervals, seed=seed)
        result.append((f"points={n_points}", hypergraph, n_points))
    return result


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def _best_time(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def bench_conflict_graph(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    k: int = 4,
    repeats: int = 3,
    include_legacy: bool = True,
) -> List[Dict[str, object]]:
    """Time the mask builder (and optionally the legacy one) per workload."""
    from repro.core.conflict_graph import ConflictGraph, legacy_build_graph

    records: List[Dict[str, object]] = []
    for label, hypergraph, _planted, kk in hypergraph_family(sizes=sizes, k=k):
        # ``wall_time_s`` times the constructor alone — since the
        # incremental engine landed, that builds the adjacency rows plus
        # the frozen bitset snapshot, which is exactly what the reduction's
        # phase loop consumes (the mutable .graph became a lazily
        # materialized compatibility view).  ``graph_wall_time_s``
        # additionally materializes that mutable Graph, i.e. the deliverable
        # PR 1 timed: compare *that* key against pre-PR-2 ``wall_time_s``
        # values when reading the trajectory across the change.
        fast_s, cg = _best_time(lambda: ConflictGraph(hypergraph, kk), repeats)

        def build_with_graph():
            full = ConflictGraph(hypergraph, kk)
            full.graph
            return full

        graph_s, _cg2 = _best_time(build_with_graph, repeats)
        record: Dict[str, object] = {
            "label": label,
            "n": hypergraph.num_vertices(),
            "m": hypergraph.num_edges(),
            "k": kk,
            "peak_triples": cg.num_vertices(),
            "num_edges": cg.num_edges(),
            "wall_time_s": fast_s,
            "graph_wall_time_s": graph_s,
        }
        if include_legacy:
            legacy_s, legacy = _best_time(lambda: legacy_build_graph(hypergraph, kk), repeats)
            if legacy != cg.graph:
                raise AssertionError(
                    f"mask and legacy conflict graphs differ on workload {label!r}"
                )
            record["legacy_wall_time_s"] = legacy_s
            # None (not inf) when the timer underflows: json.dumps would emit
            # the non-standard `Infinity` token and break strict consumers.
            record["speedup"] = legacy_s / fast_s if fast_s > 0 else None
        records.append(record)
    return records


def bench_maxis(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    k: int = 4,
    repeats: int = 3,
    algorithms: Sequence[str] = DEFAULT_MAXIS_ALGORITHMS,
    include_plain_graphs: bool = True,
) -> List[Dict[str, object]]:
    """Time MIS solves on conflict graphs (and the plain-graph family).

    ``wall_time_s`` times the solver on the mutable graph, which includes
    freezing it in ``repr`` order; ``kernel_wall_time_s`` times the same
    solver on a graph frozen once with :func:`freeze_sorted` outside the
    timer, so it measures the oracle alone.
    """
    from repro.core.conflict_graph import ConflictGraph
    from repro.graphs.indexed import freeze_sorted
    from repro.maxis import get_approximator

    workloads: List[Tuple[str, object, int]] = []
    for label, hypergraph, _planted, kk in hypergraph_family(sizes=sizes, k=k):
        cg = ConflictGraph(hypergraph, kk)
        workloads.append((f"G_k[{label}]", cg.graph, cg.num_vertices()))
    if include_plain_graphs:
        for label, graph in graph_family():
            workloads.append((label, graph, 0))

    records: List[Dict[str, object]] = []
    for label, graph, peak_triples in workloads:
        frozen = freeze_sorted(graph)
        for name in algorithms:
            solver = get_approximator(name)
            wall_s, result = _best_time(lambda: solver(graph), repeats)
            kernel_s, _ = _best_time(lambda: solver(frozen), repeats)
            records.append(
                {
                    "label": label,
                    "n": graph.num_vertices(),
                    "m": graph.num_edges(),
                    "algorithm": name,
                    "is_size": len(result),
                    "peak_triples": peak_triples,
                    "wall_time_s": wall_s,
                    "kernel_wall_time_s": kernel_s,
                }
            )
    return records


#: Assumed approximation factor for the λ-capped benchmark oracle.
REDUCTION_LAM = 4.0


def bench_reduction(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    k: int = 4,
    repeats: int = 3,
    lam: float = REDUCTION_LAM,
) -> List[Dict[str, object]]:
    """Time the end-to-end reduction: incremental engine vs. rebuild-per-phase.

    Two oracle regimes per workload: the λ-capped first-fit oracle (the
    multi-phase worst-case regime, ~``λ·ln m`` phases) and the
    full-strength first-fit oracle (the 1–2 phase best case).  Both paths
    must produce identical :class:`~repro.core.reduction.ReductionResult`
    contents; a mismatch aborts the benchmark.
    """
    from repro.core.conflict_graph import ConflictGraph
    from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
    from repro.maxis import capped_oracle, get_approximator

    oracles = [
        (f"first-fit@1/{lam:g}", capped_oracle("greedy-first-fit", lam)),
        ("first-fit", get_approximator("greedy-first-fit")),
    ]
    records: List[Dict[str, object]] = []
    for label, hypergraph, _planted, kk in hypergraph_family(sizes=sizes, k=k):
        peak_triples = kk * hypergraph.total_edge_size()
        for oracle_label, oracle in oracles:
            reduction = ConflictFreeMulticoloringViaMaxIS(
                k=kk, approximator=oracle, lam=lam
            )
            fast_s, result = _best_time(lambda: reduction.run(hypergraph), repeats)
            # Incidence-driven happy-check seconds of the last incremental
            # run (the engine accumulates them around the per-phase check).
            happy_s = reduction.last_happy_check_wall_time_s
            rebuild_s, reference = _best_time(
                lambda: reduction.run_rebuild(hypergraph), repeats
            )
            rebuild_happy_s = reduction.last_happy_check_wall_time_s
            if (
                result.multicoloring != reference.multicoloring
                or result.phases != reference.phases
                or result.phase_bound != reference.phase_bound
                or result.color_bound != reference.color_bound
            ):
                raise AssertionError(
                    f"incremental and rebuild reductions differ on workload "
                    f"{label!r} with oracle {oracle_label!r}"
                )
            records.append(
                {
                    "label": label,
                    "n": hypergraph.num_vertices(),
                    "m": hypergraph.num_edges(),
                    "k": kk,
                    "oracle": oracle_label,
                    "lam": lam,
                    "peak_triples": peak_triples,
                    "num_phases": result.num_phases,
                    "total_colors": result.total_colors,
                    "wall_time_s": fast_s,
                    "rebuild_wall_time_s": rebuild_s,
                    "happy_check_wall_time_s": happy_s,
                    "rebuild_happy_check_wall_time_s": rebuild_happy_s,
                    # None (not inf) when the timer underflows, as above.
                    "speedup": rebuild_s / fast_s if fast_s > 0 else None,
                }
            )
    return records


#: Worker-pool sizes the campaign benchmark compares against the serial
#: executor (the smoke run only uses the first entry).
CAMPAIGN_WORKER_COUNTS: Tuple[int, ...] = (2, 4)


def _campaign_bench_spec(smoke: bool):
    """The campaign the throughput benchmark executes (8 tasks in smoke, 96 full)."""
    from repro.runtime import CampaignSpec

    if smoke:
        return CampaignSpec(
            name="bench-campaign-smoke",
            seed=7,
            families=("colorable",),
            sizes=((12, 8),),
            ks=(2,),
            oracles=("greedy-first-fit", "capped:greedy-first-fit"),
            lams=(2.0,),
            replicates=4,
        )
    return CampaignSpec(
        name="bench-campaign",
        seed=7,
        families=("colorable", "uniform"),
        sizes=((20, 12), (30, 20)),
        ks=(2,),
        oracles=("greedy-first-fit", "capped:greedy-first-fit"),
        lams=(2.0,),
        replicates=12,
    )


#: Shard count of the sharded-execution benchmark configuration.
CAMPAIGN_BENCH_SHARDS = 2


def bench_campaign(
    smoke: bool = False,
    repeats: int = 3,
    worker_counts: Optional[Sequence[int]] = None,
) -> List[Dict[str, object]]:
    """Time campaign execution: serial vs. pools vs. shards vs. supervision.

    Five execution shapes over the same spec, each into fresh scratch
    directories (best wall time over ``repeats``): the serial reference,
    per-call worker pools, a sharded run (every shard executed serially,
    then fused with ``merge_shards`` — the multi-machine path on one
    machine), a persistent ``WorkerPool`` kept warm across the repeats,
    the same sharded split driven by the fault-tolerant
    :class:`ShardCoordinator` (inline executor, no injected faults — the
    delta against the plain sharded row is the cost of heartbeat
    bookkeeping and supervised merging).  Every record also times a warm
    incremental report (``report_wall_time_s``): the steady-state O(new
    rows) cost of ``repro campaign report`` on an already-aggregated
    store, asserted digest-identical to the full-row reference.  Every
    run's deterministic aggregate digest must equal the serial one — the
    byte-identity contract of the scheduler — or the benchmark aborts.
    ``tasks_per_s`` is the throughput deliverable; ``speedup`` is
    relative to the serial executor on the same machine (bounded by the
    available cores);
    ``cache_hits`` counts instance builds served from the per-process
    :class:`InstanceCache` (the process-local cache is cleared before
    each run, so serial hits are pure within-run oracle/λ sharing);
    ``restarts``/``timeouts``/``retried`` count the fault-tolerance
    machinery's interventions, all zero on a healthy machine.
    """
    import shutil
    import tempfile

    from repro.runtime import (
        INSTANCE_CACHE,
        InlineExecutor,
        ShardCoordinator,
        WorkerPool,
        campaign_digest,
        campaign_records,
        merge_shards,
        open_store,
        records_from_summaries,
        run_campaign,
    )

    spec = _campaign_bench_spec(smoke)
    if worker_counts is None:
        worker_counts = CAMPAIGN_WORKER_COUNTS[:1] if smoke else CAMPAIGN_WORKER_COUNTS

    def summarize(store):
        rows = store.rows()
        digest = campaign_digest(campaign_records(spec, rows))  # full-row reference
        done = [r for r in rows if r["status"] == "done"]
        peak = max((r["peak_triples"] for r in done), default=0)
        # Incremental report: the first summaries() call builds the
        # persisted per-task aggregates; the *timed* second call is the
        # steady-state O(new rows) = O(0) path every later
        # `repro campaign report` takes on an already-aggregated store.
        store.summaries()
        start = time.perf_counter()
        incremental = campaign_digest(records_from_summaries(spec, store.summaries()))
        report_s = time.perf_counter() - start
        if incremental != digest:
            raise AssertionError(
                f"incremental report digest diverged from the full-row "
                f"reference: {incremental[:12]} != {digest[:12]}"
            )
        return digest, len(done), peak, report_s

    # Runners return (stats_list, store, restarts): restarts is always 0
    # for the unsupervised shapes — only the coordinator can re-dispatch.
    def run_serial_or_pool(scratch, workers: int):
        stats = run_campaign(spec, scratch, workers=workers)
        return [stats], open_store(scratch), 0

    def run_sharded(scratch, _workers: int):
        shard_dirs = [
            Path(scratch) / f"shard{i}" for i in range(CAMPAIGN_BENCH_SHARDS)
        ]
        stats = [
            run_campaign(spec, shard_dir, shard=(i, CAMPAIGN_BENCH_SHARDS))
            for i, shard_dir in enumerate(shard_dirs)
        ]
        return stats, merge_shards(Path(scratch) / "merged", shard_dirs), 0

    def make_warm_runner(pool: WorkerPool):
        def run_warm(scratch, _workers: int):
            return [run_campaign(spec, scratch, pool=pool)], open_store(scratch), 0

        return run_warm

    def run_supervised(scratch, _workers: int):
        # Inline executor: each shard runs in-process, so the measured
        # delta vs. the plain sharded row is pure coordinator overhead
        # (dispatch loop, heartbeat files, supervised merge) rather than
        # subprocess start-up.  No chaos plan — the healthy-path cost.
        out = Path(scratch) / "supervised"
        report = ShardCoordinator(
            spec,
            out,
            InlineExecutor(),
            n_shards=CAMPAIGN_BENCH_SHARDS,
            heartbeat_timeout_s=60.0,
            poll_interval_s=0.001,
        ).run()
        return [], open_store(out), report.restarts

    def run_once(runner, workers: int):
        scratch = tempfile.mkdtemp(prefix="bench-campaign-")
        try:
            INSTANCE_CACHE.clear()
            start = time.perf_counter()
            stats_list, store, restarts = runner(scratch, workers)
            wall = time.perf_counter() - start
            digest, done, peak, report_s = summarize(store)
            return stats_list, wall, digest, done, peak, restarts, report_s
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # Parallel speedup is bounded by the cores the scheduler may use;
    # record that bound so the committed trajectory is interpretable
    # across machines (a 1-core container cannot beat the serial path).
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1

    warm_workers = worker_counts[0]
    warm_pool = WorkerPool(warm_workers)
    # (label, runner, workers, shards): the warm pool is primed by an
    # unrecorded run below so every *measured* warm repeat reuses live
    # workers (and their instance caches) — that is the deliverable.
    configurations = (
        [("serial", run_serial_or_pool, 0, 1)]
        + [(f"workers={w}", run_serial_or_pool, w, 1) for w in worker_counts]
        + [
            (f"shards={CAMPAIGN_BENCH_SHARDS}", run_sharded, 0, CAMPAIGN_BENCH_SHARDS),
            (f"workers={warm_workers}-warm", make_warm_runner(warm_pool), warm_workers, 1),
            ("supervised", run_supervised, 0, CAMPAIGN_BENCH_SHARDS),
        ]
    )
    records: List[Dict[str, object]] = []
    reference_digest: Optional[str] = None
    serial_s: Optional[float] = None
    try:
        for label, runner, workers, shards in configurations:
            best_s = float("inf")
            digest = ""
            done = peak = cache_hits = 0
            restarts = timeouts = retried = 0
            report_s = 0.0
            pool_warm = False
            if label.endswith("-warm"):
                run_once(runner, workers)  # prime the pool (unrecorded)
            for _ in range(max(1, repeats)):
                (
                    stats_list,
                    wall,
                    digest,
                    done,
                    peak,
                    run_restarts,
                    run_report_s,
                ) = run_once(runner, workers)
                if reference_digest is None:
                    reference_digest = digest
                if digest != reference_digest:
                    raise AssertionError(
                        f"campaign aggregate digest diverged under {label!r}: "
                        f"{digest[:12]} != serial {reference_digest[:12]}"
                    )
                if wall < best_s:
                    best_s = wall
                    cache_hits = sum(s.cache_hits for s in stats_list)
                    pool_warm = bool(stats_list) and all(
                        s.pool_warm for s in stats_list
                    )
                    restarts = run_restarts
                    timeouts = sum(s.timeouts for s in stats_list)
                    retried = sum(s.retried for s in stats_list)
                    report_s = run_report_s
            if workers == 0 and shards == 1:
                serial_s = best_s
            records.append(
                {
                    "label": label,
                    "n": spec.num_tasks(),
                    "m": done,
                    "k": spec.ks[0],
                    "peak_triples": peak,
                    "workers": max(1, workers),
                    "cpus": cpus,
                    "tasks": spec.num_tasks(),
                    "shards": shards,
                    "pool_warm": pool_warm,
                    "cache_hits": cache_hits,
                    "restarts": restarts,
                    "timeouts": timeouts,
                    "retried": retried,
                    "wall_time_s": best_s,
                    "tasks_per_s": spec.num_tasks() / best_s if best_s > 0 else None,
                    # None (not inf) when the timer underflows, as above.
                    "speedup": serial_s / best_s if best_s > 0 else None,
                    # Warm incremental report on the already-aggregated
                    # store: O(new rows) = O(0) here, vs. wall_time_s
                    # which includes the O(all rows) execution + scan.
                    "report_wall_time_s": report_s,
                    "store_backend": "jsonl",
                    "digest": digest[:12],
                }
            )
    finally:
        warm_pool.close()
    return records


# ----------------------------------------------------------------------
# JSON payloads
# ----------------------------------------------------------------------
def make_payload(benchmark: str, records: List[Dict[str, object]]) -> Dict[str, object]:
    """Wrap ``records`` in the versioned envelope written to disk."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "generated_by": "repro bench",
        "records": records,
    }


#: Extra record keys required per benchmark kind (beyond the common five).
_BENCHMARK_KEYS: Dict[str, Tuple[str, ...]] = {
    "conflict_graph_build": (
        "k",
        "num_edges",
        "graph_wall_time_s",
        "legacy_wall_time_s",
        "speedup",
    ),
    "maxis_solve": ("algorithm", "is_size", "kernel_wall_time_s"),
    "campaign_run": (
        "workers",
        "tasks",
        "tasks_per_s",
        "speedup",
        "shards",
        "cache_hits",
        "pool_warm",
        "restarts",
        "timeouts",
        "retried",
        "report_wall_time_s",
        "store_backend",
    ),
    "reduction_pipeline": (
        "k",
        "num_phases",
        "total_colors",
        "rebuild_wall_time_s",
        "happy_check_wall_time_s",
        "speedup",
    ),
}


def validate_bench_payload(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the BENCH_* schema."""
    for key in ("schema_version", "benchmark", "generated_by", "records"):
        if key not in payload:
            raise ValueError(f"bench payload missing key {key!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {payload['schema_version']!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    records = payload["records"]
    if not isinstance(records, list) or not records:
        raise ValueError("bench payload has no records")
    required = {"label", "n", "m", "wall_time_s", "peak_triples"}
    required.update(_BENCHMARK_KEYS.get(str(payload["benchmark"]), ()))
    for record in records:
        missing = required - set(record)
        if missing:
            raise ValueError(f"bench record missing keys {sorted(missing)!r}: {record!r}")
        if not isinstance(record["wall_time_s"], (int, float)) or record["wall_time_s"] < 0:
            raise ValueError(f"bench record has invalid wall_time_s: {record!r}")


def write_payload(path: Path, payload: Dict[str, object]) -> Path:
    """Validate and pretty-print ``payload`` to ``path``."""
    validate_bench_payload(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def run(
    out_dir: str = ".",
    smoke: bool = False,
    repeats: int = 3,
    k: int = 4,
    families: Optional[Sequence[str]] = None,
) -> Dict[str, Path]:
    """Run the selected benchmark families and write ``BENCH_*.json`` into ``out_dir``.

    ``families`` selects a subset of :data:`FAMILIES` (``None`` runs all
    four).  Returns a mapping of benchmark name to the written file path.
    """
    selected = tuple(FAMILIES if families is None else families)
    unknown = [f for f in selected if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown benchmark families {unknown!r}; known: {FAMILIES}")
    sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    if "conflict-graph" in selected:
        conflict_records = bench_conflict_graph(sizes=sizes, k=k, repeats=repeats)
        written["conflict_graph"] = write_payload(
            directory / CONFLICT_GRAPH_BENCH,
            make_payload("conflict_graph_build", conflict_records),
        )
    if "maxis" in selected:
        maxis_records = bench_maxis(
            sizes=sizes, k=k, repeats=repeats, include_plain_graphs=not smoke
        )
        written["maxis"] = write_payload(
            directory / MAXIS_BENCH, make_payload("maxis_solve", maxis_records)
        )
    if "reduction" in selected:
        reduction_records = bench_reduction(sizes=sizes, k=k, repeats=repeats)
        written["reduction"] = write_payload(
            directory / REDUCTION_BENCH,
            make_payload("reduction_pipeline", reduction_records),
        )
    if "campaign" in selected:
        campaign_records = bench_campaign(smoke=smoke, repeats=repeats)
        written["campaign"] = write_payload(
            directory / CAMPAIGN_BENCH, make_payload("campaign_run", campaign_records)
        )
    return written


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Stand-alone entry point used by ``benchmarks/perf_harness.py``."""
    parser = argparse.ArgumentParser(
        prog="perf_harness", description="Time conflict-graph builds and MIS solves."
    )
    parser.add_argument("--out-dir", default=".", help="directory for the BENCH_*.json files")
    parser.add_argument("--smoke", action="store_true", help="smallest workload only")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument("--palette", type=int, default=4, help="palette size k")
    parser.add_argument(
        "families",
        nargs="*",
        metavar="family",
        help=f"benchmark families to run, from {FAMILIES} (default: all)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    written = run(
        out_dir=args.out_dir,
        smoke=args.smoke,
        repeats=args.repeats,
        k=args.palette,
        families=args.families or None,
    )
    for name, path in written.items():
        print(f"{name}: wrote {path}")
    return 0
