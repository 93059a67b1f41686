"""Command-line interface of the reproduction.

The CLI exposes the main entry points of the library without writing any
Python: generating instances, running the reduction, checking the Lemma 2.1
correspondence, and printing the P-SLOCAL completeness registry.

Usage (after ``pip install -e .``)::

    python -m repro registry
    python -m repro reduce --vertices 40 --edges 25 --palette 3 --oracle greedy-min-degree --lam 5
    python -m repro lemma21 --vertices 20 --edges 10 --palette 2
    python -m repro models --vertices 48 --probability 0.1
    python -m repro campaign run --spec examples/campaign_demo.json --out campaign-out --workers 4
    python -m repro campaign run --spec examples/campaign_demo.json --out shard-0 --shard 0/2
    python -m repro campaign supervise --spec examples/campaign_demo.json --out campaign-out --shards 2
    python -m repro campaign merge --out campaign-out shard-0 shard-1
    python -m repro campaign status --out campaign-out
    python -m repro campaign report --out campaign-out
    python -m repro campaign compact --out campaign-out
    python -m repro campaign run --spec examples/campaign_demo.json --out campaign-out --trace
    python -m repro campaign metrics campaign-out
    python -m repro trace summary campaign-out

Every subcommand prints a plain-text table; seeds default to fixed values so
runs are reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis import (
    format_records,
    mis_model_comparison,
    phase_summary,
    run_summary,
)
from repro.core import (
    ConflictGraph,
    solve_conflict_free_multicoloring,
    verify_lemma_21a,
    verify_lemma_21b,
    verify_reduction_result,
)
from repro.graphs import erdos_renyi_graph
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import available_approximators, get_approximator
from repro.reductions import summary_table


def _add_fault_tolerance_args(parser: argparse.ArgumentParser) -> None:
    """Watchdog / retry / durability flags shared by run and supervise."""
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-task watchdog deadline in seconds (a task exceeding it becomes "
            "a status=timeout row); overrides the spec's task_timeout_s"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help=(
            "attempts per task and error signature before it is skipped as "
            "exhausted (0 disables the retry policy: every failure is "
            "re-executed on every resume)"
        ),
    )
    parser.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.0,
        metavar="S",
        help="pause before the first in-run retry round (doubled per round)",
    )
    parser.add_argument(
        "--durability",
        default=None,
        choices=["flush", "fsync"],
        help=(
            "store write discipline: flush (default; a kill loses at most one "
            "row) or fsync (a machine crash loses at most one row)"
        ),
    )


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    """Fault-injection flags (refused unless REPRO_CHAOS=1).

    Only ``campaign run`` adds ``--chaos-salt``: the supervise coordinator
    salts every dispatch itself.
    """
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PK,PH,PF",
        help=(
            "inject faults per task with probabilities p_kill,p_hang,p_fail "
            "(e.g. 0.1,0.05,0.2); requires REPRO_CHAOS=1 and the serial executor"
        ),
    )
    parser.add_argument("--chaos-seed", type=int, default=0, help="fault decision seed")
    parser.add_argument(
        "--chaos-max-salt",
        type=int,
        default=None,
        help="inject faults only while salt < this (targeted recovery tests)",
    )


def _retry_policy(args: argparse.Namespace):
    """The RetryPolicy encoded by --max-retries/--retry-base-delay (0 disables)."""
    from repro.runtime import RetryPolicy

    if args.max_retries == 0:
        return None
    return RetryPolicy(max_attempts=args.max_retries, base_delay_s=args.retry_base_delay)


def _fault_plan(args: argparse.Namespace):
    """The FaultPlan encoded by the --chaos* flags, or None."""
    from repro.runtime import FaultPlan

    if args.chaos is None:
        return None
    # supervise has no --chaos-salt: its coordinator re-salts every dispatch.
    plan = FaultPlan.parse(args.chaos, seed=args.chaos_seed, salt=getattr(args, "chaos_salt", 0))
    return dataclasses.replace(plan, max_salt=args.chaos_max_salt)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'P-SLOCAL-Completeness of Maximum Independent Set "
            "Approximation' (Maus, PODC 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_parser = sub.add_parser(
        "reduce", help="run the Theorem 1.1 reduction on a generated hypergraph"
    )
    reduce_parser.add_argument("--vertices", type=int, default=40, help="number of hypergraph vertices")
    reduce_parser.add_argument("--edges", type=int, default=25, help="number of hyperedges")
    reduce_parser.add_argument("--palette", type=int, default=3, help="per-phase palette size k")
    reduce_parser.add_argument(
        "--oracle",
        default="greedy-min-degree",
        choices=sorted(available_approximators()),
        help="MaxIS approximation oracle",
    )
    reduce_parser.add_argument("--lam", type=float, default=5.0, help="approximation factor assumed by the analysis")
    reduce_parser.add_argument("--seed", type=int, default=7, help="instance seed")

    lemma_parser = sub.add_parser("lemma21", help="check both directions of Lemma 2.1 on a generated instance")
    lemma_parser.add_argument("--vertices", type=int, default=20)
    lemma_parser.add_argument("--edges", type=int, default=10)
    lemma_parser.add_argument("--palette", type=int, default=2)
    lemma_parser.add_argument("--seed", type=int, default=13)

    models_parser = sub.add_parser("models", help="compare MIS in the SLOCAL and LOCAL models")
    models_parser.add_argument("--vertices", type=int, default=48)
    models_parser.add_argument("--probability", type=float, default=0.1)
    models_parser.add_argument("--seed", type=int, default=3)

    sub.add_parser("registry", help="print the P-SLOCAL completeness registry")

    bench_parser = sub.add_parser(
        "bench", help="run the perf harness and write BENCH_*.json trajectories"
    )
    bench_parser.add_argument("--out-dir", default=".", help="directory for BENCH_*.json files")
    bench_parser.add_argument(
        "--smoke", action="store_true", help="run only the smallest workload"
    )
    bench_parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    bench_parser.add_argument("--palette", type=int, default=4, help="palette size k")
    bench_parser.add_argument(
        "families",
        nargs="*",
        metavar="family",
        help=(
            "benchmark families to run: conflict-graph, maxis, reduction, "
            "campaign (default: all four)"
        ),
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help="run, inspect and aggregate experiment campaigns (fleets of reductions)",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="execute the pending tasks of a campaign (resumes automatically)"
    )
    campaign_run.add_argument("--spec", required=True, help="path to the CampaignSpec JSON file")
    campaign_run.add_argument(
        "--out",
        required=True,
        help="campaign directory (spec.json + results.jsonl)",
    )
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 or 1: the serial reference executor)",
    )
    campaign_run.add_argument(
        "--chunk-size", type=int, default=None, help="tasks per pool dispatch"
    )
    campaign_run.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "run only shard I of N (stable sha256 partition of the task keys; "
            "give each machine its own --out directory and fuse them with "
            "'campaign merge')"
        ),
    )
    campaign_run.add_argument(
        "--trace",
        action="store_true",
        help=(
            "write a span/event trace sidecar (trace.jsonl) next to the store; "
            "results and digests are unaffected"
        ),
    )
    _add_fault_tolerance_args(campaign_run)
    campaign_run.add_argument(
        "--heartbeat",
        default=None,
        metavar="FILE",
        help=(
            "liveness file touched at run start and per stored row "
            "(consumed by 'campaign supervise')"
        ),
    )
    _add_chaos_args(campaign_run)
    campaign_run.add_argument(
        "--chaos-salt",
        type=int,
        default=0,
        help="dispatch salt (bumped per re-dispatch by the coordinator)",
    )

    campaign_supervise = campaign_sub.add_parser(
        "supervise",
        help=(
            "run every shard of a campaign under the fault-tolerant coordinator "
            "(heartbeats, restarts with backoff, poisoned-shard quarantine)"
        ),
    )
    campaign_supervise.add_argument(
        "--spec", required=True, help="path to the CampaignSpec JSON file"
    )
    campaign_supervise.add_argument(
        "--out", required=True, help="merged output campaign directory"
    )
    campaign_supervise.add_argument(
        "--shards", type=int, default=2, help="number of sha256-stable shards"
    )
    campaign_supervise.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="kill and re-dispatch a shard whose heartbeat is older than this",
    )
    campaign_supervise.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="crash re-dispatches per shard before it is quarantined as poisoned",
    )
    campaign_supervise.add_argument(
        "--base-backoff",
        type=float,
        default=0.05,
        metavar="S",
        help="first re-dispatch delay (doubled each restart, plus seeded jitter)",
    )
    campaign_supervise.add_argument(
        "--restart-failed-shards",
        action="store_true",
        help=(
            "restart shards that exit 1 (completed with failed rows) instead of "
            "landing them as-is"
        ),
    )
    campaign_supervise.add_argument(
        "--max-wall-clock",
        type=float,
        default=None,
        metavar="S",
        help="hard bound on the whole supervision run (kills workers, exits 2)",
    )
    campaign_supervise.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="require the merged aggregate digest to equal this serial reference",
    )
    campaign_supervise.add_argument(
        "--trace",
        action="store_true",
        help=(
            "write trace sidecars (coordinator events in the merged directory, "
            "task spans per shard); results and digests are unaffected"
        ),
    )
    _add_fault_tolerance_args(campaign_supervise)
    _add_chaos_args(campaign_supervise)

    campaign_merge = campaign_sub.add_parser(
        "merge",
        help="fuse shard campaign directories (same spec) into one store",
    )
    campaign_merge.add_argument(
        "--out", required=True, help="destination campaign directory"
    )
    campaign_merge.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD_DIR",
        help="shard campaign directories, merged in order (later rows win per task)",
    )

    campaign_status = campaign_sub.add_parser(
        "status", help="show done/failed/pending task counts of a campaign directory"
    )
    campaign_status.add_argument("--out", required=True, help="campaign directory")
    campaign_status.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help=(
            "retry budget used to flag exhausted tasks (tasks that failed with "
            "the same error this many times are skipped on resume)"
        ),
    )

    campaign_compact = campaign_sub.add_parser(
        "compact",
        help=(
            "drop superseded/duplicate rows from a campaign store "
            "(digest-identical; crash-safe temp-file rewrite)"
        ),
    )
    campaign_compact.add_argument("--out", required=True, help="campaign directory")

    campaign_report = campaign_sub.add_parser(
        "report", help="print the aggregate records and their deterministic digest"
    )
    campaign_report.add_argument("--out", required=True, help="campaign directory")
    campaign_report.add_argument(
        "--records", default=None, help="also write the aggregate records to this JSON file"
    )

    campaign_metrics = campaign_sub.add_parser(
        "metrics",
        help=(
            "print the metrics snapshot persisted by the last run of a campaign "
            "directory (Prometheus text exposition, or --json)"
        ),
    )
    campaign_metrics.add_argument(
        "out", help="campaign directory (or a metrics.json path directly)"
    )
    campaign_metrics.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw JSON snapshot instead of Prometheus text",
    )

    trace_parser = sub.add_parser(
        "trace", help="inspect trace.jsonl sidecars written by campaign --trace runs"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="aggregate a trace sidecar: per-span timings plus the slowest spans",
    )
    trace_summary.add_argument(
        "out", help="campaign directory (or a trace.jsonl path directly)"
    )
    trace_summary.add_argument(
        "--limit",
        type=int,
        default=10,
        help="how many of the slowest individual spans to list",
    )
    return parser


def _cmd_reduce(args: argparse.Namespace) -> int:
    hypergraph, _ = colorable_almost_uniform_hypergraph(
        n=args.vertices, m=args.edges, k=args.palette, seed=args.seed
    )
    oracle = get_approximator(args.oracle)
    result = solve_conflict_free_multicoloring(
        hypergraph, k=args.palette, approximator=oracle, lam=args.lam
    )
    report = verify_reduction_result(hypergraph, result)
    print(format_records([run_summary(result)]))
    print()
    print(format_records(phase_summary(result)))
    print(f"\nconflict-free: {report.conflict_free}")
    return 0 if report.conflict_free else 1


def _cmd_lemma21(args: argparse.Namespace) -> int:
    hypergraph, planted = colorable_almost_uniform_hypergraph(
        n=args.vertices, m=args.edges, k=args.palette, seed=args.seed
    )
    conflict_graph = ConflictGraph(hypergraph, args.palette)
    witness = verify_lemma_21a(conflict_graph, planted)
    independent_set = get_approximator("greedy-min-degree")(conflict_graph.graph)
    happy = verify_lemma_21b(conflict_graph, independent_set)
    print(
        format_records(
            [
                {
                    "m": hypergraph.num_edges(),
                    "|V(G_k)|": conflict_graph.num_vertices(),
                    "|E(G_k)|": conflict_graph.num_edges(),
                    "|I_f| (lemma a)": len(witness),
                    "|I| from oracle": len(independent_set),
                    "happy edges (lemma b)": len(happy),
                }
            ]
        )
    )
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    graph = erdos_renyi_graph(args.vertices, args.probability, seed=args.seed)
    print(format_records([mis_model_comparison(graph, seed=args.seed)]))
    return 0


def _cmd_registry(_: argparse.Namespace) -> int:
    print(format_records(summary_table()))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro import bench

    written = bench.run(
        out_dir=args.out_dir,
        smoke=args.smoke,
        repeats=args.repeats,
        k=args.palette,
        families=args.families or None,
    )
    for name, path in written.items():
        payload = json.loads(path.read_text())
        print(f"# {payload['benchmark']} -> {path}")
        print(format_records(payload["records"]))
        print()
    return 0


def _parse_shard(text: str):
    """Parse a ``--shard I/N`` argument (range-checked later by the runtime)."""
    from repro.exceptions import CampaignError

    try:
        index_text, _, count_text = text.partition("/")
        return int(index_text), int(count_text)
    except ValueError as exc:
        raise CampaignError(
            f"--shard must look like I/N (e.g. 0/4), got {text!r}"
        ) from exc


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.exceptions import CampaignError, ObsError
    from repro.runtime import (
        CampaignSpec,
        cache_counts_of,
        campaign_digest,
        format_duration,
        merge_shards,
        open_store,
        records_from_summaries,
        retry_exhausted_of,
        run_campaign,
        status_counts_of,
        throughput_record,
    )

    try:
        if args.campaign_command == "run":
            spec_path = Path(args.spec)
            if not spec_path.exists():
                print(f"campaign spec not found: {spec_path}", file=sys.stderr)
                return 2
            spec = CampaignSpec.from_json(spec_path.read_text(encoding="utf-8"))
            shard = _parse_shard(args.shard) if args.shard is not None else None
            stats = run_campaign(
                spec,
                args.out,
                workers=args.workers,
                chunk_size=args.chunk_size,
                shard=shard,
                retry=_retry_policy(args),
                task_timeout_s=args.task_timeout,
                heartbeat=args.heartbeat,
                chaos=_fault_plan(args),
                durability=args.durability,
                trace=args.trace,
            )
            store = open_store(args.out)
            # One incremental pass serves both views: the summaries feed
            # the records *and* the status counts (O(new rows), not
            # O(all rows)).
            summaries = store.summaries()
            records = records_from_summaries(spec, summaries)
            print(format_records(throughput_record(spec, [stats]).rows))
            counts = status_counts_of(summaries)
            scope = (
                f"shard {shard[0]}/{shard[1]} ({stats.executed + stats.skipped} tasks) of "
                if shard is not None
                else ""
            )
            print(
                f"\ncampaign {spec.name!r}: {scope}"
                f"{counts.get('done', 0)}/{spec.num_tasks()} done, "
                f"{counts.get('failed', 0)} failed, "
                f"{counts.get('timeout', 0)} timed out "
                f"({stats.executed} executed, {stats.skipped} resumed, "
                f"{stats.retried} retried, {stats.exhausted} exhausted)"
            )
            print(
                f"instance cache: {stats.cache_hits} hits / {stats.cache_misses} misses"
            )
            print(f"aggregate digest: {campaign_digest(records)}")
            # Exhausted tasks are still not done, so a run that only
            # skipped them must not signal success.
            return 0 if stats.failed == 0 and stats.exhausted == 0 else 1

        if args.campaign_command == "supervise":
            from repro.runtime import ShardCoordinator

            spec_path = Path(args.spec)
            if not spec_path.exists():
                print(f"campaign spec not found: {spec_path}", file=sys.stderr)
                return 2
            spec = CampaignSpec.from_json(spec_path.read_text(encoding="utf-8"))
            coordinator = ShardCoordinator(
                spec,
                args.out,
                n_shards=args.shards,
                heartbeat_timeout_s=args.heartbeat_timeout,
                max_restarts=args.max_restarts,
                base_backoff_s=args.base_backoff,
                task_timeout_s=args.task_timeout,
                retry=_retry_policy(args),
                durability=args.durability,
                chaos=_fault_plan(args),
                restart_failed_shards=args.restart_failed_shards,
                max_wall_clock_s=args.max_wall_clock,
                expected_digest=args.expect_digest,
                trace=args.trace,
            )
            report = coordinator.run()
            print(
                format_records(
                    [
                        {
                            "shard": f"{entry.index}/{report.n_shards}",
                            "status": entry.status,
                            "dispatches": entry.dispatches,
                            "restarts": entry.restarts,
                            "stale_kills": entry.stale_kills,
                        }
                        for entry in report.shards
                    ]
                )
            )
            counts = report.status_counts
            print(
                f"\nsupervised campaign {spec.name!r}: "
                f"{counts.get('done', 0)}/{spec.num_tasks()} done, "
                f"{counts.get('failed', 0)} failed, "
                f"{counts.get('timeout', 0)} timed out; "
                f"{report.restarts} restart(s) in {format_duration(report.wall_time_s)}"
            )
            if report.poisoned:
                print(
                    f"poisoned shard(s) quarantined after {args.max_restarts} "
                    f"restarts: {report.poisoned}",
                    file=sys.stderr,
                )
            print(f"aggregate digest: {report.digest}")
            return 0 if report.ok else 1

        if args.campaign_command == "merge":
            merged = merge_shards(args.out, args.shards)
            spec = merged.load_spec()
            # merge_shards folded the shards' summaries as it appended
            # their rows, so this is a sidecar read, not a row scan.
            summaries = merged.summaries()
            records = records_from_summaries(spec, summaries)
            counts = status_counts_of(summaries)
            print(
                f"merged {len(args.shards)} shard store(s) into {args.out}: "
                f"campaign {spec.name!r}, {counts.get('done', 0)}/{spec.num_tasks()} done, "
                f"{counts.get('failed', 0)} failed"
            )
            print(f"aggregate digest: {campaign_digest(records)}")
            return 0

        if args.campaign_command == "metrics":
            import json

            from repro import obs

            path = Path(args.out)
            if path.is_dir():
                path = path / obs.METRICS_FILENAME
            if not path.exists():
                print(
                    f"no metrics snapshot at {path} (campaign runs write one "
                    f"automatically; re-run the campaign to produce it)",
                    file=sys.stderr,
                )
                return 2
            snapshot = obs.load_snapshot(path)
            if args.as_json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                print(obs.render_snapshot(snapshot), end="")
            return 0

        store = open_store(args.out)
        spec = store.load_spec()

        if args.campaign_command == "compact":
            stats = store.compact()
            records = records_from_summaries(spec, store.summaries())
            print(
                f"compacted {args.out}: {stats.rows_before} -> {stats.rows_after} "
                f"rows ({stats.rows_dropped} superseded/duplicate dropped), "
                f"{stats.bytes_before} -> {stats.bytes_after} bytes"
            )
            print(f"aggregate digest: {campaign_digest(records)}")
            return 0

        if args.campaign_command == "status":
            import time as _time

            # A single incremental read of the store feeds every view
            # below; the old path re-read the whole row log 3-4 times.
            read_start = _time.perf_counter()
            summaries = store.summaries()
            read_elapsed = _time.perf_counter() - read_start
            counts = status_counts_of(summaries)
            cache = cache_counts_of(summaries)
            done = counts.get("done", 0)
            failed = counts.get("failed", 0)
            timeouts = counts.get("timeout", 0)
            print(
                format_records(
                    [
                        {
                            "campaign": spec.name,
                            "tasks": spec.num_tasks(),
                            "done": done,
                            "failed": failed,
                            "timeout": timeouts,
                            "pending": spec.num_tasks() - done,
                            "cache_hits": cache["cache_hits"],
                            "cache_misses": cache["cache_misses"],
                        }
                    ]
                )
            )
            exhausted = (
                retry_exhausted_of(summaries, args.max_retries)
                if args.max_retries
                else set()
            )
            if exhausted:
                shown = ", ".join(sorted(exhausted)[:5])
                more = len(exhausted) - min(len(exhausted), 5)
                suffix = f" (+{more} more)" if more else ""
                print(
                    f"warning: {len(exhausted)} task(s) exhausted their retry budget "
                    f"({args.max_retries} attempts with the same error) and will be "
                    f"skipped on resume: {shown}{suffix}",
                    file=sys.stderr,
                )
            print(f"(incremental store read: {format_duration(read_elapsed)})")
            return 0

        # report — incremental: only rows appended since the last
        # report/status are summarized (the fuzz harness asserts this
        # path digest-identical to the full-row reference).
        import time as _time

        report_start = _time.perf_counter()
        records = records_from_summaries(spec, store.summaries())
        report_elapsed = _time.perf_counter() - report_start
        for record in records:
            print(f"# {record.experiment}: {record.description}")
            if record.rows:
                print(format_records(record.rows))
            else:
                print("(no completed tasks)")
            print()
        print(f"(report built in {format_duration(report_elapsed)})")
        print(f"aggregate digest: {campaign_digest(records)}")
        if args.records:
            from repro.analysis import write_records

            write_records(records, args.records)
            print(f"records written to {args.records}")
        return 0
    except (CampaignError, ObsError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace summary``: aggregate a trace.jsonl sidecar."""
    from pathlib import Path

    from repro import obs
    from repro.exceptions import ObsError
    from repro.runtime import format_duration

    path = Path(args.out)
    if path.is_dir():
        path = path / obs.TRACE_FILENAME
    if not path.exists():
        print(
            f"no trace sidecar at {path} (re-run the campaign with --trace)",
            file=sys.stderr,
        )
        return 2
    try:
        records = obs.read_trace(path)
    except ObsError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2

    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    starts = [r for r in records if r.get("type") == "trace_start"]
    print(
        f"trace {path}: {len(records)} record(s) from {len(starts)} process "
        f"start(s) — {len(spans)} span(s), {len(events)} event(s)"
    )
    if not spans:
        return 0

    by_name: dict = {}
    for span in spans:
        entry = by_name.setdefault(span["name"], {"count": 0, "total": 0.0, "max": 0.0})
        entry["count"] += 1
        entry["total"] += span["dur_s"]
        entry["max"] = max(entry["max"], span["dur_s"])
    rows = [
        {
            "span": name,
            "count": entry["count"],
            "total": format_duration(entry["total"]),
            "mean": format_duration(entry["total"] / entry["count"]),
            "max": format_duration(entry["max"]),
        }
        for name, entry in sorted(
            by_name.items(), key=lambda item: (-item[1]["total"], item[0])
        )
    ]
    print()
    print(format_records(rows))

    if args.limit > 0:
        slowest = sorted(spans, key=lambda s: (-s["dur_s"], s["span_id"]))[: args.limit]
        print(f"\nslowest {len(slowest)} span(s):")
        print(
            format_records(
                [
                    {
                        "span": span["name"],
                        "dur": format_duration(span["dur_s"]),
                        "depth": span["depth"],
                        "attrs": ", ".join(
                            f"{key}={value}"
                            for key, value in sorted(span.get("attrs", {}).items())
                        )
                        or "-",
                    }
                    for span in slowest
                ]
            )
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (and tests)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reduce": _cmd_reduce,
        "lemma21": _cmd_lemma21,
        "models": _cmd_models,
        "registry": _cmd_registry,
        "bench": _cmd_bench,
        "campaign": _cmd_campaign,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
