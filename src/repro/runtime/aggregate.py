"""Roll-ups of campaign results into :class:`ExperimentRecord` aggregates.

Two *deterministic* records are derived from the stored rows — per-oracle
phase-decay curves (``C1``) and per-(oracle, k) color budgets (``C2``) —
plus a timing record (``C3``, throughput in tasks/s) built from the
scheduler's run stats.  The deterministic records are pure functions of
the task results: rows are deduplicated by task key (last write wins,
matching the store) and sorted before any float is accumulated, so the
same completed task set always produces the same bytes.
:func:`campaign_digest` pins that down as a SHA-256 over the canonical
JSON of the deterministic records — the quantity the parallel executor is
differentially checked against the serial one on.  Timing lives only in
``C3``, which is deliberately excluded from the digest.

:func:`campaign_records` reduces rows to per-task sufficient statistics
(:func:`repro.runtime.summary.summarize_row`) and delegates to
:func:`repro.runtime.summary.records_from_summaries` — the same builder
the stores' incremental-aggregation path feeds from their persisted
summary sidecars.  One builder, two feeding paths: the full-row path
here stays the retained differential reference (it always re-reads every
row), and the incremental path is digest-identical by construction.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.analysis.records import ExperimentRecord
from repro.runtime.scheduler import CampaignRunStats
from repro.runtime.spec import CampaignSpec
from repro.runtime.summary import records_from_summaries, summarize_row


def summaries_of(rows: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Reduce rows to their latest-per-key sufficient statistics.

    Last write wins per task key, matching the store, then each surviving
    row is summarized via :func:`repro.runtime.summary.summarize_row`.
    """
    latest: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        latest[row["task_key"]] = row
    return {key: summarize_row(row) for key, row in latest.items()}


def campaign_records(spec: CampaignSpec, rows: Iterable[Dict[str, Any]]) -> List[ExperimentRecord]:
    """The deterministic aggregate: phase decay (C1) and color budgets (C2).

    This is the full-row reference path: it re-reads every row it is
    given.  Stores offer the same records in O(new rows) via their
    persisted summaries (``store.summaries()`` +
    :func:`repro.runtime.summary.records_from_summaries`); the fuzz
    harness asserts both paths digest-identical.
    """
    return records_from_summaries(spec, summaries_of(rows))


def campaign_digest(records: Sequence[ExperimentRecord]) -> str:
    """SHA-256 over the canonical JSON of deterministic aggregate records.

    This is the byte-identity criterion for serial-vs-parallel execution:
    same completed tasks ⇒ same digest, regardless of worker count, task
    completion order, or how many interrupted runs it took to get there.
    """
    payload = json.dumps([record.to_dict() for record in records], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def throughput_record(
    spec: CampaignSpec, stats: Sequence[CampaignRunStats]
) -> ExperimentRecord:
    """Timing record (C3): one row per run — excluded from :func:`campaign_digest`."""
    record = ExperimentRecord(
        experiment="C3",
        description="campaign throughput per run (timing; not part of the digest)",
        metadata={"campaign": spec.name, "seed": spec.seed},
    )
    for entry in stats:
        record.add_row(
            workers=entry.workers,
            total_tasks=entry.total_tasks,
            executed=entry.executed,
            skipped=entry.skipped,
            failed=entry.failed,
            wall_time_s=entry.wall_time_s,
            tasks_per_s=entry.tasks_per_s,
            shard="-" if entry.shard is None else f"{entry.shard[0]}/{entry.shard[1]}",
            pool_warm=entry.pool_warm,
            cache_hits=entry.cache_hits,
            cache_misses=entry.cache_misses,
            timeouts=entry.timeouts,
            retried=entry.retried,
            exhausted=entry.exhausted,
        )
    return record
