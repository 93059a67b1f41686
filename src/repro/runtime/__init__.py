"""Parallel, resumable, shard-aware experiment-campaign runtime.

The subsystem turns single Theorem 1.1 reductions into *fleets*: a
declarative :class:`CampaignSpec` expands a grid of (family × size × k ×
oracle × λ × replicate) into deterministic tasks, a
:class:`CampaignStore` persists one JSONL row per task (resumable after a
kill, with incremental per-task aggregates so reports cost O(new rows)),
:func:`run_campaign` executes the pending tasks serially or on a
:class:`WorkerPool` (scoped to the call, or persistent across calls) —
optionally restricted to one sha256-stable shard of the grid — with
byte-identical results, and the aggregation layer rolls everything up
into :class:`~repro.analysis.records.ExperimentRecord` objects with a
deterministic digest.  Shard stores fuse back into one via
:func:`merge_shards`; instance generation is memoized per worker by
:class:`InstanceCache`.  The ``repro campaign`` CLI subcommand is the
user-facing entry point.

Fault tolerance lives in three layers (see :mod:`repro.runtime.supervise`):
per-task watchdog timeouts (``task_timeout_s`` → ``status="timeout"``
rows), a bounded :class:`RetryPolicy` per error signature, and the
:class:`ShardCoordinator`, which supervises shard workers through a
pluggable :class:`ShardExecutor`, restarts crashed or heartbeat-stale
shards with backoff, and quarantines poisoned ones.  The deterministic
:class:`~repro.runtime.faults.FaultPlan` chaos harness (gated behind
``REPRO_CHAOS=1``) injects kills, hangs and failures to prove the whole
stack converges to the serial digest.
"""

from repro.runtime.aggregate import (
    campaign_digest,
    campaign_records,
    color_budget_record,
    done_rows,
    failed_rows,
    phase_decay_record,
    summaries_of,
    throughput_record,
)
from repro.runtime.faults import CHAOS_ENV_VAR, FaultPlan, chaos_enabled, inject_fault
from repro.runtime.scheduler import (
    DEFAULT_RETRY_POLICY,
    CampaignRunStats,
    RetryPolicy,
    WorkerPool,
    run_campaign,
    touch_heartbeat,
)
from repro.runtime.spec import (
    CampaignSpec,
    TaskSpec,
    check_shard,
    task_instance_seed,
    task_shard_index,
)
from repro.runtime.store import (
    RETRYABLE_STATUSES,
    CampaignStore,
    CompactionStats,
    cache_counts_of,
    completed_of,
    merge_shards,
    open_store,
    retry_exhausted_of,
    status_counts_of,
)
from repro.runtime.summary import format_duration, records_from_summaries, summarize_row
from repro.runtime.supervise import (
    InlineExecutor,
    LocalProcessExecutor,
    ShardCoordinator,
    ShardExecutor,
    ShardHandle,
    ShardLaunch,
    ShardReport,
    SupervisionReport,
)
from repro.runtime.tasks import (
    FAMILIES,
    INSTANCE_CACHE,
    InstanceCache,
    build_instance,
    execute_task,
    instance_digest,
    instance_key,
    resolve_oracle,
    validate_oracle_name,
    watchdog,
)

__all__ = [
    "CampaignSpec",
    "TaskSpec",
    "task_instance_seed",
    "task_shard_index",
    "check_shard",
    "CampaignStore",
    "CompactionStats",
    "RETRYABLE_STATUSES",
    "merge_shards",
    "open_store",
    "completed_of",
    "status_counts_of",
    "cache_counts_of",
    "retry_exhausted_of",
    "summarize_row",
    "format_duration",
    "records_from_summaries",
    "summaries_of",
    "CampaignRunStats",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "WorkerPool",
    "run_campaign",
    "touch_heartbeat",
    "watchdog",
    "CHAOS_ENV_VAR",
    "FaultPlan",
    "chaos_enabled",
    "inject_fault",
    "ShardCoordinator",
    "ShardExecutor",
    "ShardHandle",
    "ShardLaunch",
    "ShardReport",
    "SupervisionReport",
    "LocalProcessExecutor",
    "InlineExecutor",
    "FAMILIES",
    "INSTANCE_CACHE",
    "InstanceCache",
    "build_instance",
    "execute_task",
    "instance_digest",
    "instance_key",
    "resolve_oracle",
    "validate_oracle_name",
    "campaign_digest",
    "campaign_records",
    "color_budget_record",
    "done_rows",
    "failed_rows",
    "phase_decay_record",
    "throughput_record",
]
