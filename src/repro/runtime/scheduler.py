"""Campaign execution: the serial reference and worker pools.

All executors run the same pure :func:`repro.runtime.tasks.execute_task`
over the pending payloads of a campaign and append each row to the store
as it completes.  Because task results are pure functions of their payload
(see :mod:`repro.runtime.spec` for the seed derivation), every executor
produces byte-identical *content* to the serial one — only the JSONL row
order, the timing fields and the ``instance_cache_hit`` flags differ, and
the aggregation layer is insensitive to all three.  The serial path is
therefore the differential reference: ``make smoke`` and the
campaign fuzz harness assert that pool, sharded and resumed runs all
reproduce its aggregate digest.

Three execution shapes, two code paths:

* ``workers=0`` (or 1) — the in-process serial reference executor;
* ``workers=N`` — a :class:`WorkerPool` of ``N`` processes scoped to the
  call, with chunked dispatch (``imap_unordered``), paying pool startup
  on every call;
* ``pool=WorkerPool(N)`` — a *persistent* pool the caller keeps open
  across ``run_campaign`` calls (and bench repeats), so worker startup
  and the workers' per-process instance caches are amortized; the run's
  :class:`CampaignRunStats` records whether it started warm.

The parent process is the only writer of the JSONL file in every shape,
so no cross-process file locking is needed.  ``shard=(i, n)`` restricts a
run to one sha256-stable shard of the task grid (see
:func:`repro.runtime.spec.task_shard_index`) for multi-machine campaigns;
:func:`repro.runtime.store.merge_shards` fuses the shard stores back into
one, provably identical to a monolithic run.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.exceptions import CampaignError
from repro.runtime.faults import FaultPlan, require_chaos
from repro.runtime.spec import CampaignSpec, check_shard, task_shard_index
from repro.runtime.store import RETRYABLE_STATUSES, open_store
from repro.runtime.tasks import execute_task, instance_cache_key

# ----------------------------------------------------------------------
# scheduler metrics (see docs/observability.md for the full catalog)
# ----------------------------------------------------------------------
# CampaignRunStats is a *projection* of these: run_campaign captures the
# relevant counter values at run start and reports the deltas, so the
# registry is the single source of truth and anything reading it sees
# the same numbers the stats object reports.
_M_TASKS_STARTED = obs.counter(
    "repro_tasks_started_total",
    "Task executions dispatched by run_campaign (first passes and retries).",
    labels=("campaign",),
)
_M_TASKS_COMPLETED = obs.counter(
    "repro_tasks_completed_total",
    "Result rows recorded, by row status (done/failed/timeout).",
    labels=("campaign", "status"),
)
_M_TASKS_RETRIED = obs.counter(
    "repro_tasks_retried_total",
    "Extra executions performed by in-run retry rounds.",
    labels=("campaign",),
)
_M_TASKS_EXHAUSTED = obs.counter(
    "repro_tasks_exhausted_total",
    "Pending tasks skipped because their retry budget was already spent.",
    labels=("campaign",),
)
_M_TASK_DURATION = obs.histogram(
    "repro_task_duration_seconds",
    "Wall-clock duration of recorded task executions.",
    labels=("campaign",),
)
_M_QUEUE_DEPTH = obs.gauge(
    "repro_queue_depth",
    "Pending tasks of the running campaign not yet recorded (0 when idle).",
    labels=("campaign",),
)
_M_POOL_DISPATCH = obs.counter(
    "repro_pool_dispatch_total",
    "run_campaign dispatches by executor mode (serial/percall/pool-cold/pool-warm).",
    labels=("campaign", "mode"),
)
_M_INSTANCE_CACHE = obs.counter(
    "repro_instance_cache_total",
    "Instance-cache lookups across recorded rows, by outcome (hit/miss).",
    labels=("campaign", "outcome"),
)
_M_TASKS_PER_S = obs.gauge(
    "repro_campaign_tasks_per_second",
    "Executed-task throughput of the most recent run of each campaign.",
    labels=("campaign",),
)


#: Growth factor of the pause between in-run retry rounds.
RETRY_BACKOFF = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget for failed/timed-out rows.

    ``max_attempts`` caps how many times one task may be executed while
    failing with the *same* error signature — in-run retry rounds and
    later resumes share the budget through the per-row ``attempt``
    counter, so a deterministic failure is re-executed a bounded number
    of times total, ever, instead of on every resume.  A failure with a
    *different* error signature resets the counter (it is a new problem).
    ``base_delay_s`` is the pause before the first in-run retry round;
    round ``r`` sleeps ``base_delay_s * RETRY_BACKOFF**(r-1)``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_attempts, int)
            or isinstance(self.max_attempts, bool)
            or self.max_attempts < 1
        ):
            raise CampaignError(
                f"RetryPolicy.max_attempts must be a positive int, got {self.max_attempts!r}"
            )
        if not isinstance(self.base_delay_s, (int, float)) or self.base_delay_s < 0:
            raise CampaignError(
                f"RetryPolicy.base_delay_s must be >= 0, got {self.base_delay_s!r}"
            )

    def round_delay_s(self, round_number: int) -> float:
        """Exponential-backoff pause before in-run retry round ``round_number`` (1-based)."""
        return self.base_delay_s * RETRY_BACKOFF ** (round_number - 1)


#: The default policy of :func:`run_campaign`: three attempts per error
#: signature, no pause (campaign tasks are CPU-bound; pauses only matter
#: for the chaos/supervision paths, which pass their own policies).
DEFAULT_RETRY_POLICY = RetryPolicy()


def touch_heartbeat(path) -> None:
    """Touch ``path`` (creating parents), bumping its mtime to *now*.

    The shard coordinator reads the mtime to decide whether a worker is
    still making progress; the worker calls this once at run start and
    once per stored row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8"):
        pass
    os.utime(path, None)


@dataclass
class CampaignRunStats:
    """What one ``run_campaign`` call did, for status lines and throughput records."""

    campaign: str
    total_tasks: int
    skipped: int
    executed: int
    failed: int
    workers: int
    wall_time_s: float
    #: ``(index, n_shards)`` when the run executed one shard of the grid.
    shard: Optional[Tuple[int, int]] = None
    #: True when the run was served by an already-started persistent pool
    #: (no worker spawn cost on this call).
    pool_warm: bool = False
    #: Instance-cache hits/misses across the rows executed by this run
    #: (counted from the rows, so pool workers are included).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Tasks whose *final* row this run is a terminal ``timeout`` (the
    #: watchdog fired on every attempt); a subset of ``failed``.
    timeouts: int = 0
    #: Extra executions performed by in-run retry rounds (beyond the
    #: first attempt each pending task gets).
    retried: int = 0
    #: Pending tasks skipped because their retry budget was already
    #: exhausted by earlier runs (same error ``max_attempts`` times).
    exhausted: int = 0

    @property
    def tasks_per_s(self) -> float:
        """Executed-task throughput of this run (0 when nothing ran)."""
        if self.executed == 0 or self.wall_time_s <= 0:
            return 0.0
        return self.executed / self.wall_time_s


class WorkerPool:
    """A worker pool, persistent across ``run_campaign`` calls or scoped to one.

    A context manager wrapping one :mod:`multiprocessing` pool whose
    processes survive between campaign runs, amortizing both the pool
    startup and the workers' per-process
    :data:`~repro.runtime.tasks.INSTANCE_CACHE` across calls (and across
    bench repeats); ``run_campaign(workers=N)`` opens one for the call
    alone.  The underlying pool is started *lazily* on the first
    dispatch, so handing a fresh ``WorkerPool`` to a fully-completed
    campaign spawns no processes at all.
    """

    def __init__(self, workers: int) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise CampaignError(f"WorkerPool needs workers >= 1, got {workers!r}")
        self.workers = workers
        self._pool = None
        self._closed = False

    @property
    def started(self) -> bool:
        """True once the underlying processes exist (first dispatch)."""
        return self._pool is not None

    def imap_unordered(self, fn, iterable: Iterable, chunksize: int = 1):
        """Dispatch ``fn`` over ``iterable``, starting the pool on first use."""
        if self._closed:
            raise CampaignError("WorkerPool is closed; create a new one")
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(processes=self.workers)
        return self._pool.imap_unordered(fn, iterable, chunksize=chunksize)

    def close(self) -> None:
        """Shut the workers down once their queued tasks finish (idempotent).

        The pool cannot be restarted.
        """
        self._shutdown(terminate=False)

    def _shutdown(self, terminate: bool) -> None:
        self._closed = True
        if self._pool is not None:
            if terminate:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # Like multiprocessing.Pool: an exception (a worker crash, Ctrl-C)
        # must not wait for every queued chunk to run first.
        self._shutdown(terminate=exc_type is not None)


def _default_chunk_size(pending: int, workers: int) -> int:
    """Chunked dispatch: a few chunks per worker balances load vs. IPC overhead."""
    return max(1, pending // (workers * 4))


def _error_signature(row: dict) -> Tuple:
    """The identity of a failure: same signature ⇒ same error, for retry counting."""
    return (row.get("error_type"), row.get("error"))


def _plan(
    latest: Dict[str, dict], payloads: List[dict], retry: Optional[RetryPolicy]
) -> Tuple[List[dict], Dict[str, int], Dict[str, Tuple], int]:
    """Select the pending payloads from each task's latest summary.

    A task is complete only if its latest entry is "done" *and* was built
    from the instance seed this spec derives today — so a store written
    under an older seed-derivation scheme is transparently re-executed (the
    fresh rows supersede the stale ones, last write wins) instead of
    silently mixing two schemes in one aggregate.  A prior retryable entry
    (same instance seed) continues its attempt count; one that already used
    the whole budget on a single error signature is skipped — re-running it
    would deterministically fail again.  Returns the pending payloads, their
    first attempts, their last error signatures and the exhausted count.
    """
    pending = []
    start_attempts: Dict[str, int] = {}
    last_signature: Dict[str, Tuple] = {}
    exhausted = 0
    for payload in payloads:
        key = payload["task_key"]
        prior = latest.get(key)
        same_seed = prior is not None and prior.get("instance_seed") == payload["instance_seed"]
        if same_seed and prior["status"] == "done":
            continue
        attempt = 1
        if same_seed and prior["status"] in RETRYABLE_STATUSES:
            prior_attempt = prior.get("attempt", 1)
            if retry is not None and prior_attempt >= retry.max_attempts:
                exhausted += 1
                continue
            attempt = prior_attempt + 1
            last_signature[key] = _error_signature(prior)
        pending.append(payload)
        start_attempts[key] = attempt
    return pending, start_attempts, last_signature, exhausted


def _later_uses(payloads: List[dict]) -> List[int]:
    """For each payload, how many later ones share its ``(instance cache key, k)``.

    Those are the tasks that can start from its ``G_k`` build, so the
    count tells :func:`~repro.runtime.tasks.execute_task` whether to keep
    it.  One walk from the back, O(1) per payload.
    """
    seen: Dict[Tuple, int] = {}
    uses: List[int] = []
    for payload in reversed(payloads):
        k = payload["k"]
        key = (
            instance_cache_key(
                payload["family"], payload["n"], payload["m"], k,
                payload["epsilon"], payload["instance_seed"],
            ),
            k,
        )
        later = seen.get(key, 0)
        uses.append(later)
        seen[key] = later + 1
    uses.reverse()
    return uses


def run_campaign(
    spec: CampaignSpec,
    directory,
    workers: int = 0,
    chunk_size: Optional[int] = None,
    on_row: Optional[Callable[[dict], None]] = None,
    shard: Optional[Tuple[int, int]] = None,
    pool: Optional[WorkerPool] = None,
    retry: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    task_timeout_s: Optional[float] = None,
    heartbeat=None,
    chaos: Optional[FaultPlan] = None,
    durability: Optional[str] = None,
    trace: bool = False,
) -> CampaignRunStats:
    """Execute every pending task of ``spec``, appending results to ``directory``.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` runs in-process (the serial reference executor);
        ``N > 1`` dispatches chunks to a :class:`WorkerPool` of ``N``
        worker processes torn down when the call returns.
    chunk_size:
        Tasks per pool dispatch (defaults to ~4 chunks per worker).
    on_row:
        Optional callback invoked with each result row as it is stored
        (progress reporting).
    shard:
        ``(index, n_shards)`` restricts the run to the tasks whose key
        hashes to that shard (:func:`~repro.runtime.spec.task_shard_index`);
        the store should then be shard-scoped and later fused with
        :func:`~repro.runtime.store.merge_shards`.
    pool:
        A persistent :class:`WorkerPool` to dispatch through instead of a
        scoped one (``workers`` is then ignored for execution); keeps
        worker processes and their instance caches warm across calls.
    retry:
        The bounded :class:`RetryPolicy` for failed/timed-out rows
        (default: 3 attempts per error signature).  Rows that fail are
        re-executed in in-run retry rounds until they succeed or exhaust
        the budget; on resume, rows that already exhausted it are
        *skipped* (``stats.exhausted``) instead of re-executed forever.
        ``None`` disables both behaviors (every failure is re-executed on
        every resume — the pre-supervision semantics).
    task_timeout_s:
        Per-task watchdog deadline, overriding ``spec.task_timeout_s``;
        a task exceeding it yields a ``status="timeout"`` row.
    heartbeat:
        Optional path touched at run start and after every stored row —
        the liveness signal consumed by the shard coordinator.
    chaos:
        Optional :class:`~repro.runtime.faults.FaultPlan` injecting
        worker kills, hangs and synthetic failures.  Guarded by the
        ``REPRO_CHAOS`` environment flag and restricted to the serial
        executor (an injected kill takes the whole process down, which
        only the supervisor's restart path — not a ``multiprocessing``
        pool — can recover from).
    durability:
        Store write discipline override (``"flush"``/``"fsync"``),
        defaulting to ``spec.durability``.
    trace:
        When True, install a :class:`~repro.obs.JsonlTracer` writing a
        ``trace.jsonl`` sidecar into the campaign directory for the
        duration of the run, so the task/phase spans of the serial
        executor (pool workers keep their own process-local no-op
        tracer) and the per-row events are recorded.  Purely
        observational: the result rows and the aggregate digest are
        byte-identical with tracing on and off.

    Every run also persists a :mod:`repro.obs` registry snapshot as
    ``metrics.json`` next to the store (rendered by ``repro campaign
    metrics``), and the returned stats are a projection of the same
    registry counters.

    Tasks whose key already has a ``"done"`` row are skipped — resuming an
    interrupted campaign finishes the remainder and converges to the same
    aggregate — and when nothing is pending the call returns before any
    worker process is spawned.  Returns the run's :class:`CampaignRunStats`.
    """
    if workers < 0:
        raise CampaignError(f"workers must be >= 0, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise CampaignError(f"chunk_size must be >= 1, got {chunk_size}")
    if shard is not None:
        try:
            index, n_shards = shard
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"shard must be an (index, n_shards) pair, got {shard!r}"
            ) from exc
        check_shard(index, n_shards)
    if retry is not None and not isinstance(retry, RetryPolicy):
        raise CampaignError(f"retry must be a RetryPolicy or None, got {retry!r}")
    if chaos is not None:
        require_chaos()
        if pool is not None or workers > 1:
            raise CampaignError(
                "chaos injection requires the serial executor (an injected worker "
                "kill strands a multiprocessing pool); use workers<=1 and no pool"
            )
    effective_timeout = task_timeout_s if task_timeout_s is not None else spec.task_timeout_s
    store = open_store(
        directory,
        durability=durability if durability is not None else spec.durability,
    )
    store.initialize(spec)
    payloads = spec.task_payloads()
    total = len(payloads)
    if shard is not None:
        payloads = [
            p for p in payloads if task_shard_index(p["task_key"], n_shards) == index
        ]
    # The plan reads the per-task summaries — the sidecar, plus any rows
    # appended after its cursor — never the rows, and drops them once the
    # pending list is built.  Reading them also starts the store folding
    # the summaries of this run's appends, which the checkpoint at the end
    # persists.
    pending, start_attempts, last_signature, exhausted = _plan(
        store.summaries(), payloads, retry
    )

    def decorate(payload: dict, attempt: int, **extra) -> dict:
        extra["attempt"] = attempt
        if effective_timeout is not None:
            extra["task_timeout_s"] = effective_timeout
        if chaos is not None:
            extra["chaos"] = chaos.to_payload()
        return dict(payload, **extra)

    effective_workers = pool.workers if pool is not None else max(1, workers)
    pool_warm = pool is not None and pool.started

    # Registry-delta projection: resolve this campaign's metric children
    # once and capture their values, so the returned stats report exactly
    # what *this* run contributed while the registry keeps the live,
    # scrape-able totals (pool workers count in the parent, from rows).
    campaign = spec.name
    started_counter = _M_TASKS_STARTED.labels(campaign)
    retried_counter = _M_TASKS_RETRIED.labels(campaign)
    hit_counter = _M_INSTANCE_CACHE.labels(campaign, "hit")
    miss_counter = _M_INSTANCE_CACHE.labels(campaign, "miss")
    duration_histogram = _M_TASK_DURATION.labels(campaign)
    queue_gauge = _M_QUEUE_DEPTH.labels(campaign)
    base_retried = retried_counter.value
    base_hits = hit_counter.value
    base_misses = miss_counter.value
    if exhausted:
        _M_TASKS_EXHAUSTED.labels(campaign).inc(exhausted)

    final_rows: Dict[str, dict] = {}
    executions: Dict[str, int] = {}

    if heartbeat is not None and pending:
        touch_heartbeat(heartbeat)

    def record(row: dict) -> None:
        key = row["task_key"]
        if row["status"] in RETRYABLE_STATUSES:
            signature = _error_signature(row)
            # A different error than last time is a new problem: restart
            # its attempt budget instead of inheriting the old count.
            if key in last_signature and last_signature[key] != signature:
                row["attempt"] = 1
            last_signature[key] = signature
        store.append(row)
        if key not in final_rows:
            queue_gauge.dec()
        final_rows[key] = row
        executions[key] = executions.get(key, 0) + 1
        _M_TASKS_COMPLETED.labels(campaign, row["status"]).inc()
        if "wall_time_s" in row:
            duration_histogram.observe(row["wall_time_s"])
        if "instance_cache_hit" in row:
            (hit_counter if row["instance_cache_hit"] else miss_counter).inc()
        obs.event(
            "row",
            task_key=key,
            status=row["status"],
            attempt=row.get("attempt", 1),
            wall_time_s=row.get("wall_time_s"),
        )
        if heartbeat is not None:
            touch_heartbeat(heartbeat)
        if on_row is not None:
            on_row(row)

    start = time.perf_counter()
    with contextlib.ExitStack() as scope:
        # The store holds its append handle from the first row on; this
        # closes it however the run ends.
        scope.callback(store.close)
        if trace:
            scope.enter_context(
                obs.tracing(Path(directory) / obs.TRACE_FILENAME)
            )
        run_span = scope.enter_context(
            obs.span(
                "campaign_run",
                campaign=campaign,
                pending=len(pending),
                workers=effective_workers,
            )
        )
        queue_gauge.set(len(pending))
        # Short-circuit before any pool is spawned (or a persistent pool
        # is started) when a resume finds nothing left to do.
        if pending:
            if pool is not None:
                mode = "pool-warm" if pool_warm else "pool-cold"
            elif workers > 1:
                mode = "percall"
                pool = scope.enter_context(WorkerPool(workers))
            else:
                mode = "serial"
            _M_POOL_DISPATCH.labels(campaign, mode).inc()
            # The first pass tells each task how many later ones will start
            # from its G_k build; retry rounds pass no count, so they keep none.
            first_pass = [
                decorate(p, start_attempts[p["task_key"]], later_uses=uses)
                for p, uses in zip(pending, _later_uses(pending))
            ]
            started_counter.inc(len(first_pass))
            if pool is not None:
                chunk = chunk_size if chunk_size is not None else _default_chunk_size(
                    len(pending), pool.workers
                )
                for row in pool.imap_unordered(
                    execute_task, first_pass, chunksize=chunk
                ):
                    record(row)
            else:
                for payload in first_pass:
                    record(execute_task(payload))

            # In-run retry rounds (in the parent, serially: failures are the
            # exception, not the workload).  Each round re-executes the rows
            # still failing with budget left, after the policy's
            # exponential-backoff pause.  ``executions`` bounds the total
            # work per task this call even when error signatures alternate
            # and keep resetting the persistent attempt counter.
            by_key = {p["task_key"]: p for p in pending}
            round_number = 0
            while retry is not None:
                round_number += 1
                candidates = [
                    key
                    for key in by_key
                    if key in final_rows
                    and final_rows[key]["status"] in RETRYABLE_STATUSES
                    and final_rows[key].get("attempt", 1) < retry.max_attempts
                    and executions[key] < retry.max_attempts
                ]
                if not candidates:
                    break
                delay = retry.round_delay_s(round_number)
                if delay > 0:
                    time.sleep(delay)
                for key in candidates:
                    attempt = final_rows[key].get("attempt", 1) + 1
                    started_counter.inc()
                    record(execute_task(decorate(by_key[key], attempt)))
                    retried_counter.inc()
        queue_gauge.set(0)
        store.checkpoint()

        failed = sum(row["status"] != "done" for row in final_rows.values())
        timeouts = sum(row["status"] == "timeout" for row in final_rows.values())
        stats = CampaignRunStats(
            campaign=campaign,
            total_tasks=total,
            skipped=len(payloads) - len(pending) - exhausted,
            executed=len(pending),
            failed=failed,
            workers=effective_workers,
            wall_time_s=time.perf_counter() - start,
            shard=shard,
            pool_warm=pool_warm,
            cache_hits=int(hit_counter.value - base_hits),
            cache_misses=int(miss_counter.value - base_misses),
            timeouts=timeouts,
            retried=int(retried_counter.value - base_retried),
            exhausted=exhausted,
        )
        _M_TASKS_PER_S.labels(campaign).set(stats.tasks_per_s)
        run_span.set(executed=stats.executed, failed=stats.failed)
    # Persist the registry next to the store so `repro campaign metrics`
    # works on finished runs; best-effort (a read-only directory still
    # gets its results served).
    with contextlib.suppress(OSError):
        obs.get_registry().write_snapshot(Path(directory) / obs.METRICS_FILENAME)
    return stats
