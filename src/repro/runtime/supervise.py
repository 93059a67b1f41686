"""Fault-tolerant campaign supervision: the shard coordinator.

:class:`ShardCoordinator` turns a campaign into a supervised fleet of
shard workers.  It enumerates the sha256-stable shards of a
:class:`~repro.runtime.spec.CampaignSpec`, dispatches each to a pluggable
:class:`ShardExecutor`, and watches two liveness signals per shard:

* the executor's **exit code** — ``0`` lands the shard, ``1`` is a run
  that completed with failed rows (landed by default, restarted under
  ``restart_failed_shards``), anything else is a crash;
* the shard's **heartbeat file** — touched by the worker at run start and
  after every stored row; a heartbeat older than ``heartbeat_timeout_s``
  means the worker is wedged (hung task, dead machine), so the
  coordinator kills it and treats the dispatch as a crash.

Crashed shards are re-dispatched with exponential backoff plus seeded
jitter.  Because the store is append-and-flush JSONL, a killed worker
loses at most one row and the re-dispatched run resumes from what
survived — so recovery costs only the lost tail, not the shard.  A shard
that crashes more than ``max_restarts`` times is quarantined as
*poisoned*: its surviving rows are still salvage-merged, but it is never
dispatched again, and the report names it instead of retrying forever.

Landed shards are merged incrementally into the coordinator's output
store via :func:`~repro.runtime.store.merge_shards` — the same fusion the
differential harness proves digest-identical to a monolithic serial run.
When every shard lands, the aggregate digest is computed and (optionally)
checked against an ``expected_digest`` from a serial reference run.

Executors are deliberately thin — ``launch`` one shard, ``poll`` its exit
code, ``kill`` it — so the coordinator never depends on how
:class:`LocalProcessExecutor` (supervised ``repro campaign run --shard
i/n`` subprocesses) starts its shards.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.exceptions import CampaignError, SupervisionError
from repro.runtime.aggregate import campaign_digest
from repro.runtime.faults import FaultPlan, require_chaos
from repro.runtime.scheduler import DEFAULT_RETRY_POLICY, RetryPolicy, run_campaign
from repro.runtime.spec import CampaignSpec, check_shard
from repro.runtime.store import merge_shards, open_store, status_counts_of
from repro.runtime.summary import records_from_summaries

# Coordinator metrics: the supervision loop's live view (dispatch churn,
# restart pressure, shard liveness).  The heartbeat-age gauge is updated
# on every poll of a running shard, so a scraper watches staleness
# approach the timeout in real time.
_M_SHARD_DISPATCHES = obs.counter(
    "repro_shard_dispatches_total",
    "Shard worker launches (first dispatches and restarts).",
    labels=("campaign",),
)
_M_SHARD_RESTARTS = obs.counter(
    "repro_shard_restarts_total",
    "Crash-triggered shard re-dispatches scheduled.",
    labels=("campaign",),
)
_M_SHARD_STALE_KILLS = obs.counter(
    "repro_shard_stale_kills_total",
    "Shard workers killed by the coordinator for a stale heartbeat.",
    labels=("campaign",),
)
_M_SHARD_QUARANTINED = obs.counter(
    "repro_shard_quarantined_total",
    "Shards quarantined as poisoned after exhausting their restart budget.",
    labels=("campaign",),
)
_M_HEARTBEAT_AGE = obs.gauge(
    "repro_shard_heartbeat_age_seconds",
    "Seconds since each running shard last showed life (beat or dispatch).",
    labels=("campaign", "shard"),
)

#: Heartbeat filename inside each shard directory.
HEARTBEAT_FILENAME = "heartbeat"

#: Worker stdout/stderr capture inside each shard directory.
WORKER_LOG_FILENAME = "worker.log"

#: Growth factor of the pause between a shard's re-dispatches.
RESTART_BACKOFF = 2.0

#: Largest relative stretch of a re-dispatch pause by seeded noise.
RESTART_JITTER = 0.25

#: Seed of every coordinator's jitter draws.
JITTER_SEED = 0


@dataclass(frozen=True)
class ShardLaunch:
    """Everything an executor needs to start one shard worker.

    ``spec_path`` points at the coordinator's own ``spec.json`` (the
    output store doubles as the spec of record), ``shard_dir`` is the
    shard's private campaign directory, and ``heartbeat_path`` is the
    file the worker must touch per stored row.  ``chaos`` carries the
    already-salted :class:`~repro.runtime.faults.FaultPlan` for this
    dispatch, or ``None`` outside the chaos harness.
    """

    spec_path: Path
    shard_dir: Path
    index: int
    n_shards: int
    heartbeat_path: Path
    task_timeout_s: Optional[float] = None
    retry: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY
    durability: Optional[str] = None
    chaos: Optional[FaultPlan] = None
    #: Ask the worker to write a ``trace.jsonl`` sidecar into its shard
    #: directory (``--trace`` on the subprocess command line).
    trace: bool = False


class ShardHandle(ABC):
    """A running (or finished) shard dispatch, as seen by the coordinator."""

    @abstractmethod
    def poll(self) -> Optional[int]:
        """Exit code once the worker finished, else ``None`` (still running)."""

    @abstractmethod
    def kill(self) -> None:
        """Terminate the worker immediately (idempotent; no-op once dead)."""


class ShardExecutor(ABC):
    """Where shard workers run.

    v1 ships :class:`LocalProcessExecutor` (supervised local
    subprocesses) and :class:`InlineExecutor` (in-process, for tests).
    The interface is transport-agnostic on purpose: an SSH executor would
    ``launch`` a remote ``repro campaign run --shard i/n`` against a
    shared filesystem and ``poll``/``kill`` over the connection, without
    any coordinator changes.
    """

    @abstractmethod
    def launch(self, launch: ShardLaunch) -> ShardHandle:
        """Start one shard worker and return its handle."""


class _ProcessHandle(ShardHandle):
    """Handle over a local subprocess plus its log file."""

    def __init__(self, process: subprocess.Popen, log_handle) -> None:
        self._process = process
        self._log_handle = log_handle

    def poll(self) -> Optional[int]:
        code = self._process.poll()
        if code is not None and self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None
        return code

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
            self._process.wait()
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None


class LocalProcessExecutor(ShardExecutor):
    """Run each shard as a supervised local ``repro campaign run`` subprocess.

    The worker is the *serial* executor (``--workers 0``) so an injected
    kill or a watchdog timeout has exactly one victim, and the subprocess
    runs this interpreter with a ``PYTHONPATH`` that resolves the
    installed ``repro`` package — no installation step needed.  Worker
    stdout/stderr land in ``<shard_dir>/worker.log`` for post-mortems.
    """

    def command(self, launch: ShardLaunch) -> List[str]:
        """The subprocess argv for one shard dispatch (exposed for tests)."""
        argv = [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "run",
            "--spec",
            str(launch.spec_path),
            "--out",
            str(launch.shard_dir),
            "--workers",
            "0",
            "--shard",
            f"{launch.index}/{launch.n_shards}",
            "--heartbeat",
            str(launch.heartbeat_path),
        ]
        if launch.task_timeout_s is not None:
            argv += ["--task-timeout", repr(launch.task_timeout_s)]
        if launch.retry is not None:
            argv += [
                "--max-retries",
                str(launch.retry.max_attempts),
                "--retry-base-delay",
                repr(launch.retry.base_delay_s),
            ]
        else:
            # retry=None means *no* policy; the CLI default is 3, so the
            # disable must be passed explicitly.
            argv += ["--max-retries", "0"]
        if launch.durability is not None:
            argv += ["--durability", launch.durability]
        if launch.trace:
            argv += ["--trace"]
        if launch.chaos is not None:
            argv += launch.chaos.cli_args()
        return argv

    def launch(self, launch: ShardLaunch) -> ShardHandle:
        import repro

        launch.shard_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        if launch.chaos is not None:
            # The coordinator already passed require_chaos(); propagate the
            # gate so the child accepts its --chaos flags.
            env["REPRO_CHAOS"] = "1"
        log_handle = open(launch.shard_dir / WORKER_LOG_FILENAME, "a", encoding="utf-8")
        process = subprocess.Popen(
            self.command(launch),
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            env=env,
        )
        return _ProcessHandle(process, log_handle)


class _InlineHandle(ShardHandle):
    def __init__(self, code: int) -> None:
        self._code = code

    def poll(self) -> Optional[int]:
        return self._code

    def kill(self) -> None:  # pragma: no cover - nothing to kill
        pass


class InlineExecutor(ShardExecutor):
    """Run shards synchronously in this process (tests and debugging).

    ``launch`` blocks until the shard finishes, then returns a handle
    whose ``poll`` immediately reports the exit code the CLI would have
    used.  Never combine with a chaos plan that injects *kills* — an
    inline ``os._exit`` takes the coordinator down with the shard.
    """

    def launch(self, launch: ShardLaunch) -> ShardHandle:
        spec = CampaignSpec.from_json(launch.spec_path.read_text(encoding="utf-8"))
        try:
            stats = run_campaign(
                spec,
                launch.shard_dir,
                workers=0,
                shard=(launch.index, launch.n_shards),
                retry=launch.retry,
                task_timeout_s=launch.task_timeout_s,
                heartbeat=launch.heartbeat_path,
                chaos=launch.chaos,
                durability=launch.durability,
                trace=launch.trace,
            )
        except CampaignError:
            return _InlineHandle(2)
        return _InlineHandle(0 if stats.failed == 0 and stats.exhausted == 0 else 1)


@dataclass
class ShardReport:
    """What happened to one shard across all of its dispatches."""

    index: int
    #: ``"landed"`` (exit 0), ``"landed-with-failures"`` (exit 1, kept),
    #: or ``"poisoned"`` (crashed past the restart budget, quarantined).
    status: str = "pending"
    #: Total dispatches (1 + restarts).
    dispatches: int = 0
    #: Crash-triggered re-dispatches actually performed.
    restarts: int = 0
    #: Dispatches killed by the coordinator for a stale heartbeat.
    stale_kills: int = 0
    #: Exit code of every finished dispatch, in order (stale-heartbeat
    #: kills are recorded as ``None`` — the worker never exited on its own).
    exit_codes: List[Optional[int]] = field(default_factory=list)


@dataclass
class SupervisionReport:
    """The outcome of one :meth:`ShardCoordinator.run`."""

    campaign: str
    n_shards: int
    shards: List[ShardReport]
    #: Aggregate digest of the merged output store.
    digest: str
    #: Latest-row status counts of the merged store.
    status_counts: Dict[str, int]
    wall_time_s: float

    @property
    def restarts(self) -> int:
        return sum(shard.restarts for shard in self.shards)

    @property
    def poisoned(self) -> List[int]:
        """Indices of quarantined shards (empty on a fully landed run)."""
        return [shard.index for shard in self.shards if shard.status == "poisoned"]

    @property
    def ok(self) -> bool:
        """True when every shard landed and no merged row is unfinished."""
        return not self.poisoned and all(
            status == "done" for status in self.status_counts
        ) and bool(self.status_counts)


class ShardCoordinator:
    """Supervise a sharded campaign to completion (or quarantine).

    Parameters
    ----------
    spec, out_dir:
        The campaign and its merged output directory; ``out_dir/spec.json``
        is written up front and doubles as the ``--spec`` every shard
        worker reads.
    executor:
        Where shards run (default: :class:`LocalProcessExecutor`).
    n_shards:
        How many sha256-stable shards to split the task grid into.
    heartbeat_timeout_s:
        A running shard whose heartbeat file is older than this (counting
        from dispatch when no beat arrived yet) is killed and re-dispatched.
        Must comfortably exceed the slowest single task.
    max_restarts:
        Crash re-dispatches allowed per shard before it is poisoned.
    base_backoff_s:
        Re-dispatch ``r`` waits ``base_backoff_s * RESTART_BACKOFF**(r-1)``
        stretched by up to ``RESTART_JITTER`` relative seeded noise, so a
        crashing fleet does not stampede.
    task_timeout_s, retry, durability:
        Forwarded to every shard worker (see :func:`run_campaign`).
    chaos:
        Fault-injection plan; each dispatch of shard ``i`` runs under
        ``chaos.with_salt(dispatch_number)`` so restarts draw fresh fault
        decisions instead of deterministically replaying the crash.
    restart_failed_shards:
        When True, a shard exiting 1 (completed, but some rows failed) is
        restarted like a crash instead of landed — the chaos harness uses
        this so injected failures are retried until they converge.
    max_wall_clock_s:
        Hard bound on the whole supervision run; exceeding it kills every
        live worker and raises :class:`SupervisionError` (this is what
        keeps a pathological chaos run from hanging the test suite).
    expected_digest:
        When set, a fully landed run whose merged digest differs raises
        :class:`SupervisionError` — the serial-reference equality check.
    trace:
        Write trace sidecars: the coordinator's own dispatch/kill events
        land in ``out_dir/trace.jsonl`` and every shard worker writes
        ``trace.jsonl`` into its shard directory (``--trace`` is added
        to the worker command line).  Observational only — the merged
        digest is unchanged, which the chaos-with-tracing tests assert.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir,
        executor: Optional[ShardExecutor] = None,
        n_shards: int = 2,
        heartbeat_timeout_s: float = 30.0,
        max_restarts: int = 3,
        base_backoff_s: float = 0.05,
        poll_interval_s: float = 0.02,
        task_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        durability: Optional[str] = None,
        chaos: Optional[FaultPlan] = None,
        restart_failed_shards: bool = False,
        max_wall_clock_s: Optional[float] = None,
        expected_digest: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        check_shard(0, n_shards)
        if heartbeat_timeout_s <= 0:
            raise CampaignError(
                f"heartbeat_timeout_s must be positive, got {heartbeat_timeout_s!r}"
            )
        if not isinstance(max_restarts, int) or max_restarts < 0:
            raise CampaignError(
                f"max_restarts must be a non-negative int, got {max_restarts!r}"
            )
        if base_backoff_s < 0:
            raise CampaignError(f"base_backoff_s must be >= 0, got {base_backoff_s!r}")
        if poll_interval_s <= 0:
            raise CampaignError(
                f"poll_interval_s must be positive, got {poll_interval_s!r}"
            )
        if max_wall_clock_s is not None and max_wall_clock_s <= 0:
            raise CampaignError(
                f"max_wall_clock_s must be positive, got {max_wall_clock_s!r}"
            )
        if chaos is not None:
            require_chaos()
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.executor = executor if executor is not None else LocalProcessExecutor()
        self.n_shards = n_shards
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts = max_restarts
        self.base_backoff_s = base_backoff_s
        self.poll_interval_s = poll_interval_s
        self.task_timeout_s = task_timeout_s
        self.retry = retry
        self.durability = durability
        self.chaos = chaos
        self.restart_failed_shards = restart_failed_shards
        self.max_wall_clock_s = max_wall_clock_s
        self.expected_digest = expected_digest
        self.trace = trace
        self._rng = random.Random(JITTER_SEED)

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------
    def shard_dir(self, index: int) -> Path:
        return self.out_dir / "shards" / f"shard-{index}"

    def _launch_spec(self, index: int, dispatches: int) -> ShardLaunch:
        chaos = self.chaos.with_salt(dispatches) if self.chaos is not None else None
        return ShardLaunch(
            spec_path=self.out_dir / "spec.json",
            shard_dir=self.shard_dir(index),
            index=index,
            n_shards=self.n_shards,
            heartbeat_path=self.shard_dir(index) / HEARTBEAT_FILENAME,
            task_timeout_s=self.task_timeout_s,
            retry=self.retry,
            durability=self.durability,
            chaos=chaos,
            trace=self.trace,
        )

    def _backoff_delay(self, restart_number: int) -> float:
        """Pause before re-dispatch ``restart_number`` (1-based), jittered."""
        base = self.base_backoff_s * RESTART_BACKOFF ** (restart_number - 1)
        return base * (1.0 + RESTART_JITTER * self._rng.random())

    def _heartbeat_age(self, index: int, dispatched_at: float) -> float:
        """Seconds since the shard last showed life (beat or dispatch)."""
        heartbeat = self.shard_dir(index) / HEARTBEAT_FILENAME
        last = dispatched_at
        try:
            last = max(last, heartbeat.stat().st_mtime)
        except OSError:
            pass
        return time.time() - last

    # ------------------------------------------------------------------
    # supervision loop
    # ------------------------------------------------------------------
    def run(self) -> SupervisionReport:
        """Supervise every shard to a terminal state and merge the output.

        Returns the :class:`SupervisionReport`; raises
        :class:`SupervisionError` only on coordinator-level failures
        (wall-clock exhaustion, digest mismatch) — poisoned shards are
        *reported*, not raised, so callers can salvage partial results.
        """
        started = time.monotonic()
        out_store = open_store(
            self.out_dir,
            durability=self.durability if self.durability is not None else self.spec.durability,
        )
        out_store.initialize(self.spec)

        campaign = self.spec.name
        dispatch_counter = _M_SHARD_DISPATCHES.labels(campaign)
        restart_counter = _M_SHARD_RESTARTS.labels(campaign)
        stale_counter = _M_SHARD_STALE_KILLS.labels(campaign)

        reports = [ShardReport(index=i) for i in range(self.n_shards)]
        handles: Dict[int, ShardHandle] = {}
        dispatched_at: Dict[int, float] = {}
        next_dispatch: Dict[int, float] = {i: 0.0 for i in range(self.n_shards)}

        def terminal(report: ShardReport) -> bool:
            return report.status in ("landed", "landed-with-failures", "poisoned")

        def land(report: ShardReport, status: str) -> None:
            report.status = status
            obs.event("shard_landed", shard=report.index, status=status)
            merge_shards(
                self.out_dir, [self.shard_dir(report.index)], durability=self.durability
            )

        def crash(report: ShardReport) -> None:
            if report.restarts >= self.max_restarts:
                # Quarantine, but salvage whatever rows the shard stored
                # across its dispatches — they are valid, resumable work.
                report.status = "poisoned"
                _M_SHARD_QUARANTINED.labels(campaign).inc()
                obs.event("shard_quarantined", shard=report.index)
                if (self.shard_dir(report.index) / "spec.json").exists():
                    merge_shards(
                        self.out_dir,
                        [self.shard_dir(report.index)],
                        durability=self.durability,
                    )
                return
            report.restarts += 1
            restart_counter.inc()
            next_dispatch[report.index] = time.monotonic() + self._backoff_delay(
                report.restarts
            )

        with contextlib.ExitStack() as scope:
            if self.trace:
                scope.enter_context(obs.tracing(self.out_dir / obs.TRACE_FILENAME))
            supervise_span = scope.enter_context(
                obs.span("supervise", campaign=campaign, n_shards=self.n_shards)
            )
            while not all(terminal(r) for r in reports):
                now = time.monotonic()
                if self.max_wall_clock_s is not None and now - started > self.max_wall_clock_s:
                    for handle in handles.values():
                        handle.kill()
                    raise SupervisionError(
                        f"supervision of campaign {self.spec.name!r} exceeded its "
                        f"{self.max_wall_clock_s:g}s wall-clock bound with "
                        f"{sum(not terminal(r) for r in reports)} shard(s) unfinished"
                    )
                progressed = False
                for report in reports:
                    index = report.index
                    if terminal(report):
                        continue
                    if index not in handles:
                        if now >= next_dispatch[index]:
                            handles[index] = self.executor.launch(
                                self._launch_spec(index, report.dispatches)
                            )
                            report.dispatches += 1
                            dispatch_counter.inc()
                            obs.event(
                                "shard_dispatch",
                                shard=index,
                                dispatch=report.dispatches,
                            )
                            dispatched_at[index] = time.time()
                            progressed = True
                        continue
                    code = handles[index].poll()
                    if code is not None:
                        del handles[index]
                        report.exit_codes.append(code)
                        progressed = True
                        obs.event("shard_exit", shard=index, code=code)
                        if code == 0:
                            land(report, "landed")
                        elif code == 1 and not self.restart_failed_shards:
                            land(report, "landed-with-failures")
                        else:
                            crash(report)
                    else:
                        age = self._heartbeat_age(index, dispatched_at[index])
                        _M_HEARTBEAT_AGE.labels(campaign, str(index)).set(age)
                        if age > self.heartbeat_timeout_s:
                            handles[index].kill()
                            del handles[index]
                            report.exit_codes.append(None)
                            report.stale_kills += 1
                            stale_counter.inc()
                            obs.event("shard_stale_kill", shard=index, age_s=age)
                            progressed = True
                            crash(report)
                if not progressed:
                    time.sleep(self.poll_interval_s)

            summaries = out_store.summaries()
            digest = campaign_digest(records_from_summaries(self.spec, summaries))
            supervise_span.set(digest=digest[:12])
        # The merged directory gets its own registry snapshot, so
        # `repro campaign metrics <out_dir>` covers supervised runs too.
        with contextlib.suppress(OSError):
            obs.get_registry().write_snapshot(self.out_dir / obs.METRICS_FILENAME)
        report = SupervisionReport(
            campaign=self.spec.name,
            n_shards=self.n_shards,
            shards=reports,
            digest=digest,
            status_counts=status_counts_of(summaries),
            wall_time_s=time.monotonic() - started,
        )
        if (
            self.expected_digest is not None
            and not report.poisoned
            and digest != self.expected_digest
        ):
            raise SupervisionError(
                f"supervised campaign {self.spec.name!r} landed every shard but its "
                f"digest {digest[:12]} differs from the serial reference "
                f"{self.expected_digest[:12]} — merged store is not equivalent"
            )
        return report
