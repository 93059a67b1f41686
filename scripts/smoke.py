#!/usr/bin/env python
"""Campaign smoke gate: every execution shape lands on the serial digest.

Runs the tiny committed 8-task spec (``examples/campaign_smoke.json``)
once through the serial reference executor, then through each leg of
:data:`LEGS`.  Every leg's store must reproduce the reference digest
twice — from the full row log and through the incremental-aggregate path
(``store.summaries()`` + ``records_from_summaries``) — and each leg adds
its own check:

* 2-shard merged: both halves of ``shard=(i, 2)``, fused by
  ``merge_shards``, cover the whole task set;
* warm pool: the second run through one persistent ``WorkerPool(2)``
  reports a warm start;
* kill+resume: a copy of the reference store whose last row is cut
  mid-line re-executes exactly that one task;
* compacted: compaction after a planted duplicate row drops a row;
* traced: the ``trace.jsonl`` sidecar is schema-valid with no skipped
  lines and holds the span tree, and ``metrics.json`` covers the
  required metric families;
* supervised: the ``ShardCoordinator`` under the seed-15 fault plan
  restarts a killed shard and turns a hang into a watchdog timeout.

Usage: ``python scripts/smoke.py`` (from the repository root; run by
``make smoke`` and ``scripts/check.sh``).  ``main`` sets ``REPRO_CHAOS=1``
itself — the gate exists to stop *accidental* fault injection, and the
supervised leg is deliberate; importing the module leaves the environment
alone.  Scratch output goes to ``.smoke/`` (wiped on entry).
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.runtime import (  # noqa: E402
    CampaignSpec,
    FaultPlan,
    LocalProcessExecutor,
    ShardCoordinator,
    WorkerPool,
    campaign_digest,
    campaign_records,
    merge_shards,
    open_store,
    records_from_summaries,
    run_campaign,
)
from repro.runtime.faults import CHAOS_ENV_VAR  # noqa: E402

SPEC_PATH = REPO_ROOT / "examples" / "campaign_smoke.json"
SCRATCH = REPO_ROOT / ".smoke"
N_SHARDS = 2

#: Seed 15 of this plan shape puts two hangs in shard 0 (before any kill)
#: and two kills in shard 1 on the first dispatch — both recovery paths
#: fire on every run, deterministically.
CHAOS_PLAN = FaultPlan(p_kill=0.25, p_hang=0.25, seed=15, max_salt=1, hang_s=60.0)

#: Metric families the traced run's ``metrics.json`` must populate.
REQUIRED_FAMILIES = (
    "repro_campaign_tasks_per_second",
    "repro_task_duration_seconds",
    "repro_instance_cache_total",
    "repro_pool_dispatch_total",
    "repro_tasks_started_total",
    "repro_tasks_completed_total",
    "repro_tasks_retried_total",
    "repro_store_flushes_total",
    "repro_store_rows_appended_total",
)


class SmokeFailure(Exception):
    """A leg's own check failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def digests(spec: CampaignSpec, directory: Path) -> tuple:
    """(full-row digest, incremental-aggregate digest) of one store."""
    store = open_store(directory)
    full = campaign_digest(campaign_records(spec, store.rows()))
    incremental = campaign_digest(records_from_summaries(spec, store.summaries()))
    return full, incremental


# Each leg runs one execution shape and returns (store directory, detail);
# main() then holds that store to the serial reference digest.

def sharded(spec: CampaignSpec, serial_dir: Path):
    shard_dirs = [SCRATCH / f"shard{i}" for i in range(N_SHARDS)]
    executed = sum(
        run_campaign(spec, shard_dir, shard=(i, N_SHARDS)).executed
        for i, shard_dir in enumerate(shard_dirs)
    )
    check(
        executed == spec.num_tasks(),
        f"the shards ran {executed} of {spec.num_tasks()} tasks",
    )
    merge_shards(SCRATCH / "merged", shard_dirs)
    return SCRATCH / "merged", f"{executed} tasks across {N_SHARDS} shard stores"


def warm_pool(spec: CampaignSpec, serial_dir: Path):
    with WorkerPool(2) as pool:
        run_campaign(spec, SCRATCH / "pool-cold", pool=pool)
        warm = run_campaign(spec, SCRATCH / "pool-warm", pool=pool)
    check(
        warm.pool_warm and warm.executed == spec.num_tasks(),
        "the second run through the pool did not start warm",
    )
    return SCRATCH / "pool-warm", f"{warm.executed} tasks, {warm.cache_hits} cache hits"


def kill_resume(spec: CampaignSpec, serial_dir: Path):
    directory = SCRATCH / "resumed"
    shutil.copytree(serial_dir, directory)
    results = open_store(directory).results_path
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    results.write_text("".join(lines[:-1]) + '{"task_key": "par', encoding="utf-8")
    resumed = run_campaign(spec, directory)
    check(
        resumed.executed == 1 and resumed.skipped == spec.num_tasks() - 1,
        f"resume executed {resumed.executed} and skipped {resumed.skipped} tasks",
    )
    return directory, f"{resumed.executed} executed / {resumed.skipped} skipped"


def compacted(spec: CampaignSpec, serial_dir: Path):
    directory = SCRATCH / "compacted"
    shutil.copytree(serial_dir, directory)
    store = open_store(directory)
    store.append(store.rows()[0])  # a superseded duplicate, as a retry leaves
    stats = store.compact()
    check(stats.rows_dropped >= 1, "compaction dropped nothing")
    return directory, f"{stats.rows_before} -> {stats.rows_after} rows"


def traced(spec: CampaignSpec, serial_dir: Path):
    directory = SCRATCH / "traced"
    run_campaign(spec, directory, trace=True)
    sidecar = directory / obs.TRACE_FILENAME
    valid, skipped = obs.validate_trace(sidecar)
    check(skipped == 0, f"the clean run left {skipped} skipped sidecar line(s)")
    names = [r["name"] for r in obs.read_trace(sidecar) if r["type"] == "span"]
    check(
        names.count("campaign_run") == 1
        and names.count("task") == spec.num_tasks()
        and "phase" in names,
        f"span tree has {names.count('campaign_run')} campaign_run, "
        f"{names.count('task')} task and {names.count('phase')} phase span(s)",
    )
    snapshot = obs.load_snapshot(directory / obs.METRICS_FILENAME)
    populated = {m["name"] for m in snapshot["metrics"] if m["samples"]}
    missing = [name for name in REQUIRED_FAMILIES if name not in populated]
    check(not missing, f"metrics.json lacks the families {missing}")
    check(
        "# TYPE repro_task_duration_seconds histogram" in obs.render_snapshot(snapshot),
        "the Prometheus rendering lost the duration histogram",
    )
    return directory, f"{valid} trace records, {len(names)} spans"


def supervised(spec: CampaignSpec, serial_dir: Path):
    directory = SCRATCH / "supervised"
    report = ShardCoordinator(
        spec,
        directory,
        LocalProcessExecutor(),
        n_shards=N_SHARDS,
        heartbeat_timeout_s=15.0,
        max_restarts=4,
        base_backoff_s=0.01,
        poll_interval_s=0.01,
        task_timeout_s=0.5,
        retry=None,  # chaos faults are transient; nothing may be written off
        chaos=CHAOS_PLAN,
        restart_failed_shards=True,
        max_wall_clock_s=90.0,
    ).run()
    timeouts = sum(row["status"] == "timeout" for row in open_store(directory).rows())
    check(not report.poisoned, f"shards poisoned under chaos: {report.poisoned}")
    check(
        report.status_counts == {"done": spec.num_tasks()},
        f"unfinished rows: {report.status_counts}",
    )
    check(report.restarts >= 1, "the injected kill never forced a restart")
    check(timeouts >= 1, "the injected hang never tripped the watchdog")
    return directory, f"{report.restarts} restart(s), {timeouts} watchdog timeout(s)"


LEGS = (
    ("2-shard merged", sharded),
    ("warm pool", warm_pool),
    ("kill+resume", kill_resume),
    ("compacted", compacted),
    ("traced", traced),
    ("supervised", supervised),
)


def main() -> int:
    os.environ[CHAOS_ENV_VAR] = "1"
    spec = CampaignSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)

    serial_dir = SCRATCH / "serial"
    serial = run_campaign(spec, serial_dir)
    reference, incremental = digests(spec, serial_dir)
    print(f"{'serial':<15} {serial.executed} tasks  digest {reference[:12]}")
    if serial.failed or incremental != reference:
        print("smoke: FAIL — the serial reference failed tasks or its digests disagree")
        return 1

    for name, leg in LEGS:
        try:
            directory, detail = leg(spec, serial_dir)
        except SmokeFailure as failure:
            print(f"smoke: FAIL — {name}: {failure}")
            return 1
        full, incremental = digests(spec, directory)
        print(f"{name:<15} {detail}  digest {full[:12]}")
        if full != reference or incremental != reference:
            print(
                f"smoke: FAIL — {name}: full {full[:12]} / incremental "
                f"{incremental[:12]} differ from the serial {reference[:12]}"
            )
            return 1

    print(f"smoke: OK (serial ≡ {' ≡ '.join(name for name, _ in LEGS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
