"""Failure-path coverage for the campaign scheduler.

What happens when workers raise unexpectedly, pools are closed mid-use,
the operator hits Ctrl-C, or a task wedges: the store must survive
uncorrupted, the run must stay resumable, and the watchdog/retry layers
must convert recoverable faults into terminal rows instead of hangs.
"""

import threading
import time

import pytest

from repro.exceptions import CampaignError, TaskTimeout
from repro.runtime import (
    CampaignStore,
    RetryPolicy,
    WorkerPool,
    campaign_digest,
    campaign_records,
    execute_task,
    run_campaign,
    watchdog,
)
from repro.runtime.faults import CHAOS_ENV_VAR, FaultPlan
from repro.runtime.tasks import INSTANCE_CACHE

from tests.conftest import completed_of
from tests.runtime.test_spec import small_spec


def _crash_on_capped(payload):
    """A worker bug: non-ReproError escape for half the grid (capped oracles)."""
    if payload["oracle"].startswith("capped"):
        raise RuntimeError("simulated worker bug (not a ReproError)")
    return execute_task(payload)


def _slow_build(family, n, m, k, epsilon, seed):
    time.sleep(5.0)
    raise AssertionError("the watchdog should have fired first")


def reference_digest(spec, tmp_path):
    reference = tmp_path / "reference"
    run_campaign(spec, reference, workers=0)
    return campaign_digest(campaign_records(spec, CampaignStore(reference).rows()))


class TestWatchdog:
    def test_watchdog_interrupts_a_sleeping_task(self):
        with pytest.raises(TaskTimeout, match="watchdog deadline"):
            with watchdog(0.05):
                time.sleep(5.0)

    def test_watchdog_without_deadline_is_a_noop(self):
        with watchdog(None):
            pass
        with watchdog(0):
            pass

    def test_watchdog_degrades_to_noop_off_the_main_thread(self):
        outcome = {}

        def body():
            with watchdog(0.01):
                time.sleep(0.05)
            outcome["survived"] = True

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome.get("survived")

    def test_hung_task_becomes_a_timeout_row(self, tmp_path, monkeypatch):
        INSTANCE_CACHE.clear()
        monkeypatch.setattr("repro.runtime.tasks.build_instance", _slow_build)
        spec = small_spec(
            families=("uniform",), sizes=((8, 6),), ks=(3,), replicates=1,
            task_timeout_s=0.2,
        )
        start = time.perf_counter()
        stats = run_campaign(spec, tmp_path, workers=0, retry=None)
        wall = time.perf_counter() - start
        assert stats.timeouts == spec.num_tasks()
        assert stats.failed == spec.num_tasks()
        # Hard wall-clock bound: every hung task was cut at ~0.2s, not 5s.
        assert wall < 4.0
        for row in CampaignStore(tmp_path).latest_rows().values():
            assert row["status"] == "timeout"
            assert row["error_type"] == "TaskTimeout"
            assert row["task_timeout_s"] == 0.2

    def test_timeout_rows_are_retried_and_counted_as_exhausted(self, tmp_path, monkeypatch):
        INSTANCE_CACHE.clear()
        monkeypatch.setattr("repro.runtime.tasks.build_instance", _slow_build)
        spec = small_spec(
            families=("uniform",), sizes=((8, 6),), ks=(3,), replicates=1,
            oracles=("greedy-first-fit",),
        )
        stats = run_campaign(
            spec, tmp_path, workers=0, task_timeout_s=0.1,
            retry=RetryPolicy(max_attempts=2),
        )
        assert stats.timeouts == spec.num_tasks()
        assert stats.retried == spec.num_tasks()  # one in-run retry round
        resumed = run_campaign(
            spec, tmp_path, workers=0, task_timeout_s=0.1,
            retry=RetryPolicy(max_attempts=2),
        )
        assert resumed.executed == 0
        assert resumed.exhausted == spec.num_tasks()


class TestRetryRounds:
    def test_transient_failure_is_recovered_in_run(self, tmp_path, monkeypatch):
        spec = small_spec()
        digest = reference_digest(spec, tmp_path)

        def flaky(payload):
            if payload["attempt"] == 1:
                return {
                    "task_key": payload["task_key"],
                    "instance_seed": payload["instance_seed"],
                    "status": "failed",
                    "error_type": "TransientError",
                    "error": "first attempt always fails",
                    "attempt": payload["attempt"],
                }
            return execute_task(payload)

        monkeypatch.setattr("repro.runtime.scheduler.execute_task", flaky)
        stats = run_campaign(spec, tmp_path / "out", workers=0)
        assert stats.failed == 0
        assert stats.retried == spec.num_tasks()
        rows = CampaignStore(tmp_path / "out").latest_rows().values()
        assert all(row["attempt"] == 2 for row in rows)
        records = campaign_records(spec, CampaignStore(tmp_path / "out").rows())
        assert campaign_digest(records) == digest

    def test_alternating_error_signatures_reset_the_attempt_counter(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(
            families=("uniform",), sizes=((8, 6),), ks=(3,), replicates=1,
            oracles=("greedy-first-fit",),
        )
        executions = []

        def always_failing(payload):
            executions.append(payload["attempt"])
            return {
                "task_key": payload["task_key"],
                "instance_seed": payload["instance_seed"],
                "status": "failed",
                "error_type": "FlappingError",
                "error": f"different message every time #{len(executions)}",
                "attempt": payload["attempt"],
            }

        monkeypatch.setattr("repro.runtime.scheduler.execute_task", always_failing)
        stats = run_campaign(
            spec, tmp_path, workers=0, retry=RetryPolicy(max_attempts=3)
        )
        # The signature changes every execution, so the persistent attempt
        # counter keeps resetting to 1 — but the per-run execution bound
        # still caps the work at max_attempts executions per task.
        assert len(executions) == 3 * spec.num_tasks()
        assert stats.retried == 2 * spec.num_tasks()
        for row in CampaignStore(tmp_path).latest_rows().values():
            assert row["attempt"] == 1


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_attempts": 0},
            {"max_attempts": True},
            {"max_attempts": 2.0},
            {"base_delay_s": -0.1},
            {"base_delay_s": "1"},
        ],
    )
    def test_malformed_policy_rejected(self, overrides):
        with pytest.raises(CampaignError):
            RetryPolicy(**overrides)

    def test_round_delays_grow_geometrically(self):
        policy = RetryPolicy(base_delay_s=0.5)
        assert [policy.round_delay_s(r) for r in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_non_policy_retry_is_refused_before_the_store_opens(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path / "out", retry=3)
        assert not (tmp_path / "out").exists()

    def test_chaos_needs_the_serial_executor(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "1")
        with pytest.raises(CampaignError, match="serial executor"):
            run_campaign(small_spec(), tmp_path / "out", workers=2, chaos=FaultPlan(p_fail=0.5))
        assert not (tmp_path / "out").exists()


class TestPoolFailures:
    def test_worker_bug_propagates_and_store_survives(self, tmp_path, monkeypatch):
        spec = small_spec()
        digest = reference_digest(spec, tmp_path)
        monkeypatch.setattr("repro.runtime.scheduler.execute_task", _crash_on_capped)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="simulated worker bug"):
            run_campaign(spec, out, workers=2, chunk_size=1)
        # Whatever rows landed before the crash are intact and parseable.
        store = CampaignStore(out)
        for row in store.rows():
            assert row["status"] == "done"
        monkeypatch.undo()
        resumed = run_campaign(spec, out, workers=0)
        assert resumed.failed == 0
        assert campaign_digest(campaign_records(spec, store.rows())) == digest

    def test_worker_bug_in_serial_executor_propagates_too(self, tmp_path, monkeypatch):
        spec = small_spec()
        monkeypatch.setattr("repro.runtime.scheduler.execute_task", _crash_on_capped)
        with pytest.raises(RuntimeError, match="simulated worker bug"):
            run_campaign(spec, tmp_path, workers=0)

    def test_closed_pool_is_refused_and_store_stays_clean(self, tmp_path):
        spec = small_spec()
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(CampaignError, match="closed"):
            run_campaign(spec, tmp_path, pool=pool)
        # Nothing ran, nothing was stored; a serial resume completes fully.
        assert CampaignStore(tmp_path).rows() == []
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.executed == spec.num_tasks()
        assert stats.failed == 0

    def test_pool_closed_between_runs_leaves_resume_possible(self, tmp_path):
        spec = small_spec()
        with WorkerPool(2) as pool:
            first = run_campaign(spec, tmp_path, pool=pool, shard=(0, 2))
            assert first.failed == 0
        with pytest.raises(CampaignError, match="closed"):
            run_campaign(spec, tmp_path, pool=pool, shard=(1, 2))
        merged = run_campaign(spec, tmp_path, workers=0)
        assert merged.failed == 0
        assert len(completed_of(CampaignStore(tmp_path).summaries())) == spec.num_tasks()


class TestKeyboardInterrupt:
    def test_interrupt_mid_run_leaves_store_resumable(self, tmp_path):
        spec = small_spec()
        digest = reference_digest(spec, tmp_path)
        out = tmp_path / "out"
        seen = []

        def interrupt_after_three(row):
            seen.append(row)
            if len(seen) == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, out, workers=0, on_row=interrupt_after_three)
        store = CampaignStore(out)
        assert len(store.rows()) == 3  # every pre-interrupt row survived
        assert store.results_path.read_text().endswith("\n")  # no torn tail
        resumed = run_campaign(spec, out, workers=0)
        assert resumed.skipped == 3
        assert resumed.executed == spec.num_tasks() - 3
        assert campaign_digest(campaign_records(spec, store.rows())) == digest
