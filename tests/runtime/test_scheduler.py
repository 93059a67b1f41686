"""Scheduler tests: serial-vs-parallel byte identity, resume, failure isolation,
persistent worker pools, sharded runs, and the no-pool-when-idle regression."""

from __future__ import annotations

import multiprocessing
import shutil
import time
from pathlib import Path

import pytest

import repro.runtime.store as store_module
from repro import obs
from repro.exceptions import CampaignError
from repro.runtime import (
    CampaignSpec,
    CampaignStore,
    WorkerPool,
    campaign_digest,
    cache_counts_of,
    campaign_records,
    execute_task,
    records_from_summaries,
    run_campaign,
    status_counts_of,
    summaries_of,
    task_shard_index,
)

from tests.conftest import completed_of
from tests.runtime.test_spec import small_spec
from tests.runtime.test_store import deltas_of
from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS

#: The 8-task smoke spec's store as the version-1 sidecar format left it: its
#: last row torn in half by a kill, then a status wrote ``aggregates.json``.
V1_STORE = Path(__file__).with_name("data") / "v1_store"
#: The aggregate digest the version-1 code reported for the finished campaign.
V1_DIGEST = "b5655e080a448933f295ed7cee3db06466b171fb3dcb20d99f0a59fd2fbfc49b"


def digest_of(spec: CampaignSpec, directory) -> str:
    return campaign_digest(campaign_records(spec, CampaignStore(directory).rows()))


def _parse_spy(monkeypatch) -> list:
    """Record every raw line the store parses."""
    calls = []
    real = store_module._parse_row

    def spy(raw):
        calls.append(raw)
        return real(raw)

    monkeypatch.setattr(store_module, "_parse_row", spy)
    return calls


def _forbid_pool_spawn(monkeypatch):
    """Make any multiprocessing.Pool construction fail the test."""

    def boom(*args, **kwargs):
        raise AssertionError("multiprocessing.Pool must not be constructed here")

    monkeypatch.setattr(multiprocessing, "Pool", boom)


class TestSerialExecutor:
    def test_runs_every_task(self, tmp_path):
        spec = small_spec()
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.total_tasks == spec.num_tasks()
        assert stats.executed == spec.num_tasks()
        assert stats.skipped == stats.failed == 0
        assert stats.workers == 1
        assert stats.tasks_per_s > 0
        store = CampaignStore(tmp_path)
        assert completed_of(store.summaries()) == {p["task_key"] for p in spec.task_payloads()}

    def test_rerun_skips_everything(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        again = run_campaign(spec, tmp_path, workers=0)
        assert again.executed == 0
        assert again.skipped == spec.num_tasks()
        assert again.tasks_per_s == 0.0

    def test_negative_workers_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path, workers=-1)

    def test_non_positive_chunk_size_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path, workers=2, chunk_size=-1)
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path, workers=2, chunk_size=0)

    def test_on_row_callback_sees_every_row(self, tmp_path):
        spec = small_spec()
        seen = []
        run_campaign(spec, tmp_path, workers=0, on_row=lambda row: seen.append(row["task_key"]))
        assert sorted(seen) == sorted(p["task_key"] for p in spec.task_payloads())


class TestParallelByteIdentity:
    def test_pool_run_matches_serial_digest(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "serial", workers=0)
        stats = run_campaign(spec, tmp_path / "pool", workers=2)
        assert stats.executed == spec.num_tasks()
        assert stats.workers == 2
        assert digest_of(spec, tmp_path / "serial") == digest_of(spec, tmp_path / "pool")

    def test_pool_rows_match_serial_rows_except_timing(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "serial", workers=0)
        run_campaign(spec, tmp_path / "pool", workers=2, chunk_size=1)
        serial = {
            r["task_key"]: {
                k: v for k, v in r.items() if k not in NONDETERMINISTIC_ROW_FIELDS
            }
            for r in CampaignStore(tmp_path / "serial").rows()
        }
        pool = {
            r["task_key"]: {
                k: v for k, v in r.items() if k not in NONDETERMINISTIC_ROW_FIELDS
            }
            for r in CampaignStore(tmp_path / "pool").rows()
        }
        assert serial == pool

    def test_on_row_callback_fires_in_pool_mode(self, tmp_path):
        spec = small_spec()
        seen = []
        run_campaign(
            spec, tmp_path, workers=2, on_row=lambda row: seen.append(row["task_key"])
        )
        assert len(seen) == spec.num_tasks()


class TestResume:
    def test_resume_after_kill_converges_to_same_aggregate(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        reference = digest_of(spec, tmp_path / "ref")

        run_campaign(spec, tmp_path / "killed", workers=0)
        store = CampaignStore(tmp_path / "killed")
        lines = store.results_path.read_text().splitlines(keepends=True)
        # Simulate a kill: drop two completed rows and leave half a line.
        store.results_path.write_text("".join(lines[:-2]) + '{"task_key": "par')
        assert len(completed_of(store.summaries())) == spec.num_tasks() - 2

        resumed = run_campaign(spec, tmp_path / "killed", workers=0)
        assert resumed.skipped == spec.num_tasks() - 2
        assert resumed.executed == 2
        assert digest_of(spec, tmp_path / "killed") == reference

    def test_parallel_resume_matches_serial_reference(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        store = CampaignStore(tmp_path / "par")
        store.initialize(spec)
        # Pre-complete half the campaign out of order, then resume with a pool.
        payloads = spec.task_payloads()
        for payload in reversed(payloads[: len(payloads) // 2]):
            store.append(execute_task(payload))
        resumed = run_campaign(spec, tmp_path / "par", workers=2)
        assert resumed.skipped == len(payloads) // 2
        assert digest_of(spec, tmp_path / "par") == digest_of(spec, tmp_path / "ref")

    def test_stale_instance_seed_rows_are_reexecuted(self, tmp_path):
        # A store written under an older seed-derivation scheme must not
        # satisfy the resume skip-set: its "done" rows describe different
        # instances.  Re-execution supersedes them (last write wins).
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        store = CampaignStore(tmp_path / "stale")
        store.initialize(spec)
        for payload in spec.task_payloads():
            row = execute_task(dict(payload, instance_seed=payload["instance_seed"] ^ 1))
            store.append(dict(row, task_key=payload["task_key"]))
        resumed = run_campaign(spec, tmp_path / "stale", workers=0)
        assert resumed.skipped == 0
        assert resumed.executed == spec.num_tasks()
        assert digest_of(spec, tmp_path / "stale") == digest_of(spec, tmp_path / "ref")

    def test_resume_plan_streams_the_log(self, tmp_path, monkeypatch):
        # The plan reads the per-task summaries (summaries()); it never
        # loads the full rows through rows() or latest_rows().
        spec = small_spec()
        store = CampaignStore(tmp_path)
        store.initialize(spec)
        payloads = spec.task_payloads()
        done, retryable, exhausted, stale = payloads[:4]
        store.append(execute_task(done))
        for payload, attempt in ((retryable, 1), (exhausted, 3)):
            store.append({
                "task_key": payload["task_key"], "status": "failed",
                "instance_seed": payload["instance_seed"], "attempt": attempt,
                "error_type": "RuntimeError", "error": "injected",
            })
        stale_row = execute_task(dict(stale, instance_seed=stale["instance_seed"] ^ 1))
        store.append(dict(stale_row, task_key=stale["task_key"]))

        def full_read(self):
            raise AssertionError("the resume plan must read summaries()")

        monkeypatch.setattr(CampaignStore, "rows", full_read)
        monkeypatch.setattr(CampaignStore, "latest_rows", full_read)
        rows = {}
        resumed = run_campaign(
            spec, tmp_path, workers=0, on_row=lambda row: rows.setdefault(row["task_key"], row)
        )
        assert (resumed.executed, resumed.skipped, resumed.exhausted) == (len(payloads) - 2, 1, 1)
        assert done["task_key"] not in rows and exhausted["task_key"] not in rows
        assert rows[retryable["task_key"]]["attempt"] == 2
        assert rows[stale["task_key"]]["instance_seed"] == stale["instance_seed"]

    def test_directory_bound_to_other_campaign_rejected(self, tmp_path):
        run_campaign(small_spec(), tmp_path, workers=0)
        with pytest.raises(CampaignError, match="refusing"):
            run_campaign(small_spec(seed=99), tmp_path, workers=0)


class TestResumeReadsSummaries:
    """A resume plans from the summary sidecar and leaves it current."""

    @staticmethod
    def _killed(directory, shape):
        """Run the small spec, cut its log as ``shape`` says, then take a status.

        Returns the spec and the unterminated tail the cut left.
        """
        spec = small_spec()
        run_campaign(spec, directory)
        store = CampaignStore(directory)
        lines = store.results_path.read_bytes().splitlines(keepends=True)
        kept, tail = lines, b""
        if shape == "torn half row":  # the resume-large kill shape
            kept, tail = lines[:-1], lines[-1][: len(lines[-1]) // 2]
        elif shape == "row without newline":
            kept, tail = lines[:-2], lines[-2].rstrip(b"\n")
        store.results_path.write_bytes(b"".join(kept) + tail)
        CampaignStore(directory).summaries()
        return spec, tail

    @pytest.mark.parametrize(
        "shape", ["clean", "torn half row", "row without newline"]
    )
    def test_resume_of_a_current_sidecar_parses_no_stored_line(
        self, tmp_path, monkeypatch, shape
    ):
        spec, tail = self._killed(tmp_path, shape)
        calls = _parse_spy(monkeypatch)
        stats = run_campaign(spec, tmp_path)
        assert stats.executed == (0 if shape == "clean" else 1)
        # Only the unterminated tail is parsed: to serve it, and to fold it
        # once the first append terminates it.
        assert all(raw == tail for raw in calls), calls
        calls.clear()
        fresh = CampaignStore(tmp_path)
        summaries = fresh.summaries()
        assert calls == []  # the run left the sidecar current
        assert summaries == summaries_of(fresh.rows())

    def test_a_v1_directory_resumes_and_reports_the_v1_digest(self, tmp_path, monkeypatch):
        directory = tmp_path / "v1"
        shutil.copytree(V1_STORE, directory)
        store = CampaignStore(directory)
        spec = store.load_spec()
        stats = run_campaign(spec, directory)
        assert (stats.executed, stats.skipped) == (1, spec.num_tasks() - 1)
        # The v1 file failed the version check and was rebuilt once: one
        # delta for the stored rows, one for the row the resume ran.
        assert [len(delta["summaries"]) for delta in deltas_of(store)] == [7, 1]
        calls = _parse_spy(monkeypatch)
        summaries = CampaignStore(directory).summaries()
        assert calls == []
        assert campaign_digest(records_from_summaries(spec, summaries)) == V1_DIGEST
        assert digest_of(spec, directory) == V1_DIGEST


class TestNoIdlePoolSpawn:
    def test_completed_store_spawns_no_worker_processes(self, tmp_path, monkeypatch):
        # Regression: resuming a fully-completed campaign with workers > 1
        # must return before any pool is constructed.
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        _forbid_pool_spawn(monkeypatch)
        stats = run_campaign(spec, tmp_path, workers=4)
        assert stats.executed == 0
        assert stats.skipped == spec.num_tasks()

    def test_completed_store_leaves_persistent_pool_unstarted(self, tmp_path, monkeypatch):
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        _forbid_pool_spawn(monkeypatch)
        with WorkerPool(2) as pool:
            stats = run_campaign(spec, tmp_path, pool=pool)
            assert stats.executed == 0
            assert not pool.started
            assert not stats.pool_warm


class TestWorkerPool:
    def test_reuse_across_campaigns_reports_warm_start(self, tmp_path):
        spec_a = small_spec()
        spec_b = small_spec(seed=23)
        with WorkerPool(2) as pool:
            cold = run_campaign(spec_a, tmp_path / "a", pool=pool)
            warm = run_campaign(spec_b, tmp_path / "b", pool=pool)
            assert not cold.pool_warm
            assert warm.pool_warm
            assert cold.workers == warm.workers == 2
            assert pool.started
        run_campaign(spec_a, tmp_path / "ref", workers=0)
        assert digest_of(spec_a, tmp_path / "a") == digest_of(spec_a, tmp_path / "ref")

    def test_pool_overrides_workers_argument(self, tmp_path):
        spec = small_spec()
        with WorkerPool(2) as pool:
            stats = run_campaign(spec, tmp_path, workers=0, pool=pool)
            assert pool.started
        assert stats.workers == 2

    def test_closed_pool_rejected(self, tmp_path):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(CampaignError, match="closed"):
            run_campaign(small_spec(), tmp_path, pool=pool)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_exit_terminates_instead_of_joining(self, error):
        # close() joins, which would wait out all four queued sleeps (10 s
        # on two workers); a crash or Ctrl-C must kill the workers at once.
        before = set(multiprocessing.active_children())
        start = time.perf_counter()
        with pytest.raises(error, match="abort"):
            with WorkerPool(2) as pool:
                pool.imap_unordered(time.sleep, [5.0] * 4)
                workers = set(multiprocessing.active_children()) - before
                raise error("abort")
        assert time.perf_counter() - start < 4.0
        assert len(workers) == 2
        assert not any(process.is_alive() for process in workers)
        assert not pool.started

    def test_clean_exit_finishes_the_queued_work(self):
        with WorkerPool(2) as pool:
            results = pool.imap_unordered(abs, [-1, -2, -3, -4])
        assert sorted(results) == [1, 2, 3, 4]
        assert not pool.started

    def test_scoped_pool_terminates_when_the_run_raises(self, tmp_path, monkeypatch):
        import repro.runtime.scheduler as scheduler

        shutdowns = []

        class RecordingPool(WorkerPool):
            def _shutdown(self, terminate):
                shutdowns.append(terminate)
                super()._shutdown(terminate)

        monkeypatch.setattr(scheduler, "WorkerPool", RecordingPool)

        def crash(row):
            raise RuntimeError("row callback crashed")

        with pytest.raises(RuntimeError, match="crashed"):
            run_campaign(small_spec(), tmp_path / "crashed", workers=2, on_row=crash)
        assert shutdowns == [True]
        assert len(CampaignStore(tmp_path / "crashed").rows()) == 1
        run_campaign(small_spec(), tmp_path / "clean", workers=2)
        assert shutdowns == [True, False]

    def test_workers_argument_runs_a_scoped_pool(self, tmp_path, monkeypatch):
        import repro.runtime.scheduler as scheduler

        opened = []

        class RecordingPool(WorkerPool):
            def __init__(self, workers):
                super().__init__(workers)
                opened.append(self)

        monkeypatch.setattr(scheduler, "WorkerPool", RecordingPool)
        spec = small_spec(name="scoped-pool")
        percall = obs.get_registry().counter(
            "repro_pool_dispatch_total", "", labels=("campaign", "mode")
        ).labels(spec.name, "percall")
        before = percall.value
        stats = run_campaign(spec, tmp_path, workers=2)
        assert [pool.workers for pool in opened] == [2]
        assert not opened[0].started  # shut down when the call returned
        assert percall.value == before + 1
        assert not stats.pool_warm
        assert stats.workers == 2

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_invalid_worker_count_rejected(self, workers):
        with pytest.raises(CampaignError):
            WorkerPool(workers)

    def test_warm_pool_keeps_worker_instance_caches(self, tmp_path):
        # Same campaign into two stores through one pool: the second run's
        # instance builds are served from the worker's warm cache.  One
        # worker, so every instance is guaranteed to be cached where the
        # second run's tasks land.
        spec = small_spec(families=("colorable",), sizes=((12, 8),))
        with WorkerPool(1) as pool:
            run_campaign(spec, tmp_path / "a", pool=pool)
            warm = run_campaign(spec, tmp_path / "b", pool=pool)
        assert warm.pool_warm
        assert warm.cache_hits == spec.num_tasks()
        assert warm.cache_misses == 0


class TestShardedRuns:
    def test_shards_partition_the_executed_tasks(self, tmp_path):
        spec = small_spec()
        keys = []
        for index in range(3):
            stats = run_campaign(spec, tmp_path / f"shard{index}", shard=(index, 3))
            assert stats.shard == (index, 3)
            shard_keys = completed_of(CampaignStore(tmp_path / f"shard{index}").summaries())
            assert stats.executed == len(shard_keys)
            assert all(task_shard_index(k, 3) == index for k in shard_keys)
            keys.extend(shard_keys)
        assert sorted(keys) == sorted(p["task_key"] for p in spec.task_payloads())

    def test_shard_resume_skips_only_its_own_completed_tasks(self, tmp_path):
        spec = small_spec()
        first = run_campaign(spec, tmp_path, shard=(0, 2))
        again = run_campaign(spec, tmp_path, shard=(0, 2))
        assert again.executed == 0
        assert again.skipped == first.executed

    def test_out_of_range_shard_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="shard index"):
            run_campaign(small_spec(), tmp_path, shard=(2, 2))

    def test_malformed_shard_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="pair"):
            run_campaign(small_spec(), tmp_path, shard=(1, 2, 3))


class TestCacheStats:
    def test_serial_run_counts_oracle_sharing_hits(self, tmp_path):
        from repro.runtime import INSTANCE_CACHE

        INSTANCE_CACHE.clear()
        # 2 oracles per grid point: half the instance builds are hits.
        spec = small_spec(families=("colorable",))
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.cache_hits + stats.cache_misses == spec.num_tasks()
        assert stats.cache_hits == spec.num_tasks() // 2
        counts = cache_counts_of(CampaignStore(tmp_path).summaries())
        assert counts == {
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }


class TestFailureIsolation:
    def test_infeasible_grid_point_fails_without_stopping_the_campaign(self, tmp_path):
        # k=9 exceeds n=4 for the uniform generator: every task of that
        # grid point fails, the rest of the campaign completes.
        spec = small_spec(
            families=("uniform",), sizes=((4, 3), (12, 8)), ks=(9,), replicates=1
        )
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.executed == spec.num_tasks()
        assert stats.failed == 2  # the n=4 tasks; k=9 is feasible at n=12
        counts = status_counts_of(CampaignStore(tmp_path).summaries())
        assert counts == {"failed": 2, "done": 2}
        failed = [r for r in CampaignStore(tmp_path).rows() if r["status"] == "failed"]
        assert all(r["error_type"] == "HypergraphError" for r in failed)

    def test_failed_tasks_are_retried_until_exhausted(self, tmp_path):
        spec = small_spec(families=("uniform",), sizes=((4, 3),), ks=(9,), replicates=1)
        first = run_campaign(spec, tmp_path, workers=0)
        assert first.failed == spec.num_tasks()
        # The in-run retry rounds spend the whole budget on the same
        # deterministic error (3 attempts each under the default policy)...
        assert first.retried == spec.num_tasks() * 2
        latest = CampaignStore(tmp_path).latest_rows()
        assert all(row["attempt"] == 3 for row in latest.values())
        # ...so a resume skips the exhausted tasks instead of re-failing
        # them forever (the silent infinite-retry bug).
        again = run_campaign(spec, tmp_path, workers=0)
        assert again.executed == 0
        assert again.exhausted == spec.num_tasks()
        assert again.skipped == 0
        # retry=None restores the legacy semantics: every failure is
        # re-executed on every resume, with no exhaustion skip.
        legacy = run_campaign(spec, tmp_path, workers=0, retry=None)
        assert legacy.executed == spec.num_tasks()
        assert legacy.exhausted == 0
