"""Chaos harness: supervised campaigns under deterministic fault injection.

Every test here drives seeded campaign specs through the
:class:`ShardCoordinator` while a :class:`FaultPlan` injects worker
kills, hangs and synthetic failures, and asserts the supervised run
*converges to the fault-free serial digest* — the end-to-end guarantee
the whole fault-tolerance stack (heartbeats, watchdog timeouts, bounded
retries, restart-with-backoff, incremental shard merge) exists to
provide.

Fault decisions are pure functions of ``(seed, salt, task_key,
attempt)``, so each seed replays the same fault schedule on every pytest
run; the ``REPRO_CHAOS`` gate is opened per-test via monkeypatch, never
leaked into the environment.  The corpus is split between the real
subprocess executor (kills included — only a subprocess can die without
taking pytest down) and the in-process inline executor (hangs/failures
only, much cheaper), totalling 25 seeded specs plus targeted recovery
tests; each subprocess seed runs under both store durability levels.
"""

import dataclasses

import pytest

from repro import obs
from repro.exceptions import SupervisionError
from repro.runtime import (
    CampaignSpec,
    CampaignStore,
    FaultPlan,
    InlineExecutor,
    LocalProcessExecutor,
    ShardCoordinator,
    campaign_digest,
    campaign_records,
    open_store,
    run_campaign,
)
from repro.runtime.faults import CHAOS_ENV_VAR

#: Subprocess corpus (kills + hangs + failures) — expensive, keep small.
SUBPROCESS_SEEDS = tuple(range(10))
#: Inline corpus (hangs + failures only) — cheap, rounds the total to 25.
INLINE_SEEDS = tuple(range(100, 115))


@pytest.fixture
def chaos_gate(monkeypatch):
    monkeypatch.setenv(CHAOS_ENV_VAR, "1")


def chaos_spec(seed: int) -> CampaignSpec:
    """A small (4-task) campaign whose grid still spans two shards."""
    return CampaignSpec(
        name=f"chaos-{seed}",
        seed=seed,
        families=("uniform",),
        sizes=((8, 6), (10, 7)),
        ks=(3,),
        oracles=("greedy-first-fit", "greedy-min-degree"),
        lams=(2.0,),
        replicates=1,
    )


def serial_digest(spec: CampaignSpec, tmp_path) -> str:
    reference = tmp_path / "serial-reference"
    run_campaign(spec, reference, workers=0)
    return campaign_digest(campaign_records(spec, open_store(reference).rows()))


def supervise(spec, tmp_path, executor, plan, **overrides):
    defaults = dict(
        n_shards=2,
        heartbeat_timeout_s=8.0,
        max_restarts=6,
        base_backoff_s=0.01,
        poll_interval_s=0.01,
        task_timeout_s=0.75,
        # retry=None: chaos faults are transient, so nothing may be
        # written off as exhausted — every re-dispatch re-executes the
        # survivors' failures with a fresh (salt, attempt) fault draw.
        retry=None,
        chaos=plan,
        restart_failed_shards=True,
        max_wall_clock_s=120.0,
    )
    defaults.update(overrides)
    return ShardCoordinator(spec, tmp_path / "supervised", executor, **defaults)


def assert_converged(report, spec, expected, seed):
    context = (
        f"seed={seed} shards="
        f"{[(s.status, s.dispatches, s.stale_kills) for s in report.shards]}"
    )
    assert report.poisoned == [], f"poisoned shards under chaos: {context}"
    assert report.status_counts == {"done": spec.num_tasks()}, context
    assert report.digest == expected, f"digest diverged from serial: {context}"


class TestChaosCorpusSubprocess:
    # Both write disciplines ride the same corpus: the spec's durability
    # travels through spec.json to every shard subprocess, so the fsync leg
    # proves the fsynced appends, sidecar writes and batched merges converge
    # under kills too.
    @pytest.mark.parametrize("durability", ["flush", "fsync"])
    @pytest.mark.parametrize("seed", SUBPROCESS_SEEDS)
    def test_supervised_run_converges_under_kills_hangs_and_failures(
        self, tmp_path, chaos_gate, seed, durability
    ):
        spec = dataclasses.replace(chaos_spec(seed), durability=durability)
        expected = serial_digest(spec, tmp_path)
        plan = FaultPlan(p_kill=0.1, p_hang=0.05, p_fail=0.15, seed=seed, hang_s=60.0)
        report = supervise(spec, tmp_path, LocalProcessExecutor(), plan).run()
        assert_converged(report, spec, expected, seed)
        merged = open_store(tmp_path / "supervised")
        assert merged.load_spec().durability == durability, (
            f"seed={seed}: the supervised store lost the {durability} discipline"
        )


class TestChaosCorpusInline:
    @pytest.mark.parametrize("seed", INLINE_SEEDS)
    def test_supervised_run_converges_under_hangs_and_failures(
        self, tmp_path, chaos_gate, seed
    ):
        spec = chaos_spec(seed)
        expected = serial_digest(spec, tmp_path)
        # No kills: the inline executor runs shards in the pytest process.
        plan = FaultPlan(p_hang=0.1, p_fail=0.25, seed=seed, hang_s=60.0)
        report = supervise(
            spec, tmp_path, InlineExecutor(), plan, task_timeout_s=0.3
        ).run()
        assert_converged(report, spec, expected, seed)


class TestChaosWithTracing:
    """Tracing under fault injection: observational only, kill-tolerant.

    Runs the subprocess chaos leg with ``--trace`` plumbed through to
    every shard worker and asserts (1) the digest still converges to the
    fault-free serial reference — instrumentation must not perturb
    results even while workers are being killed — and (2) every sidecar
    is well-formed JSONL after the kills: truncated tail lines are
    terminated on restart, so the validator sees only skippable
    fragments, never structurally invalid records.
    """

    @pytest.mark.parametrize("seed", SUBPROCESS_SEEDS[:3])
    def test_traced_chaos_run_converges_and_sidecars_stay_well_formed(
        self, tmp_path, chaos_gate, seed
    ):
        spec = chaos_spec(seed)
        expected = serial_digest(spec, tmp_path)
        plan = FaultPlan(p_kill=0.1, p_hang=0.05, p_fail=0.15, seed=seed, hang_s=60.0)
        coordinator = supervise(
            spec, tmp_path, LocalProcessExecutor(), plan, trace=True
        )
        report = coordinator.run()
        assert_converged(report, spec, expected, seed)

        sidecars = [tmp_path / "supervised" / obs.TRACE_FILENAME] + [
            coordinator.shard_dir(index) / obs.TRACE_FILENAME
            for index in range(coordinator.n_shards)
        ]
        for sidecar in sidecars:
            valid, skipped = obs.validate_trace(sidecar)
            assert valid > 0, f"seed={seed}: empty trace sidecar {sidecar}"
        shard_records = [
            record
            for sidecar in sidecars[1:]
            for record in obs.read_trace(sidecar)
        ]
        task_spans = [
            r for r in shard_records if r["type"] == "span" and r["name"] == "task"
        ]
        done = [r for r in task_spans if r["attrs"].get("status") == "done"]
        # Every task eventually traced a done span (re-dispatches append
        # to the same shard sidecar, headers marking each restart).
        assert {r["attrs"]["task_key"] for r in done} == {
            t.task_key for t in spec.expand()
        }, f"seed={seed}: traced done spans do not cover the grid"


class TestTargetedRecovery:
    def test_certain_hang_trips_the_watchdog_then_recovers(self, tmp_path, chaos_gate):
        spec = chaos_spec(1000)
        expected = serial_digest(spec, tmp_path)
        # Every first-dispatch task hangs; re-dispatches are clean.
        plan = FaultPlan(p_hang=1.0, max_salt=1, hang_s=60.0)
        report = supervise(
            spec, tmp_path, InlineExecutor(), plan, task_timeout_s=0.2
        ).run()
        assert_converged(report, spec, expected, seed="hang-all")
        # The watchdog really fired: superseded timeout rows are in the
        # merged history, and every shard needed exactly one restart.
        merged = CampaignStore(tmp_path / "supervised")
        statuses = [row["status"] for row in merged.rows()]
        assert statuses.count("timeout") == spec.num_tasks()
        assert [shard.restarts for shard in report.shards] == [1, 1]

    def test_certain_kill_poisons_the_shards_without_retrying_forever(
        self, tmp_path, chaos_gate
    ):
        spec = chaos_spec(2000)
        plan = FaultPlan(p_kill=1.0)  # no max_salt: every dispatch dies
        coordinator = supervise(
            spec, tmp_path, LocalProcessExecutor(), plan, max_restarts=2
        )
        report = coordinator.run()
        # Both shards are quarantined after exactly 1 + max_restarts
        # dispatches — bounded, reported, never an infinite restart loop.
        assert report.poisoned == [0, 1]
        assert [shard.dispatches for shard in report.shards] == [3, 3]
        assert not report.ok

    def test_wall_clock_bound_is_hard(self, tmp_path, chaos_gate):
        spec = chaos_spec(3000)
        # Hangs with no watchdog and a heartbeat deadline the bound beats:
        # only max_wall_clock_s can end this run.
        plan = FaultPlan(p_hang=1.0, hang_s=600.0)
        coordinator = supervise(
            spec,
            tmp_path,
            LocalProcessExecutor(),
            plan,
            task_timeout_s=None,
            heartbeat_timeout_s=600.0,
            max_wall_clock_s=2.0,
        )
        with pytest.raises(SupervisionError, match="wall-clock"):
            coordinator.run()

    def test_injected_failures_are_retried_within_one_run(self, tmp_path, chaos_gate):
        from repro.runtime import RetryPolicy

        spec = chaos_spec(4000)
        expected = serial_digest(spec, tmp_path)
        # Synthetic failures at p=0.5: every retry gets a fresh fault draw
        # (decide() hashes the attempt), so the bounded retry policy
        # recovers them inside a single serial run — no supervisor needed.
        out = tmp_path / "retry-run"
        stats = run_campaign(
            spec,
            out,
            workers=0,
            chaos=FaultPlan(p_fail=0.5, seed=4000),
            retry=RetryPolicy(max_attempts=6),
        )
        assert stats.failed == 0
        assert stats.retried > 0  # at least one injected failure recovered
        records = campaign_records(spec, CampaignStore(out).rows())
        assert campaign_digest(records) == expected
