"""Tests for the shard coordinator and its executors.

Most tests drive :class:`ShardCoordinator` through a scripted executor
(instant, failure shapes on demand); a small integration tail exercises
the real :class:`LocalProcessExecutor` subprocess path.
"""

import dataclasses
import sys
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.exceptions import CampaignError, SupervisionError
from repro.runtime import (
    CampaignStore,
    InlineExecutor,
    LocalProcessExecutor,
    RetryPolicy,
    ShardCoordinator,
    ShardExecutor,
    ShardHandle,
    ShardLaunch,
    campaign_digest,
    campaign_records,
    run_campaign,
)
from repro.runtime.faults import KILL_EXIT_CODE, FaultPlan

from tests.runtime.test_spec import small_spec


def serial_digest(spec, tmp_path):
    """Digest of the serial reference run (the supervision oracle)."""
    reference = tmp_path / "serial-reference"
    run_campaign(spec, reference, workers=0)
    return campaign_digest(campaign_records(spec, CampaignStore(reference).rows()))


class _ScriptedHandle(ShardHandle):
    def __init__(self, code: Optional[int]) -> None:
        self.code = code
        self.killed = False

    def poll(self) -> Optional[int]:
        return self.code

    def kill(self) -> None:
        self.killed = True


class ScriptedExecutor(ShardExecutor):
    """Play back a per-shard list of behaviors, one per dispatch.

    ``"land"`` delegates to the real :class:`InlineExecutor` (the shard
    actually runs), ``"crash"`` reports an instant kill exit without doing
    any work, ``"hang"`` never exits and never heartbeats (the coordinator
    must stale-kill it).  Dispatches beyond the script land.
    """

    def __init__(self, script: Dict[int, List[str]]) -> None:
        self.script = {index: list(actions) for index, actions in script.items()}
        self.launches: List[ShardLaunch] = []
        self.handles: List[_ScriptedHandle] = []
        self._inline = InlineExecutor()

    def launch(self, launch: ShardLaunch) -> ShardHandle:
        self.launches.append(launch)
        actions = self.script.get(launch.index)
        action = actions.pop(0) if actions else "land"
        if action == "land":
            return self._inline.launch(launch)
        handle = _ScriptedHandle(KILL_EXIT_CODE if action == "crash" else None)
        self.handles.append(handle)
        return handle


def coordinator(spec, tmp_path, executor, **overrides):
    defaults = dict(
        n_shards=2,
        heartbeat_timeout_s=0.05,
        max_restarts=3,
        base_backoff_s=0.0,
        poll_interval_s=0.005,
    )
    defaults.update(overrides)
    return ShardCoordinator(spec, tmp_path / "out", executor, **defaults)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"heartbeat_timeout_s": 0},
            {"max_restarts": -1},
            {"base_backoff_s": -1.0},
            {"poll_interval_s": 0},
            {"max_wall_clock_s": 0},
        ],
    )
    def test_bad_shapes_are_refused(self, tmp_path, kwargs):
        with pytest.raises(CampaignError):
            coordinator(small_spec(), tmp_path, ScriptedExecutor({}), **kwargs)

    def test_chaos_requires_the_env_gate(self, tmp_path, monkeypatch):
        from repro.runtime.faults import CHAOS_ENV_VAR, FaultPlan

        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        with pytest.raises(CampaignError, match=CHAOS_ENV_VAR):
            coordinator(
                small_spec(), tmp_path, ScriptedExecutor({}), chaos=FaultPlan(p_fail=0.1)
            )


class TestHappyPath:
    def test_all_shards_land_and_digest_matches_serial(self, tmp_path):
        spec = small_spec()
        report = coordinator(spec, tmp_path, ScriptedExecutor({})).run()
        assert [shard.status for shard in report.shards] == ["landed", "landed"]
        assert report.restarts == 0 and report.poisoned == []
        assert report.ok
        assert report.status_counts == {"done": spec.num_tasks()}
        assert report.digest == serial_digest(spec, tmp_path)

    def test_report_reads_summaries_not_rows_of_the_output_store(self, tmp_path, monkeypatch):
        spec = small_spec()
        expected = serial_digest(spec, tmp_path)
        read = []
        for name in ("rows", "iter_rows"):
            original = getattr(CampaignStore, name)

            def spy(store, _original=original):
                read.append(store.directory)
                return _original(store)

            monkeypatch.setattr(CampaignStore, name, spy)
        report = coordinator(spec, tmp_path, InlineExecutor()).run()
        assert report.digest == expected
        assert report.status_counts == {"done": spec.num_tasks()}
        assert tmp_path / "out" not in read
        assert read  # the merge still reads the shard stores

    def test_expected_digest_is_enforced(self, tmp_path):
        spec = small_spec()
        with pytest.raises(SupervisionError, match="serial reference"):
            coordinator(
                spec, tmp_path, ScriptedExecutor({}), expected_digest="0" * 64
            ).run()

    def test_matching_expected_digest_passes(self, tmp_path):
        spec = small_spec()
        report = coordinator(
            spec,
            tmp_path,
            ScriptedExecutor({}),
            expected_digest=serial_digest(spec, tmp_path),
        ).run()
        assert report.ok


class TestCrashRecovery:
    def test_crashed_shard_is_redispatched_and_lands(self, tmp_path):
        spec = small_spec()
        executor = ScriptedExecutor({0: ["crash", "land"]})
        report = coordinator(spec, tmp_path, executor).run()
        shard0 = report.shards[0]
        assert shard0.status == "landed"
        assert shard0.dispatches == 2 and shard0.restarts == 1
        assert shard0.exit_codes == [KILL_EXIT_CODE, 0]
        assert report.digest == serial_digest(spec, tmp_path)

    def test_redispatch_salt_tracks_the_dispatch_count(self, tmp_path, monkeypatch):
        from repro.runtime.faults import CHAOS_ENV_VAR, FaultPlan

        monkeypatch.setenv(CHAOS_ENV_VAR, "1")
        spec = small_spec()
        executor = ScriptedExecutor({1: ["crash", "crash", "land"]})
        # max_salt=0: the plan never actually fires, we only inspect salts.
        coordinator(
            spec, tmp_path, executor, chaos=FaultPlan(p_kill=0.5, max_salt=0)
        ).run()
        salts = [
            launch.chaos.salt for launch in executor.launches if launch.index == 1
        ]
        assert salts == [0, 1, 2]

    def test_shard_is_poisoned_after_max_restarts(self, tmp_path):
        spec = small_spec()
        executor = ScriptedExecutor({0: ["crash", "crash"]})
        report = coordinator(spec, tmp_path, executor, max_restarts=1).run()
        shard0 = report.shards[0]
        assert shard0.status == "poisoned"
        assert shard0.dispatches == 2  # 1 dispatch + max_restarts re-dispatches
        assert report.poisoned == [0]
        assert not report.ok
        # The healthy shard still landed and was merged.
        assert report.shards[1].status == "landed"
        assert report.status_counts.get("done", 0) > 0

    def test_poisoned_shard_rows_are_salvaged(self, tmp_path):
        spec = small_spec()
        # A shard that stored all of its rows but keeps crashing at exit:
        # run shard 0 by hand into the coordinator's shard directory, then
        # script nothing but crashes for its dispatches.
        executor = ScriptedExecutor({0: ["crash", "crash", "crash"]})
        coord = coordinator(spec, tmp_path, executor, max_restarts=2)
        run_campaign(spec, coord.shard_dir(0), workers=0, shard=(0, 2))
        report = coord.run()
        assert report.shards[0].status == "poisoned"
        # Every row the doomed shard managed to store was still merged, so
        # the overall digest matches the serial reference.
        assert report.status_counts == {"done": spec.num_tasks()}
        assert report.digest == serial_digest(spec, tmp_path)

    def test_backoff_delays_grow_exponentially(self, tmp_path):
        coord = coordinator(small_spec(), tmp_path, ScriptedExecutor({}), base_backoff_s=0.1)
        delays = [coord._backoff_delay(r) for r in (1, 2, 3)]
        for restart, delay in enumerate(delays, start=1):
            base = 0.1 * 2.0 ** (restart - 1)
            assert base <= delay <= base * 1.25
        # Seeded jitter: every coordinator draws the same delays.
        again = coordinator(small_spec(), tmp_path, ScriptedExecutor({}), base_backoff_s=0.1)
        assert [again._backoff_delay(r) for r in (1, 2, 3)] == delays


class TestHeartbeat:
    def test_stale_heartbeat_triggers_kill_and_redispatch(self, tmp_path):
        spec = small_spec()
        executor = ScriptedExecutor({0: ["hang", "land"]})
        report = coordinator(spec, tmp_path, executor).run()
        shard0 = report.shards[0]
        assert shard0.status == "landed"
        assert shard0.stale_kills == 1
        assert shard0.exit_codes == [None, 0]  # never exited on its own
        assert executor.handles[0].killed
        assert report.digest == serial_digest(spec, tmp_path)

    def test_wall_clock_bound_kills_stuck_workers(self, tmp_path):
        spec = small_spec()
        executor = ScriptedExecutor({0: ["hang"] * 50, 1: ["hang"] * 50})
        coord = coordinator(
            spec,
            tmp_path,
            executor,
            heartbeat_timeout_s=60.0,  # staleness never trips first
            max_wall_clock_s=0.1,
        )
        with pytest.raises(SupervisionError, match="wall-clock"):
            coord.run()
        assert all(handle.killed for handle in executor.handles)


class TestFailedShards:
    def failing_spec(self):
        # k=9 exceeds n=4 for the uniform generator: one grid point always
        # fails, so every shard exits 1 (completed with failed rows).
        return small_spec(
            families=("uniform",), sizes=((4, 3), (12, 8)), ks=(9,), replicates=2
        )

    def test_exit_one_lands_with_failures_by_default(self, tmp_path):
        spec = self.failing_spec()
        report = coordinator(spec, tmp_path, ScriptedExecutor({})).run()
        statuses = {shard.status for shard in report.shards}
        assert "landed-with-failures" in statuses
        assert report.restarts == 0
        assert not report.ok
        assert report.status_counts.get("failed", 0) > 0

    def test_restart_failed_shards_retries_then_poisons(self, tmp_path):
        spec = self.failing_spec()
        report = coordinator(
            spec,
            tmp_path,
            ScriptedExecutor({}),
            restart_failed_shards=True,
            max_restarts=1,
            retry=RetryPolicy(max_attempts=1),
        ).run()
        # The genuinely-infeasible grid point fails on every dispatch, so
        # the shards holding it burn their restart budget and are poisoned
        # — but their completed rows are salvaged.
        assert any(shard.status == "poisoned" for shard in report.shards)
        assert report.poisoned
        assert report.status_counts.get("done", 0) > 0


def off_default(cls, **values):
    """``cls(**values)``, refused unless every field is off its default.

    A field the worker's command line drops comes back at its default, so
    only a field set off its default can show the drop.
    """
    instance = cls(**values)
    at_default = [
        field.name
        for field in dataclasses.fields(cls)
        if getattr(instance, field.name) == field.default
    ]
    assert not at_default, f"{cls.__name__} fields left at their defaults: {at_default}"
    return instance


#: ``(task_timeout_s, base_delay_s, p_kill)``: short decimals, and seven
#: significant digits, one more than ``%g`` keeps.
LAUNCH_NUMBERS = {
    "short": (2.5, 0.25, 0.1),
    "seven-digits": (0.1234567, 0.01234567, 0.1234567),
}


class TestLocalProcessExecutor:
    @pytest.mark.parametrize("retry", [None, "policy"])
    @pytest.mark.parametrize("chaos", [None, "salted-plan"])
    @pytest.mark.parametrize("numbers", sorted(LAUNCH_NUMBERS))
    def test_the_worker_rebuilds_the_launch_from_its_argv(self, tmp_path, retry, chaos, numbers):
        from repro.cli import _build_parser, _fault_plan, _parse_shard, _retry_policy

        task_timeout_s, base_delay_s, p_kill = LAUNCH_NUMBERS[numbers]

        launch = ShardLaunch(
            spec_path=tmp_path / "spec.json",
            shard_dir=tmp_path / "shards" / "shard-1",
            index=1,
            n_shards=3,
            heartbeat_path=tmp_path / "shards" / "shard-1" / "heartbeat",
            task_timeout_s=task_timeout_s,
            retry=(
                None
                if retry is None
                else off_default(RetryPolicy, max_attempts=5, base_delay_s=base_delay_s)
            ),
            durability="fsync",
            chaos=(
                None
                if chaos is None
                else off_default(
                    FaultPlan, p_kill=p_kill, p_hang=0.05, p_fail=0.2, seed=9, salt=3, max_salt=4
                )
            ),
            trace=True,
        )
        argv = LocalProcessExecutor().command(launch)
        assert argv[:3] == [sys.executable, "-m", "repro"]
        args = _build_parser().parse_args(argv[3:])
        assert (args.command, args.campaign_command, args.workers) == ("campaign", "run", 0)
        index, n_shards = _parse_shard(args.shard)
        rebuilt = ShardLaunch(
            spec_path=Path(args.spec),
            shard_dir=Path(args.out),
            index=index,
            n_shards=n_shards,
            heartbeat_path=Path(args.heartbeat),
            task_timeout_s=args.task_timeout,
            retry=_retry_policy(args),
            durability=args.durability,
            chaos=_fault_plan(args),
            trace=args.trace,
        )
        assert rebuilt == launch

    def test_command_encodes_the_launch(self, tmp_path):
        executor = LocalProcessExecutor()
        launch = ShardLaunch(
            spec_path=tmp_path / "spec.json",
            shard_dir=tmp_path / "shard-0",
            index=0,
            n_shards=4,
            heartbeat_path=tmp_path / "shard-0" / "heartbeat",
            task_timeout_s=2.5,
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.25),
            durability="fsync",
            chaos=FaultPlan(p_kill=0.1, seed=3, salt=1),
        )
        argv = executor.command(launch)
        assert argv[:5] == [sys.executable, "-m", "repro", "campaign", "run"]
        text = " ".join(argv)
        assert "--shard 0/4" in text
        assert "--workers 0" in text
        assert "--task-timeout 2.5" in text
        assert "--max-retries 5" in text
        assert "--retry-base-delay 0.25" in text
        assert "--durability fsync" in text
        assert "--chaos 0.1,0.0,0.0" in text
        assert "--chaos-salt 1" in text

    def test_minimal_command_omits_optional_flags(self, tmp_path):
        executor = LocalProcessExecutor()
        launch = ShardLaunch(
            spec_path=tmp_path / "spec.json",
            shard_dir=tmp_path / "shard-0",
            index=1,
            n_shards=2,
            heartbeat_path=tmp_path / "hb",
            retry=None,
        )
        text = " ".join(executor.command(launch))
        assert "--task-timeout" not in text
        assert "--max-retries 0" in text  # retry=None must disable the CLI default
        assert "--durability" not in text
        assert "--chaos" not in text

    def test_subprocess_shards_land_and_match_serial(self, tmp_path):
        spec = small_spec()
        report = coordinator(
            spec,
            tmp_path,
            LocalProcessExecutor(),
            heartbeat_timeout_s=60.0,
            max_wall_clock_s=120.0,
        ).run()
        assert [shard.status for shard in report.shards] == ["landed", "landed"]
        assert report.ok
        assert report.digest == serial_digest(spec, tmp_path)
        # The workers logged to their shard directories.
        out_dir = tmp_path / "out"
        for index in range(2):
            log = out_dir / "shards" / f"shard-{index}" / "worker.log"
            assert log.exists() and "aggregate digest" in log.read_text()
