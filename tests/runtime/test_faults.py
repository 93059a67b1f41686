"""Unit tests for the deterministic fault-injection plans."""

import pytest

from repro.exceptions import CampaignError, FaultInjectionError
from repro.runtime.faults import (
    CHAOS_ENV_VAR,
    FAULT_MODES,
    HANG_S,
    FaultPlan,
    chaos_enabled,
    inject_fault,
    require_chaos,
)


class TestValidation:
    def test_probabilities_must_lie_in_unit_interval(self):
        with pytest.raises(CampaignError, match="p_kill"):
            FaultPlan(p_kill=1.5)
        with pytest.raises(CampaignError, match="p_hang"):
            FaultPlan(p_hang=-0.1)
        with pytest.raises(CampaignError, match="p_fail"):
            FaultPlan(p_fail="0.3")

    def test_probabilities_must_sum_to_at_most_one(self):
        with pytest.raises(CampaignError, match="sum"):
            FaultPlan(p_kill=0.5, p_hang=0.4, p_fail=0.2)
        FaultPlan(p_kill=0.5, p_hang=0.3, p_fail=0.2)  # exactly 1 is fine

    def test_salt_and_seed_validation(self):
        with pytest.raises(CampaignError, match="salt"):
            FaultPlan(salt=-1)
        with pytest.raises(CampaignError, match="seed"):
            FaultPlan(seed="x")


class TestParse:
    def test_cli_form_round_trips(self):
        plan = FaultPlan.parse("0.1,0.05,0.2", seed=7, salt=2)
        assert (plan.p_kill, plan.p_hang, plan.p_fail) == (0.1, 0.05, 0.2)
        assert (plan.seed, plan.salt) == (7, 2)

    @pytest.mark.parametrize("text", ["0.1,0.2", "0.1,0.2,0.3,0.4", "a,b,c"])
    def test_malformed_text_is_refused(self, text):
        with pytest.raises(CampaignError, match="chaos"):
            FaultPlan.parse(text)

    def test_payload_round_trip(self):
        plan = FaultPlan(p_kill=0.2, p_fail=0.1, seed=3, salt=1, max_salt=4)
        assert FaultPlan.from_payload(plan.to_payload()) == plan

    def test_cli_args_reproduce_the_plan(self):
        plan = FaultPlan(p_kill=0.25, p_hang=0.5, seed=9, salt=3, max_salt=5)
        args = plan.cli_args()
        assert args[:2] == ["--chaos", "0.25,0.5,0"]
        assert args[2:] == [
            "--chaos-seed", "9", "--chaos-salt", "3", "--chaos-max-salt", "5",
        ]


class TestDecide:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(p_kill=0.3, p_hang=0.3, p_fail=0.3, seed=11)
        keys = [f"task-{i}" for i in range(50)]
        first = [plan.decide(key) for key in keys]
        assert first == [plan.decide(key) for key in keys]
        assert set(first) <= set(FAULT_MODES) | {None}
        # With 90% total fault mass, 50 keys see every mode in practice.
        assert set(FAULT_MODES) <= set(first)

    def test_decisions_vary_with_salt_and_attempt(self):
        plan = FaultPlan(p_kill=0.5, seed=1)
        keys = [f"task-{i}" for i in range(40)]
        by_salt = [plan.decide(k) for k in keys]
        resalted = plan.with_salt(1)
        assert [resalted.decide(k) for k in keys] != by_salt
        assert [plan.decide(k, attempt=2) for k in keys] != by_salt

    def test_zero_probability_plan_never_fires(self):
        plan = FaultPlan(seed=5)
        assert all(plan.decide(f"t{i}") is None for i in range(100))

    def test_max_salt_silences_later_dispatches(self):
        plan = FaultPlan(p_kill=1.0, max_salt=1)
        assert plan.decide("t") == "kill"
        assert plan.with_salt(1).decide("t") is None
        assert plan.with_salt(2).decide("t") is None


class TestGating:
    def test_chaos_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert not chaos_enabled()
        with pytest.raises(CampaignError, match=CHAOS_ENV_VAR):
            require_chaos()

    def test_chaos_enabled_by_env_flag(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "1")
        assert chaos_enabled()
        require_chaos()


class TestInjectFault:
    def test_fail_mode_raises_fault_injection_error(self):
        plan = FaultPlan(p_fail=1.0).to_payload()
        with pytest.raises(FaultInjectionError, match="synthetic"):
            inject_fault(plan, "task-x", 1)

    def test_no_fault_is_a_no_op(self):
        inject_fault(FaultPlan().to_payload(), "task-x", 1)

    def test_hang_mode_sleeps_for_hang_s(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.runtime.faults.time.sleep", slept.append)
        inject_fault(FaultPlan(p_hang=1.0).to_payload(), "task-x", 1)
        assert slept == [HANG_S] == [3600.0]

    def test_kill_mode_exits_the_process(self, monkeypatch):
        codes = []
        monkeypatch.setattr("repro.runtime.faults.os._exit", codes.append)
        inject_fault(FaultPlan(p_kill=1.0).to_payload(), "task-x", 1)
        assert codes == [137]
