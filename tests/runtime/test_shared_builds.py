"""Shared ``G_k`` builds: a campaign builds the conflict graph once per ``(instance, k)``.

The scheduler tells each first-pass task how many later tasks of the run
share its ``(instance cache key, k)``, and ``execute_task`` keeps the
task's build in the instance-cache entry while that count is positive.
These tests count the full builds (calls of the builder behind
``ConflictGraph``'s constructor) and the builds the cache holds after
every stored row, and check every row against the same task run alone on
an empty cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.core.conflict_graph as conflict_graph_module
from repro.runtime import INSTANCE_CACHE, CampaignSpec, execute_task, run_campaign
from repro.runtime.scheduler import _later_uses

from tests.runtime.campaign_fuzz import assert_serial_equals_fresh_tasks
from tests.runtime.test_spec import small_spec
from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS

DEMO_SPEC = Path(__file__).resolve().parents[2] / "examples" / "campaign_demo.json"

#: Two interval instances served at k = 2 and k = 3 by two oracles: 8 tasks.
INTERVAL_SPEC = CampaignSpec(
    name="interval-two-ks",
    seed=5,
    families=("interval",),
    sizes=((12, 6),),
    ks=(2, 3),
    oracles=("greedy-first-fit", "capped:greedy-first-fit"),
    lams=(2.0,),
    replicates=2,
)


@pytest.fixture
def full_builds(monkeypatch):
    """The ``(hypergraph, k)`` of every full ``G_k`` build, in call order."""
    calls = []
    build = conflict_graph_module._build_structures

    def counting(hypergraph, k):
        calls.append((hypergraph, k))
        return build(hypergraph, k)

    monkeypatch.setattr(conflict_graph_module, "_build_structures", counting)
    return calls


def _builds_held() -> int:
    return sum(len(entry.builds) for entry in INSTANCE_CACHE._entries.values())


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in NONDETERMINISTIC_ROW_FIELDS}


def _run(spec: CampaignSpec, directory):
    """Run ``spec`` serially from an empty cache: its stats and the builds held after each row."""
    INSTANCE_CACHE.clear()
    held = []
    stats = run_campaign(spec, directory, on_row=lambda row: held.append(_builds_held()))
    return stats, held


def test_demo_grid_builds_each_instance_and_k_once(tmp_path, full_builds):
    spec = CampaignSpec.from_json(DEMO_SPEC.read_text(encoding="utf-8"))
    stats, held = _run(spec, tmp_path)
    assert (stats.executed, stats.failed) == (216, 0)
    # 60 instances: 24 colorable and 24 uniform at one k each, and 12
    # interval instances that serve both k = 2 and k = 3.
    assert stats.cache_misses == 60
    assert len(full_builds) == 72
    assert 0 < max(held) <= 6
    assert held[-1] == 0
    assert_serial_equals_fresh_tasks(spec, tmp_path, f"[{spec.name}]")


def test_one_oracle_and_one_lambda_keep_no_build(tmp_path, full_builds):
    spec = small_spec(oracles=("greedy-first-fit",))
    stats, held = _run(spec, tmp_path)
    assert stats.failed == 0
    assert held == [0] * spec.num_tasks()
    assert len(full_builds) == spec.num_tasks()


def test_interval_instances_get_one_build_per_k(tmp_path, full_builds):
    stats, held = _run(INTERVAL_SPEC, tmp_path)
    assert (stats.executed, stats.failed) == (8, 0)
    assert stats.cache_misses == 2
    assert sorted(k for _hypergraph, k in full_builds) == [2, 2, 3, 3]
    assert held[-1] == 0
    assert_serial_equals_fresh_tasks(INTERVAL_SPEC, tmp_path, f"[{INTERVAL_SPEC.name}]")


def test_one_instance_keeps_a_build_per_k_when_its_ks_interleave(full_builds):
    # A grid runs every k of an instance after the other, but a pool worker
    # can hold a k = 2 build while it runs a k = 3 task of the same instance.
    payloads = sorted(
        INTERVAL_SPEC.task_payloads(), key=lambda p: (p["oracle"], p["replicate"], p["k"])
    )
    assert [p["k"] for p in payloads] == [2, 3] * 4
    INSTANCE_CACHE.clear()
    rows = [
        _strip(execute_task(dict(p, later_uses=uses)))
        for p, uses in zip(payloads, _later_uses(payloads))
    ]
    assert [row["status"] for row in rows] == ["done"] * 8
    assert sorted(k for _hypergraph, k in full_builds) == [2, 2, 3, 3]
    assert _builds_held() == 0
    for payload, row in zip(payloads, rows):
        INSTANCE_CACHE.clear()
        assert row == _strip(execute_task(payload)), payload["task_key"]
    INSTANCE_CACHE.clear()


def test_later_uses_count_later_tasks_of_the_same_instance_and_k():
    # Task order: k=2 (first-fit rep 0, 1; capped rep 0, 1), then k=3 alike.
    # An interval instance ignores k, but its build does not.
    assert _later_uses(INTERVAL_SPEC.task_payloads()) == [1, 1, 0, 0, 1, 1, 0, 0]
    assert _later_uses([]) == []
