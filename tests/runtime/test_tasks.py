"""Task-execution tests: purity, instance digests, oracle resolution."""

from __future__ import annotations

import pytest

import repro.runtime.tasks as tasks_module
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.exceptions import CampaignError
from repro.hypergraph.io import reduction_result_from_dict
from repro.maxis import MaxISApproximator
from repro.runtime import (
    FAMILIES,
    INSTANCE_CACHE,
    InstanceCache,
    build_instance,
    execute_task,
    instance_digest,
    instance_key,
    resolve_oracle,
)

from tests.runtime.test_spec import small_spec

#: Row fields that legitimately vary between reruns of the same payload:
#: wall times and the execution-order-dependent instance-cache flag.
NONDETERMINISTIC_ROW_FIELDS = {
    "wall_time_s",
    "happy_check_wall_time_s",
    "instance_cache_hit",
}


class TestBuildInstance:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_build_and_are_seed_deterministic(self, family):
        first = build_instance(family, n=14, m=8, k=2, epsilon=0.5, seed=42)
        second = build_instance(family, n=14, m=8, k=2, epsilon=0.5, seed=42)
        assert instance_digest(first) == instance_digest(second)
        other = build_instance(family, n=14, m=8, k=2, epsilon=0.5, seed=43)
        assert instance_digest(first) != instance_digest(other)

    def test_unknown_family_rejected(self):
        with pytest.raises(CampaignError):
            build_instance("klingon", n=5, m=2, k=1, epsilon=0.5, seed=0)


class TestResolveOracle:
    def test_registry_name_resolves(self):
        oracle = resolve_oracle("greedy-first-fit", lam=2.0)
        assert isinstance(oracle, MaxISApproximator)
        assert oracle.name == "greedy-first-fit"

    def test_capped_prefix_wraps_with_task_lambda(self):
        oracle = resolve_oracle("capped:greedy-first-fit", lam=3.0)
        assert isinstance(oracle, MaxISApproximator)
        assert "1/3" in oracle.name


class TestInstanceKey:
    def test_oracle_free_coordinates_only(self):
        key = instance_key("colorable", n=12, m=8, k=2, epsilon=0.5, replicate=1)
        assert key == "family=colorable n=12 m=8 k=2 eps=0.5 rep=1"

    def test_interval_ignores_k_and_epsilon(self):
        # The interval generator consumes neither k nor epsilon, so they
        # must not split instance keys (cross-k cache hits are real hits).
        assert instance_key("interval", 10, 5, 2, 0.5, 0) == instance_key(
            "interval", 10, 5, 3, 0.9, 0
        )

    def test_uniform_keeps_k_but_ignores_epsilon(self):
        assert instance_key("uniform", 10, 5, 2, 0.5, 0) == instance_key(
            "uniform", 10, 5, 2, 0.9, 0
        )
        assert instance_key("uniform", 10, 5, 2, 0.5, 0) != instance_key(
            "uniform", 10, 5, 3, 0.5, 0
        )

    def test_replicate_always_splits(self):
        assert instance_key("interval", 10, 5, 2, 0.5, 0) != instance_key(
            "interval", 10, 5, 2, 0.5, 1
        )


class TestInstanceCache:
    def test_hit_returns_the_cached_object(self):
        cache = InstanceCache()
        first, hit1 = cache.entry("colorable", 12, 8, 2, 0.5, seed=42)
        second, hit2 = cache.entry("colorable", 12, 8, 2, 0.5, seed=42)
        assert (hit1, hit2) == (False, True)
        assert second is first and second.hypergraph is first.hypergraph
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_coordinates_miss(self):
        cache = InstanceCache()
        cache.entry("colorable", 12, 8, 2, 0.5, seed=42)
        _, hit = cache.entry("colorable", 12, 8, 2, 0.5, seed=43)
        assert not hit
        _, hit = cache.entry("colorable", 12, 8, 3, 0.5, seed=42)
        assert not hit

    def test_interval_hits_across_k(self):
        cache = InstanceCache()
        first, _ = cache.entry("interval", 10, 5, 2, 0.5, seed=1)
        second, hit = cache.entry("interval", 10, 5, 3, 0.5, seed=1)
        assert hit and second.hypergraph is first.hypergraph

    def test_eviction_is_bounded_fifo(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.tasks.INSTANCE_CACHE_SIZE", 2)
        cache = InstanceCache()
        cache.entry("interval", 6, 3, 1, 0.5, seed=1)
        cache.entry("interval", 6, 3, 1, 0.5, seed=2)
        cache.entry("interval", 6, 3, 1, 0.5, seed=3)  # evicts seed=1
        assert len(cache) == 2
        _, hit = cache.entry("interval", 6, 3, 1, 0.5, seed=1)
        assert not hit

    def test_clear_resets_entries_and_counters(self):
        cache = InstanceCache()
        cache.entry("interval", 6, 3, 1, 0.5, seed=1)
        cache.entry("interval", 6, 3, 1, 0.5, seed=1)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_cached_and_fresh_builds_are_identical(self):
        cache = InstanceCache()
        cached, _ = cache.entry("colorable", 14, 8, 2, 0.5, seed=42)
        fresh = build_instance("colorable", n=14, m=8, k=2, epsilon=0.5, seed=42)
        assert cached.digest == instance_digest(cached.hypergraph) == instance_digest(fresh)


class TestExecuteTask:
    def test_row_is_pure_except_timing_and_cache_flag(self):
        payload = small_spec().task_payloads()[0]
        counted = dict(payload, later_uses=2)
        INSTANCE_CACHE.clear()
        # Plain, then a positive count (it keeps its G_k build), again (it
        # starts from the kept build and keeps it), then plain again (it
        # starts from the kept build and drops it).
        rows = [
            {k: v for k, v in execute_task(p).items() if k not in NONDETERMINISTIC_ROW_FIELDS}
            for p in (payload, counted, counted, payload)
        ]
        assert rows[1:] == rows[:1] * 3
        assert "later_uses" not in rows[1]
        (entry,) = INSTANCE_CACHE._entries.values()
        assert entry.builds == {}

    def test_second_execution_hits_the_instance_cache(self):
        INSTANCE_CACHE.clear()
        payload = small_spec().task_payloads()[0]
        first = execute_task(payload)
        second = execute_task(payload)
        assert first["instance_cache_hit"] is False
        assert second["instance_cache_hit"] is True

    def test_oracle_variants_share_one_instance_build(self):
        INSTANCE_CACHE.clear()
        # One grid point swept by two oracles: one build, one hit.
        spec = small_spec(families=("colorable",), sizes=((12, 8),), replicates=1)
        rows = [execute_task(p) for p in spec.task_payloads()]
        assert [r["instance_cache_hit"] for r in rows] == [False, True]
        assert len({r["instance_digest"] for r in rows}) == 1
        assert len({r["instance_seed"] for r in rows}) == 1

    def test_shared_instance_is_digested_once(self, monkeypatch):
        INSTANCE_CACHE.clear()
        calls = []

        def counting(hypergraph):
            calls.append(hypergraph)
            return instance_digest(hypergraph)

        monkeypatch.setattr(tasks_module, "instance_digest", counting)
        # One grid point swept by two oracles: the hit reuses the miss's digest.
        spec = small_spec(families=("colorable",), sizes=((12, 8),), replicates=1)
        payloads = spec.task_payloads()
        rows = [execute_task(p) for p in payloads]
        assert len(rows) == 2 and len(calls) == 1
        expected = instance_digest(
            build_instance(
                payloads[0]["family"],
                n=payloads[0]["n"],
                m=payloads[0]["m"],
                k=payloads[0]["k"],
                epsilon=payloads[0]["epsilon"],
                seed=payloads[0]["instance_seed"],
            )
        )
        assert [r["instance_digest"] for r in rows] == [expected, expected]

    def test_done_row_matches_direct_reduction(self):
        payload = small_spec().task_payloads()[0]
        row = execute_task(payload)
        assert row["status"] == "done"
        assert row["task_key"] == payload["task_key"]
        hypergraph = build_instance(
            payload["family"],
            n=payload["n"],
            m=payload["m"],
            k=payload["k"],
            epsilon=payload["epsilon"],
            seed=payload["instance_seed"],
        )
        assert row["instance_digest"] == instance_digest(hypergraph)
        assert row["peak_triples"] == payload["k"] * hypergraph.total_edge_size()
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=payload["k"],
            approximator=resolve_oracle(payload["oracle"], payload["lam"]),
            lam=payload["lam"],
        )
        expected = reduction.run(hypergraph)
        restored = reduction_result_from_dict(row["result"])
        assert restored.multicoloring == expected.multicoloring
        assert restored.phases == expected.phases
        assert row["wall_time_s"] >= 0

    def test_infeasible_payload_yields_failed_row(self):
        payload = small_spec().task_payloads()[0]
        payload = dict(payload, family="uniform", k=payload["n"] + 1)
        row = execute_task(payload)
        assert row["status"] == "failed"
        assert row["error_type"] == "HypergraphError"
        assert "result" not in row
        assert row["wall_time_s"] >= 0
