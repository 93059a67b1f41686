"""Tests for CampaignSpec: JSON round trip, expansion determinism, validation."""

from __future__ import annotations

import pytest

from repro.exceptions import CampaignError
from repro.runtime import CampaignSpec, task_instance_seed, task_shard_index


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="unit",
        seed=11,
        families=("colorable", "uniform"),
        sizes=((12, 8), (16, 10)),
        ks=(2,),
        oracles=("greedy-first-fit", "capped:greedy-first-fit"),
        lams=(2.0,),
        replicates=2,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestRoundTrip:
    def test_json_round_trip(self):
        spec = small_spec()
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()
        assert restored.to_dict() == spec.to_dict()

    def test_defaults_survive_round_trip(self):
        spec = small_spec(replicates=1, epsilon=0.5)
        data = spec.to_dict()
        del data["replicates"], data["epsilon"]
        assert CampaignSpec.from_dict(data) == spec

    def test_digest_tracks_content(self):
        assert small_spec().digest() != small_spec(seed=12).digest()
        assert small_spec().digest() == small_spec().digest()


class TestExpansion:
    def test_num_tasks_matches_expansion(self):
        spec = small_spec()
        tasks = spec.expand()
        assert len(tasks) == spec.num_tasks() == 2 * 2 * 1 * 2 * 1 * 2

    def test_task_keys_are_unique_and_stable(self):
        spec = small_spec()
        keys = [t.task_key for t in spec.expand()]
        assert len(set(keys)) == len(keys)
        assert keys == [t.task_key for t in spec.expand()]
        assert keys[0] == (
            "family=colorable n=12 m=8 k=2 oracle=greedy-first-fit lam=2 rep=0"
        )

    def test_payloads_carry_derived_instance_seeds(self):
        spec = small_spec()
        for task, payload in zip(spec.expand(), spec.task_payloads()):
            assert payload["instance_seed"] == task_instance_seed(
                spec.seed, task.instance_key(spec.epsilon)
            )

    def test_instance_seed_depends_on_campaign_seed_and_key(self):
        key = small_spec().expand()[0].instance_key(0.5)
        assert task_instance_seed(11, key) != task_instance_seed(12, key)
        assert task_instance_seed(11, key) != task_instance_seed(11, key + "x")
        assert task_instance_seed(11, key) == task_instance_seed(11, key)

    def test_oracle_and_lam_do_not_shift_instance_seeds(self):
        # Grid points differing only in oracle/λ must share instances:
        # the instance key (hence the derived seed) excludes both axes.
        spec = small_spec(oracles=("greedy-first-fit", "greedy-min-degree"), lams=(2.0, 3.0))
        seeds_by_instance = {}
        for task, payload in zip(spec.expand(), spec.task_payloads()):
            seeds_by_instance.setdefault(task.instance_key(spec.epsilon), set()).add(
                payload["instance_seed"]
            )
        assert len(seeds_by_instance) == spec.num_tasks() // (2 * 2)
        assert all(len(seeds) == 1 for seeds in seeds_by_instance.values())

    def test_replicates_get_distinct_instance_seeds(self):
        spec = small_spec(oracles=("greedy-first-fit",), replicates=3)
        seeds = {p["instance_seed"] for p in spec.task_payloads()}
        assert len(seeds) == spec.num_tasks()


class TestSharding:
    def test_single_shard_is_the_full_expansion(self):
        spec = small_spec()
        assert spec.shard(0, 1) == spec.expand()

    def test_shards_preserve_expansion_order(self):
        spec = small_spec()
        order = {task.task_key: i for i, task in enumerate(spec.expand())}
        for index in range(3):
            positions = [order[t.task_key] for t in spec.shard(index, 3)]
            assert positions == sorted(positions)

    def test_shard_assignment_matches_task_shard_index(self):
        spec = small_spec()
        for index in range(4):
            for task in spec.shard(index, 4):
                assert task_shard_index(task.task_key, 4) == index

    @pytest.mark.parametrize(
        "index, n_shards", [(-1, 2), (2, 2), (5, 2), (0, 0), (0, -3), (True, 2), (0, True)]
    )
    def test_invalid_shard_slots_rejected(self, index, n_shards):
        with pytest.raises(CampaignError):
            small_spec().shard(index, n_shards)

    def test_task_shard_index_rejects_bad_counts(self):
        with pytest.raises(CampaignError):
            task_shard_index("some-key", 0)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"name": 3},
            {"seed": "seven"},
            {"families": ()},
            {"families": ("klingon",)},
            {"families": ("uniform", "uniform")},
            {"sizes": ((12,),)},
            {"sizes": ((0, 5),)},
            {"sizes": (("a", 5),)},
            {"ks": (0,)},
            {"ks": (2.5,)},
            {"oracles": ("not-an-oracle",)},
            {"oracles": ("capped:not-an-oracle",)},
            {"oracles": ("",)},
            {"lams": (0.5,)},
            {"lams": ("two",)},
            {"lams": (2, 2.0)},  # alias to the same task key after :g formatting
            {"replicates": 0},
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"seed": True},
            {"sizes": (5,)},  # an entry that is not a pair at all
            {"sizes": ((12, -1),)},
            {"sizes": ((True, 5),)},
            {"ks": (True,)},
            {"lams": (True,)},
            {"replicates": True},
            {"task_timeout_s": 0},
            {"task_timeout_s": -1.5},
            {"task_timeout_s": True},
            {"task_timeout_s": "5"},
            {"durability": "bogus"},
        ],
    )
    def test_malformed_spec_rejected(self, overrides):
        with pytest.raises(CampaignError):
            small_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides", [{"task_timeout_s": 2.5}, {"task_timeout_s": 3}, {"durability": "fsync"}]
    )
    def test_optional_fields_round_trip(self, overrides):
        spec = small_spec(**overrides)
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_from_dict_missing_field_rejected(self):
        data = small_spec().to_dict()
        del data["oracles"]
        with pytest.raises(CampaignError, match="missing"):
            CampaignSpec.from_dict(data)

    def test_from_dict_unknown_field_rejected(self):
        data = small_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(CampaignError, match="unknown"):
            CampaignSpec.from_dict(data)

    def test_from_dict_non_list_axis_rejected(self):
        data = small_spec().to_dict()
        data["ks"] = 2
        with pytest.raises(CampaignError, match="list"):
            CampaignSpec.from_dict(data)

    def test_from_dict_bad_size_pair_rejected(self):
        data = small_spec().to_dict()
        data["sizes"] = [[12, 8, 3]]
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_from_json_invalid_json_rejected(self):
        with pytest.raises(CampaignError, match="JSON"):
            CampaignSpec.from_json("{not json")

    def test_from_dict_non_dict_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict([1, 2, 3])

    def test_capped_oracle_names_accepted(self):
        spec = small_spec(oracles=("capped:greedy-min-degree",))
        assert spec.oracles == ("capped:greedy-min-degree",)


class TestLegacyStoreField:
    """Spec files from before JSONL became the only store still load."""

    def test_jsonl_store_field_loads_with_an_unchanged_digest(self):
        data = small_spec().to_dict()
        legacy = CampaignSpec.from_dict(dict(data, store="jsonl"))
        assert legacy == small_spec()
        assert legacy.digest() == CampaignSpec.from_dict(data).digest()

    def test_sqlite_store_field_is_refused_as_removed(self):
        data = dict(small_spec().to_dict(), store="sqlite")
        with pytest.raises(CampaignError, match="removed"):
            CampaignSpec.from_dict(data)

    def test_unknown_store_field_is_refused(self):
        data = dict(small_spec().to_dict(), store="parquet")
        with pytest.raises(CampaignError, match="store"):
            CampaignSpec.from_dict(data)
