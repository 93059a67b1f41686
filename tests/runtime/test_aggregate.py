"""Aggregation tests: determinism, digest semantics, record content."""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.records import ExperimentRecord, write_records
from repro.runtime import (
    CampaignStore,
    campaign_digest,
    campaign_records,
    execute_task,
    format_duration,
    run_campaign,
    throughput_record,
)
from repro.runtime.scheduler import CampaignRunStats

from tests.runtime.test_spec import small_spec


def completed_rows(spec):
    return [execute_task(p) for p in spec.task_payloads()]


class TestDeterminism:
    def test_records_insensitive_to_row_order(self):
        spec = small_spec()
        rows = completed_rows(spec)
        shuffled = list(rows)
        random.Random(3).shuffle(shuffled)
        assert campaign_digest(campaign_records(spec, rows)) == campaign_digest(
            campaign_records(spec, shuffled)
        )

    def test_digest_insensitive_to_timing_fields(self):
        spec = small_spec()
        rows = completed_rows(spec)
        slowed = [dict(r, wall_time_s=999.0, happy_check_wall_time_s=99.0) for r in rows]
        assert campaign_digest(campaign_records(spec, rows)) == campaign_digest(
            campaign_records(spec, slowed)
        )

    def test_digest_sensitive_to_result_content(self):
        spec = small_spec()
        rows = completed_rows(spec)
        tampered = [dict(r) for r in rows]
        tampered[0] = dict(tampered[0], result=dict(tampered[0]["result"], color_bound=1))
        assert campaign_digest(campaign_records(spec, rows)) != campaign_digest(
            campaign_records(spec, tampered)
        )

    def test_last_write_wins_like_the_store(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        store = CampaignStore(tmp_path)
        rows = store.rows()
        # Duplicate an early row as a stale failure *before* its done row.
        stale = dict(rows[0], status="failed")
        assert campaign_digest(campaign_records(spec, [stale] + rows)) == campaign_digest(
            campaign_records(spec, rows)
        )


class TestRowSelection:
    def test_done_and_failed_partition_latest_rows(self):
        rows = [
            {"task_key": "b", "status": "done"},
            {"task_key": "a", "status": "failed"},
            {"task_key": "c", "status": "failed"},
            {"task_key": "c", "status": "done"},
        ]
        # The latest row per key counts: "c" is done, so b and c are done and a failed.
        for record in campaign_records(small_spec(), rows):
            assert record.metadata["tasks_done"] == 2
            assert record.metadata["tasks_failed"] == 1


class TestRecordContent:
    def test_phase_decay_rows_are_monotone_and_complete(self):
        spec = small_spec()
        rows = completed_rows(spec)
        record = campaign_records(spec, rows)[0]
        assert record.experiment == "C1"
        assert record.metadata["tasks_done"] == spec.num_tasks()
        assert record.metadata["tasks_failed"] == 0
        assert record.metadata["spec_digest"] == spec.digest()
        by_oracle = {}
        for row in record.rows:
            by_oracle.setdefault(row["oracle"], []).append(row)
        assert set(by_oracle) == set(spec.oracles)
        for oracle_rows in by_oracle.values():
            fractions = [r["mean_remaining_fraction"] for r in oracle_rows]
            assert all(later <= earlier for earlier, later in zip(fractions, fractions[1:]))
            assert fractions[-1] == 0.0  # every campaign task finished
            assert all(0 <= f <= 1 for f in fractions)
            assert all(r["active_tasks"] <= r["tasks"] for r in oracle_rows)

    def test_color_budget_rows_respect_bounds(self):
        spec = small_spec()
        record = campaign_records(spec, completed_rows(spec))[1]
        assert record.experiment == "C2"
        assert {(r["oracle"], r["k"]) for r in record.rows} == {
            (oracle, k) for oracle in spec.oracles for k in spec.ks
        }
        for row in record.rows:
            assert row["mean_phases"] <= row["max_phases"]
            assert row["mean_total_colors"] <= row["max_total_colors"]
            assert 0 <= row["within_color_bound_fraction"] <= 1

    def test_failed_rows_are_counted_but_not_aggregated(self):
        spec = small_spec()
        rows = completed_rows(spec)
        rows.append({"task_key": "zz-extra", "status": "failed", "error": "boom"})
        records = campaign_records(spec, rows)
        for record in records:
            assert record.metadata["tasks_failed"] == 1
            assert record.metadata["tasks_done"] == spec.num_tasks()

    def test_records_round_trip_through_experiment_record_json(self, tmp_path):
        spec = small_spec()
        records = campaign_records(spec, completed_rows(spec))
        path = tmp_path / "records.json"
        write_records(records, str(path))
        restored = [ExperimentRecord(**item) for item in json.loads(path.read_text())]
        assert [r.to_dict() for r in restored] == [r.to_dict() for r in records]

    def test_throughput_record_reports_rates(self):
        spec = small_spec()
        stats = CampaignRunStats(
            campaign=spec.name,
            total_tasks=8,
            skipped=2,
            executed=6,
            failed=1,
            workers=4,
            wall_time_s=2.0,
        )
        record = throughput_record(spec, [stats])
        assert record.experiment == "C3"
        (row,) = record.rows
        assert row["tasks_per_s"] == 3.0
        assert row["workers"] == 4
        assert row["shard"] == "-"
        assert row["pool_warm"] is False
        assert row["cache_hits"] == row["cache_misses"] == 0

    def test_throughput_record_carries_shard_and_warm_stats(self):
        spec = small_spec()
        stats = CampaignRunStats(
            campaign=spec.name,
            total_tasks=8,
            skipped=0,
            executed=4,
            failed=0,
            workers=2,
            wall_time_s=1.0,
            shard=(1, 2),
            pool_warm=True,
            cache_hits=3,
            cache_misses=1,
        )
        (row,) = throughput_record(spec, [stats]).rows
        assert row["shard"] == "1/2"
        assert row["pool_warm"] is True
        assert (row["cache_hits"], row["cache_misses"]) == (3, 1)

    def test_empty_campaign_produces_empty_rows(self):
        spec = small_spec()
        records = campaign_records(spec, [])
        assert all(record.rows == [] for record in records)
        assert campaign_digest(records) == campaign_digest(campaign_records(spec, []))


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds, text",
        [
            (float("nan"), "nan"),
            (0, "0s"),
            (417e-6, "417µs"),
            (0.062, "62ms"),
            (3.14159, "3.14s"),
            (59.5, "59.5s"),
            (123, "2m03s"),
            (3840, "1h04m"),
            (-0.25, "-250ms"),
        ],
    )
    def test_units_follow_the_magnitude(self, seconds, text):
        assert format_duration(seconds) == text
