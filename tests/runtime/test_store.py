"""Tests for the JSONL artifact store: identity, resume, kill tolerance, merge."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.exceptions import CampaignError
from repro.runtime import (
    CampaignSpec,
    CampaignStore,
    CompactionStats,
    cache_counts_of,
    campaign_digest,
    campaign_records,
    merge_shards,
    open_store,
    records_from_summaries,
    retry_exhausted_of,
    run_campaign,
    status_counts_of,
    summaries_of,
    summarize_row,
)
import repro.runtime.store as store_module
from repro.runtime.store import BaseCampaignStore

from tests.conftest import completed_of
from tests.runtime.test_spec import small_spec


def row(key: str, status: str = "done", **extra) -> dict:
    data = {"task_key": key, "status": status}
    data.update(extra)
    return data


def deltas_of(store: CampaignStore) -> list:
    """The summary sidecar's delta lines, in order."""
    return [json.loads(line) for line in store.aggregates_path.read_text().splitlines()]


class TestSpecBinding:
    def test_initialize_writes_spec(self, tmp_path):
        store = CampaignStore(tmp_path / "camp")
        spec = small_spec()
        store.initialize(spec)
        assert store.spec_path.is_file()
        assert store.load_spec() == spec

    def test_initialize_idempotent_for_same_spec(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(small_spec())
        store.initialize(small_spec())  # same digest: fine

    def test_initialize_rejects_different_spec(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(small_spec())
        with pytest.raises(CampaignError, match="refusing"):
            store.initialize(small_spec(seed=99))

    def test_spec_file_with_the_legacy_jsonl_store_key_still_binds(self, tmp_path):
        # A directory whose spec.json names the JSONL store explicitly
        # resumes in place: nothing re-runs and the digest is unchanged.
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        reference = campaign_digest(campaign_records(spec, CampaignStore(tmp_path).rows()))
        store = CampaignStore(tmp_path)
        legacy = dict(json.loads(store.spec_path.read_text()), store="jsonl")
        store.spec_path.write_text(json.dumps(legacy))
        assert store.load_spec() == spec
        resumed = run_campaign(spec, tmp_path, workers=0)
        assert resumed.executed == 0
        assert resumed.skipped == spec.num_tasks()
        digest = campaign_digest(records_from_summaries(spec, store.summaries()))
        assert digest == reference

    def test_load_spec_without_directory_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="campaign directory"):
            CampaignStore(tmp_path / "nope").load_spec()


class TestRows:
    def test_append_and_read_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(small_spec())
        store.append(row("a", wall_time_s=0.5))
        store.append(row("b", status="failed", error="boom"))
        rows = store.rows()
        assert [r["task_key"] for r in rows] == ["a", "b"]
        assert completed_of(store.summaries()) == {"a"}
        assert status_counts_of(store.summaries()) == {"done": 1, "failed": 1}

    def test_append_requires_key_and_status(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(CampaignError):
            store.append({"task_key": "a"})

    def test_round_trip_preserves_payload_fields(self, tmp_path):
        original = row(
            "a",
            wall_time_s=0.1 + 0.2,
            result={"color_bound": 3, "phases": [{"happy": 4}]},
            oracle="capped:greedy-first-fit",
            note="λ ≥ 2",
        )
        store = CampaignStore(tmp_path)
        store.append(original)
        (restored,) = store.rows()
        assert restored == original
        assert CampaignStore(tmp_path).latest_rows() == {"a": original}

    def test_rows_are_written_as_canonical_json(self, tmp_path):
        # Sorted keys make a row's bytes a function of its content, so
        # compaction and merges rewrite rows byte-for-byte.
        store = CampaignStore(tmp_path)
        entries = [row("b", z_field=1, a_field=2), row("a", status="failed", error="x")]
        store.append(entries[0])
        store.append_many(entries[1:])
        lines = store.results_path.read_text(encoding="utf-8").splitlines()
        assert lines == [json.dumps(entry, sort_keys=True) for entry in entries]

    def test_retry_supersedes_failure(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", status="failed"))
        store.append(row("a"))
        assert completed_of(store.summaries()) == {"a"}
        assert status_counts_of(store.summaries()) == {"done": 1}

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b"))
        text = store.results_path.read_text()
        # Simulate a kill mid-write: the final line is half a JSON object.
        store.results_path.write_text(text[: len(text) - 10])
        assert [r["task_key"] for r in store.rows()] == ["a"]
        assert completed_of(store.summaries()) == {"a"}

    def test_append_after_truncated_tail_starts_fresh_line(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        text = store.results_path.read_text()
        store.results_path.write_text(text + '{"task_key": "partial')
        store.append(row("b"))
        assert completed_of(store.summaries()) == {"a", "b"}

    def test_garbage_and_blank_lines_are_skipped(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        with open(store.results_path, "a") as handle:
            handle.write("\n")
            handle.write("not json at all\n")
            handle.write(json.dumps(["a", "list"]) + "\n")
            handle.write(json.dumps({"no_task_key": 1}) + "\n")
        store.append(row("b"))
        assert [r["task_key"] for r in store.rows()] == ["a", "b"]

    def test_rows_empty_without_results_file(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.rows() == []
        assert store.latest_rows() == {}
        assert completed_of(store.summaries()) == set()
        assert status_counts_of(store.summaries()) == {}
        assert cache_counts_of(store.summaries()) == {"cache_hits": 0, "cache_misses": 0}
        assert retry_exhausted_of(store.summaries(), 3) == set()
        assert store.summaries() == {}
        assert list(tmp_path.iterdir()) == []  # queries never create files

    def test_append_many_matches_one_by_one_appends(self, tmp_path):
        rows = [
            row("a", status="failed", attempt=1, error="boom"),
            row("b", instance_cache_hit=True),
            row("a", attempt=2, z_field=1, a_field=2),
        ]
        one_by_one = CampaignStore(tmp_path / "single")
        for entry in rows:
            one_by_one.append(entry)
        batched = CampaignStore(tmp_path / "batch")
        batched.append_many(rows)
        assert batched.results_path.read_bytes() == one_by_one.results_path.read_bytes()
        batched.append_many([])  # an empty batch is a no-op, not an error
        assert batched.rows() == rows

    def test_append_many_validates_every_row_before_writing(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(CampaignError):
            store.append_many([row("a"), {"task_key": "b"}])
        assert store.rows() == []

    def test_truncated_tail_then_duplicate_key_rewrite(self, tmp_path):
        # Kill truncates a half-written row for "b"; the retry appends a
        # fresh "b" row, which must supersede nothing and glue to nothing.
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b", status="failed", attempt=1))
        text = store.results_path.read_text()
        store.results_path.write_text(text + '{"task_key": "b", "stat')
        store.append(row("b", attempt=2))
        assert [r["task_key"] for r in store.rows()] == ["a", "b", "b"]
        latest = store.latest_rows()
        assert latest["b"]["status"] == "done"
        assert latest["b"]["attempt"] == 2
        assert completed_of(store.summaries()) == {"a", "b"}

    def test_cache_counts_over_latest_rows(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", instance_cache_hit=False))
        store.append(row("b", instance_cache_hit=True))
        store.append(row("c", status="failed"))  # no flag: counts nowhere
        # A rewrite of "a" flips its flag; only the latest row counts.
        store.append(row("a", instance_cache_hit=True))
        assert cache_counts_of(store.summaries()) == {"cache_hits": 2, "cache_misses": 0}


class TestOpenStore:
    def test_opens_the_jsonl_store(self, tmp_path):
        store = open_store(tmp_path, durability="fsync")
        assert isinstance(store, CampaignStore)
        assert store.durability == "fsync"

    def test_legacy_sqlite_results_are_refused_by_name(self, tmp_path):
        # Opening it as an empty JSONL store would silently re-run every
        # task into a fresh results.jsonl beside the old rows.
        (tmp_path / "results.sqlite").write_bytes(b"")
        with pytest.raises(CampaignError, match="results.sqlite"):
            open_store(tmp_path)
        assert not (tmp_path / "results.jsonl").exists()

    def test_merge_refuses_a_legacy_sqlite_shard(self, tmp_path):
        shard = CampaignStore(tmp_path / "shard")
        shard.initialize(small_spec())
        (shard.directory / "results.sqlite").write_bytes(b"")
        with pytest.raises(CampaignError, match="results.sqlite"):
            merge_shards(tmp_path / "merged", [shard.directory])

    def test_base_store_name_keeps_the_methods_on_the_class_itself(self):
        # perfbench/ledger.py imports BaseCampaignStore and swaps methods
        # through the class __dict__, so inherited definitions would break it.
        assert BaseCampaignStore is CampaignStore
        for name in ("append", "rows", "summaries", "latest_rows"):
            assert name in CampaignStore.__dict__, name


class TestMergeShards:
    def _shard_stores(self, tmp_path, spec):
        stores = []
        for index in range(2):
            store = CampaignStore(tmp_path / f"shard{index}")
            store.initialize(spec)
            stores.append(store)
        return stores

    def test_merge_concatenates_disjoint_shards(self, tmp_path):
        spec = small_spec()
        first, second = self._shard_stores(tmp_path, spec)
        first.append(row("a"))
        second.append(row("b"))
        merged = merge_shards(tmp_path / "merged", [first.directory, second.directory])
        assert merged.load_spec().digest() == spec.digest()
        assert completed_of(merged.summaries()) == {"a", "b"}

    def test_merge_overlapping_shards_is_last_write_wins(self, tmp_path):
        spec = small_spec()
        first, second = self._shard_stores(tmp_path, spec)
        first.append(row("x", status="failed", origin="shard0"))
        first.append(row("y", origin="shard0"))
        second.append(row("x", origin="shard1"))
        merged = merge_shards(tmp_path / "merged", [first.directory, second.directory])
        latest = merged.latest_rows()
        assert latest["x"]["status"] == "done"
        assert latest["x"]["origin"] == "shard1"
        assert latest["y"]["origin"] == "shard0"
        # Argument order decides: merging the other way keeps shard0's row.
        reversed_merge = merge_shards(
            tmp_path / "merged-rev", [second.directory, first.directory]
        )
        assert reversed_merge.latest_rows()["x"]["status"] == "failed"

    def test_merge_refuses_foreign_spec_digest(self, tmp_path):
        spec = small_spec()
        foreign = small_spec(seed=99)
        mine = CampaignStore(tmp_path / "mine")
        mine.initialize(spec)
        theirs = CampaignStore(tmp_path / "theirs")
        theirs.initialize(foreign)
        with pytest.raises(CampaignError, match="foreign"):
            merge_shards(tmp_path / "merged", [mine.directory, theirs.directory])

    def test_merge_refuses_destination_among_shards(self, tmp_path):
        store = CampaignStore(tmp_path / "shard0")
        store.initialize(small_spec())
        with pytest.raises(CampaignError, match="fresh directory"):
            merge_shards(tmp_path / "shard0", [store.directory])

    def test_merge_requires_at_least_one_shard(self, tmp_path):
        with pytest.raises(CampaignError, match="at least one"):
            merge_shards(tmp_path / "merged", [])

    def test_merge_refuses_foreign_destination(self, tmp_path):
        shard = CampaignStore(tmp_path / "shard")
        shard.initialize(small_spec())
        dest = CampaignStore(tmp_path / "merged")
        dest.initialize(small_spec(seed=99))
        with pytest.raises(CampaignError, match="refusing"):
            merge_shards(tmp_path / "merged", [shard.directory])

    def test_merge_into_partial_destination_resumes(self, tmp_path):
        spec = small_spec()
        shard = CampaignStore(tmp_path / "shard")
        shard.initialize(spec)
        shard.append(row("b"))
        dest = CampaignStore(tmp_path / "merged")
        dest.initialize(spec)
        dest.append(row("a"))
        merged = merge_shards(tmp_path / "merged", [shard.directory])
        assert completed_of(merged.summaries()) == {"a", "b"}

    def test_merge_terminates_truncated_destination_tail(self, tmp_path):
        spec = small_spec()
        shard = CampaignStore(tmp_path / "shard")
        shard.initialize(spec)
        shard.append(row("b"))
        dest = CampaignStore(tmp_path / "merged")
        dest.initialize(spec)
        dest.append(row("a"))
        text = dest.results_path.read_text()
        dest.results_path.write_text(text + '{"task_key": "half')
        merged = merge_shards(tmp_path / "merged", [shard.directory])
        # The shard row starts on a fresh line, not glued to the dead tail.
        assert completed_of(merged.summaries()) == {"a", "b"}

    def test_merge_skips_truncated_shard_tails(self, tmp_path):
        spec = small_spec()
        shard = CampaignStore(tmp_path / "shard")
        shard.initialize(spec)
        shard.append(row("a"))
        text = shard.results_path.read_text()
        shard.results_path.write_text(text + '{"task_key": "half')
        merged = merge_shards(tmp_path / "merged", [shard.directory])
        assert completed_of(merged.summaries()) == {"a"}
        # The merged file itself is clean JSONL: every line parses.
        for line in merged.results_path.read_text().splitlines():
            json.loads(line)


class TestDurability:
    def test_default_is_flush_only(self, tmp_path):
        assert CampaignStore(tmp_path).durability == "flush"

    def test_unknown_durability_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="durability"):
            CampaignStore(tmp_path, durability="paranoid")

    @pytest.mark.parametrize("durability", ["flush", "fsync"])
    def test_appends_round_trip_under_both_disciplines(self, tmp_path, durability):
        store = CampaignStore(tmp_path, durability=durability)
        store.initialize(small_spec())
        store.append(row("a"))
        store.append(row("b", status="failed", error="boom"))
        assert [r["task_key"] for r in store.rows()] == ["a", "b"]
        assert status_counts_of(store.summaries()) == {"done": 1, "failed": 1}

    def test_fsync_actually_syncs_each_append(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.runtime.store.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        flush_store = CampaignStore(tmp_path / "flush")
        flush_store.initialize(small_spec())
        flush_store.append(row("a"))
        assert synced == []  # the default never pays the fsync
        fsync_store = CampaignStore(tmp_path / "fsync", durability="fsync")
        fsync_store.initialize(small_spec())
        fsync_store.append(row("a"))
        fsync_store.append(row("b"))
        assert len(synced) == 2

    def test_spec_durability_flows_through_run_campaign(self, tmp_path, monkeypatch):
        from repro.runtime import run_campaign

        synced = []
        monkeypatch.setattr("repro.runtime.store.os.fsync", synced.append)
        spec = small_spec(durability="fsync")
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.failed == 0
        # One fsync per row, plus one for the checkpoint's sidecar delta.
        assert len(synced) == spec.num_tasks() + 1
        # An explicit override beats the spec's default.
        more = run_campaign(spec, tmp_path / "flush", workers=0, durability="flush")
        assert more.failed == 0
        assert len(synced) == spec.num_tasks() + 1


class TestTailCheckCache:
    """append() checks the tail once per instance, not once per row."""

    def _spy(self, monkeypatch):
        calls = []
        real = CampaignStore._needs_tail_newline

        def spy(store):
            calls.append(1)
            return real(store)

        monkeypatch.setattr(CampaignStore, "_needs_tail_newline", spy)
        return calls

    def test_repeated_appends_check_the_tail_once(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        store = CampaignStore(tmp_path)
        for index in range(5):
            store.append(row(f"t{index}"))
        assert len(calls) == 1  # only the first append pays the open+seek+read
        assert len(store.rows()) == 5

    def test_append_many_is_one_check_and_one_write(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        store = CampaignStore(tmp_path)
        store.append_many([row("a"), row("b"), row("c")])
        store.append_many([row("d")])
        assert len(calls) == 1
        assert [r["task_key"] for r in store.rows()] == ["a", "b", "c", "d"]

    def test_fresh_instance_rechecks_the_tail(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        CampaignStore(tmp_path).append(row("a"))
        CampaignStore(tmp_path).append(row("b"))
        assert len(calls) == 2  # the cache is per instance, never global state
        assert completed_of(CampaignStore(tmp_path).summaries()) == {"a", "b"}

    def test_external_truncation_invalidates_the_cache(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b"))
        assert len(calls) == 1
        # A kill (simulated by external tampering) changes the file size,
        # so the next append re-checks and terminates the dead tail.
        text = store.results_path.read_text()
        store.results_path.write_text(text + '{"task_key": "partial')
        store.append(row("c"))
        assert len(calls) == 2
        assert completed_of(store.summaries()) == {"a", "b", "c"}


class TestMergeDurability:
    """merge_shards honors the spec's durability (the old code lost it)."""

    def _fsync_counter(self, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.runtime.store.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        return synced

    def _shards(self, tmp_path, spec):
        dirs = []
        for index in range(2):
            shard = CampaignStore(tmp_path / f"shard{index}")
            shard.initialize(spec)
            shard.append(row(f"task-{index}"))
            dirs.append(shard.directory)
        return dirs

    def test_fsync_spec_syncs_batches_and_aggregates(self, tmp_path, monkeypatch):
        spec = small_spec(durability="fsync")
        shard_dirs = self._shards(tmp_path, spec)
        synced = self._fsync_counter(monkeypatch)
        merged = merge_shards(tmp_path / "merged", shard_dirs)
        assert merged.durability == "fsync"
        # One batched fsync per shard plus one for the aggregate sidecar —
        # not zero (the bug) and not one-per-row (the slow path).
        assert len(synced) == len(shard_dirs) + 1
        assert completed_of(merged.summaries()) == {"task-0", "task-1"}

    def test_flush_spec_never_pays_the_fsync(self, tmp_path, monkeypatch):
        shard_dirs = self._shards(tmp_path, small_spec())
        synced = self._fsync_counter(monkeypatch)
        merged = merge_shards(tmp_path / "merged", shard_dirs)
        assert merged.durability == "flush"
        assert synced == []

    def test_explicit_override_beats_the_spec(self, tmp_path, monkeypatch):
        fsync_dirs = self._shards(tmp_path / "fs", small_spec(durability="fsync"))
        flush_dirs = self._shards(tmp_path / "fl", small_spec())
        synced = self._fsync_counter(monkeypatch)
        merge_shards(tmp_path / "fs" / "merged", fsync_dirs, durability="flush")
        assert synced == []
        merge_shards(tmp_path / "fl" / "merged", flush_dirs, durability="fsync")
        assert len(synced) == 3


class TestCompaction:
    def test_compact_keeps_exactly_the_latest_row_per_key(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", status="failed", attempt=1))
        store.append(row("b"))
        store.append(row("a", attempt=2))
        before = store.latest_rows()
        stats = store.compact()
        assert stats.rows_before == 3
        assert stats.rows_after == 2
        assert stats.rows_dropped == 1
        assert stats.bytes_after < stats.bytes_before
        # Survivors keep the file order of their final occurrence.
        assert [r["task_key"] for r in store.rows()] == ["b", "a"]
        assert store.latest_rows() == before
        assert store.latest_rows()["a"]["attempt"] == 2

    def test_compact_drops_byte_identical_duplicates(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("a"))
        assert store.compact().rows_dropped == 1
        assert [r["task_key"] for r in store.rows()] == ["a"]

    def test_compact_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", status="failed"))
        store.append(row("a"))
        first = store.compact()
        second = store.compact()
        assert second.rows_dropped == 0
        assert second.rows_before == first.rows_after
        assert second.bytes_after == first.bytes_after

    def test_compact_without_results_file_is_a_no_op(self, tmp_path):
        assert CampaignStore(tmp_path).compact() == CompactionStats(0, 0, 0, 0)

    def test_compact_discards_the_truncated_tail(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b"))
        text = store.results_path.read_text()
        store.results_path.write_text(text + '{"task_key": "half')
        store.compact()
        # The compacted log is clean JSONL: every line parses.
        for line in store.results_path.read_text().splitlines():
            json.loads(line)
        store.append(row("c"))
        assert completed_of(store.summaries()) == {"a", "b", "c"}

    def test_compact_leaves_no_temp_file(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.compact()
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_compact_preserves_summaries(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("x", status="failed", attempt=1))
        store.append(row("y", instance_cache_hit=True))
        store.append(row("x", attempt=2))
        before = store.summaries()
        store.compact()
        assert store.summaries() == before
        assert CampaignStore(tmp_path).summaries() == before  # sidecar refreshed


class TestIncrementalAggregates:
    def _parse_counter(self, monkeypatch):
        import repro.runtime.store as store_module

        calls = []
        real = store_module._parse_row

        def spy(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(store_module, "_parse_row", spy)
        return calls

    def test_summaries_match_the_full_row_scan(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", instance_cache_hit=True))
        store.append(row("b", status="failed", attempt=2, error="boom"))
        store.append(row("a", instance_cache_hit=False))
        assert store.summaries() == summaries_of(store.rows())

    def test_summaries_empty_without_results_file(self, tmp_path):
        assert CampaignStore(tmp_path).summaries() == {}

    def test_second_call_scans_only_new_rows(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b"))
        store.summaries()  # builds the sidecar covering a and b
        calls = self._parse_counter(monkeypatch)
        assert store.summaries() == summaries_of(store.rows())
        parsed_by_summaries = len(calls) - len(store.rows())  # rows() also parses
        assert parsed_by_summaries == 0  # nothing new: pure cache read
        calls.clear()
        store.append(row("c"))  # the store that wrote it folded its summary
        assert store.summaries()["c"] == summarize_row(row("c"))
        assert calls == []
        CampaignStore(tmp_path).append(row("d"))  # another store's row
        summaries = store.summaries()
        assert summaries["d"] == summarize_row(row("d"))
        assert len(calls) == 1  # only the foreign row was parsed

    def test_sidecar_records_the_byte_cursor(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.summaries()
        payload = json.loads(store.aggregates_path.read_text())
        assert payload["byte_offset"] == store.results_path.stat().st_size
        assert set(payload["summaries"]) == {"a"}

    def test_garbage_sidecar_triggers_a_rebuild(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        for garbage in ("not json", '{"version": 999}', '{"version": 1, "byte_offset": -1, "summaries": {}}'):
            store.aggregates_path.write_text(garbage)
            assert store.summaries() == summaries_of(store.rows())

    @pytest.mark.parametrize("damage", ["non-ascii bytes", "a directory"])
    def test_unreadable_sidecar_falls_back_to_the_rows(self, tmp_path, damage):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b", status="failed", attempt=2, error="boom"))
        if damage == "a directory":
            store.aggregates_path.mkdir()
        else:
            store.aggregates_path.write_bytes(b"\xff\xfe garbled")
        fresh = CampaignStore(tmp_path)
        assert fresh.summaries() == summaries_of(fresh.rows())

    def test_truncation_below_the_cursor_triggers_a_rebuild(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.append(row("b"))
        store.summaries()
        # Roll the log back to just row "a" (a restored backup, say): the
        # stale cursor now points past EOF and the sidecar must be rebuilt.
        first_line = store.results_path.read_text().splitlines(keepends=True)[0]
        store.results_path.write_text(first_line)
        assert set(store.summaries()) == {"a"}

    def test_rewrite_off_the_line_boundary_triggers_a_rebuild(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.summaries()
        # An external rewrite grows the file but the byte before the old
        # cursor is no longer a newline: the cursor does not land on a
        # line boundary, so the cache is discarded and rebuilt.
        size = store.results_path.stat().st_size
        store.results_path.write_bytes(
            b"x" * size + b"\n" + (json.dumps(row("z")) + "\n").encode()
        )
        assert set(store.summaries()) == {"z"}

    def test_unterminated_tail_is_served_but_not_cached(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        with open(store.results_path, "a") as handle:
            handle.write(json.dumps(row("b")))  # complete row, no newline yet
        summaries = store.summaries()
        assert set(summaries) == {"a", "b"}  # matches rows(): the row parses
        (delta,) = deltas_of(store)
        assert set(delta["summaries"]) == {"a"}  # cursor never passes the tail
        assert delta["byte_offset"] == len(json.dumps(row("a"))) + 1
        # Once the tail is terminated by the next append, it gets cached.
        store.append(row("c"))
        store.summaries()
        assert [set(d["summaries"]) for d in deltas_of(store)] == [{"a"}, {"b", "c"}]
        assert deltas_of(store)[-1]["byte_offset"] == store.results_path.stat().st_size

    def test_merge_combines_partials_without_rescanning(self, tmp_path, monkeypatch):
        spec = small_spec()
        shard_dirs = []
        for index in range(2):
            shard = CampaignStore(tmp_path / f"shard{index}")
            shard.initialize(spec)
            shard.append(row(f"t{index}", instance_cache_hit=bool(index)))
            shard.summaries()  # each shard lands with its partial built
            shard_dirs.append(shard.directory)
        merged = merge_shards(tmp_path / "merged", shard_dirs)
        calls = self._parse_counter(monkeypatch)
        combined = merged.summaries()
        assert calls == []  # the merge combined shard partials: no row scan
        assert combined == summaries_of(merged.rows())

    def test_merge_overlap_resolves_like_the_row_log(self, tmp_path):
        spec = small_spec()
        first = CampaignStore(tmp_path / "s0")
        first.initialize(spec)
        first.append(row("x", status="failed", attempt=1))
        second = CampaignStore(tmp_path / "s1")
        second.initialize(spec)
        second.append(row("x", attempt=2))
        merged = merge_shards(tmp_path / "merged", [first.directory, second.directory])
        assert merged.summaries() == summaries_of(merged.rows())
        assert merged.summaries()["x"]["status"] == "done"


class TestSummaryFold:
    """Resume, status and report cost O(new rows): the store that appends summarizes."""

    @pytest.mark.parametrize("writer", ["the store that planned", "another store"])
    def test_one_more_row_grows_the_sidecar_alike_at_10_and_1000_rows(self, tmp_path, writer):
        # The 10 stored rows are padded so both stores' byte cursors have
        # five digits: then one delta line is the same size in both.
        extra = row("new", oracle="greedy-first-fit", k=2, attempt=1, instance_seed=5)
        growth, cursors = [], []
        for count, pad in ((10, 1100), (1000, 0)):
            directory = tmp_path / f"{count}-{writer.replace(' ', '-')}"
            store = CampaignStore(directory)
            store.append_many([row(f"t{i:04d}", note="x" * pad) for i in range(count)])
            store.summaries()  # a current sidecar, and the store starts folding
            before = store.aggregates_path.stat().st_size
            if writer == "another store":
                CampaignStore(directory).append(extra)
                store.summaries()
            else:
                store.append(extra)
                store.checkpoint()
            growth.append(store.aggregates_path.stat().st_size - before)
            cursors.append(store.results_path.stat().st_size)
            assert deltas_of(store)[-1] == {
                "byte_offset": cursors[-1],
                "summaries": {"new": summarize_row(extra)},
                "version": 2,
            }
        assert len(str(cursors[0])) == len(str(cursors[1]))
        assert growth[0] == growth[1]

    def test_a_foreign_append_stops_the_fold(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.summaries()
        CampaignStore(tmp_path).append(row("b"))  # another writer, between our appends
        store.append(row("c"))
        store.checkpoint()
        fresh = CampaignStore(tmp_path)
        assert fresh.summaries() == summaries_of(fresh.rows())

    def test_deltas_apply_up_to_the_first_bad_line(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.summaries()
        (good,) = store.aggregates_path.read_text().splitlines(keepends=True)
        store.append(row("b"))
        cursor = store.results_path.stat().st_size
        later = json.dumps(
            {"byte_offset": cursor, "summaries": {"b": {"status": "lost"}}, "version": 2}
        )
        store.aggregates_path.write_text(good + "not json\n" + later + "\n")
        # The line after the bad one never applies: "b" is parsed from the
        # log again, and the bad tail of the sidecar is replaced.
        fresh = CampaignStore(tmp_path)
        assert fresh.summaries() == summaries_of(fresh.rows())
        assert [set(delta["summaries"]) for delta in deltas_of(store)] == [{"a"}, {"b"}]


class TestSidecarFollowsTheLog:
    """After every step, a fresh store's summaries() equal a full scan of the rows."""

    @staticmethod
    def _matches(directory: Path, scratch: Path) -> bool:
        # Checked on a copy: the check's own catch-up must not hand the
        # next step a repaired sidecar.
        copy = scratch / f"check-{len(list(scratch.iterdir()))}"
        shutil.copytree(directory, copy)
        fresh = CampaignStore(copy)
        return fresh.summaries() == summaries_of(fresh.rows())

    def test_each_step_leaves_a_sidecar_that_matches_the_rows(self, tmp_path, monkeypatch):
        spec = small_spec()
        directory, checks = tmp_path / "campaign", tmp_path / "checks"
        checks.mkdir()
        store = CampaignStore(directory)

        run_campaign(spec, directory)
        assert self._matches(directory, checks), "run"

        lines = store.results_path.read_bytes().splitlines(keepends=True)
        store.results_path.write_bytes(b"".join(lines[:-3]) + lines[-3][:40])
        assert self._matches(directory, checks), "kill mid-row"

        assert run_campaign(spec, directory).executed == 3
        assert self._matches(directory, checks), "resume"

        sidecar = store.aggregates_path.read_bytes()
        store.aggregates_path.write_bytes(sidecar[:-20])
        assert self._matches(directory, checks), "sidecar cut mid-line"

        # A kill drops the last row, and the resume's catch-up delta (the
        # rows the cut sidecar line covered) fails to write.
        lines = store.results_path.read_bytes().splitlines(keepends=True)
        store.results_path.write_bytes(b"".join(lines[:-1]))
        failed = []

        def failing_open(file, mode="r", *args, **kwargs):
            if Path(file) == store.aggregates_path and "a" in mode and not failed:
                failed.append(mode)
                raise OSError("no space left on device")
            return open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "open", failing_open, raising=False)
            assert run_campaign(spec, directory).executed == 1
        assert failed
        assert self._matches(directory, checks), "sidecar write raised OSError"

        store.append(store.rows()[0])  # a superseded duplicate
        assert store.compact().rows_dropped == 1
        assert self._matches(directory, checks), "compact"

        merged = merge_shards(tmp_path / "merged", [directory])
        assert self._matches(merged.directory, checks), "merge"


class TestSummaryViews:
    """The query helpers answer the same from summaries as from latest rows.

    ``repro campaign status`` derives every view from one ``summaries()``
    read instead of re-reading the row log, so the two must agree.
    """

    ROWS = [
        row("a", status="failed", attempt=1, error="boom"),
        row("b", instance_cache_hit=True),
        row("c", status="timeout", attempt=4),
        row("a", attempt=2, instance_cache_hit=False),
        row("d", status="failed"),  # no attempt field (legacy row)
        row("e", status="failed", attempt=2, error="boom"),
        row("b", instance_cache_hit=True),  # byte-identical duplicate
    ]

    def _views(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_many(self.ROWS)
        return store.latest_rows(), store.summaries()

    def test_completed_and_status_views_agree(self, tmp_path):
        latest, summaries = self._views(tmp_path)
        assert completed_of(summaries) == completed_of(latest) == {"a", "b"}
        assert status_counts_of(summaries) == status_counts_of(latest) == {
            "done": 2,
            "failed": 2,
            "timeout": 1,
        }

    def test_cache_view_agrees(self, tmp_path):
        latest, summaries = self._views(tmp_path)
        assert cache_counts_of(summaries) == cache_counts_of(latest) == {
            "cache_hits": 1,
            "cache_misses": 1,
        }

    @pytest.mark.parametrize(
        "budget, exhausted",
        [(1, {"c", "d", "e"}), (2, {"c", "e"}), (4, {"c"}), (5, set())],
    )
    def test_retry_exhaustion_view_agrees(self, tmp_path, budget, exhausted):
        latest, summaries = self._views(tmp_path)
        assert retry_exhausted_of(summaries, budget) == exhausted
        assert retry_exhausted_of(latest, budget) == exhausted


class TestRetryExhaustion:
    def test_exhausted_keys_need_retryable_status_and_budget(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("done-task"))
        store.append(row("fresh-failure", status="failed", attempt=1))
        store.append(row("spent-failure", status="failed", attempt=3))
        store.append(row("spent-timeout", status="timeout", attempt=4))
        store.append(row("legacy-failure", status="failed"))  # no attempt field
        assert retry_exhausted_of(store.summaries(), 3) == {"spent-failure", "spent-timeout"}
        assert retry_exhausted_of(store.summaries(), 1) == {
            "fresh-failure",
            "spent-failure",
            "spent-timeout",
            "legacy-failure",
        }

    def test_exhaustion_considers_only_the_latest_row(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", status="failed", attempt=3))
        store.append(row("a"))  # later success supersedes the exhaustion
        assert retry_exhausted_of(store.summaries(), 3) == set()

    def test_max_attempts_must_be_positive(self, tmp_path):
        with pytest.raises(CampaignError, match="max_attempts"):
            retry_exhausted_of(CampaignStore(tmp_path).summaries(), 0)


class TestAppendHandle:
    """A store opens results.jsonl for appending once, and follows a compaction's new log."""

    def _appending_opens(self, monkeypatch) -> list:
        """Spy on the store module's ``open``: the handles it opened to append to the log."""
        handles = []

        def spy(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if "a" in mode and Path(file).name == store_module.RESULTS_FILENAME:
                handles.append(handle)
            return handle

        monkeypatch.setattr(store_module, "open", spy, raising=False)
        return handles

    def test_a_serial_run_opens_the_log_once(self, tmp_path, monkeypatch):
        handles = self._appending_opens(monkeypatch)
        spec = small_spec()
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.executed == spec.num_tasks() == 16
        assert len(handles) == 1
        assert handles[0].closed
        assert len(CampaignStore(tmp_path).rows()) == 16

    def test_each_merge_opens_the_log_once(self, tmp_path, monkeypatch):
        spec = small_spec()
        shard_dirs = [tmp_path / f"shard{index}" for index in range(2)]
        for index, shard_dir in enumerate(shard_dirs):
            run_campaign(spec, shard_dir, shard=(index, 2))
        handles = self._appending_opens(monkeypatch)
        merged = merge_shards(tmp_path / "merged", shard_dirs)
        assert len(handles) == 1 and handles[0].closed
        assert len(merged.rows()) == spec.num_tasks()
        merged = merge_shards(tmp_path / "merged", shard_dirs)
        assert len(handles) == 2 and handles[1].closed
        assert len(merged.rows()) == 2 * spec.num_tasks()

    def test_an_append_after_another_store_compacts_lands_in_the_compacted_log(self, tmp_path):
        writer = CampaignStore(tmp_path)
        writer.append(row("a", status="failed"))
        writer.append(row("a"))
        assert CampaignStore(tmp_path).compact().rows_dropped == 1
        writer.append(row("b"))
        assert [(r["task_key"], r["status"]) for r in CampaignStore(tmp_path).rows()] == [
            ("a", "done"),
            ("b", "done"),
        ]

    def test_an_append_after_its_own_compaction_lands_in_the_compacted_log(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a", status="failed"))
        store.append(row("a"))
        store.compact()
        store.append(row("b"))
        assert [(r["task_key"], r["status"]) for r in CampaignStore(tmp_path).rows()] == [
            ("a", "done"),
            ("b", "done"),
        ]
        assert completed_of(CampaignStore(tmp_path).summaries()) == {"a", "b"}

    def test_an_append_after_the_log_was_deleted_starts_a_new_log(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        store.results_path.unlink()
        store.append(row("b"))
        assert [r["task_key"] for r in CampaignStore(tmp_path).rows()] == ["b"]

    @pytest.mark.parametrize("raise_at", [None, 3])
    def test_run_campaign_closes_the_store_once(self, tmp_path, monkeypatch, raise_at):
        import repro.runtime.scheduler as scheduler

        handles = self._appending_opens(monkeypatch)
        closed = []
        real_close = CampaignStore.close
        monkeypatch.setattr(
            CampaignStore, "close", lambda store: (closed.append(store), real_close(store))[1]
        )
        calls = []
        real_execute = scheduler.execute_task

        def execute(payload):
            calls.append(payload["task_key"])
            if len(calls) == raise_at:
                raise RuntimeError("not a ReproError")
            return real_execute(payload)

        monkeypatch.setattr(scheduler, "execute_task", execute)
        if raise_at is None:
            run_campaign(small_spec(), tmp_path, workers=0)
        else:
            with pytest.raises(RuntimeError, match="not a ReproError"):
                run_campaign(small_spec(), tmp_path, workers=0)
        assert len(closed) == 1
        assert len(handles) == 1 and handles[0].closed
        expected = small_spec().num_tasks() if raise_at is None else raise_at - 1
        assert len(CampaignStore(tmp_path).rows()) == expected

    def test_a_dropped_store_closes_its_handle(self, tmp_path, monkeypatch):
        handles = self._appending_opens(monkeypatch)
        store = CampaignStore(tmp_path)
        store.append(row("a"))
        assert not handles[0].closed
        del store
        assert handles[0].closed

    def test_a_failed_write_closes_the_handle_and_the_next_append_reopens(
        self, tmp_path, monkeypatch
    ):
        handles = self._appending_opens(monkeypatch)
        store = CampaignStore(tmp_path, durability="fsync")
        store.append(row("a"))

        def broken(fd):
            raise OSError("the disk went away")

        monkeypatch.setattr(store_module.os, "fsync", broken)
        with pytest.raises(OSError, match="disk"):
            store.append(row("b"))
        assert handles[0].closed
        monkeypatch.undo()
        handles = self._appending_opens(monkeypatch)
        store.append(row("c"))
        store.close()
        assert len(handles) == 1 and handles[0].closed
        # "b" was flushed before its fsync failed, so the log holds it too.
        assert [r["task_key"] for r in store.rows()] == ["a", "b", "c"]

    def test_a_closed_store_appends_again(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.close()  # nothing open yet: a no-op
        store.append(row("a"))
        store.close()
        store.close()
        store.append(row("b"))
        store.close()
        assert [r["task_key"] for r in store.rows()] == ["a", "b"]
