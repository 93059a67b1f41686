"""Smoke tests for the perf harness and the BENCH_*.json schema."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    written = bench.run(out_dir=str(out), smoke=True, repeats=1)
    return out, written


class TestHarness:
    def test_writes_all_files(self, smoke_run):
        out, written = smoke_run
        assert (out / bench.CONFLICT_GRAPH_BENCH).is_file()
        assert (out / bench.MAXIS_BENCH).is_file()
        assert (out / bench.REDUCTION_BENCH).is_file()
        assert (out / bench.CAMPAIGN_BENCH).is_file()
        assert set(written) == {"conflict_graph", "maxis", "reduction", "campaign"}

    def test_conflict_graph_payload_schema(self, smoke_run):
        out, _ = smoke_run
        payload = json.loads((out / bench.CONFLICT_GRAPH_BENCH).read_text())
        bench.validate_bench_payload(payload)
        assert payload["benchmark"] == "conflict_graph_build"
        (record,) = payload["records"]
        assert record["label"] == "n=30,m=20"
        (_, hypergraph, _, k) = bench.hypergraph_family(sizes=bench.SMOKE_SIZES)[0]
        assert record["peak_triples"] == k * hypergraph.total_edge_size()
        assert record["wall_time_s"] >= 0
        assert "legacy_wall_time_s" in record
        assert record["speedup"] > 0

    def test_maxis_payload_schema(self, smoke_run):
        out, _ = smoke_run
        payload = json.loads((out / bench.MAXIS_BENCH).read_text())
        bench.validate_bench_payload(payload)
        assert payload["benchmark"] == "maxis_solve"
        algorithms = {r["algorithm"] for r in payload["records"]}
        assert set(bench.MAXIS_ALGORITHMS) <= algorithms
        for record in payload["records"]:
            assert record["is_size"] > 0
            assert record["n"] == record["peak_triples"]  # conflict-graph workloads
            assert record["kernel_wall_time_s"] >= 0

    def test_reduction_payload_schema(self, smoke_run):
        out, _ = smoke_run
        payload = json.loads((out / bench.REDUCTION_BENCH).read_text())
        bench.validate_bench_payload(payload)
        assert payload["benchmark"] == "reduction_pipeline"
        oracles = {r["oracle"] for r in payload["records"]}
        assert f"first-fit@1/{bench.REDUCTION_LAM:g}" in oracles
        for record in payload["records"]:
            assert record["num_phases"] >= 1
            assert record["total_colors"] >= 1
            assert record["rebuild_wall_time_s"] >= 0
            assert record["speedup"] is None or record["speedup"] > 0
        capped = [r for r in payload["records"] if "@" in r["oracle"]]
        full = [r for r in payload["records"] if "@" not in r["oracle"]]
        # The λ-capped regime needs strictly more phases than full strength.
        assert min(r["num_phases"] for r in capped) >= max(r["num_phases"] for r in full)

    def test_campaign_payload_schema(self, smoke_run):
        out, _ = smoke_run
        payload = json.loads((out / bench.CAMPAIGN_BENCH).read_text())
        bench.validate_bench_payload(payload)
        assert payload["benchmark"] == "campaign_run"
        labels = [r["label"] for r in payload["records"]]
        assert labels[0] == "serial"
        assert any(label.startswith("workers=") for label in labels[1:])
        digests = {r["digest"] for r in payload["records"]}
        # Byte-identical aggregates: serial, pool, sharded-merged and
        # warm-pool runs all share one digest.
        assert len(digests) == 1
        serial = payload["records"][0]
        assert serial["workers"] == 1
        assert serial["speedup"] == 1.0
        assert serial["shards"] == 1
        assert serial["pool_warm"] is False
        # The bench spec sweeps two oracles per grid point, so half the
        # serial instance builds come from the in-process cache.
        assert serial["cache_hits"] == serial["tasks"] // 2
        by_label = {r["label"]: r for r in payload["records"]}
        sharded = by_label[f"shards={bench.CAMPAIGN_BENCH_SHARDS}"]
        assert sharded["shards"] == bench.CAMPAIGN_BENCH_SHARDS
        warm = next(r for r in payload["records"] if r["label"].endswith("-warm"))
        assert warm["pool_warm"] is True
        supervised = by_label["supervised"]
        assert supervised["shards"] == bench.CAMPAIGN_BENCH_SHARDS
        assert supervised["pool_warm"] is False
        for record in payload["records"]:
            assert record["tasks"] == record["n"]
            assert record["m"] == record["tasks"]  # every task completed
            assert record["tasks_per_s"] > 0
            # Fault-free bench: the fault-tolerance machinery never fires.
            assert record["restarts"] == 0
            assert record["timeouts"] == 0
            assert record["retried"] == 0

    def test_run_rejects_unknown_family(self, tmp_path):
        with pytest.raises(ValueError):
            bench.run(out_dir=str(tmp_path), smoke=True, families=["nope"])

    def test_run_family_subset(self, tmp_path):
        written = bench.run(
            out_dir=str(tmp_path), smoke=True, repeats=1, families=["reduction"]
        )
        assert set(written) == {"reduction"}
        assert not (tmp_path / bench.CONFLICT_GRAPH_BENCH).exists()
        payload = json.loads((tmp_path / bench.REDUCTION_BENCH).read_text())
        bench.validate_bench_payload(payload)

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            bench.validate_bench_payload({})
        with pytest.raises(ValueError):
            bench.validate_bench_payload(bench.make_payload("x", []))
        with pytest.raises(ValueError):
            bench.validate_bench_payload(
                bench.make_payload("x", [{"label": "w", "n": 1, "m": 1}])
            )
        bad_version = bench.make_payload(
            "x", [{"label": "w", "n": 1, "m": 1, "wall_time_s": 0.1, "peak_triples": 4}]
        )
        bad_version["schema_version"] = 999
        with pytest.raises(ValueError):
            bench.validate_bench_payload(bad_version)

    def test_cli_bench_subcommand(self, tmp_path, capsys):
        exit_code = cli_main(
            ["bench", "--smoke", "--out-dir", str(tmp_path), "--repeats", "1"]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "conflict_graph_build" in captured
        assert (tmp_path / bench.CONFLICT_GRAPH_BENCH).is_file()
        payload = json.loads((tmp_path / bench.CONFLICT_GRAPH_BENCH).read_text())
        bench.validate_bench_payload(payload)
