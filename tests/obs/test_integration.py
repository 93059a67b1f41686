"""Observability integration: instrumentation must not perturb results.

The hard invariant of the obs layer — campaign digests and row content
are byte-identical with tracing on and off, the persisted ``metrics.json``
covers the catalog the future scrape endpoint needs, and
:class:`CampaignRunStats` is a faithful projection of the registry
deltas.  Also exercises the three new CLI surfaces: ``campaign run
--trace``, ``campaign metrics`` and ``trace summary``.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.runtime import (
    CampaignSpec,
    InlineExecutor,
    ShardCoordinator,
    campaign_digest,
    campaign_records,
    open_store,
    run_campaign,
)

from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS


def small_spec(name="obs-int") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        seed=11,
        families=("colorable", "uniform"),
        sizes=((10, 6),),
        ks=(2,),
        oracles=("greedy-first-fit",),
        lams=(2.0,),
        replicates=2,
    )


def digest_of(spec, directory):
    return campaign_digest(campaign_records(spec, open_store(directory).rows()))


def deterministic_rows(directory):
    return {
        key: {k: v for k, v in row.items() if k not in NONDETERMINISTIC_ROW_FIELDS}
        for key, row in open_store(directory).latest_rows().items()
    }


class TestTracingDoesNotPerturbResults:
    def test_traced_run_is_byte_identical_to_untraced(self, tmp_path):
        spec = small_spec()
        plain = run_campaign(spec, tmp_path / "plain", workers=0)
        traced = run_campaign(spec, tmp_path / "traced", workers=0, trace=True)
        assert (plain.executed, plain.failed) == (traced.executed, traced.failed)
        assert deterministic_rows(tmp_path / "plain") == deterministic_rows(
            tmp_path / "traced"
        )
        assert digest_of(spec, tmp_path / "plain") == digest_of(
            spec, tmp_path / "traced"
        )
        valid, skipped = obs.validate_trace(tmp_path / "traced" / obs.TRACE_FILENAME)
        assert skipped == 0 and valid > 0
        # The untraced run wrote no sidecar.
        assert not (tmp_path / "plain" / obs.TRACE_FILENAME).exists()

    def test_traced_pool_run_matches_serial_digest(self, tmp_path):
        spec = small_spec("obs-int-pool")
        reference = run_campaign(spec, tmp_path / "serial", workers=0)
        assert reference.failed == 0
        run_campaign(spec, tmp_path / "pool", workers=2, trace=True)
        assert digest_of(spec, tmp_path / "pool") == digest_of(
            spec, tmp_path / "serial"
        )

    def test_traced_supervised_run_matches_serial_digest(self, tmp_path):
        spec = small_spec("obs-int-sup")
        run_campaign(spec, tmp_path / "serial", workers=0)
        report = ShardCoordinator(
            spec,
            tmp_path / "supervised",
            n_shards=2,
            executor=InlineExecutor(),
            poll_interval_s=0.01,
            trace=True,
        ).run()
        assert report.digest == digest_of(spec, tmp_path / "serial")
        valid, skipped = obs.validate_trace(
            tmp_path / "supervised" / obs.TRACE_FILENAME
        )
        assert skipped == 0 and valid > 0
        assert (tmp_path / "supervised" / obs.METRICS_FILENAME).exists()

    def test_trace_sidecar_holds_the_execution_tree(self, tmp_path):
        spec = small_spec("obs-int-tree")
        run_campaign(spec, tmp_path / "run", workers=0, trace=True)
        records = obs.read_trace(tmp_path / "run" / obs.TRACE_FILENAME)
        spans = [r for r in records if r["type"] == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["campaign_run"]) == 1
        assert len(by_name["task"]) == spec.num_tasks()
        run_id = by_name["campaign_run"][0]["span_id"]
        assert all(task["parent_id"] == run_id for task in by_name["task"])
        # Phases nest under tasks (subset: cache hits skip instance_build).
        task_ids = {task["span_id"] for task in by_name["task"]}
        assert by_name["phase"] and all(
            phase["parent_id"] in task_ids for phase in by_name["phase"]
        )
        statuses = [r["attrs"]["status"] for r in by_name["task"]]
        assert statuses.count("done") == spec.num_tasks()


class TestMetricsSnapshot:
    REQUIRED_FAMILIES = (
        "repro_tasks_started_total",
        "repro_tasks_completed_total",
        "repro_task_duration_seconds",
        "repro_instance_cache_total",
        "repro_pool_dispatch_total",
        "repro_campaign_tasks_per_second",
        "repro_store_rows_appended_total",
        "repro_store_flushes_total",
        "repro_phase_duration_seconds",
    )

    def test_every_run_persists_a_snapshot_covering_the_catalog(self, tmp_path):
        spec = small_spec("obs-int-snap")
        run_campaign(spec, tmp_path / "run", workers=0)
        snapshot = obs.load_snapshot(tmp_path / "run" / obs.METRICS_FILENAME)
        populated = {m["name"] for m in snapshot["metrics"] if m["samples"]}
        missing = [name for name in self.REQUIRED_FAMILIES if name not in populated]
        assert not missing, f"snapshot lacks samples for {missing}"
        text = obs.render_snapshot(snapshot)
        assert f'repro_tasks_started_total{{campaign="{spec.name}"}}' in text
        assert 'repro_task_duration_seconds_bucket' in text

    def test_stats_are_a_projection_of_registry_deltas(self, tmp_path):
        spec = small_spec("obs-int-proj")
        registry = obs.get_registry()
        hits = registry.counter(
            "repro_instance_cache_total",
            "",
            labels=("campaign", "outcome"),
        ).labels(spec.name, "hit")
        before = hits.value
        stats = run_campaign(spec, tmp_path / "first", workers=0)
        assert stats.cache_hits == hits.value - before
        # A second run of the same campaign re-reads the registry from a
        # fresh baseline: fully-resumed runs report zero, not the global
        # running total.
        resumed = run_campaign(spec, tmp_path / "first", workers=0)
        assert resumed.executed == 0
        assert resumed.cache_hits == 0 and resumed.cache_misses == 0


class TestCli:
    def run_traced(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec("obs-int-cli").to_json())
        out = tmp_path / "out"
        code = main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out), "--trace"]
        )
        assert code == 0
        capsys.readouterr()
        return out

    def test_campaign_metrics_renders_prometheus_text(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["campaign", "metrics", str(out)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_tasks_started_total counter" in text
        assert 'repro_tasks_started_total{campaign="obs-int-cli"}' in text
        assert "repro_task_duration_seconds_bucket" in text

    def test_campaign_metrics_json_mode(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["campaign", "metrics", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == obs.SNAPSHOT_VERSION
        assert any(m["name"] == "repro_tasks_started_total" for m in payload["metrics"])

    def test_campaign_metrics_without_snapshot_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "metrics", str(tmp_path)]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_trace_summary_aggregates_spans(self, tmp_path, capsys):
        out = self.run_traced(tmp_path, capsys)
        assert main(["trace", "summary", str(out), "--limit", "2"]) == 0
        text = capsys.readouterr().out
        assert "campaign_run" in text and "task" in text and "phase" in text
        assert "slowest 2 span(s):" in text

    def test_trace_summary_without_sidecar_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path)]) == 2
        assert "no trace sidecar" in capsys.readouterr().err

    def test_supervise_cli_accepts_trace(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec("obs-int-cli-sup").to_json())
        out = tmp_path / "sup"
        code = main(
            [
                "campaign",
                "supervise",
                "--spec",
                str(spec_path),
                "--out",
                str(out),
                "--shards",
                "2",
                "--trace",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out)]) == 0
        assert "supervise" in capsys.readouterr().out
