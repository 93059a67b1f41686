"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCLI:
    def test_registry_command(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "maxis-approx" in out
        assert "complete" in out

    def test_reduce_command_small_instance(self, capsys):
        code = main(
            [
                "reduce",
                "--vertices", "20",
                "--edges", "12",
                "--palette", "2",
                "--oracle", "greedy-min-degree",
                "--lam", "4",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "conflict-free: True" in out
        assert "phases" in out

    def test_lemma21_command(self, capsys):
        assert main(["lemma21", "--vertices", "16", "--edges", "8", "--palette", "2"]) == 0
        out = capsys.readouterr().out
        assert "|I_f| (lemma a)" in out

    def test_models_command(self, capsys):
        assert main(["models", "--vertices", "30", "--probability", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "luby_rounds" in out

    def test_unknown_oracle_rejected(self):
        with pytest.raises(SystemExit):
            main(["reduce", "--oracle", "not-an-oracle"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401  (import must not execute main)


class TestCampaignCLI:
    SPEC = {
        "name": "cli-campaign",
        "seed": 5,
        "families": ["colorable"],
        "sizes": [[10, 6]],
        "ks": [2],
        "oracles": ["greedy-first-fit", "capped:greedy-first-fit"],
        "lams": [2.0],
        "replicates": 2,
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_run_status_report_round_trip(self, spec_path, tmp_path, capsys):
        out = tmp_path / "campaign"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out)]
        ) == 0
        run_output = capsys.readouterr().out
        assert "4/4 done" in run_output
        assert "aggregate digest: " in run_output
        digest = run_output.rsplit("aggregate digest: ", 1)[1].strip()

        assert main(["campaign", "status", "--out", str(out)]) == 0
        status_output = capsys.readouterr().out
        assert "cli-campaign" in status_output
        assert "pending" in status_output

        records_path = tmp_path / "records.json"
        assert main(
            ["campaign", "report", "--out", str(out), "--records", str(records_path)]
        ) == 0
        report_output = capsys.readouterr().out
        assert "C1" in report_output and "C2" in report_output
        assert digest in report_output
        assert records_path.is_file()

        from repro.analysis import read_records

        experiments = [record.experiment for record in read_records(str(records_path))]
        assert experiments == ["C1", "C2"]

    def test_run_with_workers_matches_serial_digest(self, spec_path, tmp_path, capsys):
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(tmp_path / "a")]
        ) == 0
        serial = capsys.readouterr().out.rsplit("aggregate digest: ", 1)[1].strip()
        assert main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--out", str(tmp_path / "b"),
                "--workers", "2",
            ]
        ) == 0
        parallel = capsys.readouterr().out.rsplit("aggregate digest: ", 1)[1].strip()
        assert serial == parallel

    def test_run_resumes_completed_campaign(self, spec_path, tmp_path, capsys):
        out = tmp_path / "campaign"
        main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert "4 resumed" in capsys.readouterr().out

    def test_missing_spec_file_errors(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        code = main(["campaign", "run", "--spec", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "campaign error" in capsys.readouterr().err

    def test_status_on_non_campaign_directory_errors(self, tmp_path, capsys):
        code = main(["campaign", "status", "--out", str(tmp_path / "nothing")])
        assert code == 2
        assert "campaign error" in capsys.readouterr().err

    def test_missing_campaign_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_status_reports_cache_counters(self, spec_path, tmp_path, capsys):
        out = tmp_path / "campaign"
        main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["campaign", "status", "--out", str(out)]) == 0
        status_output = capsys.readouterr().out
        assert "cache_hits" in status_output and "cache_misses" in status_output


class TestCampaignShardCLI:
    SPEC = dict(TestCampaignCLI.SPEC, name="cli-shard-campaign")

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def _digest(self, output: str) -> str:
        return output.rsplit("aggregate digest: ", 1)[1].strip()

    def test_sharded_runs_merge_to_the_serial_digest(self, spec_path, tmp_path, capsys):
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(tmp_path / "full")]
        ) == 0
        reference = self._digest(capsys.readouterr().out)

        for index in range(2):
            assert main(
                [
                    "campaign", "run",
                    "--spec", str(spec_path),
                    "--out", str(tmp_path / f"shard{index}"),
                    "--shard", f"{index}/2",
                ]
            ) == 0
            shard_output = capsys.readouterr().out
            assert f"shard {index}/2" in shard_output

        assert main(
            [
                "campaign", "merge",
                "--out", str(tmp_path / "merged"),
                str(tmp_path / "shard0"),
                str(tmp_path / "shard1"),
            ]
        ) == 0
        merge_output = capsys.readouterr().out
        assert "merged 2 shard store(s)" in merge_output
        assert "4/4 done" in merge_output
        assert self._digest(merge_output) == reference

    def test_partial_shard_status_report(self, spec_path, tmp_path, capsys):
        out = tmp_path / "shard0"
        assert main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--out", str(out),
                "--shard", "0/2",
            ]
        ) == 0
        run_output = capsys.readouterr().out
        assert main(["campaign", "status", "--out", str(out)]) == 0
        status_output = capsys.readouterr().out
        # The shard store holds only its own tasks: the rest stay pending.
        from repro.runtime import CampaignSpec, CampaignStore

        spec = CampaignSpec.from_dict(self.SPEC)
        done = len(CampaignStore(out).completed_keys())
        assert 0 < done < spec.num_tasks()
        assert f"shard 0/2 ({done} tasks)" in run_output
        assert str(spec.num_tasks() - done) in status_output

    def test_shard_index_out_of_range_exits_2(self, spec_path, tmp_path, capsys):
        code = main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--out", str(tmp_path / "out"),
                "--shard", "5/2",
            ]
        )
        assert code == 2
        assert "shard index" in capsys.readouterr().err

    def test_malformed_shard_argument_exits_2(self, spec_path, tmp_path, capsys):
        code = main(
            [
                "campaign", "run",
                "--spec", str(spec_path),
                "--out", str(tmp_path / "out"),
                "--shard", "zero/two",
            ]
        )
        assert code == 2
        assert "--shard must look like I/N" in capsys.readouterr().err

    def test_merge_mismatched_spec_digests_exits_2(self, spec_path, tmp_path, capsys):
        import json

        other_spec = tmp_path / "other.json"
        other_spec.write_text(json.dumps(dict(self.SPEC, seed=99)))
        main(["campaign", "run", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        main(["campaign", "run", "--spec", str(other_spec), "--out", str(tmp_path / "b")])
        capsys.readouterr()
        code = main(
            [
                "campaign", "merge",
                "--out", str(tmp_path / "merged"),
                str(tmp_path / "a"),
                str(tmp_path / "b"),
            ]
        )
        assert code == 2
        assert "refusing to merge" in capsys.readouterr().err

    def test_merge_missing_shard_directory_exits_2(self, tmp_path, capsys):
        code = main(
            ["campaign", "merge", "--out", str(tmp_path / "merged"), str(tmp_path / "nope")]
        )
        assert code == 2
        assert "campaign error" in capsys.readouterr().err

    def test_merge_requires_shard_arguments(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "merge", "--out", str(tmp_path / "merged")])


class TestCampaignStoreCLI:
    """The store-facing subcommands: compact, legacy refusal, single-read status."""

    SPEC = dict(TestCampaignCLI.SPEC, name="cli-store-campaign")

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def _digest(self, output: str) -> str:
        return output.rsplit("aggregate digest: ", 1)[1].strip()

    def test_compact_drops_superseded_rows_and_keeps_the_digest(
        self, spec_path, tmp_path, capsys
    ):
        from repro.runtime import CampaignStore

        out = tmp_path / "campaign"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out)]
        ) == 0
        reference = self._digest(capsys.readouterr().out)
        # Plant a superseded duplicate row, as a crash-and-retry would.
        store = CampaignStore(out)
        store.append(store.rows()[0])
        assert main(["campaign", "compact", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "5 -> 4 rows (1 superseded/duplicate dropped)" in output
        assert self._digest(output) == reference
        # Idempotent: a second compact finds nothing to drop.
        assert main(["campaign", "compact", "--out", str(out)]) == 0
        assert "4 -> 4 rows (0 superseded/duplicate dropped)" in capsys.readouterr().out

    def test_compact_on_non_campaign_directory_errors(self, tmp_path, capsys):
        assert main(["campaign", "compact", "--out", str(tmp_path / "nope")]) == 2
        assert "campaign error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--spec", "{spec}", "--out", "{legacy}"],
            ["supervise", "--spec", "{spec}", "--out", "{legacy}"],
            ["status", "--out", "{legacy}"],
            ["report", "--out", "{legacy}"],
            ["compact", "--out", "{legacy}"],
            ["merge", "--out", "{fresh}", "{legacy}"],
            ["merge", "--out", "{legacy}", "{shard}"],
        ],
        ids=[
            "run",
            "supervise",
            "status",
            "report",
            "compact",
            "merge-shard",
            "merge-destination",
        ],
    )
    def test_legacy_sqlite_directory_is_refused_not_rerun(
        self, spec_path, tmp_path, capsys, argv
    ):
        dirs = {name: tmp_path / name for name in ("legacy", "fresh", "shard")}
        for name in ("legacy", "shard"):
            dirs[name].mkdir()
            (dirs[name] / "spec.json").write_text(spec_path.read_text())
        (dirs["legacy"] / "results.sqlite").write_bytes(b"")
        fields = dict({name: str(path) for name, path in dirs.items()}, spec=str(spec_path))
        assert main(["campaign"] + [part.format(**fields) for part in argv]) == 2
        assert "results.sqlite" in capsys.readouterr().err
        assert not (dirs["legacy"] / "results.jsonl").exists()
        assert not (dirs["fresh"] / "results.jsonl").exists()

    def test_spec_naming_the_jsonl_store_resumes_the_same_campaign(
        self, spec_path, tmp_path, capsys
    ):
        import json

        out = tmp_path / "campaign"
        assert main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)]) == 0
        reference = self._digest(capsys.readouterr().out)
        legacy_spec = tmp_path / "legacy-spec.json"
        legacy_spec.write_text(json.dumps(dict(self.SPEC, store="jsonl")))
        # Same digest, so the directory accepts it as the same campaign.
        assert main(["campaign", "run", "--spec", str(legacy_spec), "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "4/4 done" in output
        assert self._digest(output) == reference

    def test_spec_naming_the_sqlite_store_exits_2(self, tmp_path, capsys):
        import json

        legacy_spec = tmp_path / "sqlite-spec.json"
        legacy_spec.write_text(json.dumps(dict(self.SPEC, store="sqlite")))
        out = tmp_path / "campaign"
        assert main(["campaign", "run", "--spec", str(legacy_spec), "--out", str(out)]) == 2
        assert "removed" in capsys.readouterr().err
        assert not out.exists()

    def test_status_reads_the_row_log_at_most_once(
        self, spec_path, tmp_path, capsys, monkeypatch
    ):
        import builtins

        out = tmp_path / "campaign"
        assert main(
            ["campaign", "run", "--spec", str(spec_path), "--out", str(out)]
        ) == 0
        capsys.readouterr()

        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if "results.jsonl" in str(file):
                opens.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        # Warm: the run already built the aggregate sidecar, so status
        # answers from it without touching the row log at all.
        assert main(["campaign", "status", "--out", str(out)]) == 0
        assert len(opens) == 0, f"warm status re-read the row log: {opens}"
        # Cold: with the sidecar gone, one single scan rebuilds it — the
        # old code opened the log 3-4 times for the same command.
        (out / "aggregates.json").unlink()
        assert main(["campaign", "status", "--out", str(out)]) == 0
        assert len(opens) == 1, f"cold status read the row log {len(opens)} times"
