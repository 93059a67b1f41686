"""Tests for machine-readable experiment records."""

from __future__ import annotations

import json

from repro.analysis.records import ExperimentRecord, write_records


class TestRecordModel:
    def test_add_row(self):
        record = ExperimentRecord(experiment="X", description="demo")
        record.add_row(a=1, b=2)
        record.add_row(a=3)
        assert record.rows == [{"a": 1, "b": 2}, {"a": 3}]

    def test_to_dict_holds_every_field(self):
        record = ExperimentRecord(
            experiment="X", description="demo", rows=[{"a": 1}], metadata={"seed": 7}
        )
        assert ExperimentRecord(**json.loads(json.dumps(record.to_dict()))) == record

    def test_file_round_trip(self, tmp_path):
        records = [
            ExperimentRecord(experiment="A", description="one", rows=[{"x": 1}]),
            ExperimentRecord(experiment="B", description="two", rows=[]),
        ]
        path = tmp_path / "records.json"
        write_records(records, str(path))
        back = [ExperimentRecord(**item) for item in json.loads(path.read_text())]
        assert back == records
