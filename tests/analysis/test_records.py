"""Tests for machine-readable experiment records."""

from __future__ import annotations

import json

import pytest

from repro.analysis.records import ExperimentRecord, write_records
from repro.exceptions import ReproError


class TestRecordModel:
    def test_add_row_and_column(self):
        record = ExperimentRecord(experiment="X", description="demo")
        record.add_row(a=1, b=2)
        record.add_row(a=3)
        assert record.column("a") == [1, 3]
        assert record.column("b") == [2, None]

    def test_json_round_trip(self):
        record = ExperimentRecord(
            experiment="X", description="demo", rows=[{"a": 1}], metadata={"seed": 7}
        )
        back = ExperimentRecord.from_json(record.to_json())
        assert back == record

    def test_from_dict_requires_mandatory_fields(self):
        with pytest.raises(ReproError):
            ExperimentRecord.from_dict({"experiment": "X", "rows": []})

    def test_file_round_trip(self, tmp_path):
        records = [
            ExperimentRecord(experiment="A", description="one", rows=[{"x": 1}]),
            ExperimentRecord(experiment="B", description="two", rows=[]),
        ]
        path = tmp_path / "records.json"
        write_records(records, str(path))
        back = [ExperimentRecord.from_dict(item) for item in json.loads(path.read_text())]
        assert back == records
