"""Machine-readable experiment records.

Downstream users often want experiment data as JSON (to plot decay
curves, compare oracles across machines, or archive runs).  This module
provides a small record model — an :class:`ExperimentRecord` is a named
collection of homogeneous rows plus free-form metadata — together with
JSON round-trip helpers.  The campaign aggregate (:mod:`repro.runtime`)
builds its records with it, and ``repro campaign report --records`` writes
them with :func:`write_records`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.exceptions import ReproError


@dataclass
class ExperimentRecord:
    """One experiment's data: an identifier, metadata, and a list of row dicts.

    Attributes
    ----------
    experiment:
        Identifier such as ``"E3"``.
    description:
        One-line description of what the rows contain.
    rows:
        Homogeneous list of dictionaries (one per table row).
    metadata:
        Free-form run metadata (seeds, parameter sweeps, versions).
    """

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one row."""
        self.rows.append(dict(values))

    def column(self, key: str) -> List[Any]:
        """Return one column across all rows (missing values become ``None``)."""
        return [row.get(key) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "metadata": dict(self.metadata),
            "rows": [dict(row) for row in self.rows],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentRecord":
        """Inverse of :meth:`to_dict`."""
        for key in ("experiment", "description", "rows"):
            if key not in data:
                raise ReproError(f"experiment record is missing the {key!r} field")
        return cls(
            experiment=data["experiment"],
            description=data["description"],
            rows=[dict(row) for row in data["rows"]],
            metadata=dict(data.get("metadata", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def write_records(records: List[ExperimentRecord], path: str) -> None:
    """Write a list of records as one JSON document at ``path``."""
    payload = [record.to_dict() for record in records]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
