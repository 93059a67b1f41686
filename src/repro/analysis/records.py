"""Machine-readable experiment records.

Downstream users often want experiment data as JSON (to plot decay
curves, compare oracles across machines, or archive runs).  This module
provides a small record model — an :class:`ExperimentRecord` is a named
collection of homogeneous rows plus free-form metadata.  The campaign
aggregate (:mod:`repro.runtime`) builds its records with it, and
``repro campaign report --records`` writes them as JSON with
:func:`write_records`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


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

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "metadata": dict(self.metadata),
            "rows": [dict(row) for row in self.rows],
        }


def write_records(records: List[ExperimentRecord], path: str) -> None:
    """Write a list of records as one JSON document at ``path``."""
    payload = [record.to_dict() for record in records]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
