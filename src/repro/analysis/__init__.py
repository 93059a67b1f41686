"""Analysis utilities: phase-decay statistics, metrics, table formatting."""

from repro.analysis.phase_stats import (
    DecayCurve,
    decay_curve,
    effective_lambda,
    geometric_fit_rate,
    observed_removal_fractions,
    phase_summary,
    phases_needed_at_rate,
    run_summary,
)
from repro.analysis.metrics import approximator_quality_table, mis_model_comparison
from repro.analysis.records import (
    ExperimentRecord,
    read_records,
    record_model_gap,
    record_oracle_quality,
    record_phase_decay,
    write_records,
)
from repro.analysis.tables import format_records, format_table

__all__ = [
    "DecayCurve",
    "decay_curve",
    "effective_lambda",
    "geometric_fit_rate",
    "observed_removal_fractions",
    "phase_summary",
    "phases_needed_at_rate",
    "run_summary",
    "approximator_quality_table",
    "mis_model_comparison",
    "ExperimentRecord",
    "read_records",
    "record_model_gap",
    "record_oracle_quality",
    "record_phase_decay",
    "write_records",
    "format_records",
    "format_table",
]
