"""Analysis utilities: phase-decay statistics, the E7 model comparison,
experiment records and table formatting."""

from repro.analysis.phase_stats import (
    DecayCurve,
    decay_curve,
    effective_lambda,
    observed_removal_fractions,
    phase_summary,
    run_summary,
)
from repro.analysis.metrics import mis_model_comparison
from repro.analysis.records import ExperimentRecord, write_records
from repro.analysis.tables import format_records, format_table

__all__ = [
    "DecayCurve",
    "decay_curve",
    "effective_lambda",
    "observed_removal_fractions",
    "phase_summary",
    "run_summary",
    "mis_model_comparison",
    "ExperimentRecord",
    "write_records",
    "format_records",
    "format_table",
]
