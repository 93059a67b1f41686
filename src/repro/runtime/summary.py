"""Per-task sufficient statistics for incremental campaign aggregation.

The deterministic aggregates (``C1`` phase decay, ``C2`` color budgets —
see :mod:`repro.runtime.aggregate`) need only a handful of numbers per
task, not the full serialized reduction result: the per-phase surviving
edge counts, the distinct-color total, and the color bound.
:func:`summarize_row` extracts exactly those into a small JSON-safe
*summary* dict, and :func:`records_from_summaries` rebuilds the
experiment records from a ``{task_key: summary}`` mapping.

This split is what makes report cost O(new rows): the store persists the
summary mapping next to the raw rows (``aggregates.json``) together with
a byte cursor into the row log, so a later report only summarizes rows
appended since the cursor and merges them into the persisted mapping
(last write per task key wins, exactly like the row store).

Digest safety is by construction, not by parallel implementations:
:func:`repro.runtime.aggregate.campaign_records` — the retained
differential reference that always re-reads every row — itself reduces
rows to summaries and calls :func:`records_from_summaries`, so the
incremental path shares every float operation (same values, summed in
the same sorted-task-key order) with the reference and
``campaign_digest`` is byte-identical whichever path produced the
records.  Summaries survive a JSON round trip losslessly (counts are
ints; the only floats, ``color_bound`` values, round-trip exactly), so
persisting them changes nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.analysis.records import ExperimentRecord
from repro.runtime.spec import CampaignSpec

#: Format version of persisted summary mappings; bump on layout changes
#: so stale sidecars are rebuilt instead of misread.
SUMMARY_VERSION = 1


def format_duration(seconds: float) -> str:
    """Render a duration humanized: ``417µs``, ``62ms``, ``3.1s``, ``2m03s``, ``1h04m``.

    The shared timing formatter of ``repro campaign status`` / ``report``
    and ``repro trace summary`` — raw ``%.2f`` seconds read terribly for
    both microsecond phases and hour-long supervised runs.  Values keep
    three significant digits below a minute and switch to mixed units
    above.
    """
    if seconds != seconds:  # NaN
        return "nan"
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds == 0:
        return "0s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.3g}ms"
    if seconds < 60:
        return f"{seconds:.3g}s"
    if seconds < 3600:
        minutes, rest = divmod(seconds, 60)
        return f"{int(minutes)}m{int(rest):02d}s"
    hours, rest = divmod(seconds, 3600)
    return f"{int(hours)}h{int(rest // 60):02d}m"


def total_colors_of(result: Dict[str, Any]) -> int:
    """Distinct colors of a serialized reduction result (without reconstructing it)."""
    colors = set()
    for _vertex, vertex_colors in result["multicoloring"]:
        colors.update((phase, c) for phase, c in vertex_colors)
    return len(colors)


def summarize_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """Reduce one result row to the statistics the aggregates need.

    Every summary carries the row's ``status`` plus, when present, the
    query-side fields (``oracle``, ``k``, ``attempt``,
    ``instance_cache_hit``) so status reporting can run off summaries
    alone.  A ``"done"`` row with a serialized result additionally
    carries the C1/C2 sufficient statistics; rows without one (failures,
    timeouts, synthetic test rows) summarize to just the light fields and
    are excluded from the deterministic records exactly like before.
    """
    summary: Dict[str, Any] = {"status": row["status"]}
    for key in ("oracle", "k", "attempt", "instance_cache_hit"):
        if key in row:
            summary[key] = row[key]
    result = row.get("result")
    if row["status"] == "done" and isinstance(result, dict) and "color_bound" in result:
        phases = result["phases"]
        summary["phases"] = len(phases)
        summary["edges_after"] = [phase["edges_after"] for phase in phases]
        if phases:
            summary["edges_initial"] = phases[0]["edges_before"]
        summary["total_colors"] = total_colors_of(result)
        summary["color_bound"] = result["color_bound"]
    return summary


def _metadata(spec: CampaignSpec, tasks_done: int, tasks_failed: int) -> Dict[str, Any]:
    return {
        "campaign": spec.name,
        "seed": spec.seed,
        "spec_digest": spec.digest(),
        "tasks_total": spec.num_tasks(),
        "tasks_done": tasks_done,
        "tasks_failed": tasks_failed,
    }


def records_from_summaries(
    spec: CampaignSpec, summaries: Mapping[str, Mapping[str, Any]]
) -> List[ExperimentRecord]:
    """Build the deterministic records (C1, C2) from a summary mapping.

    Summaries are processed in sorted-task-key order — the same order the
    full-row reference path uses — so every float accumulation happens on
    the same values in the same order and the resulting records (hence
    ``campaign_digest``) are byte-identical to the reference's.
    """
    done = [summaries[key] for key in sorted(summaries) if summaries[key]["status"] == "done"]
    failed = len(summaries) - len(done)
    metadata = _metadata(spec, len(done), failed)

    decay = ExperimentRecord(
        experiment="C1",
        description="per-oracle phase decay: mean fraction of edges surviving each phase",
        metadata=dict(metadata),
    )
    by_oracle: Dict[str, List[Mapping[str, Any]]] = {}
    for summary in done:
        if summary.get("edges_after"):
            by_oracle.setdefault(summary["oracle"], []).append(summary)
    for oracle in sorted(by_oracle):
        tasks = by_oracle[oracle]
        max_phases = max(len(summary["edges_after"]) for summary in tasks)
        for phase in range(1, max_phases + 1):
            remaining_sum = 0.0
            active = 0
            for summary in tasks:
                edges_after = summary["edges_after"]
                if len(edges_after) >= phase:
                    active += 1
                    remaining_sum += edges_after[phase - 1] / summary["edges_initial"]
            decay.add_row(
                oracle=oracle,
                phase=phase,
                tasks=len(tasks),
                active_tasks=active,
                mean_remaining_fraction=remaining_sum / len(tasks),
            )

    budget = ExperimentRecord(
        experiment="C2",
        description="per-(oracle, k) phases and color budgets of the reduction",
        metadata=dict(metadata),
    )
    groups: Dict[tuple, List[Mapping[str, Any]]] = {}
    for summary in done:
        if "color_bound" in summary:
            groups.setdefault((summary["oracle"], summary["k"]), []).append(summary)
    for oracle, k in sorted(groups):
        tasks = groups[(oracle, k)]
        num_phases = [summary["phases"] for summary in tasks]
        total_colors = [summary["total_colors"] for summary in tasks]
        color_bounds = [summary["color_bound"] for summary in tasks]
        within = sum(
            1 for colors, bound in zip(total_colors, color_bounds) if colors <= bound
        )
        budget.add_row(
            oracle=oracle,
            k=k,
            tasks=len(tasks),
            mean_phases=sum(num_phases) / len(tasks),
            max_phases=max(num_phases),
            mean_total_colors=sum(total_colors) / len(tasks),
            max_total_colors=max(total_colors),
            mean_color_bound=sum(color_bounds) / len(tasks),
            within_color_bound_fraction=within / len(tasks),
        )
    return [decay, budget]
