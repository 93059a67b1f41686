"""Tests of the benchmark's own code: self-time arithmetic, metric names, workload generation.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import ledger  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def per_layer() -> list:
    return [(entry["name"], entry["unit"]) for entry in benchmark_json()["per_layer"]]


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_of_a_synthetic_tree_sum_to_the_root():
    # root [0, 10] ⊃ a [1, 4] ⊃ b [2, 3];  root ⊃ c [5, 9];  a second root [20, 21].
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("c", 0, 5.0, 9.0),
        ("root", None, 20.0, 21.0),
    ]
    totals = ledger.self_times(spans)
    assert totals == {"root": 4.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(totals.values()) == 11.0


def test_self_time_merges_repeated_names():
    spans = [("root", None, 0.0, 6.0), ("x", 0, 0.0, 1.0), ("x", 0, 2.0, 4.0), ("x", 2, 2.5, 3.0)]
    assert ledger.self_times(spans) == {"root": 3.0, "x": 3.0}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_wrappers_record_only_under_a_root_span():
    book = ledger.Ledger(clock=FakeClock())
    calls = []
    wrapped = ledger._wrap(book, lambda value: calls.append(value) or value, "layer.x_s")
    assert wrapped(1) == 1
    assert book.spans == []
    with book.root():
        assert wrapped(2) == 2
    assert calls == [1, 2]
    assert [span[0] for span in book.spans] == [ledger.ROOT, "layer.x_s"]
    totals = book.self_times()
    assert sum(totals.values()) == book.traced_wall_s()
    assert "total = traced wall" in ledger.layer_table(book)


def test_layer_metrics_are_per_operation_and_complete():
    book = ledger.Ledger(clock=FakeClock())
    for _ in range(2):
        with book.root():
            index = book.open("conflict_graph.build_s")
            book.close(index)
    book.count("conflict_graph.builds", 4)
    values = ledger.layer_metrics(book, per_layer(), operations=2, untraced_wall_s=4.0, untraced_operations=2)
    assert set(values) == {name for name, _unit in per_layer()}
    assert values["conflict_graph.build_s"] == 1.0
    assert values["conflict_graph.builds"] == 2.0
    assert values["trace.traced_wall_s"] == 3.0
    assert values["trace.overhead"] == 1.5
    assert values["maxis.greedy-min-degree.solve_s"] == 0.0


def test_collections_get_their_own_span():
    book = ledger.Ledger(clock=FakeClock())
    with ledger.installed(book):
        with book.root():
            gc.collect()
        gc.collect()
    names = [span[0] for span in book.spans]
    assert names.count("gc.collect_s") == 1
    assert book.spans[names.index("gc.collect_s")][1] == 0
    assert all(span[3] is not None for span in book.spans)


def test_counts_are_deltas_of_the_program_counters():
    from repro.obs.metrics import get_registry

    phases = get_registry().counter("repro_reduction_phases_total", "")
    phases.inc(5)
    book = ledger.Ledger()
    with ledger.installed(book):
        phases.inc(3)
    assert book.counts["reduction.phases"] == 3


def test_installed_restores_every_entry_point():
    hooks = ledger._hooks()
    before = [owner.__dict__[attribute] for owner, attribute, *_ in hooks]
    with ledger.installed(ledger.Ledger()):
        assert [owner.__dict__[attribute] for owner, attribute, *_ in hooks] != before
    assert [owner.__dict__[attribute] for owner, attribute, *_ in hooks] == before


# ----------------------------------------------------------------------
# end-to-end arithmetic
# ----------------------------------------------------------------------
def test_end_to_end_scales_every_time_to_the_reference_host():
    import run

    def result(seconds: float, scale: float):
        return workloads.OpResult(
            spec=None, directory=Path(str(seconds)), tasks=10, expected=10, failed=0, digest="",
            run_s=seconds, resume_s=seconds / 10, report_s=seconds / 5,
            gaps_s=[seconds / 10] * 10, scale=scale,
        )

    # The same work measured on a host at full and at half speed.
    metrics = run.end_to_end([result(1.0, 2.0), result(2.0, 1.0)], setup_s=1.5, peak_mb=5.0)
    assert metrics["tasks_per_s"] == (5.0, "tasks/s")
    assert metrics["task_ms.p50"] == (200.0, "ms")
    assert metrics["task_ms.p99"] == (200.0, "ms")
    assert metrics["resume_s"] == (0.2, "s")
    assert metrics["report_s"] == (0.4, "s")
    assert metrics["setup_s"] == (1.5, "s")


def test_host_scale_is_the_reference_over_the_calibration_time(monkeypatch):
    import run

    monkeypatch.setattr(run, "calibration_seconds", lambda: 0.02)
    assert run.host_scale() == run.REFERENCE_CALIBRATION_S / 0.02


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_every_name_and_unit_is_valid_and_used_once():
    data = benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in data[key]]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for entry in data[key]:
            assert UNIT.match(entry["unit"]), entry


def test_workload_names_match_the_benchmark():
    assert [entry["name"] for entry in benchmark_json()["workloads"]] == list(workloads.WORKLOADS)


def test_capped_oracles_are_spelled_with_a_dash():
    assert ledger.maxis_metric("greedy-first-fit@1/2") == "maxis.capped-greedy-first-fit.solve_s"
    assert ledger.maxis_metric("greedy-min-degree") == "maxis.greedy-min-degree.solve_s"
    declared = {name for name, _unit in per_layer()}
    for workload in workloads.WORKLOADS.values():
        for oracle in workload.make_spec(1).oracles:
            name = oracle.replace("capped:", "capped-")
            assert f"maxis.{name}.solve_s" in declared
            assert ":" not in name


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def test_workloads_are_deterministic_in_the_seed(tmp_path):
    for workload_class in workloads.WORKLOADS.values():
        first = workload_class(7, tmp_path)
        again = workload_class(7, tmp_path)
        other = workload_class(8, tmp_path)
        for index in (0, 3):
            assert first.spec_for(index).task_payloads() == again.spec_for(index).task_payloads()
            assert first.spec_for(index).digest() != other.spec_for(index).digest()


def test_compute_operations_use_distinct_campaign_seeds(tmp_path):
    workload = workloads.KernelMix(7, tmp_path)
    seeds = {workload.spec_for(index).seed for index in range(50)}
    assert len(seeds) == 50
    resume = workloads.ResumeLarge(7, tmp_path)
    resume.stores = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    assert [resume.spec_for(index).seed for index in range(4)] == [7000, 7001, 7002, 7000]


def test_pinned_specs_do_not_depend_on_the_seed(tmp_path):
    for workload_class in workloads.WORKLOADS.values():
        assert workload_class(7, tmp_path).pinned_spec() == workload_class(8, tmp_path).pinned_spec()


def test_pinned_digests_cover_every_workload():
    assert set(workloads.PINNED_DIGESTS) == set(workloads.WORKLOADS)
    assert all(len(digest) == 64 for digest in workloads.PINNED_DIGESTS.values())
