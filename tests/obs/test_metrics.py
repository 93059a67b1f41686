"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`).

Covers the registry contract the runtime instrumentation leans on:
idempotent registration, bounded label cardinality, exact histogram
bucket-edge placement, thread-safe increments under a real thread pool,
and byte-stable Prometheus rendering pinned by a golden file.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.exceptions import ObsError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_value,
    load_snapshot,
    render_snapshot,
)

GOLDEN_PATH = Path(__file__).with_name("golden_prometheus.txt")


def golden_registry() -> MetricsRegistry:
    """A registry with fixed, hand-picked values — the golden file pins its text.

    Regenerate the golden file after an intentional format change with::

        PYTHONPATH=src python -c "from tests.obs.test_metrics import *; \
            GOLDEN_PATH.write_text(render_snapshot(golden_registry().snapshot()))"
    """
    registry = MetricsRegistry()
    tasks = registry.counter(
        "golden_tasks_total", "Tasks processed.", labels=("campaign", "status")
    )
    tasks.labels("demo", "done").inc(7)
    tasks.labels("demo", "failed").inc()
    registry.counter("golden_events_total", "Label-less events.").inc(3)
    registry.gauge("golden_queue_depth", "Pending tasks.").set(2.5)
    duration = registry.histogram(
        "golden_duration_seconds",
        "Task durations.",
        labels=("campaign",),
        buckets=(0.1, 1.0, 10.0),
    )
    for value in (0.05, 0.1, 0.5, 2.0, 30.0):
        duration.labels("demo").observe(value)
    escapes = registry.gauge(
        "golden_escapes", 'Label values with "quotes", \\ and newlines.', labels=("text",)
    )
    escapes.labels('say "hi"\\\n').set(1)
    return registry


class TestCounterAndGauge:
    def test_counter_counts_and_refuses_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ObsError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 3.5

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0, 2.0))
        # Exactly-on-the-edge values land in their bucket (le semantics);
        # anything above the last bound lands in the +Inf overflow.
        for value in (0.5, 1.0, 1.0000001, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.labels().bucket_counts() == [2, 2, 1]
        assert histogram.labels().count == 5
        assert histogram.labels().sum == pytest.approx(7.5000001)

    def test_rendering_is_cumulative_with_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        text = render_snapshot(registry.snapshot())
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_default_buckets_are_sorted_and_distinct(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_unsorted_or_empty_buckets_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError, match="buckets"):
            registry.histogram("h1", "help", buckets=(2.0, 1.0))
        with pytest.raises(ObsError, match="buckets"):
            registry.histogram("h2", "help", buckets=())


class TestRegistration:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("a",))
        second = registry.counter("c_total", "other help", labels=("a",))
        assert first is second

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ObsError, match="already registered"):
            registry.gauge("c_total", "help")
        with pytest.raises(ObsError, match="already registered"):
            registry.counter("c_total", "help", labels=("other",))

    @pytest.mark.parametrize("name", ["", "0starts_with_digit", "has space", "has-dash"])
    def test_invalid_metric_names_are_rejected(self, name):
        with pytest.raises(ObsError, match="invalid metric name"):
            MetricsRegistry().counter(name, "help")

    @pytest.mark.parametrize("label", ["", "0digit", "has space", "le:"])
    def test_invalid_label_names_are_rejected(self, label):
        with pytest.raises(ObsError, match="invalid label name"):
            MetricsRegistry().counter("c_total", "help", labels=(label,))

    def test_duplicate_label_names_are_rejected(self):
        with pytest.raises(ObsError, match="duplicate label names"):
            MetricsRegistry().counter("c_total", "help", labels=("a", "a"))


class TestLabels:
    def test_label_sets_get_distinct_children(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("status",))
        family.labels("done").inc(2)
        family.labels("failed").inc()
        assert family.labels("done").value == 2
        assert family.labels("failed").value == 1
        assert [values for values, _ in family.children()] == [("done",), ("failed",)]

    def test_label_count_mismatch_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("a", "b"))
        with pytest.raises(ObsError, match="takes 2 label"):
            family.labels("only-one")

    def test_cardinality_bound_is_enforced(self, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.MAX_LABEL_SETS", 3)
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("key",))
        for i in range(3):
            family.labels(str(i)).inc()
        with pytest.raises(ObsError, match="cardinality bound"):
            family.labels("one-too-many")
        # Existing children stay reachable after the refusal.
        assert family.labels("0").value == 1

    def test_cardinality_bound_is_per_family(self, monkeypatch):
        monkeypatch.setattr("repro.obs.metrics.MAX_LABEL_SETS", 2)
        registry = MetricsRegistry()
        first = registry.counter("a_total", "help", labels=("key",))
        second = registry.gauge("b", "help", labels=("key",))
        for family in (first, second):
            family.labels("x").inc()
            family.labels("y").inc()
        with pytest.raises(ObsError, match="'b' exceeded"):
            second.labels("z")

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", "help", labels=("shard",))
        family.labels(3).set(1)
        assert family.labels("3").value == 1


class TestLabelLessChild:
    """A label-less family keeps its one child: the proxies skip ``labels()`` after first use."""

    def test_proxies_work_once_labels_refuses(self, monkeypatch):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        gauge = registry.gauge("g", "help")
        histogram = registry.histogram("h", "help", buckets=(1.0,))
        counter.inc()
        gauge.set(1)
        histogram.observe(0.5)

        def refuse(*values):
            raise AssertionError("labels() resolved a label-less child again")

        for family in (counter, gauge, histogram):
            monkeypatch.setattr(family, "labels", refuse)
        counter.inc(2)
        gauge.inc(5)
        gauge.dec(2)
        gauge.set(gauge.value * 2)
        histogram.observe(3.0)
        assert counter.value == 3
        assert gauge.value == 8
        monkeypatch.undo()
        assert histogram.labels().bucket_counts() == [1, 1]
        assert [values for values, _ in counter.children()] == [()]

    def test_a_labeled_family_still_refuses_the_proxies(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("status",))
        family.labels("done").inc()
        for proxy in (family.inc, family.dec, family.set, family.observe):
            with pytest.raises(ObsError, match="takes 1 label"):
                proxy(1)
        with pytest.raises(ObsError, match="takes 1 label"):
            family.value

    def test_an_untouched_family_renders_no_sample(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        assert registry.snapshot()["metrics"][0]["samples"] == []
        assert render_snapshot(registry.snapshot()) == "# HELP c_total help\n# TYPE c_total counter\n"


class TestConcurrency:
    def test_concurrent_increments_from_a_thread_pool_are_lossless(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labels=("worker",))
        histogram = registry.histogram("h", "help", buckets=(0.5,))
        threads, per_thread = 8, 2000
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()  # maximize interleaving
            child = counter.labels(str(worker % 2))
            for _ in range(per_thread):
                child.inc()
                histogram.observe(0.25)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(hammer, range(threads)))
        total = sum(child.value for _, child in counter.children())
        assert total == threads * per_thread
        assert histogram.labels().count == threads * per_thread
        assert histogram.labels().bucket_counts() == [threads * per_thread, 0]


class TestRendering:
    def test_prometheus_text_matches_the_golden_file(self):
        assert render_snapshot(golden_registry().snapshot()) == GOLDEN_PATH.read_text(
            encoding="utf-8"
        )

    def test_two_identical_registries_render_identically(self):
        assert (
            render_snapshot(golden_registry().snapshot())
            == render_snapshot(golden_registry().snapshot())
        )

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(-2.0) == "-2"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"

    def test_empty_registry_renders_empty(self):
        assert render_snapshot(MetricsRegistry().snapshot()) == ""


class TestSnapshotPersistence:
    def test_snapshot_roundtrips_through_disk(self, tmp_path):
        registry = golden_registry()
        path = registry.write_snapshot(tmp_path / "metrics.json")
        snapshot = load_snapshot(path)
        assert render_snapshot(snapshot) == render_snapshot(registry.snapshot())

    def test_load_snapshot_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"version": 999, "metrics": []}))
        with pytest.raises(ObsError, match="unsupported version"):
            load_snapshot(path)

    def test_load_snapshot_rejects_garbage(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("not json {")
        with pytest.raises(ObsError, match="not valid JSON"):
            load_snapshot(path)
        with pytest.raises(ObsError, match="cannot read"):
            load_snapshot(tmp_path / "missing.json")

    def test_load_snapshot_rejects_missing_metrics_list(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ObsError, match="missing its 'metrics' list"):
            load_snapshot(path)
