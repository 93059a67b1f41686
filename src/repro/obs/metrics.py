"""In-process metrics: counters, gauges and histograms with label support.

The registry is the live, queryable view of a run: runtime subsystems
register metric *families* once at import time and update cheap
per-label-set *children* on their hot paths.  Two read surfaces exist:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict of every family,
  persisted by ``run_campaign`` as ``metrics.json`` next to the store so
  ``repro campaign metrics <dir>`` can render a finished run post-hoc;
* :func:`render_snapshot` — a snapshot in the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, one
  ``name{label="value"} value`` sample per line, histograms as
  cumulative ``_bucket`` series plus ``_sum`` / ``_count``), so
  ``render_snapshot(registry.snapshot())`` renders a live registry.

Design constraints, in order:

* **Hot-path cost.**  A counter ``inc`` is one lock acquire and one
  float add.  Callers of a labeled family are expected to resolve
  ``family.labels(...)`` once (module level or run start) and reuse the
  child.  A label-less family keeps its one child, so ``family.inc()``
  skips the label tuple, the family lock and the lookup.
* **Thread safety.**  CPython's ``+=`` on an attribute is *not* atomic
  (it is a read, an add and a write, and the GIL can switch threads
  between them), so every child guards its state with a lock.
* **Determinism.**  Rendering sorts families by name and children by
  label values, so two registries holding the same values render
  byte-identical text — which is what the golden-file test pins.
* **Bounded cardinality.**  Each family refuses more than
  :data:`MAX_LABEL_SETS` distinct label combinations (:class:`ObsError`),
  so a bug interpolating unbounded strings into a label cannot grow the
  registry without limit.

Metrics never feed back into results: the campaign digest layer is
unaware of this module, and the differential harnesses assert
instrumented runs stay byte-identical (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ObsError

#: Format version of persisted registry snapshots (``metrics.json``).
SNAPSHOT_VERSION = 1

#: Filename of the snapshot ``run_campaign`` persists next to the store.
METRICS_FILENAME = "metrics.json"

#: Distinct label-value tuples one family accepts before it refuses more.
MAX_LABEL_SETS = 1000

#: Default histogram buckets, tuned for task/phase durations in seconds:
#: sub-millisecond phases up to minute-scale tasks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_metric_name(name: str) -> None:
    if not isinstance(name, str) or not _METRIC_NAME_RE.match(name):
        raise ObsError(f"invalid metric name {name!r}")


def _check_label_names(labels: Sequence[str]) -> Tuple[str, ...]:
    labels = tuple(labels)
    for label in labels:
        if not isinstance(label, str) or not _LABEL_NAME_RE.match(label):
            raise ObsError(f"invalid label name {label!r}")
    if len(set(labels)) != len(labels):
        raise ObsError(f"duplicate label names in {labels!r}")
    return labels


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value: integral floats as integers, else ``repr``.

    ``repr`` round-trips doubles exactly, which keeps the exposition
    lossless; integral values (the overwhelmingly common case for
    counters) render without the noise of a trailing ``.0``.
    """
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Child:
    """One label-set instance of a metric family; all state behind a lock."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Child):
    """A monotonically increasing value (events since process start)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counters only go up; cannot inc by {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Child):
    """A value that can go up and down (queue depth, alive vertices)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Child):
    """Fixed-bucket distribution of observed values (durations, sizes).

    Bucket counts are stored per-interval and rendered cumulatively, the
    Prometheus convention: ``_bucket{le="x"}`` counts observations
    ``<= x``, the implicit ``+Inf`` bucket equals ``_count``.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        super().__init__()
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> List[int]:
        """Per-interval (non-cumulative) counts; last entry is the overflow."""
        with self._lock:
            return list(self._counts)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-set children.

    Families are created through the registry (:meth:`MetricsRegistry.counter`
    and friends) and hand out children via :meth:`labels`.  A family
    declared without label names has exactly one child, reachable as
    ``family.labels()`` — or directly: the family proxies ``inc`` /
    ``set`` / ``dec`` / ``observe`` / ``value`` to it.  The family keeps
    that child once :meth:`labels` first creates it, so the proxies skip
    the label tuple, the lock and the lookup from then on.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.label_names = label_names
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        # The one child of a label-less family, once labels() created it.
        self._child: Optional[_Child] = None

    def _make_child(self) -> _Child:
        if self.type == "histogram":
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _CHILD_TYPES[self.type]()

    def labels(self, *values: Any) -> Any:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ObsError(
                f"metric {self.name!r} takes {len(self.label_names)} label "
                f"value(s) {self.label_names!r}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_LABEL_SETS:
                    raise ObsError(
                        f"metric {self.name!r} exceeded its cardinality bound of "
                        f"{MAX_LABEL_SETS} label sets; refusing {key!r} "
                        f"(is an unbounded string interpolated into a label?)"
                    )
                child = self._make_child()
                self._children[key] = child
                if not key:
                    self._child = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """All (label values, child) pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    # Proxies for label-less families: the kept child, else labels() ----
    def inc(self, amount: float = 1.0) -> None:
        (self._child or self.labels()).inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        (self._child or self.labels()).dec(amount)

    def set(self, value: float) -> None:
        (self._child or self.labels()).set(value)

    def observe(self, value: float) -> None:
        (self._child or self.labels()).observe(value)

    @property
    def value(self) -> float:
        return (self._child or self.labels()).value


class MetricsRegistry:
    """A process-local collection of metric families.

    Registration is idempotent: asking for an already-registered name
    with the same type and label names returns the existing family (so
    modules can declare their metrics at import time without worrying
    about re-imports), while a conflicting redeclaration raises
    :class:`ObsError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        _check_metric_name(name)
        label_names = _check_label_names(labels)
        bucket_tuple = tuple(float(b) for b in buckets) if buckets is not None else None
        if bucket_tuple is not None:
            if not bucket_tuple or list(bucket_tuple) != sorted(set(bucket_tuple)):
                raise ObsError(
                    f"histogram buckets must be non-empty, sorted and distinct, "
                    f"got {buckets!r}"
                )
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.type != metric_type
                    or existing.label_names != label_names
                    or (bucket_tuple is not None and existing.buckets != bucket_tuple)
                ):
                    raise ObsError(
                        f"metric {name!r} already registered as a {existing.type} "
                        f"with labels {existing.label_names!r}; cannot re-register "
                        f"as a {metric_type} with labels {label_names!r}"
                    )
                return existing
            family = MetricFamily(
                name,
                help_text,
                metric_type,
                label_names,
                buckets=bucket_tuple if metric_type == "histogram" else None,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._register(name, help_text, "histogram", labels, buckets=buckets)

    def families(self) -> List[MetricFamily]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # read surfaces
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe dict of every family and sample (the persisted view)."""
        metrics = []
        for family in self.families():
            samples = []
            for label_values, child in family.children():
                sample: Dict[str, Any] = {
                    "labels": dict(zip(family.label_names, label_values)),
                }
                if isinstance(child, Histogram):
                    sample["buckets"] = list(child.buckets)
                    sample["counts"] = child.bucket_counts()
                    sample["sum"] = child.sum
                    sample["count"] = child.count
                else:
                    sample["value"] = child.value
                samples.append(sample)
            metrics.append(
                {
                    "name": family.name,
                    "type": family.type,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "samples": samples,
                }
            )
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def write_snapshot(self, path) -> Path:
        """Persist :meth:`snapshot` to ``path`` atomically (temp + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.snapshot(), sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path


def load_snapshot(path) -> Dict[str, Any]:
    """Read and structurally validate a persisted ``metrics.json`` snapshot."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObsError(f"cannot read metrics snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise ObsError(f"metrics snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
        raise ObsError(
            f"metrics snapshot {path} has unsupported version "
            f"{payload.get('version') if isinstance(payload, dict) else payload!r} "
            f"(expected {SNAPSHOT_VERSION})"
        )
    if not isinstance(payload.get("metrics"), list):
        raise ObsError(f"metrics snapshot {path} is missing its 'metrics' list")
    return payload


def _render_labels(labels: Dict[str, str], extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(labels.items()) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Split out of the registry so the CLI can render a snapshot persisted
    by an earlier run (``repro campaign metrics <dir>``) without
    reconstructing live metric objects.
    """
    lines: List[str] = []
    for metric in snapshot["metrics"]:
        name = metric["name"]
        lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for sample in metric["samples"]:
            labels = sample.get("labels", {})
            if metric["type"] == "histogram":
                cumulative = 0
                for bound, count in zip(sample["buckets"], sample["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, [('le', format_value(bound))])}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket{_render_labels(labels, [('le', '+Inf')])}"
                    f" {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} {format_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry every runtime subsystem registers into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (one per process; pool workers get their own)."""
    return REGISTRY


def counter(name: str, help_text: str, labels: Sequence[str] = ()) -> MetricFamily:
    """Register a counter family on the global registry."""
    return REGISTRY.counter(name, help_text, labels)


def gauge(name: str, help_text: str, labels: Sequence[str] = ()) -> MetricFamily:
    """Register a gauge family on the global registry."""
    return REGISTRY.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str,
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> MetricFamily:
    """Register a histogram family on the global registry."""
    return REGISTRY.histogram(name, help_text, labels, buckets=buckets)
