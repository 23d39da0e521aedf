"""Labeled metrics registry: counters, gauges, histograms.

The registry is the system's single source of numeric truth: every
layer (db, afd, simmining, core, rock) records into one shared
:class:`MetricsRegistry` through the runtime singleton, and exporters
(:mod:`repro.obs.export`) render one coherent snapshot.

Design choices, in the spirit of the Prometheus client model:

* a metric *family* has a name, a kind, a help string and a fixed tuple
  of label names; a *series* is one labelled child of a family;
* families are created idempotently — re-requesting a family with the
  same schema returns it, re-requesting with a different kind or label
  set is a programming error and raises;
* the first request fixes a family's help text and buckets, so a family
  requested from more than one place (emission and zero
  pre-registration) is declared once as a :class:`MetricSpec` and
  requested with :meth:`MetricsRegistry.family`;
* histograms combine fixed cumulative buckets (cheap, mergeable) with a
  streaming quantile reservoir (:mod:`repro.obs.summary`) so both
  "how many probes under 5 ms" and "what is p95" are answerable;
* everything is guarded by one registry-wide lock.  Metric updates are
  dict writes and float adds; contention is negligible next to the
  query work being measured, and a single lock keeps snapshots
  consistent.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.obs.summary import StreamingQuantile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
]

# Latency-flavoured default buckets, in seconds: probes in this repo run
# from tens of microseconds (indexed point lookups) to whole seconds
# (full scans at benchmark scale).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)

DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name {name!r} cannot start with a digit")


class Counter:
    """Monotonically increasing total."""

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Instantaneous value that may move in either direction."""

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed cumulative buckets plus a streaming quantile summary."""

    def __init__(
        self,
        lock: threading.RLock,
        buckets: Sequence[float],
        quantiles: Sequence[float],
        seed: int = 0,
    ) -> None:
        self._lock = lock
        self.bucket_bounds = tuple(sorted(buckets))
        self.quantile_marks = tuple(quantiles)
        self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)  # +Inf slot
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._sketch = StreamingQuantile(seed=seed)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for index, bound in enumerate(self.bucket_bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            self._sketch.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float | None:
        return self._min

    @property
    def max(self) -> float | None:
        return self._max

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bucket_bounds, self._bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self._count))
        return pairs

    def quantile(self, q: float) -> float | None:
        return self._sketch.quantile(q)


_Instrument = Counter | Gauge | Histogram


class MetricFamily:
    """One named metric with a fixed label schema and its series."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ) -> None:
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.quantiles = quantiles
        self._series: dict[tuple[str, ...], _Instrument] = {}

    def labels(self, **labels: object) -> _Instrument:
        """The series for one label binding, created on first use."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._registry._lock:
            series = self._series.get(key)
            if series is None:
                series = self._make_instrument(key)
                self._series[key] = series
        return series

    def unlabelled(self) -> _Instrument:
        """The single series of a label-free family."""
        if self.label_names:
            raise ValueError(f"metric {self.name!r} requires labels")
        return self.labels()

    # Convenience passthroughs for label-free families -----------------------

    def inc(self, amount: float = 1.0) -> None:
        instrument = self.unlabelled()
        instrument.inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        instrument = self.unlabelled()
        instrument.set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        instrument = self.unlabelled()
        instrument.observe(value)  # type: ignore[union-attr]

    def series(self) -> list[tuple[dict[str, str], _Instrument]]:
        """Snapshot of ``(labels, instrument)`` pairs, sorted by labels."""
        with self._registry._lock:
            items = sorted(self._series.items())
        return [
            (dict(zip(self.label_names, key)), instrument)
            for key, instrument in items
        ]

    def _make_instrument(self, key: tuple[str, ...]) -> _Instrument:
        lock = self._registry._lock
        if self.kind == "counter":
            return Counter(lock)
        if self.kind == "gauge":
            return Gauge(lock)
        seed = hash((self.name, key)) & 0x7FFFFFFF
        return Histogram(lock, self.buckets, self.quantiles, seed=seed)


@dataclass(frozen=True)
class MetricSpec:
    """One family's declaration: name, kind, help text, labels, buckets."""

    name: str
    kind: str
    help_text: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS


class MetricsRegistry:
    """Thread-safe collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    # -- family constructors -------------------------------------------------

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> MetricFamily:
        return self._family(
            name,
            "histogram",
            help_text,
            labels,
            buckets=tuple(buckets),
            quantiles=tuple(quantiles),
        )

    def family(self, spec: MetricSpec) -> MetricFamily:
        """The family ``spec`` declares, created on first request."""
        if spec.kind == "histogram":
            return self.histogram(
                spec.name, spec.help_text, spec.labels, buckets=spec.buckets
            )
        return self._family(spec.name, spec.kind, spec.help_text, spec.labels)

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Iterable[str],
        **histogram_options: tuple[float, ...],
    ) -> MetricFamily:
        _validate_name(name)
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return family
            family = MetricFamily(
                self, name, kind, help_text, label_names, **histogram_options
            )
            self._families[name] = family
            return family

    # -- inspection -----------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Drop every family (between experiments / tests)."""
        with self._lock:
            self._families.clear()

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Schema-stable JSON-ready view of every series.

        Layout::

            {"metrics": [
                {"name": ..., "kind": ..., "help": ...,
                 "series": [{"labels": {...}, ...kind-specific fields}]}
            ]}
        """
        metrics: list[dict[str, object]] = []
        with self._lock:
            for family in self.families():
                series_out: list[dict[str, object]] = []
                for labels, instrument in family.series():
                    entry: dict[str, object] = {"labels": labels}
                    if isinstance(instrument, (Counter, Gauge)):
                        entry["value"] = instrument.value
                    else:
                        entry.update(_histogram_entry(instrument))
                    series_out.append(entry)
                metrics.append(
                    {
                        "name": family.name,
                        "kind": family.kind,
                        "help": family.help_text,
                        "series": series_out,
                    }
                )
        return {"metrics": metrics}


def _histogram_entry(histogram: Histogram) -> dict[str, object]:
    buckets: dict[str, int] = {}
    for bound, cumulative in histogram.cumulative_buckets():
        label = "+Inf" if math.isinf(bound) else repr(bound)
        buckets[label] = cumulative
    quantiles: Mapping[str, float | None] = {
        repr(q): histogram.quantile(q) for q in histogram.quantile_marks
    }
    return {
        "count": histogram.count,
        "sum": histogram.sum,
        "min": histogram.min,
        "max": histogram.max,
        "buckets": buckets,
        "quantiles": dict(quantiles),
    }
