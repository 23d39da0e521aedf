"""Unit tests for the metrics registry and its instruments."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import StreamingQuantile


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        family = registry.counter("probes_total", "probes")
        family.inc()
        family.inc(2.5)
        assert family.unlabelled().value == 3.5

    def test_negative_increment_rejected(self, registry):
        family = registry.counter("probes_total")
        with pytest.raises(ValueError):
            family.inc(-1)

    def test_labelled_series_are_independent(self, registry):
        family = registry.counter("probes_total", labels=("kind",))
        family.labels(kind="select").inc(3)
        family.labels(kind="count").inc()
        assert family.labels(kind="select").value == 3
        assert family.labels(kind="count").value == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth").unlabelled()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6


class TestHistogram:
    def test_buckets_are_cumulative(self, registry):
        histogram = registry.histogram(
            "latency", buckets=(0.01, 0.1, 1.0)
        ).unlabelled()
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (0.01, 1),
            (0.1, 3),
            (1.0, 4),
            (float("inf"), 5),
        ]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(5.605)
        assert histogram.min == 0.005 and histogram.max == 5.0

    def test_quantiles_are_plausible(self, registry):
        histogram = registry.histogram("latency").unlabelled()
        for i in range(1, 101):
            histogram.observe(float(i))
        median = histogram.quantile(0.5)
        assert median is not None and 40 <= median <= 60

    def test_empty_quantile_is_none(self, registry):
        histogram = registry.histogram("latency").unlabelled()
        assert histogram.quantile(0.5) is None


class TestStreamingQuantile:
    def test_exact_below_capacity(self):
        sketch = StreamingQuantile(capacity=100)
        for i in range(1, 11):
            sketch.observe(float(i))
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 10.0
        assert sketch.quantile(0.5) == pytest.approx(5.5)

    def test_reservoir_bounded_and_deterministic(self):
        first = StreamingQuantile(capacity=64, seed=3)
        second = StreamingQuantile(capacity=64, seed=3)
        for i in range(10_000):
            first.observe(float(i))
            second.observe(float(i))
        assert first.seen == 10_000
        assert first.quantile(0.5) == second.quantile(0.5)
        median = first.quantile(0.5)
        assert median is not None and 2_000 <= median <= 8_000


class TestFamilySchema:
    def test_family_creation_is_idempotent(self, registry):
        first = registry.counter("probes_total", labels=("kind",))
        second = registry.counter("probes_total", labels=("kind",))
        assert first is second

    def test_kind_conflict_raises(self, registry):
        registry.counter("probes_total")
        with pytest.raises(ValueError):
            registry.gauge("probes_total")

    def test_label_schema_conflict_raises(self, registry):
        registry.counter("probes_total", labels=("kind",))
        with pytest.raises(ValueError):
            registry.counter("probes_total", labels=("kind", "shape"))

    def test_wrong_label_binding_raises(self, registry):
        family = registry.counter("probes_total", labels=("kind",))
        with pytest.raises(ValueError):
            family.labels(shape="eq")
        with pytest.raises(ValueError):
            family.labels()

    def test_unlabelled_requires_label_free_family(self, registry):
        family = registry.counter("probes_total", labels=("kind",))
        with pytest.raises(ValueError):
            family.unlabelled()

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("1probes")
        with pytest.raises(ValueError):
            registry.counter("pro bes")
        with pytest.raises(ValueError):
            registry.counter("")


class TestSnapshot:
    def test_schema_stable_keys(self, registry):
        registry.counter("a_total", "help a").inc()
        registry.gauge("b_level", labels=("x",)).labels(x="1").set(2)
        registry.histogram("c_seconds").observe(0.2)
        snapshot = registry.snapshot()
        names = [m["name"] for m in snapshot["metrics"]]
        assert names == sorted(names) == ["a_total", "b_level", "c_seconds"]
        for metric in snapshot["metrics"]:
            assert set(metric) == {"name", "kind", "help", "series"}
            for series in metric["series"]:
                if metric["kind"] == "histogram":
                    assert set(series) == {
                        "labels",
                        "count",
                        "sum",
                        "min",
                        "max",
                        "buckets",
                        "quantiles",
                    }
                    assert "+Inf" in series["buckets"]
                else:
                    assert set(series) == {"labels", "value"}

    def test_concurrent_increments_are_not_lost(self, registry):
        family = registry.counter("hits_total")

        def work() -> None:
            for _ in range(1_000):
                family.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.unlabelled().value == 8_000


class TestWorkerThreadSafety:
    """Registry correctness under worker-pool concurrency.

    Mirrors concurrent server requests: a small pool of worker threads
    hammering the same families the db facade and retrier touch, with
    exact totals asserted afterwards.
    """

    def test_concurrent_labelled_incs_are_exact(self, registry):
        from concurrent.futures import ThreadPoolExecutor

        family = registry.counter("probes_total", labels=("kind",))

        def work(kind: str) -> None:
            for _ in range(500):
                family.labels(kind=kind).inc()

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(work, kind)
                for kind in ("query", "count", "query", "count")
            ]
            for future in futures:
                future.result()
        assert family.labels(kind="query").value == 1_000
        assert family.labels(kind="count").value == 1_000

    def test_concurrent_observes_are_exact(self, registry):
        from concurrent.futures import ThreadPoolExecutor

        family = registry.histogram("latency_seconds", buckets=(0.5,))

        def work() -> None:
            for index in range(400):
                family.observe(0.25 if index % 2 == 0 else 0.75)

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            for future in futures:
                future.result()
        instrument = family.unlabelled()
        assert instrument.count == 1_600
        assert instrument.sum == pytest.approx(1_600 * 0.5)
        (series,) = registry.snapshot()["metrics"][0]["series"]
        assert series["buckets"]["0.5"] == 800
        assert series["buckets"]["+Inf"] == 1_600

    def test_concurrent_family_registration_yields_one_family(self, registry):
        from concurrent.futures import ThreadPoolExecutor

        def work() -> None:
            for _ in range(200):
                registry.counter("races_total", "Races.").inc()

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            for future in futures:
                future.result()
        (metric,) = registry.snapshot()["metrics"]
        assert metric["name"] == "races_total"
        assert metric["series"][0]["value"] == 800
