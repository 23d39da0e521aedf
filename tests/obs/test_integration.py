"""End-to-end observability: build a model, answer a query, inspect.

These tests pin the acceptance criteria of the observability PR: a
traced engine query yields the documented span tree, and the metrics
snapshot covers every instrumented namespace in both export formats.
"""

import json

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model
from repro.core.query import ImpreciseQuery
from repro.datasets.cardb import cardb_webdb
from repro.obs import to_json, to_prometheus


@pytest.fixture(scope="module")
def traced_run():
    """One observed build + query, shared by the assertions below."""
    from repro.obs import OBS

    OBS.reset()
    OBS.enable()
    try:
        webdb = cardb_webdb(400, seed=3)
        model = build_model(
            webdb,
            sample_size=200,
            settings=AIMQSettings(max_relaxation_level=2),
        )
        engine = model.engine(webdb)
        answers = engine.answer(
            ImpreciseQuery.like("CarDB", Make="Ford"), k=5
        )
        yield {
            "model": model,
            "answers": answers,
            "snapshot": OBS.registry.snapshot(),
            "traces": OBS.tracer.traces(),
        }
    finally:
        OBS.disable()
        OBS.reset()


NAMESPACES = ("repro_db_", "repro_afd_", "repro_simmining_", "repro_core_")


class TestSnapshotCoverage:
    def test_every_layer_contributes(self, traced_run):
        names = {m["name"] for m in traced_run["snapshot"]["metrics"]}
        for prefix in NAMESPACES:
            assert any(name.startswith(prefix) for name in names), prefix

    def test_snapshot_is_schema_stable(self, traced_run):
        for metric in traced_run["snapshot"]["metrics"]:
            assert set(metric) == {"name", "kind", "help", "series"}
            assert metric["kind"] in ("counter", "gauge", "histogram")
            assert metric["series"], metric["name"]

    def test_both_export_formats_cover_all_namespaces(self, traced_run):
        rendered_json = to_json(traced_run["snapshot"])
        rendered_prom = to_prometheus(traced_run["snapshot"])
        json.loads(rendered_json)
        for prefix in NAMESPACES:
            assert prefix in rendered_json
            assert prefix in rendered_prom


class TestSpanTree:
    def test_engine_answer_span_taxonomy(self, traced_run):
        root = next(
            t for t in traced_run["traces"] if t.name == "engine.answer"
        )
        names = {span.name for span in root.walk()}
        assert "engine.base_query_mapping" in names
        assert "engine.relaxation_level" in names
        assert "engine.ranking" in names
        assert root.status == "ok"

    def test_build_model_span_taxonomy(self, traced_run):
        root = next(
            t for t in traced_run["traces"] if t.name == "pipeline.build_model"
        )
        names = {span.name for span in root.walk()}
        assert {
            "pipeline.probing",
            "pipeline.dependency_mining",
            "afd.tane.mine",
            "simmining.supertuples",
            "simmining.estimate",
        } <= names

    def test_build_timings_agree_with_spans(self, traced_run):
        """BuildTimings is derived from the spans, so they match exactly."""
        model = traced_run["model"]
        root = next(
            t for t in traced_run["traces"] if t.name == "pipeline.build_model"
        )
        totals: dict[str, float] = {}
        for span in root.walk():
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.duration_seconds or 0.0
            )
        timings = model.timings
        assert timings.probing_seconds == pytest.approx(
            totals["pipeline.probing"], rel=1e-9
        )
        assert timings.dependency_mining_seconds == pytest.approx(
            totals["pipeline.dependency_mining"], rel=1e-9
        )
        assert timings.supertuple_seconds == pytest.approx(
            totals["simmining.supertuples"], rel=1e-9
        )
        assert timings.similarity_estimation_seconds == pytest.approx(
            totals["simmining.estimate"], rel=1e-9
        )


class TestDisabledMode:
    def test_disabled_run_records_nothing(self, monkeypatch):
        from repro.obs import OBS

        # Switched off for this test only: the module's traced run may
        # still have observability on.
        monkeypatch.setattr(OBS, "enabled", False)
        OBS.reset()
        webdb = cardb_webdb(200, seed=5)
        model = build_model(
            webdb,
            sample_size=100,
            settings=AIMQSettings(max_relaxation_level=1),
        )
        engine = model.engine(webdb)
        answers = engine.answer(ImpreciseQuery.like("CarDB", Make="Ford"), k=3)
        assert answers.answers
        assert OBS.registry.snapshot() == {"metrics": []}
        assert OBS.tracer.traces() == []
        # The timing structs still work without observability.
        assert model.timings.total_seconds > 0
