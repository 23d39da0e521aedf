"""Unit tests for the offline build pipeline."""

import random

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model, build_model_from_sample
from repro.db import RelationSchema, Table


class TestBuildFromSample:
    @pytest.fixture(scope="class")
    def model(self, car_table):
        sample = car_table.sample(range(0, len(car_table), 3))
        return build_model_from_sample(sample)

    def test_components_present(self, model):
        assert model.dependencies.afds
        assert model.ordering.relaxation_order
        assert model.value_similarity.pair_count() > 0

    def test_ordering_covers_schema(self, model, car_table):
        assert set(model.ordering.relaxation_order) == set(
            car_table.schema.attribute_names
        )

    def test_importance_normalised(self, model):
        assert sum(model.ordering.importance.values()) == pytest.approx(1.0)

    def test_smoothing_applied(self, model):
        # Default smoothing guarantees a weight floor for every attribute.
        floor = 0.3 / len(model.ordering.relaxation_order)
        assert all(
            w >= floor - 1e-12 for w in model.ordering.importance.values()
        )

    def test_timings_recorded(self, model):
        assert model.timings.dependency_mining_seconds > 0
        assert model.timings.supertuple_seconds > 0
        assert model.timings.similarity_estimation_seconds > 0
        assert model.timings.total_seconds >= model.timings.supertuple_seconds

    def test_engine_construction(self, model, car_webdb):
        engine = model.engine(car_webdb)
        assert engine.ordering is model.ordering

    def test_empty_string_is_a_categorical_value(self):
        # A categorical column may hold "", so mining must take it as an
        # AV-pair value like any other string.
        sample = Table(RelationSchema.build("T", categorical=("Make", "Color")))
        sample.extend([("", "Red"), ("", "Red"), ("Ford", "Blue"), ("Ford", "Red")])
        model = build_model_from_sample(sample)
        assert model.value_similarity.known_values("Make") == {"", "Ford"}
        assert model.value_similarity.similarity("Make", "", "Ford") > 0


class TestBuildViaProbing:
    def test_build_model_probes_source(self, car_webdb):
        car_webdb.reset_accounting()
        model = build_model(car_webdb, sample_size=500, rng=random.Random(3))
        assert len(model.sample) == 500
        assert model.collection_report is not None
        assert car_webdb.log.probes_issued > 0
        assert model.timings.probing_seconds > 0

    def test_spanning_attribute_honoured(self, car_webdb):
        model = build_model(
            car_webdb,
            sample_size=400,
            rng=random.Random(3),
            spanning_attribute="Make",
        )
        assert model.collection_report.spanning_attribute == "Make"

    def test_settings_flow_through(self, car_webdb):
        settings = AIMQSettings(top_k=5)
        model = build_model(
            car_webdb, sample_size=300, rng=random.Random(3), settings=settings
        )
        assert model.settings.top_k == 5

    def test_key_criterion_quality(self, car_webdb):
        model = build_model(
            car_webdb,
            sample_size=400,
            rng=random.Random(3),
            key_criterion="quality",
        )
        assert model.ordering is not None
