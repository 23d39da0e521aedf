"""Unit tests for model persistence."""

import json

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model_from_sample
from repro.core.query import ImpreciseQuery
from repro.core.store import FORMAT_VERSION, StoreError, load_model, save_model
from repro.db.schema import RelationSchema


@pytest.fixture(scope="module")
def mined_model(car_table):
    sample = car_table.sample(range(0, len(car_table), 3))
    return build_model_from_sample(sample, settings=AIMQSettings(top_k=7))


class TestRoundTrip:
    def test_save_creates_file(self, mined_model, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION

    def test_ordering_roundtrip(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        assert loaded.ordering.relaxation_order == mined_model.ordering.relaxation_order
        assert loaded.ordering.importance == pytest.approx(
            mined_model.ordering.importance
        )
        if mined_model.ordering.best_key is not None:
            assert (
                loaded.ordering.best_key.attributes
                == mined_model.ordering.best_key.attributes
            )

    def test_dependencies_roundtrip(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        assert len(loaded.dependencies.afds) == len(mined_model.dependencies.afds)
        assert len(loaded.dependencies.keys) == len(mined_model.dependencies.keys)
        assert loaded.dependencies.sample_size == mined_model.dependencies.sample_size

    def test_similarity_roundtrip(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        original = mined_model.value_similarity
        for attribute in original.attributes:
            assert loaded.value_similarity.pairs(attribute) == pytest.approx(
                original.pairs(attribute)
            )
            assert loaded.value_similarity.known_values(
                attribute
            ) == original.known_values(attribute)

    def test_settings_roundtrip(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        assert loaded.settings == mined_model.settings

    def test_loaded_model_answers_queries(
        self, mined_model, car_table, car_webdb, tmp_path
    ):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        engine = loaded.engine(car_webdb)
        answers = engine.answer(
            ImpreciseQuery.like("CarDB", Model="Camry", Price=9000), k=5
        )
        assert len(answers) >= 1

    def test_loaded_equals_original_answers(
        self, mined_model, car_table, car_webdb, tmp_path
    ):
        path = save_model(mined_model, tmp_path / "model.json")
        loaded = load_model(path, car_table.schema)
        query = ImpreciseQuery.like("CarDB", Model="Civic", Price=8000)
        original = mined_model.engine(car_webdb).answer(query, k=5)
        reloaded = loaded.engine(car_webdb).answer(query, k=5)
        assert original.row_ids == reloaded.row_ids


def _version_1_file(payload):
    """What the previous format wrote: version 1, since-retired knobs."""
    payload["format_version"] = 1
    payload["settings"]["indexed_ranking"] = False
    payload["settings"]["simmining"].update(
        workers=1,
        prune_bound=False,
        parallel_chunk_pairs=512,
        use_index=False,
        index_topk=False,
    )
    return payload


def _set_first_similarity(payload, value):
    pairs = next(p for p in payload["similarity"]["pairs"].values() if p)
    pairs[0][2] = value
    return payload


def _set_first_importance(payload, value):
    importance = payload["ordering"]["importance"]
    importance[next(iter(importance))] = value
    return payload


def _without(payload, key):
    del payload[key]
    return payload


def _with_setting(payload, key, value):
    payload["settings"][key] = value
    return payload


CORRUPTIONS = {
    "version_1_file": _version_1_file,
    "missing_key": lambda payload: _without(payload, "timings"),
    "unknown_settings_key": lambda payload: _with_setting(
        payload, "indexed_ranking", True
    ),
    "similarity_above_one": lambda payload: _set_first_similarity(payload, 1.5),
    "negative_importance": lambda payload: _set_first_importance(payload, -0.1),
    "infinite_importance": lambda payload: _set_first_importance(
        payload, float("inf")
    ),
    "not_an_object": lambda payload: [payload],
}


class TestErrors:
    def test_wrong_relation_rejected(self, mined_model, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        other = RelationSchema.build("Other", categorical=("A",))
        with pytest.raises(StoreError):
            load_model(path, other)

    def test_schema_drift_rejected(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        drifted = RelationSchema.build(
            "CarDB",
            categorical=("Make", "Model", "Year", "Location", "Color", "Trim"),
            numeric=("Price", "Mileage"),
        )
        with pytest.raises(StoreError):
            load_model(path, drifted)

    def test_version_mismatch_rejected(self, mined_model, car_table, tmp_path):
        path = save_model(mined_model, tmp_path / "model.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError):
            load_model(path, car_table.schema)

    def test_missing_file(self, car_table, tmp_path):
        with pytest.raises(StoreError):
            load_model(tmp_path / "nope.json", car_table.schema)

    def test_corrupt_file(self, car_table, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StoreError):
            load_model(path, car_table.schema)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_undecodable_payload_raises_store_error(
        self, mined_model, car_table, tmp_path, corrupt
    ):
        path = save_model(mined_model, tmp_path / "model.json")
        payload = json.loads(path.read_text())
        payload = corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError):
            load_model(path, car_table.schema)
