"""Unit tests for the value-similarity miner and model."""

from types import MappingProxyType

import pytest

from repro.datasets.cardb import generate_cardb
from repro.simmining.estimator import (
    SimilarityMinerConfig,
    SimilarityModel,
    ValueSimilarityMiner,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityMinerConfig(numeric_bins=0)
        with pytest.raises(ValueError):
            SimilarityMinerConfig(min_value_count=0)
        with pytest.raises(ValueError):
            SimilarityMinerConfig(store_threshold=1.0)


class TestSimilarityModel:
    def test_identity_is_one(self):
        model = SimilarityModel(["Make"])
        assert model.similarity("Make", "Ford", "Ford") == 1.0

    def test_unknown_pair_is_zero(self):
        model = SimilarityModel(["Make"])
        assert model.similarity("Make", "Ford", "BMW") == 0.0

    def test_record_and_lookup_symmetric(self):
        model = SimilarityModel(["Make"])
        model.record("Make", "Ford", "Chevrolet", 0.25)
        assert model.similarity("Make", "Ford", "Chevrolet") == 0.25
        assert model.similarity("Make", "Chevrolet", "Ford") == 0.25

    def test_record_validates(self):
        model = SimilarityModel(["Make"])
        with pytest.raises(KeyError):
            model.record("Nope", "a", "b", 0.5)
        with pytest.raises(ValueError):
            model.record("Make", "a", "b", 1.5)

    def test_top_similar_sorted(self):
        model = SimilarityModel(["Make"])
        model.record("Make", "Ford", "Chevrolet", 0.25)
        model.record("Make", "Ford", "Toyota", 0.16)
        model.record("Make", "Ford", "Dodge", 0.15)
        top = model.top_similar("Make", "Ford", n=2)
        assert top == [("Chevrolet", 0.25), ("Toyota", 0.16)]

    def test_top_similar_excludes_self(self):
        model = SimilarityModel(["Make"])
        model.record("Make", "Ford", "Chevrolet", 0.25)
        assert all(v != "Ford" for v, _ in model.top_similar("Make", "Ford"))

    def test_pair_count(self):
        model = SimilarityModel(["Make", "Model"])
        model.record("Make", "a", "b", 0.5)
        model.record("Model", "x", "y", 0.5)
        assert model.pair_count() == 2

    def test_register_value(self):
        model = SimilarityModel(["Make"])
        model.register_value("Make", "BMW")
        assert "BMW" in model.known_values("Make")

    def test_pairs_returns_live_readonly_view(self):
        model = SimilarityModel(["Make"])
        model.record("Make", "a", "b", 0.5)
        view = model.pairs("Make")
        assert isinstance(view, MappingProxyType)
        assert model.pairs("Make") is view  # memoised, no per-call copy
        with pytest.raises(TypeError):
            view[("a", "b")] = 0.9  # type: ignore[index]
        model.record("Make", "a", "c", 0.25)
        assert ("a", "c") in view  # live: later records show through


class TestMinerOnToyData(object):
    def test_mine_produces_values(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        model = miner.mine(toy_table)
        assert model.known_values("Make") == frozenset({"Toyota", "Honda", "Ford"})

    def test_min_value_count_prunes_rare_values(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=3)
        )
        model = miner.mine(toy_table)
        # Only Toyota and Honda appear 3x.
        assert model.known_values("Make") == frozenset({"Toyota", "Honda"})

    def test_similarity_in_unit_interval(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        model = miner.mine(toy_table)
        for pair, sim in model.pairs("Make").items():
            assert 0.0 <= sim <= 1.0, pair

    def test_attribute_subset(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        model = miner.mine(toy_table, attributes=("Make",))
        assert model.attributes == ("Make",)

    def test_non_categorical_attribute_rejected(self, toy_table):
        miner = ValueSimilarityMiner()
        with pytest.raises(ValueError):
            miner.build_supertuples(toy_table, attributes=("Price",))

    def test_importance_weights_change_scores(self, toy_table):
        config = SimilarityMinerConfig(min_value_count=1)
        uniform = ValueSimilarityMiner(config=config).mine(
            toy_table, attributes=("Make",)
        )
        price_only = ValueSimilarityMiner(
            config=config,
            importance_weights={"Price": 1.0},
        ).mine(toy_table, attributes=("Make",))
        pair = ("Honda", "Toyota")
        assert uniform.pairs("Make").get(pair) != price_only.pairs("Make").get(pair)

    def test_store_threshold_prunes(self, toy_table):
        config = SimilarityMinerConfig(min_value_count=1, store_threshold=0.99)
        model = ValueSimilarityMiner(config=config).mine(toy_table)
        assert model.pair_count() == 0

    def test_set_semantics_ablation_differs(self, toy_table):
        config_bag = SimilarityMinerConfig(min_value_count=1)
        config_set = SimilarityMinerConfig(min_value_count=1, bag_semantics=False)
        bag_model = ValueSimilarityMiner(config=config_bag).mine(toy_table)
        set_model = ValueSimilarityMiner(config=config_set).mine(toy_table)
        assert bag_model.pairs("Make") != set_model.pairs("Make")

    def test_timings_recorded(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        miner.mine(toy_table)
        assert miner.timings.supertuple_seconds >= 0.0
        assert miner.timings.total_seconds >= miner.timings.estimation_seconds


class TestMinerOnCarDB:
    @pytest.fixture(scope="class")
    def car_model(self, car_table):
        return ValueSimilarityMiner().mine(car_table, attributes=("Make", "Model"))

    def test_sibling_models_similar(self, car_model):
        # Camry and Accord are both popular midsize sedans.
        camry_accord = car_model.similarity("Model", "Camry", "Accord")
        camry_f150 = car_model.similarity("Model", "Camry", "F-150")
        assert camry_accord > camry_f150

    def test_economy_makes_cluster(self, car_model):
        kia_hyundai = car_model.similarity("Make", "Kia", "Hyundai")
        kia_bmw = car_model.similarity("Make", "Kia", "BMW")
        assert kia_hyundai > kia_bmw

    def test_ford_chevrolet_strong(self, car_model):
        ford_chev = car_model.similarity("Make", "Ford", "Chevrolet")
        ford_bmw = car_model.similarity("Make", "Ford", "BMW")
        assert ford_chev > ford_bmw


class TestTopSimilarRegression:
    """`top_similar` moved to `heapq.nsmallest`; Table 3 rows must not move."""

    def _reference(self, model, attribute, value, n):
        scored = [
            (other, model.similarity(attribute, value, other))
            for other in model.known_values(attribute)
            if other != value
        ]
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:n]

    def test_matches_full_sort_on_cardb(self, car_table):
        model = ValueSimilarityMiner().mine(car_table, attributes=("Make",))
        for value in sorted(model.known_values("Make")):
            for n in (1, 3, 10):
                assert model.top_similar("Make", value, n=n) == self._reference(
                    model, "Make", value, n
                )

    def test_tie_break_is_lexicographic(self):
        model = SimilarityModel(["Make"])
        model.record("Make", "Ford", "Chevrolet", 0.25)
        model.record("Make", "Ford", "Buick", 0.25)
        model.record("Make", "Ford", "Dodge", 0.10)
        assert model.top_similar("Make", "Ford", n=2) == [
            ("Buick", 0.25),
            ("Chevrolet", 0.25),
        ]


class TestStaleSupertuples:
    def test_estimate_rebuilds_for_uncovered_attributes(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        miner.build_supertuples(toy_table, attributes=("Make",))
        model = miner.estimate(toy_table, attributes=("Make", "Model"))
        # Previously the stale Make-only build was silently reused and
        # Model produced no values (and no pairs) at all.
        assert model.known_values("Model")
        assert model.pairs("Model")

    def test_estimate_reuses_covering_build(self, toy_table):
        miner = ValueSimilarityMiner(
            config=SimilarityMinerConfig(min_value_count=1)
        )
        supertuples = miner.build_supertuples(toy_table)
        miner.estimate(toy_table, attributes=("Make",))
        assert miner._supertuples is supertuples

    def test_estimate_rebuilds_for_another_table(self):
        first, second = generate_cardb(400, seed=1), generate_cardb(400, seed=2)
        miner = ValueSimilarityMiner()
        miner.build_supertuples(first)
        model = miner.estimate(second, attributes=("Make",))
        fresh = ValueSimilarityMiner().mine(second, attributes=("Make",))
        # Previously the build of the first table was scored.
        assert model.known_values("Make") == fresh.known_values("Make")
        assert list(model.pairs("Make").items()) == list(fresh.pairs("Make").items())

    def test_estimate_rebuilds_after_a_write(self):
        table = generate_cardb(400, seed=1)
        miner = ValueSimilarityMiner()
        miner.build_supertuples(table)
        table.extend(generate_cardb(200, seed=2).rows())
        model = miner.estimate(table, attributes=("Make",))
        fresh = ValueSimilarityMiner().mine(table, attributes=("Make",))
        # Previously the build from before the extend was scored.
        assert model.known_values("Make") == fresh.known_values("Make")
        assert list(model.pairs("Make").items()) == list(fresh.pairs("Make").items())
