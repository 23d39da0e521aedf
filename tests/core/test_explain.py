"""Unit tests for answer explanations."""

import pytest

from repro.core.attribute_order import uniform_ordering
from repro.core.config import AIMQSettings
from repro.core.explain import explain_answer
from repro.core.pipeline import build_model_from_sample
from repro.core.query import ImpreciseQuery
from repro.core.results import RankedAnswer
from repro.core.similarity import TupleSimilarity
from repro.simmining.estimator import SimilarityModel
from tests.oracles.scoring import sim_to_query


@pytest.fixture()
def scorer(toy_schema):
    model = SimilarityModel(["Make", "Model"])
    model.record("Model", "Camry", "Accord", 0.8)
    return TupleSimilarity(toy_schema, uniform_ordering(toy_schema), model)


def make_answer(row, level=1, similarity=0.9):
    return RankedAnswer(
        row_id=7,
        row=row,
        similarity=similarity,
        base_similarity=similarity,
        source_base_row_id=3,
        relaxation_level=level,
    )


class TestExplainAnswer:
    def test_contributions_reconstruct_score(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=10000)
        row = ("Honda", "Accord", 9000, 2001)
        answer = make_answer(row)
        explanation = explain_answer(scorer, query, answer)
        assert explanation.total == pytest.approx(
            sim_to_query(scorer, query, row)
        )

    @pytest.mark.parametrize(
        ("query", "row"),
        [
            (
                ImpreciseQuery.like("Cars", Model="Camry", Price=10000),
                ("Honda", None, 9000, 2001),
            ),
            (
                ImpreciseQuery.like("Cars", Model=None, Price=10000),
                ("Honda", "Accord", 9000, 2001),
            ),
        ],
        ids=["null-answer-cell", "null-query-value"],
    )
    def test_null_on_either_side_contributes_nothing(self, scorer, query, row):
        explanation = explain_answer(scorer, query, make_answer(row))
        model = next(c for c in explanation.contributions if c.attribute == "Model")
        assert model.similarity == 0.0
        assert explanation.total == pytest.approx(sim_to_query(scorer, query, row))

    def test_one_contribution_per_like_constraint(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=10000)
        explanation = explain_answer(
            scorer, query, make_answer(("Honda", "Accord", 9000, 2001))
        )
        assert {c.attribute for c in explanation.contributions} == {
            "Model",
            "Price",
        }

    def test_matched_flag(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=9000)
        explanation = explain_answer(
            scorer, query, make_answer(("Toyota", "Camry", 9000, 2001))
        )
        assert all(c.matched for c in explanation.contributions)

    def test_strongest_and_weakest(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=10000)
        explanation = explain_answer(
            scorer, query, make_answer(("Honda", "Accord", 10000, 2001))
        )
        # Exact price match (sim 1.0) dominates the 0.8 model similarity.
        assert explanation.strongest.attribute == "Price"
        assert explanation.weakest.attribute == "Model"

    def test_describe_mentions_provenance(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry")
        relaxed = explain_answer(
            scorer, query, make_answer(("Honda", "Accord", 1, 2), level=2)
        )
        assert "relaxation depth 2" in relaxed.describe()
        direct = explain_answer(
            scorer, query, make_answer(("Toyota", "Camry", 1, 2), level=0)
        )
        assert "direct match" in direct.describe()

    def test_engine_explain_end_to_end(self, car_table, car_webdb):
        sample = car_table.sample(range(0, len(car_table), 4))
        model = build_model_from_sample(
            sample, settings=AIMQSettings(max_relaxation_level=3)
        )
        engine = model.engine(car_webdb)
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=9000)
        answers = engine.answer(query, k=5)
        explanation = engine.explain(query, answers[0])
        assert explanation.total == pytest.approx(answers[0].similarity)
        text = explanation.describe()
        assert "Model" in text and "Price" in text
