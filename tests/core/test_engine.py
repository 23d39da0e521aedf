"""Unit and small-integration tests for the AIMQ engine (Algorithm 1)."""

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model_from_sample
from repro.core.query import ImpreciseQuery
from repro.core.relaxation import RandomRelax
from repro.db.errors import QueryError


@pytest.fixture(scope="module")
def car_model(car_table):
    sample = car_table.sample(range(0, len(car_table), 2))
    return build_model_from_sample(
        sample, settings=AIMQSettings(max_relaxation_level=3)
    )


@pytest.fixture(scope="module")
def car_engine(car_model, car_webdb):
    return car_model.engine(car_webdb)


class TestAnswer:
    def test_returns_ranked_answers(self, car_engine, car_webdb):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        answers = car_engine.answer(query, k=10)
        assert 1 <= len(answers) <= 10
        sims = [a.similarity for a in answers]
        assert sims == sorted(sims, reverse=True)

    def test_answers_deduplicated(self, car_engine):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        answers = car_engine.answer(query, k=10)
        assert len(set(answers.row_ids)) == len(answers)

    def test_base_tuples_present(self, car_engine, car_webdb):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        answers = car_engine.answer(query, k=10)
        exact = [
            a
            for a in answers
            if a.relaxation_level == 0 and a.base_similarity == 1.0
        ]
        assert exact, "base-set tuples should surface in the answers"

    def test_trace_counts_work(self, car_engine):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        answers = car_engine.answer(query, k=10)
        trace = answers.trace
        assert trace.base_set_size >= 1
        assert trace.queries_issued > 0
        assert trace.tuples_relevant <= trace.tuples_extracted

    def test_top_k_respected(self, car_engine):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=9000)
        assert len(car_engine.answer(query, k=3)) <= 3

    def test_similarity_threshold_filters(self, car_engine):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        strict = car_engine.answer(query, k=50, similarity_threshold=0.95)
        for answer in strict:
            if answer.relaxation_level > 0:
                assert answer.base_similarity > 0.95

    def test_unsatisfiable_raises(self, car_engine):
        query = ImpreciseQuery.like("CarDB", Model="Batmobile")
        with pytest.raises(QueryError):
            car_engine.answer(query)

    def test_nan_binding_matches_nothing_on_an_indexed_source(self, car_engine):
        # NaN equals no Price, so no index may return rows for it; the
        # base query generalises to nothing, as on an unindexed table.
        query = ImpreciseQuery.like("CarDB", Price=float("nan"))
        with pytest.raises(QueryError, match="no generalisation"):
            car_engine.answer(query)

    def test_answer_by_example(self, car_engine, car_table):
        example = car_table.schema.row_to_mapping(car_table.row(0))
        answers = car_engine.answer_by_example(example, k=5)
        assert len(answers) >= 1

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises_before_probing(self, car_engine, car_webdb, k):
        query = ImpreciseQuery.like("CarDB", Model="Camry", Price=10000)
        with car_webdb.accounting_scope() as window:
            with pytest.raises(ValueError, match="k must be at least 1"):
                car_engine.answer(query, k=k)
        assert window.probes_issued == 0


class TestGatherSimilar:
    def test_excludes_seed_row(self, car_engine, car_table):
        answers, _ = car_engine.gather_similar(
            car_table.row(10), similarity_threshold=0.5, target=10, row_id=10
        )
        assert 10 not in [a.row_id for a in answers]

    def test_ranked_by_base_similarity(self, car_engine, car_table):
        answers, _ = car_engine.gather_similar(
            car_table.row(10), similarity_threshold=0.4, target=20, row_id=10
        )
        sims = [a.base_similarity for a in answers]
        assert sims == sorted(sims, reverse=True)

    def test_all_above_threshold(self, car_engine, car_table):
        answers, _ = car_engine.gather_similar(
            car_table.row(10), similarity_threshold=0.6, target=20, row_id=10
        )
        assert all(a.base_similarity > 0.6 for a in answers)

    def test_trace_reports_work(self, car_engine, car_table):
        _, trace = car_engine.gather_similar(
            car_table.row(10), similarity_threshold=0.5, target=5, row_id=10
        )
        assert trace.tuples_extracted >= trace.tuples_relevant
        assert trace.work_per_relevant_tuple >= 1.0

    def test_quota_limits_relevant(self, car_engine, car_table):
        answers, trace = car_engine.gather_similar(
            car_table.row(10), similarity_threshold=0.3, target=5, row_id=10
        )
        # Quota counts distinct relevant tuples found during expansion.
        assert trace.tuples_relevant <= 5 + 1


class TestRandomStrategyEngine:
    def test_random_engine_answers(self, car_model, car_webdb, car_table):
        engine = car_model.engine(car_webdb, strategy=RandomRelax(seed=5))
        answers, trace = engine.gather_similar(
            car_table.row(3), similarity_threshold=0.5, target=10, row_id=3
        )
        assert trace.queries_issued > 0

    def test_random_engine_via_helper(self, car_model, car_webdb):
        engine = car_model.random_engine(car_webdb, seed=5)
        assert isinstance(engine.strategy, RandomRelax)


class TestTraceMetrics:
    def test_work_per_relevant_infinite_when_none(self):
        from repro.core.results import RelaxationTrace

        trace = RelaxationTrace(tuples_extracted=10, tuples_relevant=0)
        assert trace.work_per_relevant_tuple == float("inf")

    def test_work_per_relevant(self):
        from repro.core.results import RelaxationTrace

        trace = RelaxationTrace(tuples_extracted=10, tuples_relevant=4)
        assert trace.work_per_relevant_tuple == pytest.approx(2.5)
