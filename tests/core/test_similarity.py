"""Unit tests for query-tuple similarity estimation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribute_order import uniform_ordering
from repro.core.query import ImpreciseQuery
from repro.core.similarity import (
    TupleSimilarity,
    numeric_similarity,
    range_scaled_similarity,
)
from repro.db import RelationSchema
from repro.simmining.estimator import SimilarityModel
from tests.oracles.scoring import sim_between_rows, sim_to_bindings, sim_to_query


class TestNumericSimilarity:
    def test_identity(self):
        assert numeric_similarity(100, 100) == 1.0

    def test_relative_distance(self):
        assert numeric_similarity(100, 90) == pytest.approx(0.9)
        assert numeric_similarity(100, 110) == pytest.approx(0.9)

    def test_lower_bound_clamped(self):
        # Distance > 1 is clamped to 1 -> similarity 0 (paper's guard).
        assert numeric_similarity(100, 500) == 0.0

    def test_zero_reference(self):
        assert numeric_similarity(0, 0) == 1.0
        assert numeric_similarity(0, 5) == 0.0

    def test_negative_values(self):
        assert numeric_similarity(-100, -90) == pytest.approx(0.9)


class TestRangeScaledSimilarity:
    def test_identity(self):
        assert range_scaled_similarity(50, 50, 0, 100) == 1.0

    def test_absolute_scaling(self):
        assert range_scaled_similarity(50, 60, 0, 100) == pytest.approx(0.9)
        # Same absolute gap costs the same anywhere in the range.
        assert range_scaled_similarity(10, 20, 0, 100) == pytest.approx(0.9)

    def test_full_range_distance_is_zero(self):
        assert range_scaled_similarity(0, 100, 0, 100) == 0.0

    def test_degenerate_extent(self):
        assert range_scaled_similarity(5, 5, 5, 5) == 1.0
        assert range_scaled_similarity(5, 6, 5, 5) == 0.0

    def test_clamped(self):
        assert range_scaled_similarity(0, 500, 0, 100) == 0.0


class TestNumericModeSelection:
    def make(self, toy_schema, mode, extents=None):
        return TupleSimilarity(
            toy_schema,
            uniform_ordering(toy_schema),
            SimilarityModel(["Make", "Model"]),
            numeric_mode=mode,
            numeric_extents=extents,
        )

    def test_invalid_mode_rejected(self, toy_schema):
        with pytest.raises(ValueError):
            self.make(toy_schema, "euclidean")

    def test_range_mode_uses_extents(self, toy_schema):
        scorer = self.make(
            toy_schema, "range", extents={"Price": (0.0, 20000.0)}
        )
        row = ("Toyota", "Camry", 11000, 2000)
        # |10000-11000| / 20000 = 0.05 -> 0.95 (relative would give 0.9)
        compiled = scorer.bindings_scorer({"Price": 10000})
        assert compiled(row) == pytest.approx(0.95)
        assert compiled(row) == sim_to_bindings(scorer, {"Price": 10000}, row)

    def test_range_mode_falls_back_without_extent(self, toy_schema):
        scorer = self.make(toy_schema, "range", extents={})
        row = ("Toyota", "Camry", 11000, 2000)
        compiled = scorer.bindings_scorer({"Price": 10000})
        assert compiled(row) == pytest.approx(0.9)
        assert compiled(row) == sim_to_bindings(scorer, {"Price": 10000}, row)


@pytest.fixture()
def scorer(toy_schema):
    model = SimilarityModel(["Make", "Model"])
    model.record("Model", "Camry", "Accord", 0.8)
    model.record("Model", "Camry", "F-150", 0.1)
    model.record("Make", "Toyota", "Honda", 0.5)
    ordering = uniform_ordering(toy_schema)
    return TupleSimilarity(toy_schema, ordering, model)


class TestSimToBindings:
    def test_exact_match_scores_one(self, scorer):
        row = ("Toyota", "Camry", 10000, 2000)
        bindings = {"Make": "Toyota", "Model": "Camry", "Price": 10000}
        assert sim_to_bindings(scorer, bindings, row) == pytest.approx(1.0)

    def test_weighted_mix(self, scorer):
        row = ("Honda", "Accord", 10000, 2000)
        bindings = {"Model": "Camry", "Price": 10000}
        # uniform weights over 2 bound attrs: 0.5*0.8 + 0.5*1.0
        assert sim_to_bindings(scorer, bindings, row) == pytest.approx(0.9)

    def test_unknown_categorical_pair_scores_zero(self, scorer):
        row = ("Ford", "Focus", 10000, 2000)
        assert sim_to_bindings(scorer, {"Model": "Camry"}, row) == pytest.approx(
            0.0
        )

    def test_null_candidate_scores_zero(self, scorer, toy_schema):
        row = ("Toyota", None, 10000, 2000)
        assert sim_to_bindings(scorer, {"Model": "Camry"}, row) == 0.0

    def test_empty_bindings(self, scorer):
        assert sim_to_bindings(scorer, {}, ("Toyota", "Camry", 1, 2)) == 0.0

    def test_range_in_unit_interval(self, scorer):
        row = ("Honda", "F-150", 99999, 1900)
        bindings = {"Model": "Camry", "Price": 10000, "Year": 2000}
        assert 0.0 <= sim_to_bindings(scorer, bindings, row) <= 1.0


class TestSimToQuery:
    def test_uses_like_constraints_only(self, scorer):
        from repro.core.query import LikeConstraint, PreciseConstraint
        from repro.db.predicates import Lt

        query = ImpreciseQuery(
            "Cars",
            (
                LikeConstraint("Model", "Camry"),
                PreciseConstraint(Lt("Price", 99999)),
            ),
        )
        row = ("Honda", "Accord", 1, 2000)
        # Only Model contributes: VSim(Camry, Accord) = 0.8.
        assert sim_to_query(scorer, query, row) == pytest.approx(0.8)

    def test_no_like_constraints(self, scorer):
        from repro.core.query import PreciseConstraint
        from repro.db.predicates import Lt

        query = ImpreciseQuery("Cars", (PreciseConstraint(Lt("Price", 1)),))
        assert sim_to_query(scorer, query, ("Toyota", "Camry", 0, 0)) == 0.0


class TestSimBetweenRows:
    def test_identical_rows(self, scorer):
        row = ("Toyota", "Camry", 10000, 2000)
        assert sim_between_rows(scorer, row, row) == pytest.approx(1.0)

    def test_symmetric_for_categoricals(self, scorer):
        a = ("Toyota", "Camry", 10000, 2000)
        b = ("Honda", "Accord", 10000, 2000)
        assert sim_between_rows(scorer, a, b) == pytest.approx(
            sim_between_rows(scorer, b, a)
        )

    def test_attribute_subset(self, scorer):
        a = ("Toyota", "Camry", 10000, 2000)
        b = ("Honda", "Accord", 99999, 1900)
        only_model = sim_between_rows(scorer, a, b, attributes=("Model",))
        assert only_model == pytest.approx(0.8)

    def test_null_reference_attributes_skipped(self, scorer):
        a = ("Toyota", None, 10000, 2000)
        b = ("Toyota", "Accord", 10000, 2000)
        # Model is null in the reference: similarity over remaining attrs.
        assert sim_between_rows(scorer, a, b) == pytest.approx(1.0)


class TestCompiledScorers:
    """The compiled plan must be bit-for-bit the per-call oracle."""

    ROWS = [
        ("Toyota", "Camry", 10000, 2000),
        ("Honda", "Accord", 10000, 2000),
        ("Honda", "F-150", 99999, 1900),
        ("Ford", "Focus", 7000, 2001),
        ("Toyota", None, 10000, 2000),
        (None, "Camry", None, None),
    ]

    def test_bindings_scorer_bit_equal(self, scorer):
        bindings = {"Model": "Camry", "Price": 10000, "Year": 2000}
        compiled = scorer.bindings_scorer(bindings)
        for row in self.ROWS:
            assert compiled(row) == sim_to_bindings(scorer, bindings, row)

    def test_bindings_scorer_with_null_reference(self, scorer):
        bindings = {"Model": None, "Price": 10000}
        compiled = scorer.bindings_scorer(bindings)
        for row in self.ROWS:
            assert compiled(row) == sim_to_bindings(scorer, bindings, row)

    def test_query_scorer_bit_equal(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=10000)
        compiled = scorer.query_scorer(query)
        for row in self.ROWS:
            assert compiled(row) == sim_to_query(scorer, query, row)

    def test_row_scorer_bit_equal(self, scorer):
        reference = ("Toyota", "Camry", 10000, 2000)
        compiled = scorer.row_scorer(reference)
        for row in self.ROWS:
            assert compiled(row) == sim_between_rows(scorer, reference, row)

    def test_row_scorer_attribute_subset(self, scorer):
        reference = ("Toyota", "Camry", 10000, 2000)
        compiled = scorer.row_scorer(reference, attributes=("Model", "Price"))
        for row in self.ROWS:
            assert compiled(row) == sim_between_rows(
                scorer, reference, row, attributes=("Model", "Price")
            )

    def test_empty_bindings_scorer(self, scorer):
        assert scorer.bindings_scorer({})(("Toyota", "Camry", 1, 2)) == 0.0

    def test_weights_memo_reused(self, scorer):
        scorer.bindings_scorer({"Model": "Camry", "Price": 1})
        first = scorer._weights_memo[("Model", "Price")]
        scorer.bindings_scorer({"Model": "Accord", "Price": 2})
        assert scorer._weights_memo[("Model", "Price")] is first


# -- the T_sim cut ---------------------------------------------------------

CUT_SCHEMA = RelationSchema.build(
    "Cut",
    categorical=("A", "B", "C"),
    numeric=("X", "Y"),
    order=("A", "X", "B", "Y", "C"),
)
# "z" is never mined, so it scores 0 against everything but itself.
CUT_VALUES = ("p", "q", "r", "z")
_NUMERIC_CELLS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


def _cut_cell(attribute: str) -> st.SearchStrategy:
    values = (
        st.sampled_from(CUT_VALUES)
        if CUT_SCHEMA.attribute(attribute).is_categorical
        else _NUMERIC_CELLS
    )
    return st.one_of(st.none(), values)


@st.composite
def cut_cases(draw):
    """A compiled plan, rows to score, and a threshold.

    Plans mix categorical terms (mined, unmined and identical values)
    with numeric terms under either closeness measure; references and
    cells may be None.  A third of the thresholds are a score one of
    the rows actually reaches, where the cut's slack matters most.
    """
    names = CUT_SCHEMA.attribute_names
    model = SimilarityModel(["A", "B", "C"])
    for attribute in ("A", "B", "C"):
        for index, value_a in enumerate(CUT_VALUES[:3]):
            for value_b in CUT_VALUES[index + 1 : 3]:
                if draw(st.booleans()):
                    model.record(
                        attribute, value_a, value_b, draw(st.floats(0.0, 1.0))
                    )
    ordering = dataclasses.replace(
        uniform_ordering(CUT_SCHEMA),
        importance={name: draw(st.floats(0.0, 1.0)) for name in names},
    )
    low = draw(st.floats(-100.0, 100.0))
    similarity = TupleSimilarity(
        CUT_SCHEMA,
        ordering,
        model,
        numeric_mode=draw(st.sampled_from(["relative", "range"])),
        numeric_extents={"X": (low, low + draw(st.floats(0.0, 200.0)))},
    )
    bound = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    bindings = {name: draw(_cut_cell(name)) for name in bound}
    rows = draw(
        st.lists(
            st.tuples(*(_cut_cell(name) for name in names)),
            min_size=1,
            max_size=8,
        )
    )
    exact = similarity.bindings_scorer(bindings)
    threshold = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.sampled_from([exact(row) for row in rows]),
        )
    )
    return similarity, bindings, rows, threshold


class TestBoundedScorer:
    """The cut drops only rows that cannot clear the bar."""

    ROWS = TestCompiledScorers.ROWS

    @settings(max_examples=300, deadline=None)
    @given(case=cut_cases())
    def test_cut_is_sound_and_kept_scores_are_exact(self, case):
        similarity, bindings, rows, threshold = case
        exact = similarity.bindings_scorer(bindings)
        bounded = similarity.bounded_scorer(bindings, threshold)
        for row in rows:
            kept = bounded.score_above(row)
            if kept is None:
                assert exact(row) <= threshold
            else:
                assert kept == exact(row)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.7, 0.95])
    def test_kept_scores_are_exact_and_skips_are_sound(self, scorer, threshold):
        bindings = {"Make": "Toyota", "Model": "Camry", "Price": 10000}
        exact = scorer.bindings_scorer(bindings)
        bounded = scorer.bounded_scorer(bindings, threshold)
        for row in self.ROWS:
            maybe = bounded.score_above(row)
            if maybe is None:
                # A cut is a proof the row cannot clear the bar.
                assert exact(row) <= threshold
            else:
                assert maybe == exact(row)

    def test_cut_actually_skips(self, scorer):
        # Make=Ford scores 0 against Toyota, so the Model and Price
        # terms (weight 2/3) cannot lift the row over 0.9.
        bounded = scorer.bounded_scorer(
            {"Make": "Ford", "Model": "Camry", "Price": 10000}, 0.9
        )
        assert bounded.score_above(("Toyota", "Camry", 10000, 2000)) is None

    def test_bounded_row_scorer_matches_row_scorer(self, scorer):
        reference = ("Toyota", "Camry", 10000, 2000)
        exact = scorer.row_scorer(reference)
        bounded = scorer.bounded_row_scorer(reference, 0.4)
        for row in self.ROWS:
            maybe = bounded.score_above(row)
            if maybe is None:
                assert exact(row) <= 0.4
            else:
                assert maybe == exact(row)
