"""The offline mining passes are bit-identical to their oracles.

g3, key and null errors must be ``==`` (not approximately equal) and
built-in floats, product classes must match tuple for tuple and in
order, every AV-pair's bags must hold the same counts in the same
first-occurrence order, and every mined VSim model must store the same
pairs, in the same order, with ``repr``-equal built-in float scores, on
random skewed tables with nulls and a numeric column.
"""

from __future__ import annotations

from itertools import combinations, permutations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd import tane
from repro.afd.g3 import dependency_error, key_error
from repro.afd.partition import StrippedPartition, partition_product, partition_single
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.simmining import estimator
from repro.simmining.avpair import AVPair
from repro.simmining.estimator import (
    SimilarityMinerConfig,
    SimilarityModel,
    ValueSimilarityMiner,
)
from repro.simmining.supertuple import SuperTuple, build_binners, build_supertuple
from tests.oracles import estimator as estimator_oracle
from tests.oracles.afd import (
    dependency_error_per_row,
    dependency_error_representative,
    key_error_classes,
    null_error_classes,
    partition_product_class_map,
    partition_product_dict_probe,
    partition_single_dict_groups,
)
from tests.oracles.supertuple import build_supertuple_row_loop
from tests.strategies import SKEWED_SCHEMA, skewed_tables


def _singles(table):
    return {
        name: partition_single(table.column(name), len(table))
        for name in table.schema.attribute_names
    }


def _singles_and_pairs(table):
    singles = _singles(table)
    pairs = [
        partition_product(singles[a], singles[b])
        for a, b in combinations(singles, 2)
    ]
    return list(singles.values()) + pairs


def _assert_same_classes(fast: StrippedPartition, oracle: StrippedPartition) -> None:
    assert fast.classes == oracle.classes
    assert fast.n_rows == oracle.n_rows
    assert fast.stripped_size == sum(map(len, oracle.classes))
    assert fast.num_stripped_classes == len(oracle.classes)


def _assert_same_float(fast: float, oracle: float) -> None:
    assert type(fast) is float
    assert fast == oracle


def _assert_same_supertuple(fast: SuperTuple, oracle: SuperTuple) -> None:
    assert fast.avpair == oracle.avpair
    assert fast.answerset_size == oracle.answerset_size
    assert fast.attributes == oracle.attributes
    for attribute in oracle.attributes:
        assert fast.bag(attribute) == oracle.bag(attribute)
        # Same keywords in the same first-occurrence order.
        assert list(fast.bag(attribute).counts().items()) == list(
            oracle.bag(attribute).counts().items()
        )


@given(skewed_tables())
@settings(max_examples=80, deadline=None)
def test_singles_match_dict_groups_oracle(table):
    for name, single in _singles(table).items():
        oracle = partition_single_dict_groups(table.column(name), len(table))
        _assert_same_classes(single, oracle)


@given(skewed_tables())
@settings(max_examples=80, deadline=None)
def test_product_matches_dict_probe_oracle(table):
    for left, right in permutations(_singles_and_pairs(table), 2):
        product = partition_product(left, right)
        _assert_same_classes(product, partition_product_dict_probe(left, right))
        _assert_same_classes(product, partition_product_class_map(left, right))


@given(skewed_tables())
@settings(max_examples=80, deadline=None)
def test_g3_matches_per_row_oracle(table):
    singles = _singles(table)
    names = table.schema.attribute_names
    for size in (1, 2):
        for lhs_names in combinations(names, size):
            lhs = singles[lhs_names[0]]
            for name in lhs_names[1:]:
                lhs = partition_product(lhs, singles[name])
            for rhs in names:
                if rhs in lhs_names:
                    continue
                combined = partition_product(lhs, singles[rhs])
                fast = dependency_error(lhs, combined)
                _assert_same_float(fast, dependency_error_per_row(lhs, combined))
                _assert_same_float(
                    fast, dependency_error_representative(lhs, combined)
                )


@given(skewed_tables())
@settings(max_examples=80, deadline=None)
def test_key_and_null_errors_match_oracles(table):
    for partition in _singles_and_pairs(table):
        _assert_same_float(key_error(partition), key_error_classes(partition))
        _assert_same_float(
            tane._null_error(partition), null_error_classes(partition)
        )


@given(
    skewed_tables(min_rows=1),
    st.sampled_from([0.0, 0.1, 0.25]),
    st.sampled_from([0, 3]),
)
@settings(max_examples=40, deadline=None)
def test_mined_model_matches_oracle_miner(table, threshold, numeric_bins):
    config = tane.TaneConfig(
        error_threshold=threshold,
        key_error_threshold=0.5,
        numeric_bins=numeric_bins,
    )
    fast = tane.TaneMiner(config).mine(table)
    with mock.patch.multiple(
        tane,
        partition_single=partition_single_dict_groups,
        partition_product=partition_product_class_map,
        dependency_error=dependency_error_representative,
        key_error=key_error_classes,
        _null_error=null_error_classes,
    ):
        oracle = tane.TaneMiner(config).mine(table)
    assert list(fast.afds) == list(oracle.afds)
    assert list(fast.keys) == list(oracle.keys)
    # An np.float64 error would compare equal but change repr, and with
    # it the stored model.
    assert repr(list(fast.afds)) == repr(list(oracle.afds))
    assert repr(list(fast.keys)) == repr(list(oracle.keys))
    for artifact in (*fast.afds, *fast.keys):
        assert type(artifact.error) is float


@given(skewed_tables(), st.integers(min_value=1, max_value=12), st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_supertuples_match_row_loop_oracle(table, n_bins, min_value_count):
    schema = table.schema
    config = SimilarityMinerConfig(
        numeric_bins=n_bins, min_value_count=min_value_count
    )
    supertuples = ValueSimilarityMiner(config).build_supertuples(table)
    # Without hash indexes, categorical columns are coded cell by cell.
    unindexed = Table(schema, auto_index=False)
    unindexed.extend(table)
    unindexed_supertuples = ValueSimilarityMiner(config).build_supertuples(unindexed)
    assert list(unindexed_supertuples) == list(supertuples)
    binners = build_binners(table, n_bins)
    expected = set()
    for name in schema.categorical_names:
        index = table.hash_index(name)
        for value in index.distinct_values():
            rows = table.rows(index.lookup(value))
            avpair = AVPair(name, value)
            oracle = build_supertuple_row_loop(avpair, rows, schema, binners)
            _assert_same_supertuple(
                build_supertuple(avpair, rows, schema, binners), oracle
            )
            if len(rows) >= min_value_count:
                expected.add(avpair)
                _assert_same_supertuple(supertuples[avpair], oracle)
                _assert_same_supertuple(unindexed_supertuples[avpair], oracle)
    assert set(supertuples) == expected


@st.composite
def _weights_with_a_zero(draw):
    names = SKEWED_SCHEMA.attribute_names
    weights = {
        name: draw(st.sampled_from((0.0, 0.1, 0.35, 1.0, 2.5))) for name in names
    }
    weights[draw(st.sampled_from(names))] = 0.0
    return weights


# None mines with uniform weights.
_importance = st.one_of(st.none(), _weights_with_a_zero())


def _mine_both(table, config, weights):
    """The model the miner mines, and the one its oracle methods mine."""
    fast = ValueSimilarityMiner(config, weights).mine(table)
    with mock.patch.multiple(
        ValueSimilarityMiner,
        build_supertuples=estimator_oracle.build_supertuples,
        estimate=estimator_oracle.estimate,
    ):
        oracle = ValueSimilarityMiner(config, weights).mine(table)
    return fast, oracle


def _assert_same_model(fast: SimilarityModel, oracle: SimilarityModel) -> None:
    assert fast.attributes == oracle.attributes
    for name in oracle.attributes:
        assert fast.known_values(name) == oracle.known_values(name)
        fast_pairs = list(fast.pairs(name).items())
        oracle_pairs = list(oracle.pairs(name).items())
        # Same pairs in the same insertion order; an np.float64 score
        # would compare equal but change repr, and the stored model.
        assert fast_pairs == oracle_pairs
        assert repr(fast_pairs) == repr(oracle_pairs)
        for _, score in fast_pairs:
            assert type(score) is float


_mining_configs = st.builds(
    SimilarityMinerConfig,
    numeric_bins=st.integers(min_value=1, max_value=12),
    min_value_count=st.sampled_from([1, 2]),
    store_threshold=st.sampled_from([0.0, 0.3]),
    bag_semantics=st.booleans(),
)


@given(skewed_tables(), _mining_configs, _importance)
@settings(max_examples=100, deadline=None)
def test_mined_vsim_matches_pair_loop_oracle(table, config, weights):
    _assert_same_model(*_mine_both(table, config, weights))


@given(skewed_tables(), _mining_configs, _importance)
@settings(max_examples=40, deadline=None)
def test_mined_vsim_matches_pair_loop_oracle_across_blocks(table, config, weights):
    # One grid row per block: every grid of three or more values spans
    # several blocks.
    with mock.patch.object(estimator, "_BLOCK_ELEMENTS", 1):
        _assert_same_model(*_mine_both(table, config, weights))


_THREE = RelationSchema.build("Three", categorical=("A", "B", "C"))


def _three(rows) -> Table:
    table = Table(_THREE)
    table.extend(rows)
    return table


def test_all_null_attribute_scores_empty_bags_as_identical():
    # B is null everywhere, so every B term is SimJ(empty, empty) = 1.
    table = _three(
        [("a1", None, "c1"), ("a1", None, "c2"), ("a2", None, "c1"), ("a2", None, "c1")]
    )
    config = SimilarityMinerConfig(min_value_count=1)
    fast, oracle = _mine_both(table, config, None)
    _assert_same_model(fast, oracle)
    # a1's C bag {c1: 1, c2: 1} against a2's {c1: 2}: 1 / (2 + 2 - 1).
    assert fast.pairs("A")[("a1", "a2")] == 0.0 + 0.5 * 1.0 + 0.5 * (1 / 3)
    assert fast.known_values("B") == frozenset()


def test_single_eligible_value_is_registered_without_pairs():
    table = _three([("a1", "b1", "c1")] * 3 + [("a2", "b2", "c2")])
    fast, oracle = _mine_both(table, SimilarityMinerConfig(min_value_count=2), None)
    _assert_same_model(fast, oracle)
    assert fast.known_values("A") == frozenset({"a1"})
    assert not fast.pairs("A")
