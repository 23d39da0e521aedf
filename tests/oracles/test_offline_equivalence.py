"""The offline mining passes are bit-identical to their oracles.

g3, key and null errors must be ``==`` (not approximately equal) and
built-in floats, product classes must match tuple for tuple and in
order, and every AV-pair's bags must hold the same counts in the same
first-occurrence order, on random skewed tables with nulls and a
numeric column.
"""

from __future__ import annotations

from itertools import combinations, permutations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd import tane
from repro.afd.g3 import dependency_error, key_error
from repro.afd.partition import StrippedPartition, partition_product, partition_single
from repro.simmining.avpair import AVPair
from repro.simmining.estimator import SimilarityMinerConfig, ValueSimilarityMiner
from repro.simmining.supertuple import SuperTuple, build_binners, build_supertuple
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
from tests.strategies import skewed_tables


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
    assert set(supertuples) == expected
