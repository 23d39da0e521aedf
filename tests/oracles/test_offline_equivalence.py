"""The offline mining passes are bit-identical to their oracles.

g3 errors must be ``==`` (not approximately equal), product classes
must match tuple for tuple and in order, and every AV-pair's bags must
hold the same counts in the same first-occurrence order, on random
skewed tables with nulls and a numeric column.
"""

from __future__ import annotations

from itertools import combinations, permutations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd import tane
from repro.afd.g3 import dependency_error
from repro.afd.partition import partition_product, partition_single
from repro.simmining.avpair import AVPair
from repro.simmining.estimator import SimilarityMinerConfig, ValueSimilarityMiner
from repro.simmining.supertuple import SuperTuple, build_binners, build_supertuple
from tests.oracles.afd import dependency_error_per_row, partition_product_dict_probe
from tests.oracles.supertuple import build_supertuple_row_loop
from tests.strategies import skewed_tables


def _singles(table):
    return {
        name: partition_single(table.column(name), len(table))
        for name in table.schema.attribute_names
    }


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
def test_product_matches_dict_probe_oracle(table):
    singles = _singles(table)
    pairs = {
        (a, b): partition_product(singles[a], singles[b])
        for a, b in combinations(singles, 2)
    }
    inputs = list(singles.values()) + list(pairs.values())
    for left, right in permutations(inputs, 2):
        product = partition_product(left, right)
        oracle = partition_product_dict_probe(left, right)
        assert product.classes == oracle.classes
        assert product.n_rows == oracle.n_rows


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
                oracle = dependency_error_per_row(lhs, combined)
                assert fast == oracle, (lhs_names, rhs)


@given(skewed_tables(min_rows=1), st.sampled_from([0.0, 0.1, 0.25]))
@settings(max_examples=40, deadline=None)
def test_mined_model_matches_oracle_miner(table, threshold):
    config = tane.TaneConfig(error_threshold=threshold, key_error_threshold=0.5)
    fast = tane.TaneMiner(config).mine(table)
    with mock.patch.object(
        tane, "dependency_error", dependency_error_per_row
    ), mock.patch.object(tane, "partition_product", partition_product_dict_probe):
        oracle = tane.TaneMiner(config).mine(table)
    assert list(fast.afds) == list(oracle.afds)
    assert list(fast.keys) == list(oracle.keys)


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
