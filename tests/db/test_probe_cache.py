"""Unit tests for the opt-in LRU probe cache."""

import random

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model
from repro.core.query import ImpreciseQuery
from repro.datasets.cardb import generate_cardb
from repro.db.errors import ProbeLimitExceededError
from repro.db.predicates import Between, Eq, IsIn, Lt
from repro.db.probe_cache import ProbeCache, canonical_probe_key
from repro.db.query import SelectionQuery
from repro.db.webdb import AutonomousWebDatabase


class TestCanonicalKey:
    def test_predicate_order_insensitive(self):
        a = SelectionQuery((Eq("Make", "Toyota"), Lt("Price", 10000)))
        b = SelectionQuery((Lt("Price", 10000), Eq("Make", "Toyota")))
        assert canonical_probe_key(a, None, 0) == canonical_probe_key(b, None, 0)

    def test_isin_value_order_insensitive(self):
        a = SelectionQuery((IsIn("Make", ("Toyota", "Honda")),))
        b = SelectionQuery((IsIn("Make", ("Honda", "Toyota")),))
        assert canonical_probe_key(a, None, 0) == canonical_probe_key(b, None, 0)

    def test_different_windows_differ(self):
        q = SelectionQuery((Eq("Make", "Toyota"),))
        assert canonical_probe_key(q, None, 0) != canonical_probe_key(q, 5, 0)
        assert canonical_probe_key(q, None, 0) != canonical_probe_key(q, None, 2)

    def test_different_predicates_differ(self):
        a = SelectionQuery((Eq("Make", "Toyota"),))
        b = SelectionQuery((Eq("Make", "Honda"),))
        c = SelectionQuery((Between("Price", 1, 2),))
        keys = {canonical_probe_key(q, None, 0) for q in (a, b, c)}
        assert len(keys) == 3


class TestProbeCacheLRU:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ProbeCache(0)

    def test_count_and_result_keys_do_not_collide(self, toy_webdb):
        cache = ProbeCache(8)
        query = SelectionQuery((Eq("Make", "Toyota"),))
        result = toy_webdb.query(query)
        cache.put_result(query, None, 0, result)
        assert cache.get_count(query) is None
        cache.put_count(query, 3)
        assert cache.get_count(query) == 3
        assert cache.get_result(query, None, 0) is result

    def test_lru_eviction_order(self):
        cache = ProbeCache(2)
        q = [SelectionQuery((Eq("Make", str(i)),)) for i in range(3)]
        cache.put_count(q[0], 0)
        cache.put_count(q[1], 1)
        # Touch q0 so q1 becomes the least recently used entry.
        assert cache.get_count(q[0]) == 0
        evicted = cache.put_count(q[2], 2)
        assert evicted
        assert cache.evictions == 1
        assert cache.get_count(q[1]) is None
        assert cache.get_count(q[0]) == 0
        assert cache.get_count(q[2]) == 2

    def test_hit_miss_counters(self):
        cache = ProbeCache(4)
        query = SelectionQuery((Eq("Make", "Toyota"),))
        assert cache.get_count(query) is None
        cache.put_count(query, 5)
        assert cache.get_count(query) == 5
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clear_drops_entries_not_counters(self):
        cache = ProbeCache(4)
        query = SelectionQuery((Eq("Make", "Toyota"),))
        cache.put_count(query, 5)
        cache.get_count(query)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestWebdbIntegration:
    def test_cache_off_by_default(self, toy_webdb):
        assert toy_webdb.probe_cache is None

    def test_hit_serves_identical_payload(self, toy_webdb):
        toy_webdb.enable_probe_cache()
        query = SelectionQuery((Eq("Make", "Toyota"),))
        first = toy_webdb.query(query)
        second = toy_webdb.query(query)
        assert not first.from_cache
        assert second.from_cache
        assert second.rows == first.rows
        assert second.row_ids == first.row_ids
        assert toy_webdb.log.probes_issued == 1
        assert toy_webdb.log.cache_hits == 1

    def test_hit_does_not_charge_budget(self, toy_table):
        webdb = AutonomousWebDatabase(
            toy_table, probe_budget=1, probe_cache_capacity=8
        )
        query = SelectionQuery((Eq("Make", "Toyota"),))
        webdb.query(query)
        # The budget is exhausted, but the repeat is served by the cache.
        assert webdb.query(query).from_cache
        with pytest.raises(ProbeLimitExceededError):
            webdb.query(SelectionQuery((Eq("Make", "Honda"),)))

    def test_count_probes_cached(self, toy_webdb):
        toy_webdb.enable_probe_cache()
        query = SelectionQuery((Eq("Make", "Honda"),))
        assert toy_webdb.count(query) == toy_webdb.count(query)
        assert toy_webdb.log.probes_issued == 1
        assert toy_webdb.log.cache_hits == 1

    def test_limit_folds_result_cap_into_key(self, toy_table):
        webdb = AutonomousWebDatabase(toy_table, result_cap=2)
        webdb.enable_probe_cache()
        query = SelectionQuery((Eq("Make", "Toyota"),))
        # limit=5 and limit=None share an effective limit of 2.
        first = webdb.query(query, limit=5)
        second = webdb.query(query)
        assert second.from_cache
        assert second.rows == first.rows

    def test_disable_drops_cache(self, toy_webdb):
        toy_webdb.enable_probe_cache()
        query = SelectionQuery((Eq("Make", "Toyota"),))
        toy_webdb.query(query)
        toy_webdb.disable_probe_cache()
        assert toy_webdb.probe_cache is None
        assert not toy_webdb.query(query).from_cache

    def test_accounting_window_sees_cache_hits(self, toy_webdb):
        toy_webdb.enable_probe_cache()
        query = SelectionQuery((Eq("Make", "Toyota"),))
        toy_webdb.query(query)
        with toy_webdb.accounting_scope() as window:
            toy_webdb.query(query)
        assert window.probes_issued == 0
        assert window.cache_hits == 1


# -- probe cache on/off -------------------------------------------------------


@pytest.fixture(scope="module")
def cache_setup():
    webdb = AutonomousWebDatabase(generate_cardb(1200, seed=5))
    model = build_model(
        webdb,
        sample_size=400,
        rng=random.Random(6),
        settings=AIMQSettings(max_relaxation_level=3),
    )
    webdb.reset_accounting()
    return webdb, model


def _sample_queries(webdb, model, count: int) -> list[ImpreciseQuery]:
    schema = webdb.schema
    sample = model.sample
    queries = []
    for index in range(count):
        row = sample.row((index * 97) % len(sample))
        bindings = {
            name: row[schema.position(name)]
            for name in ("Model", "Price", "Location")
            if row[schema.position(name)] is not None
        }
        queries.append(ImpreciseQuery.like(schema.name, **bindings))
    return queries


def test_probe_cache_preserves_answer_sets(cache_setup):
    webdb, model = cache_setup
    engine = model.engine(webdb)
    for query in _sample_queries(webdb, model, 4):
        webdb.disable_probe_cache()
        cold = engine.answer(query)
        webdb.enable_probe_cache()
        try:
            warm = engine.answer(query)
            hot = engine.answer(query)
        finally:
            webdb.disable_probe_cache()

        # Identical answers: same tuples, same scores, same order.
        assert cold.answers == warm.answers
        assert cold.answers == hot.answers
        # Only the probe accounting differs: with the cache off nothing
        # is ever served from it, with it on the same lookups happen
        # but repeats stop reaching the source.
        assert cold.trace.probes_cached == 0
        assert warm.trace.total_lookups == cold.trace.queries_issued
        assert hot.trace.total_lookups == cold.trace.queries_issued
        assert hot.trace.probes_cached > 0
        assert hot.trace.queries_issued < cold.trace.queries_issued
