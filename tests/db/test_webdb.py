"""Unit tests for the autonomous Web database facade."""

import pytest

from repro.db.errors import ProbeLimitExceededError
from repro.db.faults import FaultPolicy, FaultSpec
from repro.db.predicates import Eq
from repro.db.query import SelectionQuery
from repro.db.webdb import AutonomousWebDatabase, ProbeLog


class TestMetadata:
    def test_schema_and_name(self, toy_webdb):
        assert toy_webdb.name == "Cars"
        assert "Make" in toy_webdb.schema

    def test_form_options_categorical(self, toy_webdb):
        assert toy_webdb.form_options("Make") == ["Ford", "Honda", "Toyota"]

    def test_form_options_numeric_refused(self, toy_webdb):
        with pytest.raises(ValueError):
            toy_webdb.form_options("Price")

    def test_cardinality_hint(self, toy_webdb, toy_table):
        assert toy_webdb.cardinality_hint() == len(toy_table)


class TestQuerying:
    def test_query_and_log(self, toy_webdb):
        result = toy_webdb.query(SelectionQuery((Eq("Make", "Toyota"),)))
        assert len(result) == 3
        assert toy_webdb.log.probes_issued == 1
        assert toy_webdb.log.tuples_returned == 3

    def test_empty_results_counted(self, toy_webdb):
        toy_webdb.query(SelectionQuery((Eq("Make", "BMW"),)))
        assert toy_webdb.log.empty_results == 1

    def test_count(self, toy_webdb):
        assert toy_webdb.count(SelectionQuery((Eq("Make", "Honda"),))) == 3

    def test_reset_accounting(self, toy_webdb):
        toy_webdb.query(SelectionQuery.match_all())
        toy_webdb.reset_accounting()
        assert toy_webdb.log.probes_issued == 0
        assert toy_webdb.execution_stats.queries_executed == 0


class TestResultCap:
    def test_cap_applies(self, toy_table):
        capped = AutonomousWebDatabase(toy_table, result_cap=2)
        result = capped.query(SelectionQuery((Eq("Make", "Toyota"),)))
        assert len(result) == 2 and result.truncated

    def test_caller_limit_cannot_exceed_cap(self, toy_table):
        capped = AutonomousWebDatabase(toy_table, result_cap=2)
        result = capped.query(SelectionQuery.match_all(), limit=5)
        assert len(result) == 2

    def test_caller_limit_below_cap(self, toy_table):
        capped = AutonomousWebDatabase(toy_table, result_cap=5)
        result = capped.query(SelectionQuery.match_all(), limit=1)
        assert len(result) == 1

    def test_offset_pages(self, toy_table):
        capped = AutonomousWebDatabase(toy_table, result_cap=3)
        first = capped.query(SelectionQuery.match_all())
        second = capped.query(SelectionQuery.match_all(), offset=3)
        third = capped.query(SelectionQuery.match_all(), offset=6)
        assert len(first) == 3 and first.truncated
        assert len(second) == 3 and second.truncated
        assert len(third) == len(toy_table) - 6 and not third.truncated
        seen = set(first.row_ids) | set(second.row_ids) | set(third.row_ids)
        assert seen == set(range(len(toy_table)))


class TestNegativeOffset:
    """A negative offset is a caller bug, refused before the probe counts."""

    @pytest.mark.parametrize("probe_budget", [None, 0])
    def test_refused_before_cache_budget_and_fault_draw(
        self, toy_table, probe_budget
    ):
        # Every fault draw would fail and the zero budget would refuse:
        # either would otherwise pass the caller bug off as a source
        # fault or an exhausted budget.
        policy = FaultPolicy(FaultSpec(transient_rate=1.0))
        webdb = AutonomousWebDatabase(
            toy_table,
            probe_budget=probe_budget,
            probe_cache_capacity=8,
            fault_policy=policy,
        )
        injected = dict(policy.injected)
        with pytest.raises(ValueError, match="offset cannot be negative"):
            webdb.query(SelectionQuery.match_all(), offset=-1)
        assert policy.injected == injected
        assert policy.attempts == 0
        assert webdb.probe_cache.misses == 0
        assert webdb.log == ProbeLog()


class TestProbeBudget:
    def test_budget_enforced(self, toy_table):
        limited = AutonomousWebDatabase(toy_table, probe_budget=2)
        limited.query(SelectionQuery.match_all())
        limited.query(SelectionQuery.match_all())
        with pytest.raises(ProbeLimitExceededError):
            limited.query(SelectionQuery.match_all())

    def test_error_carries_limit(self, toy_table):
        limited = AutonomousWebDatabase(toy_table, probe_budget=0)
        with pytest.raises(ProbeLimitExceededError) as excinfo:
            limited.query(SelectionQuery.match_all())
        assert excinfo.value.limit == 0


class TestCountProbes:
    """Count probes are real probes but must not inflate row accounting."""

    def test_count_logged_distinctly(self, toy_webdb):
        toy_webdb.count(SelectionQuery((Eq("Make", "Honda"),)))
        assert toy_webdb.log.probes_issued == 1
        assert toy_webdb.log.count_probes == 1
        assert toy_webdb.log.tuples_returned == 0

    def test_empty_count_recorded(self, toy_webdb):
        assert toy_webdb.count(SelectionQuery((Eq("Make", "BMW"),))) == 0
        assert toy_webdb.log.empty_results == 1

    def test_count_does_not_materialise_rows(self, toy_webdb):
        toy_webdb.count(SelectionQuery.match_all())
        assert toy_webdb.execution_stats.rows_returned == 0
        assert toy_webdb.execution_stats.rows_examined > 0

    def test_count_spends_probe_budget(self, toy_table):
        limited = AutonomousWebDatabase(toy_table, probe_budget=1)
        limited.count(SelectionQuery.match_all())
        with pytest.raises(ProbeLimitExceededError):
            limited.count(SelectionQuery.match_all())

    def test_count_ignores_result_cap(self, toy_table):
        capped = AutonomousWebDatabase(toy_table, result_cap=2)
        assert capped.count(SelectionQuery.match_all()) == len(toy_table)


class TestAccountingScope:
    def test_window_sees_only_scoped_traffic(self, toy_webdb):
        toy_webdb.query(SelectionQuery((Eq("Make", "Toyota"),)))
        with toy_webdb.accounting_scope() as window:
            toy_webdb.query(SelectionQuery((Eq("Make", "Honda"),)))
        assert window.probes_issued == 1
        assert window.tuples_returned == 3
        # The global log keeps accumulating untouched.
        assert toy_webdb.log.probes_issued == 2
        assert toy_webdb.log.tuples_returned == 6

    def test_window_freezes_at_exit(self, toy_webdb):
        with toy_webdb.accounting_scope() as window:
            toy_webdb.query(SelectionQuery((Eq("Make", "Ford"),)))
        toy_webdb.query(SelectionQuery.match_all())
        assert window.probes_issued == 1
        assert window.tuples_returned == 2

    def test_scopes_nest(self, toy_webdb):
        with toy_webdb.accounting_scope() as outer:
            toy_webdb.query(SelectionQuery((Eq("Make", "Toyota"),)))
            with toy_webdb.accounting_scope() as inner:
                toy_webdb.query(SelectionQuery((Eq("Make", "Honda"),)))
            assert inner.probes_issued == 1
            assert inner.tuples_returned == 3
        assert outer.probes_issued == 2
        assert outer.tuples_returned == 6

    def test_window_separates_count_probes(self, toy_webdb):
        with toy_webdb.accounting_scope() as window:
            toy_webdb.query(SelectionQuery((Eq("Make", "Honda"),)))
            toy_webdb.count(SelectionQuery((Eq("Make", "Toyota"),)))
        assert window.probes_issued == 2
        assert window.count_probes == 1
        assert window.tuples_returned == 3

    def test_window_tracks_execution_stats(self, toy_webdb):
        toy_webdb.query(SelectionQuery.match_all())
        with toy_webdb.accounting_scope() as window:
            toy_webdb.query(SelectionQuery.match_all())
        assert window.execution_stats.queries_executed == 1

    def test_window_survives_budget_trip(self, toy_table):
        limited = AutonomousWebDatabase(toy_table, probe_budget=1)
        with pytest.raises(ProbeLimitExceededError):
            with limited.accounting_scope() as window:
                limited.query(SelectionQuery.match_all())
                limited.query(SelectionQuery.match_all())
        assert window.probes_issued == 1
        assert limited.log.probes_issued == 1


class TestProbeLogDelta:
    def test_snapshot_and_delta(self, toy_webdb):
        toy_webdb.query(SelectionQuery((Eq("Make", "Toyota"),)))
        before = toy_webdb.log.snapshot()
        toy_webdb.query(SelectionQuery((Eq("Make", "Honda"),)))
        toy_webdb.count(SelectionQuery((Eq("Make", "BMW"),)))
        delta = toy_webdb.log.delta(before)
        assert delta.probes_issued == 2
        assert delta.tuples_returned == 3
        assert delta.count_probes == 1
        assert delta.empty_results == 1

    def test_snapshot_is_detached(self, toy_webdb):
        before = toy_webdb.log.snapshot()
        toy_webdb.query(SelectionQuery.match_all())
        assert before.probes_issued == 0
