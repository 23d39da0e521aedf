"""Cross-layer observability of the answering hot path.

Resilience retry spans nest under the answering span; the single
``engine.answer`` wide event's probe accounting equals the
:class:`RelaxationTrace` and :class:`~repro.db.ProbeLog` numbers
exactly; the event, root-span and ``/query`` payload shapes are pinned
field by field; and turning events and tracing on never changes an
answer bit.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AIMQSettings, ImpreciseQuery, build_model
from repro.db.faults import FaultPolicy, FaultSpec
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.obs import OBS
from repro.resilience import ResiliencePolicy
from repro.resilience.clock import VirtualClock
from repro.serve.handlers import answer_payload


@pytest.fixture()
def obs_full():
    """Tracing + events on with clean state; everything restored after."""
    OBS.reset()
    OBS.enable()
    OBS.events.enabled = True
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.events.enabled = False
        OBS.events.probe_events = False
        OBS.reset()


def _profile_webdb(n_rows: int = 300, profiles: int = 6, seed: int = 9):
    """Rows drawn from few profiles, so every relaxation finds tuples."""
    rng = random.Random(seed)
    schema = RelationSchema.build(
        "mini", categorical=("A", "B", "C"), numeric=(), order=("A", "B", "C")
    )
    pool = [
        (f"a{rng.randrange(3)}", f"b{rng.randrange(3)}", f"c{rng.randrange(3)}")
        for _ in range(profiles)
    ]
    table = Table(schema)
    for _ in range(n_rows):
        table.insert(rng.choice(pool))
    return AutonomousWebDatabase(table)


@pytest.fixture(scope="module")
def setup():
    webdb = _profile_webdb()
    model = build_model(
        webdb,
        sample_size=120,
        rng=random.Random(4),
        settings=AIMQSettings(max_relaxation_level=2),
    )
    webdb.reset_accounting()
    query = ImpreciseQuery.like(webdb.schema.name, A="a1")
    return webdb, model, query


def _sig(answers):
    return [(a.row_id, a.similarity, a.base_similarity) for a in answers]


def _answer_root():
    for root in reversed(OBS.tracer.traces()):
        if root.name == "engine.answer":
            return root
    raise AssertionError("no engine.answer root recorded")


class TestSpanParentage:
    def test_retry_spans_nest_under_the_answering_span(
        self, obs_full, setup
    ):
        webdb, model, query = setup
        webdb.set_fault_policy(
            FaultPolicy(FaultSpec(transient_rate=0.4), seed=5)
        )
        try:
            model.engine(
                webdb, resilience=ResiliencePolicy(), clock=VirtualClock()
            ).answer(query)
        finally:
            webdb.set_fault_policy(None)
        root = _answer_root()
        backoffs = [
            span
            for span in root.walk()
            if span.name == "resilience.backoff"
        ]
        assert backoffs, "fault schedule produced no retries"
        for span in backoffs:
            assert span.trace_id == root.trace_id
            assert span.attributes["attempt"] >= 1
            assert span.attributes["max_attempts"] >= span.attributes["attempt"]
            assert "delay" in span.attributes
            assert "error" in span.attributes


class TestAnswerEvent:
    def test_single_event_with_exact_probe_accounting(
        self, obs_full, setup
    ):
        webdb, model, query = setup
        log_before = webdb.log.snapshot()
        answers = model.engine(webdb).answer(query, k=5)
        events = [
            e for e in OBS.events.events() if e["event"] == "engine.answer"
        ]
        assert len(events) == 1
        (event,) = events
        trace = answers.trace
        assert event["mode"] == "answer"
        assert event["dataset"] == webdb.schema.name
        assert event["k"] == 5
        assert event["answers"] == len(answers)
        assert event["base_set_size"] == trace.base_set_size
        assert event["probes_issued"] == trace.queries_issued
        assert event["probes_cached"] == trace.probes_cached
        assert event["probes_subsumed"] == trace.probes_subsumed == 0
        assert event["logical_probes"] == trace.logical_probes
        assert event["logical_probes"] == (
            event["probes_issued"]
            + event["probes_cached"]
            + event["probes_subsumed"]
        )
        assert event["tuples_extracted"] == trace.tuples_extracted
        assert event["tuples_relevant"] == trace.tuples_relevant
        assert event["resilient"] is False
        assert event["degraded"] is False
        log_delta = webdb.log.delta(log_before)
        assert event["log_probes_issued"] == log_delta.probes_issued
        assert event["log_tuples_returned"] == log_delta.tuples_returned
        assert event["log_empty_results"] == log_delta.empty_results
        for phase in ("mapping", "expansion", "ranking"):
            assert event[f"{phase}_seconds"] >= 0.0
        assert event["total_seconds"] > 0.0

    def test_event_trace_id_matches_the_answering_span(
        self, obs_full, setup
    ):
        webdb, model, query = setup
        model.engine(webdb).answer(query)
        event = OBS.events.last()
        assert event["event"] == "engine.answer"
        assert event["trace_id"] == _answer_root().trace_id

    def test_events_without_tracing_still_carry_an_id(self, setup):
        webdb, model, query = setup
        OBS.reset()
        OBS.disable()
        OBS.events.enabled = True
        try:
            model.engine(webdb).answer(query)
            event = OBS.events.last()
            assert event["event"] == "engine.answer"
            assert event["trace_id"].startswith("t-")
            assert OBS.tracer.traces() == []
        finally:
            OBS.events.enabled = False
            OBS.reset()

    def test_gather_similar_emits_its_own_event(self, obs_full, setup):
        webdb, model, query = setup
        seed_row = model.sample.row(0)
        model.engine(webdb).gather_similar(seed_row, target=4, row_id=3)
        event = OBS.events.last()
        assert event["event"] == "engine.gather_similar"
        assert event["mode"] == "gather_similar"
        assert event["query"] == "row:3"
        assert event["k"] == 4


#: Fields of both engine wide events, besides the per-phase timings.
EVENT_FIELDS = {
    "answers", "base_set_size", "breaker_open", "breaker_opens",
    "budget_exhausted", "dataset", "deadline_exceeded", "deepest_level",
    "degraded", "event", "generalisation_steps", "k", "log_cache_hits",
    "log_count_probes", "log_empty_results", "log_probes_issued",
    "log_tuples_returned", "logical_probes", "mode", "probes_cached",
    "probes_failed", "probes_issued", "probes_subsumed", "query",
    "resilient", "retries_used", "seq", "skipped_stages", "steps_skipped",
    "threshold", "total_seconds", "trace_id", "ts", "tuples_extracted",
    "tuples_relevant",
}


class TestWireShapes:
    """Exact field sets: a field dropped or added anywhere fails here."""

    def test_answer_event_span_and_payload_fields(self, obs_full, setup):
        webdb, model, query = setup
        answers = model.engine(webdb).answer(query, k=5)
        event = OBS.events.last()
        assert event["event"] == "engine.answer"
        assert set(event) == EVENT_FIELDS | {
            "mapping_seconds", "expansion_seconds", "ranking_seconds",
        }
        assert set(_answer_root().attributes) == {
            "query", "k", "answers", "probes", "degraded",
        }
        assert set(answer_payload(answers)["trace"]) == {
            "base_set_size", "generalisation_steps", "queries_issued",
            "probes_cached", "probes_subsumed", "logical_probes",
            "tuples_extracted", "tuples_relevant", "deepest_level",
        }

    def test_gather_similar_event_and_span_fields(self, obs_full, setup):
        webdb, model, _ = setup
        model.engine(webdb).gather_similar(
            model.sample.row(0), target=4, row_id=3
        )
        event = OBS.events.last()
        assert event["event"] == "engine.gather_similar"
        assert set(event) == EVENT_FIELDS | {
            "expansion_seconds", "ranking_seconds",
        }
        (root,) = OBS.tracer.traces()
        assert root.name == "engine.gather_similar"
        assert set(root.attributes) == {
            "row_id", "threshold", "answers", "probes", "degraded",
        }


class TestProbeEvents:
    def test_opt_in_probe_events_correlate_with_the_answer(
        self, obs_full, setup
    ):
        webdb, model, query = setup
        OBS.events.probe_events = True
        model.engine(webdb).answer(query)
        events = OBS.events.events()
        probes = [e for e in events if e["event"] == "db.probe"]
        answer = next(e for e in events if e["event"] == "engine.answer")
        assert probes
        assert {e["kind"] for e in probes} <= {"query", "count"}
        # Every probe issued inside the answering span shares its
        # trace id.
        assert {e["trace_id"] for e in probes} == {answer["trace_id"]}
        issued = [e for e in probes if not e["from_cache"]]
        assert len(issued) == answer["log_probes_issued"]

    def test_probe_events_off_by_default(self, obs_full, setup):
        webdb, model, query = setup
        model.engine(webdb).answer(query)
        assert all(
            e["event"] != "db.probe" for e in OBS.events.events()
        )

    def test_retry_events_carry_attempt_and_budget(self, obs_full, setup):
        webdb, model, query = setup
        OBS.events.probe_events = True
        webdb.set_fault_policy(
            FaultPolicy(FaultSpec(transient_rate=0.4), seed=5)
        )
        try:
            model.engine(
                webdb, resilience=ResiliencePolicy(), clock=VirtualClock()
            ).answer(query)
        finally:
            webdb.set_fault_policy(None)
        retries = [
            e
            for e in OBS.events.events()
            if e["event"] == "resilience.retry"
        ]
        assert retries
        answer_id = _answer_root().trace_id
        for event in retries:
            assert 1 <= event["attempt"] < event["max_attempts"]
            assert event["delay_seconds"] >= 0.0
            assert event["error"] == "TransientProbeError"
            assert event["trace_id"] == answer_id


class TestBitIdentity:
    def test_observability_never_changes_an_answer(self, setup):
        webdb, model, query = setup
        plain = model.engine(webdb)
        # Finite deadlines, as a served request has.  With OBS off each
        # probe takes ResilientWebDatabase._guard's fast branch (query
        # budget only); with OBS on, the full retry path under both.
        guarded = model.engine(
            webdb,
            resilience=ResiliencePolicy(
                probe_deadline_seconds=60.0, query_deadline_seconds=600.0
            ),
        )

        def outcomes():
            return [
                (_sig(answers), answers.trace.queries_issued)
                for answers in (plain.answer(query), guarded.answer(query))
            ]

        OBS.reset()
        OBS.disable()
        OBS.events.enabled = False
        baseline = outcomes()
        try:
            OBS.events.enabled = True
            events_only = outcomes()
            OBS.enable()
            full = outcomes()
        finally:
            OBS.disable()
            OBS.events.enabled = False
            OBS.reset()
        assert baseline[0] == baseline[1]
        assert baseline == events_only == full
