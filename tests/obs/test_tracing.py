"""Unit tests for span tracing and the no-op path."""

import threading

import pytest

from repro.obs import NOOP_SPAN, OBS, render_span_tree, span_summary
from repro.obs.tracing import Tracer


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert [child.name for child in outer.children] == [
            "inner.a",
            "inner.b",
        ]
        assert [span.name for span in tracer.last_trace().walk()] == [
            "outer",
            "inner.a",
            "inner.b",
        ]

    def test_only_roots_enter_the_ring(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [root.name for root in tracer.traces()] == ["root"]

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(max_traces=3)
        for i in range(10):
            with tracer.span(f"root-{i}"):
                pass
        assert [root.name for root in tracer.traces()] == [
            "root-7",
            "root-8",
            "root-9",
        ]

    def test_current_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_threads_do_not_share_stacks(self):
        tracer = Tracer()
        seen = []

        def work(label: str) -> None:
            with tracer.span(f"root-{label}"):
                with tracer.span(f"child-{label}"):
                    pass
            seen.append(label)

        threads = [
            threading.Thread(target=work, args=(str(i),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4
        roots = tracer.traces()
        assert len(roots) == 4
        for root in roots:
            assert len(root.children) == 1


class TestSpanLifecycle:
    def test_timing_and_status(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            assert span.duration_seconds is None
            assert span.status == "in_progress"
        assert span.status == "ok"
        assert span.duration_seconds is not None and span.duration_seconds >= 0
        assert span.attributes["items"] == 3

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("work"):
                raise RuntimeError("boom")
        root = tracer.last_trace()
        assert root.status == "error"
        assert "RuntimeError: boom" in root.error

    def test_as_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        payload = tracer.last_trace().as_dict()
        assert payload["name"] == "outer"
        assert payload["attributes"] == {"k": 1}
        assert payload["children"][0]["name"] == "inner"


class TestDisabledMode:
    def test_disabled_runtime_hands_out_noop(self):
        OBS.disable()
        assert OBS.span("anything", key="value") is NOOP_SPAN

    def test_noop_span_accepts_the_full_api(self):
        with NOOP_SPAN as span:
            span.set_attribute("key", "value")

    def test_enabled_runtime_records(self, obs_enabled):
        with obs_enabled.span("root") as span:
            span.set_attribute("k", 1)
        assert obs_enabled.tracer.last_trace().name == "root"


class TestTraceIds:
    def test_root_gets_a_fresh_id_children_inherit(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
        assert root.trace_id.startswith("t-")

    def test_distinct_roots_get_distinct_ids(self):
        tracer = Tracer()
        with tracer.span("a") as first:
            pass
        with tracer.span("b") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_as_dict_includes_trace_id(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert tracer.last_trace().as_dict()["trace_id"].startswith("t-")


class TestSpanSummary:
    def test_aggregates_by_name_sorted_by_total(self):
        tracer = Tracer()
        with tracer.span("engine.answer"):
            for _ in range(3):
                with tracer.span("db.probe"):
                    pass
        rows = span_summary(tracer.traces())
        by_name = {row["name"]: row for row in rows}
        assert by_name["db.probe"]["count"] == 3
        assert by_name["engine.answer"]["count"] == 1
        assert rows[0]["name"] == "engine.answer"  # longest total first
        assert all(row["errors"] == 0 for row in rows)

    def test_counts_errors(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("engine.answer"):
                raise RuntimeError("boom")
        (row,) = span_summary(tracer.traces())
        assert row["errors"] == 1


class TestRendering:
    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("outer", items=2):
            with tracer.span("inner"):
                pass
        text = render_span_tree(tracer.last_trace())
        lines = text.splitlines()
        assert lines[0].startswith("outer") and "[items=2]" in lines[0]
        assert lines[1].startswith("  inner")

    def test_render_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("bad input")
        text = render_span_tree(tracer.last_trace())
        assert " !" in text.splitlines()[0]
        assert "error: ValueError: bad input" in text
