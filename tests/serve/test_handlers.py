"""Router endpoints: bit-identity with the CLI path, staged degradation.

The headline test proves the serving contract: the JSON a ``/query``
response carries is **equal** to :func:`repro.serve.answer_payload`
applied to the AnswerSet the one-shot CLI construction produces for the
same query — rows, ranked order, every trace counter and every
degradation flag.
"""

import dataclasses
import json
import random

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model
from repro.core.query import ImpreciseQuery
from repro.core.store import save_model
from repro.datasets.cardb import cardb_webdb
from repro.obs import OBS
from repro.resilience import ResiliencePolicy
from repro.serve import AdmissionController, Router, ServeState, answer_payload


def get_json(response):
    return json.loads(response.body.decode("utf-8"))


class TestProbes:
    def test_healthz_always_ok(self, make_router):
        response = make_router().route("GET", "/healthz")
        assert response.status == 200
        assert response.body == b"ok\n"

    def test_readyz_ok_when_loaded(self, make_router):
        response = make_router().route("GET", "/readyz")
        assert response.status == 200
        assert get_json(response) == {"ready": True}

    def test_readyz_503_while_draining(self, make_router):
        router = make_router()
        router.admission.start_drain()
        response = router.route("GET", "/readyz")
        assert response.status == 503
        assert get_json(response)["reason"] == "draining"

    def test_unknown_route_is_404(self, make_router):
        assert make_router().route("GET", "/nope").status == 404


class TestQueryBitIdentity:
    def test_served_answer_equals_cli_path_answer(
        self, make_router, serve_config
    ):
        # The CLI construction (`repro query cardb --resilient ...`),
        # rebuilt from scratch with the server's knobs.
        webdb = cardb_webdb(serve_config.rows, seed=serve_config.seed)
        model = build_model(
            webdb,
            sample_size=serve_config.sample,
            rng=random.Random(serve_config.seed + 1),
            settings=AIMQSettings(max_relaxation_level=3),
        )
        engine = model.engine(webdb, resilience=ResiliencePolicy())
        query = ImpreciseQuery.like("CarDB", Make="Ford", Year=2002)
        expected = json.loads(json.dumps(answer_payload(engine.answer(query, k=8))))
        params = {"c": ["Make=Ford", "Year=2002"], "k": ["8"]}

        response = make_router().route("GET", "/query", params)
        assert response.status == 200
        served = get_json(response)
        served.pop("trace_id")
        served.pop("budgets")
        # Bit-identical: rows, order, similarities, trace counters
        # (probe accounting) and degradation flags all match exactly.
        assert served == expected
        assert expected["answers"], "reference query answered nothing"

        # With the shared probe cache on, cold and then warm: repeated
        # probes are served locally, so the issued and cached counters
        # differ, but every lookup still happens and clients see the
        # same answers, order and degradation report.
        config = dataclasses.replace(serve_config, probe_cache_capacity=8_192)
        state = ServeState.load(config)
        router = Router(state, AdmissionController(config), config)
        expected_trace = expected.pop("trace")
        for _ in range(2):
            response = router.route("GET", "/query", params)
            assert response.status == 200
            served = get_json(response)
            served.pop("trace_id")
            served.pop("budgets")
            trace = served.pop("trace")
            assert served == expected
            assert trace["logical_probes"] == expected_trace["logical_probes"]
            assert trace["probes_cached"] > 0

    def test_get_and_post_produce_the_same_payload(self, make_router):
        router = make_router()
        via_get = get_json(
            router.route("GET", "/query", {"c": ["Make=Ford"], "k": ["5"]})
        )
        body = json.dumps({"constraints": {"Make": "Ford"}, "k": 5}).encode()
        via_post = get_json(router.route("POST", "/query", {}, body))
        via_get.pop("trace_id")
        via_post.pop("trace_id")
        assert via_get == via_post


class TestQueryValidation:
    def test_malformed_constraint_is_400(self, make_router):
        response = make_router().route("GET", "/query", {"c": ["oops"]})
        assert response.status == 400
        assert "Attribute=Value" in get_json(response)["error"]

    def test_missing_constraints_is_400(self, make_router):
        assert make_router().route("GET", "/query").status == 400

    def test_text_and_constraints_together_is_400(self, make_router):
        response = make_router().route(
            "GET", "/query", {"c": ["Make=Ford"], "text": ["Make like Ford"]}
        )
        assert response.status == 400

    def test_k_beyond_max_is_400(self, make_router):
        response = make_router().route(
            "GET", "/query", {"c": ["Make=Ford"], "k": ["100000"]}
        )
        assert response.status == 400

    def test_bad_json_body_is_400(self, make_router):
        response = make_router().route("POST", "/query", {}, b"{nope")
        assert response.status == 400

    @pytest.mark.parametrize(
        ("method", "params", "document"),
        [
            ("POST", {}, {"text": 5}),
            ("POST", {}, {"constraints": {"Make": ["Ford"]}}),
            ("POST", {}, {"constraints": {"Make": None}}),
            ("POST", {}, {"constraints": {"Make": True}}),
            ("POST", {}, {"constraints": {"Make": "Ford"}, "k": None}),
            ("POST", {}, {"constraints": {"Make": "Ford"}, "k": [3]}),
            ("POST", {}, {"constraints": {"Make": "Ford"}, "k": True}),
            ("POST", {}, {"constraints": {"Make": "Ford"}, "k": 2.7}),
            ("GET", {"c": ["Price=abc"]}, None),
            ("GET", {"c": ["Nope=1"]}, None),
            ("GET", {"text": ["garbage ((("]}, None),
            ("GET", {"text": ["Other(Make like Ford)"]}, None),
        ],
        ids=[
            "text-number", "value-list", "value-null", "value-bool",
            "k-null", "k-list", "k-bool", "k-float", "numeric-string",
            "unknown-attribute", "unparsable-text", "other-relation",
        ],
    )
    def test_malformed_request_is_400(
        self, make_router, method, params, document
    ):
        body = b"" if document is None else json.dumps(document).encode()
        response = make_router().route(method, "/query", params, body)
        assert response.status == 400, get_json(response)
        assert get_json(response)["error"]

    def test_text_query_parses_like_the_cli(self, make_router):
        response = make_router().route(
            "GET", "/query", {"text": ["Make like Ford"], "k": ["3"]}
        )
        assert response.status == 200
        assert get_json(response)["query"] == "CarDB(Make like 'Ford')"


class TestOverload:
    def test_full_server_sheds_with_retry_after(self, make_router):
        router = make_router(max_inflight=1, max_queue=0)
        # Occupy the only slot from the outside.
        assert router.admission.admit().admitted
        response = router.route("GET", "/query", {"c": ["Make=Ford"]})
        assert response.status == 429
        assert int(response.headers["Retry-After"]) >= 1
        assert get_json(response)["reason"] == "queue_full"
        router.admission.release()
        # The freed slot admits the next request, which is answered.
        assert router.route("GET", "/query", {"c": ["Make=Ford"]}).status == 200

    def test_draining_server_sheds_new_queries(self, make_router):
        router = make_router()
        router.admission.start_drain()
        response = router.route("GET", "/query", {"c": ["Make=Ford"]})
        assert response.status == 429
        assert get_json(response)["reason"] == "draining"

    def test_pressured_request_degrades_not_errors(self, make_router):
        # One slot and a low threshold: the only admitted request sees
        # pressure 1.0 and runs under the shrunken budgets.  The probe
        # cap is far below what the query needs, so the answer comes
        # back partial — degraded, never a 5xx.
        router = make_router(
            max_inflight=1,
            pressure_threshold=0.5,
            pressured_probe_cap=30,
            pressured_deadline_seconds=60.0,
        )
        response = router.route("GET", "/query", {"c": ["Make=Ford"], "k": ["8"]})
        assert response.status == 200
        payload = get_json(response)
        assert payload["budgets"] == {
            "pressured": True,
            "query_deadline_seconds": 60.0,
            "probe_cap": 30,
        }
        assert payload["degraded"] is True
        assert payload["degradation"]["budget_exhausted"] is True
        # The slot was released on the way out.
        assert router.admission.snapshot()["inflight"] == 0

    def test_slot_released_even_when_answering_raises(self, make_router):
        router = make_router()
        for params in ({"c": ["Make=Ford"]}, {"c": ["oops"]}):
            router.route("GET", "/query", params)
        assert router.admission.snapshot()["inflight"] == 0


class TestIntrospection:
    def test_stats_reports_all_sections(self, make_router):
        router = make_router()
        router.route("GET", "/query", {"c": ["Make=Ford"]})
        payload = get_json(router.route("GET", "/stats"))
        assert payload["admission"]["admitted_total"] == 1
        assert payload["state"]["ready"] is True
        assert payload["state"]["relation"] == "CarDB"
        assert payload["source"]["probes_issued"] > 0

    def test_metrics_exposes_serve_families(self, make_router, obs_serving):
        from repro.serve import preregister_serve_metrics

        preregister_serve_metrics()
        router = make_router()
        router.route("GET", "/query", {"c": ["Make=Ford"]})
        response = router.route("GET", "/metrics")
        assert response.status == 200
        text = response.body.decode("utf-8")
        assert text.endswith("# EOF\n")
        for family in (
            "repro_serve_requests_total",
            "repro_serve_shed_total",
            "repro_serve_inflight_count",
            "repro_serve_queue_depth_count",
            "repro_serve_request_seconds",
        ):
            assert f"# TYPE {family}" in text, family

    def test_trace_id_propagates_to_payload_header_and_event(
        self, make_router, obs_serving
    ):
        router = make_router()
        response = router.route("GET", "/query", {"c": ["Make=Ford"]})
        payload = get_json(response)
        trace_id = payload["trace_id"]
        assert trace_id
        assert response.headers["X-Trace-Id"] == trace_id
        events = [
            e for e in OBS.events.events() if e["event"] == "serve.request"
        ]
        assert len(events) == 1
        assert events[0]["trace_id"] == trace_id
        # The engine's own wide event ran inside the request span, so it
        # carries the same trace id.
        engine_events = [
            e for e in OBS.events.events() if e["event"] == "engine.answer"
        ]
        assert engine_events
        assert engine_events[0]["trace_id"] == trace_id


def test_undecodable_model_on_reload_keeps_the_old_bundle(
    serve_state, serve_config, tmp_path
):
    path = save_model(serve_state.current().model, tmp_path / "model.json")
    config = dataclasses.replace(serve_config, model_path=str(path))
    state = ServeState.load(config)
    router = Router(state, AdmissionController(config), config)
    payload = json.loads(path.read_text())
    del payload["timings"]
    path.write_text(json.dumps(payload))

    response = router.route("POST", "/reload")
    assert response.status == 503
    assert get_json(response)["reloaded"] is False
    assert state.current().generation == 1
    assert router.route("GET", "/query", {"c": ["Make=Ford"]}).status == 200


@pytest.mark.parametrize(
    "raw,expected",
    [("2002", 2002), ("1.5", 1.5), ("Ford", "Ford")],
)
def test_constraint_coercion_matches_cli(raw, expected):
    # GET constraints, POST string values and CLI pairs share one parser.
    from repro.core.parser import coerce_value, parse_binding

    assert coerce_value(raw) == expected
    assert parse_binding(f"X={raw}") == ("X", expected)
