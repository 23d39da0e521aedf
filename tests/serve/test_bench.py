"""The ``serve_load`` scenario: registration, shape, and contracts.

Speedup magnitude is a bench concern (gated in CI against the
committed baseline); here we pin what must hold at *any* scale — the
equivalence verdict, the overload contract, and the reported shape.
"""

import repro.serve  # noqa: F401 — registers the scenario on import
from repro.perf.bench import SCENARIOS, BenchScale, _Fixture
from repro.serve.bench import bench_serve_load


def tiny_scale():
    return BenchScale(
        rows=300,
        sample=120,
        repeats=1,
        queries=2,
        candidates=100,
        top_k=5,
        score_rows=50,
        score_repeats=1,
        serve_clients=4,
        serve_requests=8,
    )


def test_scenario_registered_by_serve_import():
    assert SCENARIOS["serve_load"] is bench_serve_load


def test_serve_load_upholds_the_serving_contract():
    scale = tiny_scale()
    result = bench_serve_load(scale, _Fixture(scale))
    assert result.name == "serve_load"
    assert result.slow_seconds > 0 and result.fast_seconds > 0
    # Equivalent folds in three contracts: identical client-visible
    # answers across both arms, every request answered (no 5xx), and
    # the overload leg shedding with 429 + Retry-After.
    assert result.equivalent
    details = result.details
    assert details["clients"] == scale.serve_clients
    assert details["requests"] == scale.serve_requests
    assert details["p50_ms"] <= details["p95_ms"] <= details["p99_ms"]
    assert 0.0 <= details["cache_hit_rate"] <= 1.0
    assert details["cache_hits"] > 0
    assert details["degraded_count"] == 0
    overload = details["overload"]
    assert overload["contract_held"]
    assert overload["shed"] == scale.serve_clients
    assert overload["shed_with_retry_after"]
    assert overload["recovered_status"] == 200
