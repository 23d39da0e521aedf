"""Run one workload in this process and derive its metrics.

Plain runs (``trace=False``) report the end-to-end metrics: the set-up
is repeated and its median reported, then the workload's timed loop
runs for the requested seconds with no instrumentation.  Traced runs
report the per-layer metrics: one set-up and the timed loop run with a
span wrapper around every layer entry point (:mod:`benchmarks.e2e.trace`),
after a shorter untraced pass over the same requests that gives the
tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.stats import percentile, supported_tail
from benchmarks.e2e.trace import Tracer, TraceSummary, instrumented
from benchmarks.e2e.workloads import SCALES, WORKLOADS, Op, Workload, accounting

__all__ = ["END_TO_END", "PER_LAYER", "run_workload"]

HERE = Path(__file__).resolve().parent
EXPECTED_DIGESTS = HERE / "expected.json"
TRACE_DIR = HERE / "out"

#: End-to-end metrics, reported by every workload: name -> unit.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of traced runs: name -> unit.  Values are per
#: timed request unless the name says per build (offline layers), and
#: 0 where the workload never enters the layer.
PER_LAYER = {
    "db.probes": "count",
    "db.count_probes": "count",
    "db.busy_ms": "ms",
    "db.executor_ms": "ms",
    "db.rows_examined_per_probe": "count",
    "db.rows_returned_per_probe": "count",
    "db.selectivity": "ratio",
    "db.empty_frac": "ratio",
    "db.cache_hit_frac": "ratio",
    "core.query.busy_ms": "ms",
    "core.query.base_set_size": "count",
    "core.query.generalisation_steps": "count",
    "core.relaxation.steps": "count",
    "core.relaxation.busy_ms": "ms",
    "core.similarity.calls": "count",
    "core.similarity.busy_ms": "ms",
    "core.similarity.relevant_frac": "ratio",
    "core.engine.self_ms": "ms",
    "core.work_per_relevant": "ratio",
    "resilience.self_ms": "ms",
    "resilience.retries": "count",
    "serve.admit_wait_ms_p50": "ms",
    "serve.admit_wait_ms_p95": "ms",
    "serve.payload_ms": "ms",
    "serve.router_self_ms": "ms",
    "serve.session_self_ms": "ms",
    "serve.shed_frac": "ratio",
    "serve.degraded_frac": "ratio",
    "loadgen.lag_ms_p95": "ms",
    "pipeline.self_s": "s",
    "sampling.busy_s": "s",
    "sampling.probes": "count",
    "afd.busy_s": "s",
    "afd.dependencies": "count",
    "simmining.supertuple_s": "s",
    "simmining.estimate_s": "s",
    "simmining.pairs_stored": "count",
    "obs.trace_overhead_frac": "ratio",
    "obs.self_time_coverage": "ratio",
    "obs.spans_per_op": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rescaled(ops: list[Op], speed: SpeedMeter) -> list[Op]:
    """``ops`` with service and latency at reference CPU speed."""
    result = []
    for op in ops:
        factor = speed.factor(op.waited_from, op.ended)
        result.append(
            Op(op.index, service_s=op.service_s * factor, latency_s=op.latency_s * factor)
        )
    return result


def end_to_end_metrics(ops: list[Op], setup_s: float) -> dict[str, float]:
    latencies = [op.latency_s for op in ops]
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90.0) * 1e3,
        "throughput_per_s": len(ops) / sum(op.service_s for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(
    workload: Workload,
    summary: TraceSummary,
    traced: list[Op],
    log: Any,
    stats: Any,
    traced_wall: float,
    overhead: float,
) -> dict[str, float]:
    n = len(traced)
    infos = [workload.op_info(op.result) for op in traced if op.result is not None]

    def total(key: str) -> float:
        return sum(info.get(key, 0) for info in infos)

    def per_op_ms(*names: str) -> float:
        return summary.self_seconds(names, requests="op") * 1e3 / n

    builds = summary.calls("pipeline")

    def per_build_s(*names: str) -> float:
        return _ratio(summary.self_seconds(names), builds)

    def ms_percentile(values: Any, p: float) -> float:
        return percentile(list(values), p) * 1e3 if len(values) else 0.0

    admit = summary.durations_of("serve.admit", requests="op")
    relaxation_steps = (
        summary.calls("core.relaxation", requests="op")
        - summary.counts["core.relaxation.exhausted"]
    )
    works = [
        info["extracted"] / info["relevant"] if info["relevant"] else info["extracted"]
        for info in infos
        if "extracted" in info
    ]
    models = workload.built_models()
    covered = summary.total_self(requests="op") + float(
        summary.durations_of("loadgen.idle").sum()
    )
    lookups = log.probes_issued + log.cache_hits
    answered = sum(1 for info in infos if info.get("status", 200) == 200)
    return {
        "db.probes": log.probes_issued / n,
        "db.count_probes": log.count_probes / n,
        "db.busy_ms": per_op_ms("db.query", "db.count"),
        "db.executor_ms": per_op_ms("db.executor"),
        "db.rows_examined_per_probe": _ratio(stats.rows_examined, stats.queries_executed),
        "db.rows_returned_per_probe": _ratio(stats.rows_returned, stats.queries_executed),
        "db.selectivity": _ratio(stats.rows_returned, stats.rows_examined),
        "db.empty_frac": _ratio(log.empty_results, log.probes_issued),
        "db.cache_hit_frac": _ratio(log.cache_hits, lookups),
        "core.query.busy_ms": per_op_ms("core.query"),
        "core.query.base_set_size": total("base_set_size") / n,
        "core.query.generalisation_steps": total("generalisation_steps") / n,
        "core.relaxation.steps": relaxation_steps / n,
        "core.relaxation.busy_ms": per_op_ms("core.relaxation"),
        "core.similarity.calls": summary.calls("core.similarity", requests="op") / n,
        "core.similarity.busy_ms": per_op_ms("core.similarity"),
        "core.similarity.relevant_frac": _ratio(total("relevant"), total("extracted")),
        "core.engine.self_ms": per_op_ms("core.engine"),
        "core.work_per_relevant": _ratio(sum(works), len(works)),
        "resilience.self_ms": per_op_ms("resilience"),
        "resilience.retries": total("retries") / n,
        "serve.admit_wait_ms_p50": ms_percentile(admit, 50.0),
        "serve.admit_wait_ms_p95": ms_percentile(admit, 95.0),
        "serve.payload_ms": per_op_ms("serve.payload"),
        "serve.router_self_ms": per_op_ms("serve.router"),
        "serve.session_self_ms": per_op_ms("serve.session"),
        "serve.shed_frac": total("shed") / n,
        "serve.degraded_frac": _ratio(total("degraded"), answered),
        "loadgen.lag_ms_p95": ms_percentile([op.lag_s for op in traced], 95.0),
        "pipeline.self_s": per_build_s("pipeline"),
        "sampling.busy_s": per_build_s("sampling"),
        "sampling.probes": _ratio(
            summary.children_of("db.query", "sampling")
            + summary.children_of("db.count", "sampling"),
            builds,
        ),
        "afd.busy_s": per_build_s("afd"),
        "afd.dependencies": _ratio(
            sum(len(m.dependencies.afds) for m in models), len(models)
        ),
        "simmining.supertuple_s": per_build_s("simmining.supertuples"),
        "simmining.estimate_s": per_build_s("simmining.estimate"),
        "simmining.pairs_stored": _ratio(
            sum(m.value_similarity.pair_count() for m in models), len(models)
        ),
        "obs.trace_overhead_frac": overhead,
        "obs.self_time_coverage": _ratio(covered, traced_wall),
        "obs.spans_per_op": summary.calls_total(requests="op") / n,
    }


def _run_plain(
    workload: Workload, seconds: float, details: dict[str, Any], import_s: float
) -> tuple[list[Op], list[str], dict[str, float]]:
    """End-to-end metrics, every time rescaled to reference CPU speed."""
    spans = []
    with SpeedMeter() as speed:
        for _ in range(workload.scale.setup_repeats):
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            spans.append((started, time.perf_counter()))
        gc.collect()
        ops = workload.measure(seconds)
    problems = workload.check(ops)
    first = speed.times[0]
    setups = [
        (end - start) * speed.factor(start, end) for start, end in spans
    ]
    scaled = rescaled(ops, speed)
    metrics = end_to_end_metrics(
        scaled,
        import_s * speed.factor(first, first) + statistics.median(setups),
    )
    latencies = [op.latency_s for op in scaled]
    tail = supported_tail(len(scaled))
    details.update(
        supported_tail=tail,
        supported_tail_ms=percentile(latencies, tail) * 1e3 if tail else None,
        raw_latency_p50_ms=statistics.median(op.latency_s for op in ops) * 1e3,
        speed_factor_p50=statistics.median(
            scaled_op.latency_s / op.latency_s for op, scaled_op in zip(ops, scaled)
        ),
        import_s=import_s,
        setup_raw_s=[end - start for start, end in spans],
        calibration_bursts=len(speed.costs),
    )
    if workload.name == "offline_build":
        for dataset in ("cardb", "censusdb"):
            details[f"build_s.{dataset}"] = statistics.median(
                op.result["build_s"][dataset] for op in ops if op.result
            )
    return ops, problems, metrics


def _run_traced(
    workload: Workload,
    seconds: float,
    details: dict[str, Any],
) -> tuple[list[Op], list[str], dict[str, float]]:
    """Per-layer metrics: a traced set-up, an untraced third of the time
    for the overhead baseline, then the traced two thirds over the same
    requests.  Spans record raw time; only the overhead, which compares
    the two phases, is rescaled to reference CPU speed."""
    tracer = Tracer()
    with instrumented(tracer) as absent, tracer.span("setup"):
        workload.setup()
    gc.collect()
    with SpeedMeter() as speed:
        untraced = workload.measure(seconds / 3.0)
        log_before, stats_before = accounting(workload.facades())
        tracer.counts.clear()
        gc.collect()
        with instrumented(tracer):
            started = time.perf_counter()
            traced = workload.measure(seconds * 2.0 / 3.0, tracer=tracer)
            traced_wall = time.perf_counter() - started
    log_after, stats_after = accounting(workload.facades())
    ops = untraced + traced
    problems = workload.check(ops)
    matched = min(len(untraced), len(traced))
    metrics = layer_metrics(
        workload,
        tracer.summary(),
        traced,
        log_after.delta(log_before),
        stats_after.delta(stats_before),
        traced_wall,
        overhead=_ratio(
            sum(op.service_s for op in rescaled(traced[:matched], speed)),
            sum(op.service_s for op in rescaled(untraced[:matched], speed)),
        )
        - 1.0,
    )
    path = TRACE_DIR / f"{workload.name}.trace.json"
    details.update(
        untraced_ops=len(untraced),
        traced_ops=len(traced),
        spans=len(tracer.starts),
        chrome_trace=str(path),
        chrome_events=tracer.write_chrome(path),
        untraced_targets=absent,
    )
    return ops, problems, metrics


def _expected_digest(workload: str, seed: int, scale: str) -> str | None:
    if scale != "full" or not EXPECTED_DIGESTS.exists():
        return None
    expected = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    return expected.get(str(seed), {}).get(workload)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "full",
    import_s: float = 0.0,
) -> dict[str, Any]:
    """Run workload ``name`` once; returns the full result record."""
    workload = WORKLOADS[name](seed, SCALES[scale])
    workload.inputs()
    details: dict[str, Any] = {}
    if trace:
        ops, problems, metrics = _run_traced(workload, seconds, details)
        units = PER_LAYER
    else:
        ops, problems, metrics = _run_plain(workload, seconds, details, import_s)
        units = END_TO_END
    digest = workload.digest()
    expected = _expected_digest(name, seed, scale)
    if expected is not None and digest != expected:
        problems.append(f"answer digest {digest} != expected {expected}")
    failed = sum(1 for op in ops if op.errors)
    problems += [
        f"op {op.index}: {'; '.join(op.errors)}" for op in ops if op.errors
    ][:5]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
        "digest": digest,
        "expected_digest": expected,
        "problems": problems,
        "details": details,
    }
