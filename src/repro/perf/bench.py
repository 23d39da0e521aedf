"""Fast-path micro-benchmarks (``python -m repro bench``).

One scenario per fast path introduced by the performance layer, plus
one overhead guard for the resilience layer:

``probe_cache``
    Repeated imprecise-query answering with the facade's LRU probe
    cache off (every relaxation probe hits the source) vs on (repeats
    are served from the cache).
``topk``
    Ranking the extended set with a full sort vs ``heapq.nsmallest``.
``similarity_memo``
    Scoring candidate rows through the per-call reference path
    (``sim_to_query``) vs one precompiled :class:`BindingsScorer`.
``resilience_overhead``
    Repeated answering on a healthy source through the plain facade vs
    through :class:`~repro.resilience.ResilientWebDatabase` with a full
    policy attached (retry + breaker + deadlines).  This scenario is a
    *guard*, not an optimisation: both paths must produce identical
    answers and the guarded path must stay within the regression
    tolerance — i.e. resilience on the happy path is close to free.
``obs_overhead``
    Repeated answering with observability fully off (the reference)
    vs the wide-event log alone vs events *and* tracing together.
    Another guard: all three passes must produce bit-identical
    answers. The wide-events-on pass — the always-on production
    posture, budget < 5% — is the ``fast`` leg, so the regression and
    baseline gates pin its overhead. Full span tracing is a debugging
    mode whose cost is proportional to span count (per-probe spans
    over microsecond in-memory probes), so its measured fraction is
    reported in ``details["full_overhead"]`` rather than gated.

Every scenario checks that the fast and slow paths produced identical
results; ``check_regressions`` turns a report into CI failures when a
fast path is slower than its reference beyond a tolerance, and
``check_baseline`` compares a fresh report's speedups against a
committed baseline (``BENCH_perf.json``) so the fast paths cannot
silently decay across commits.  ``append_history`` keeps the
trajectory: one JSON line per recorded run in ``BENCH_history.jsonl``.

Timing runs with observability *off* so neither path pays metric
overhead; counters reported in ``details`` come from separate metered
re-runs of the fast path.
"""

from __future__ import annotations

import heapq
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import AIMQSettings
from repro.core.pipeline import AIMQModel, build_model
from repro.core.query import ImpreciseQuery
from repro.core.results import RankedAnswer
from repro.datasets.cardb import cardb_webdb
from repro.db.webdb import AutonomousWebDatabase
from repro.obs.runtime import OBS
from repro.resilience import ResiliencePolicy, ResilientWebDatabase

__all__ = [
    "BenchScale",
    "SCALES",
    "SCENARIOS",
    "ScenarioResult",
    "append_history",
    "check_baseline",
    "check_regressions",
    "load_report",
    "run_bench",
]


@dataclass(frozen=True)
class BenchScale:
    """Problem sizes for one benchmark scale."""

    rows: int  # source size behind the facade
    sample: int  # sample size for model building
    repeats: int  # repeated answering passes over the query set
    queries: int  # distinct imprecise queries per pass
    candidates: int  # synthetic extended-set size for top-k
    top_k: int
    score_rows: int  # rows scored per similarity-memo repetition
    score_repeats: int
    # serve_load (registered by repro.serve.bench): concurrent clients
    # against the answering server, with the shared probe cache as the
    # fast path.
    serve_clients: int = 6
    serve_requests: int = 24


SCALES: dict[str, BenchScale] = {
    # CI smoke: seconds, not minutes; still large enough that the
    # fast/slow gap dominates timer noise.  This is the committed
    # BENCH_perf.json scale, because the CI baseline gate compares
    # speedups at the scale the bench-smoke job actually runs.
    "smoke": BenchScale(
        rows=1_500,
        sample=400,
        repeats=3,
        queries=2,
        candidates=30_000,
        top_k=10,
        score_rows=400,
        score_repeats=30,
    ),
    # The scale the committed BENCH_history.jsonl trajectory records.
    "default": BenchScale(
        rows=6_000,
        sample=1_200,
        repeats=5,
        queries=3,
        candidates=150_000,
        top_k=10,
        score_rows=1_200,
        score_repeats=60,
    ),
}


@dataclass
class ScenarioResult:
    """Timing pair + equivalence verdict for one scenario."""

    name: str
    slow_seconds: float
    fast_seconds: float
    equivalent: bool
    details: dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.fast_seconds <= 0.0:
            return float("inf")
        return self.slow_seconds / self.fast_seconds

    def as_dict(self) -> dict[str, object]:
        return {
            "slow_seconds": round(self.slow_seconds, 6),
            "fast_seconds": round(self.fast_seconds, 6),
            "speedup": round(self.speedup, 3),
            "equivalent": self.equivalent,
            "details": self.details,
        }


def _timed(run: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    value = run()
    return value, time.perf_counter() - start


# -- shared fixture -----------------------------------------------------------


class _Fixture:
    """One source + mined model shared by the engine-level scenarios.

    Built on first access so scenario subsets that never touch the
    engine (``--only topk``) skip the model build entirely.
    """

    def __init__(self, scale: BenchScale) -> None:
        self._scale = scale
        self._webdb: AutonomousWebDatabase | None = None
        self._model: AIMQModel | None = None

    def _build(self) -> None:
        if self._webdb is not None:
            return
        self._webdb = cardb_webdb(self._scale.rows, seed=11)
        self._model = build_model(
            self._webdb,
            sample_size=self._scale.sample,
            rng=random.Random(12),
            settings=AIMQSettings(max_relaxation_level=3),
        )
        self._webdb.reset_accounting()

    @property
    def webdb(self) -> AutonomousWebDatabase:
        self._build()
        assert self._webdb is not None
        return self._webdb

    @property
    def model(self) -> AIMQModel:
        self._build()
        assert self._model is not None
        return self._model

def _fixture_queries(fixture: _Fixture, count: int) -> list[ImpreciseQuery]:
    """Likeness queries built from distinct sample rows."""
    schema = fixture.webdb.schema
    sample = fixture.model.sample
    queries: list[ImpreciseQuery] = []
    step = max(1, len(sample) // max(count, 1))
    for index in range(count):
        row = sample.row((index * step) % len(sample))
        bindings: dict[str, object] = {}
        for name in ("Model", "Price", "Location"):
            value = row[schema.position(name)]
            if value is not None:
                bindings[name] = value
        queries.append(ImpreciseQuery.like(schema.name, **bindings))
    return queries


# -- scenarios ----------------------------------------------------------------


def bench_probe_cache(scale: BenchScale, fixture: _Fixture) -> ScenarioResult:
    webdb = fixture.webdb
    engine = fixture.model.engine(webdb)
    queries = _fixture_queries(fixture, scale.queries)

    def run() -> list[list[tuple[int, float, float]]]:
        outputs: list[list[tuple[int, float, float]]] = []
        for _ in range(scale.repeats):
            for query in queries:
                answers = engine.answer(query)
                outputs.append(
                    [
                        (a.row_id, a.similarity, a.base_similarity)
                        for a in answers
                    ]
                )
        return outputs

    webdb.disable_probe_cache()
    with webdb.accounting_scope() as slow_window:
        slow_out, slow_seconds = _timed(run)
    webdb.enable_probe_cache(capacity=8_192)
    try:
        with webdb.accounting_scope() as fast_window:
            fast_out, fast_seconds = _timed(run)
        cache = webdb.probe_cache
        details = {
            "repeats": scale.repeats,
            "queries": len(queries),
            "probes_issued_slow": slow_window.probes_issued,
            "probes_issued_fast": fast_window.probes_issued,
            "cache_hits": fast_window.cache_hits,
            "cache_evictions": cache.evictions if cache is not None else 0,
        }
    finally:
        webdb.disable_probe_cache()
    return ScenarioResult(
        name="probe_cache",
        slow_seconds=slow_seconds,
        fast_seconds=fast_seconds,
        equivalent=slow_out == fast_out,
        details=details,
    )


def bench_topk(scale: BenchScale, fixture: _Fixture) -> ScenarioResult:
    rng = random.Random(31)
    candidates = [
        RankedAnswer(
            row_id=index,
            row=(),
            similarity=rng.random(),
            base_similarity=rng.random(),
            source_base_row_id=0,
            relaxation_level=1,
        )
        for index in range(scale.candidates)
    ]

    def key(answer: RankedAnswer) -> tuple[float, float, int]:
        return (-answer.similarity, -answer.base_similarity, answer.row_id)

    slow_top, slow_seconds = _timed(
        lambda: sorted(candidates, key=key)[: scale.top_k]
    )
    fast_top, fast_seconds = _timed(
        lambda: heapq.nsmallest(scale.top_k, candidates, key=key)
    )
    return ScenarioResult(
        name="topk",
        slow_seconds=slow_seconds,
        fast_seconds=fast_seconds,
        equivalent=slow_top == fast_top,
        details={"candidates": scale.candidates, "top_k": scale.top_k},
    )


def bench_similarity_memo(scale: BenchScale, fixture: _Fixture) -> ScenarioResult:
    engine = fixture.model.engine(fixture.webdb)
    similarity = engine.similarity
    query = _fixture_queries(fixture, 1)[0]
    sample = fixture.model.sample
    rows = [sample.row(index % len(sample)) for index in range(scale.score_rows)]

    def run_slow() -> list[float]:
        scores: list[float] = []
        for _ in range(scale.score_repeats):
            scores = [similarity.sim_to_query(query, row) for row in rows]
        return scores

    def run_fast() -> list[float]:
        scores: list[float] = []
        for _ in range(scale.score_repeats):
            scorer = similarity.query_scorer(query)
            scores = [scorer(row) for row in rows]
        return scores

    slow_scores, slow_seconds = _timed(run_slow)
    fast_scores, fast_seconds = _timed(run_fast)
    return ScenarioResult(
        name="similarity_memo",
        slow_seconds=slow_seconds,
        fast_seconds=fast_seconds,
        equivalent=slow_scores == fast_scores,
        details={
            "rows_scored": scale.score_rows,
            "repeats": scale.score_repeats,
        },
    )


def bench_resilience_overhead(
    scale: BenchScale, fixture: _Fixture
) -> ScenarioResult:
    webdb = fixture.webdb
    queries = _fixture_queries(fixture, scale.queries)
    plain_engine = fixture.model.engine(webdb)
    policy = ResiliencePolicy(
        probe_deadline_seconds=60.0, query_deadline_seconds=600.0
    )
    guarded = ResilientWebDatabase(webdb, policy)
    guarded_engine = fixture.model.engine(guarded)

    def run(engine) -> list[list[tuple[int, float, float]]]:
        outputs: list[list[tuple[int, float, float]]] = []
        for _ in range(scale.repeats):
            for query in queries:
                answers = engine.answer(query)
                outputs.append(
                    [
                        (a.row_id, a.similarity, a.base_similarity)
                        for a in answers
                    ]
                )
        return outputs

    with webdb.accounting_scope() as slow_window:
        slow_out, slow_seconds = _timed(lambda: run(plain_engine))
    with webdb.accounting_scope() as fast_window:
        fast_out, fast_seconds = _timed(lambda: run(guarded_engine))
    return ScenarioResult(
        name="resilience_overhead",
        slow_seconds=slow_seconds,
        fast_seconds=fast_seconds,
        equivalent=(
            slow_out == fast_out
            and slow_window.probes_issued == fast_window.probes_issued
        ),
        details={
            "repeats": scale.repeats,
            "queries": len(queries),
            "probes_issued_plain": slow_window.probes_issued,
            "probes_issued_guarded": fast_window.probes_issued,
            "retries": guarded.retrier.retries,
            "breaker_state": (
                guarded.breaker.state.value
                if guarded.breaker is not None
                else "disabled"
            ),
        },
    )


def bench_obs_overhead(scale: BenchScale, fixture: _Fixture) -> ScenarioResult:
    webdb = fixture.webdb
    engine = fixture.model.engine(webdb)
    queries = _fixture_queries(fixture, scale.queries)

    def run() -> list[list[tuple[int, float, float]]]:
        outputs: list[list[tuple[int, float, float]]] = []
        for _ in range(scale.repeats):
            for query in queries:
                answers = engine.answer(query)
                outputs.append(
                    [
                        (a.row_id, a.similarity, a.base_similarity)
                        for a in answers
                    ]
                )
        return outputs

    saved = (OBS.enabled, OBS.events.enabled, OBS.events.probe_events)
    try:
        OBS.reset()
        OBS.disable()
        OBS.events.enabled = False
        OBS.events.probe_events = False
        off_out, off_seconds = _timed(run)
        OBS.events.enabled = True
        events_out, events_seconds = _timed(run)
        events_recorded = len(OBS.events)
        OBS.reset()
        OBS.enable()
        full_out, full_seconds = _timed(run)
        traces_recorded = len(OBS.tracer.traces())
        events_full = len(OBS.events)
    finally:
        OBS.reset()
        OBS.enabled, OBS.events.enabled, OBS.events.probe_events = saved
    return ScenarioResult(
        name="obs_overhead",
        slow_seconds=off_seconds,
        fast_seconds=events_seconds,
        equivalent=(
            off_out == events_out == full_out
            and events_recorded > 0
            and events_full > 0
            and traces_recorded > 0
        ),
        details={
            "repeats": scale.repeats,
            "queries": len(queries),
            "full_seconds": round(full_seconds, 6),
            "events_overhead": round(events_seconds / off_seconds - 1.0, 4),
            "full_overhead": round(full_seconds / off_seconds - 1.0, 4),
            "events_recorded": events_recorded,
            "events_recorded_full": events_full,
            "traces_recorded": traces_recorded,
        },
    )


SCENARIOS: dict[str, Callable[[BenchScale, _Fixture], ScenarioResult]] = {
    "probe_cache": bench_probe_cache,
    "topk": bench_topk,
    "similarity_memo": bench_similarity_memo,
    "resilience_overhead": bench_resilience_overhead,
    "obs_overhead": bench_obs_overhead,
}


def _peak_rss_kb() -> int | None:
    """The process's resident-set high-water mark, in KiB.

    ``ru_maxrss`` is a lifetime maximum, so per-scenario readings are
    monotone: a scenario's value is the footprint ceiling *after* it
    ran, and the first scenario to grow the number is the one that set
    it.  ``None`` on platforms without :mod:`resource`.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return usage // 1024 if sys.platform == "darwin" else usage


def run_bench(
    scale_name: str = "default",
    only: list[str] | None = None,
) -> dict[str, object]:
    """Run the selected scenarios and return the report mapping.

    Each scenario's ``details`` gains a ``peak_rss_kb`` entry — the
    process peak resident set after the scenario completed — so every
    run doubles as a memory-footprint measurement.
    """
    scale = SCALES[scale_name]
    names = list(SCENARIOS) if not only else [n for n in SCENARIOS if n in only]
    unknown = set(only or ()) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios: {sorted(unknown)}")
    fixture = _Fixture(scale)
    scenarios: dict[str, object] = {}
    for name in names:
        entry = SCENARIOS[name](scale, fixture).as_dict()
        rss = _peak_rss_kb()
        if rss is not None:
            entry["details"]["peak_rss_kb"] = rss  # type: ignore[index]
        scenarios[name] = entry
    return {
        "scale": scale_name,
        "python": sys.version.split()[0],
        "scenarios": scenarios,
    }


def check_regressions(
    report: dict[str, object], max_regression: float = 0.25
) -> list[str]:
    """Failure messages for fast paths slower than their reference.

    A scenario fails when the fast path is more than ``max_regression``
    slower than the slow path (speedup below ``1 / (1 + max_regression)``)
    or when its equivalence check failed.
    """
    floor = 1.0 / (1.0 + max_regression)
    failures: list[str] = []
    for name, entry in report["scenarios"].items():  # type: ignore[union-attr]
        if not entry["equivalent"]:
            failures.append(f"{name}: fast path output differs from slow path")
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: fast path regressed (speedup {entry['speedup']:.3f} "
                f"< {floor:.3f})"
            )
    return failures


def load_report(path: str) -> dict[str, object]:
    """Read a ``run_bench``-shaped JSON report from disk."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_baseline(
    report: dict[str, object],
    baseline: dict[str, object],
    max_regression: float = 0.25,
) -> list[str]:
    """Failure messages for speedups that decayed against a baseline.

    The committed baseline pins each scenario's speedup at a known-good
    commit; a fresh run fails when a scenario that the baseline records
    as ``equivalent: true`` is now more than ``max_regression`` slower
    relative to its reference path (current speedup below
    ``baseline_speedup / (1 + max_regression)``), or is no longer
    equivalent.  Speedups are ratios against the in-run reference, so
    the comparison is portable across machines — but not across
    problem sizes, so a scale mismatch refuses to judge rather than
    failing spuriously.  Scenarios absent from the baseline are
    skipped: they are new, and committing the next report baselines
    them.
    """
    if report.get("scale") != baseline.get("scale"):
        return [
            "baseline scale mismatch: report is "
            f"{report.get('scale')!r}, baseline is "
            f"{baseline.get('scale')!r}; regenerate the baseline at the "
            "scale the gate runs"
        ]
    failures: list[str] = []
    baseline_scenarios = baseline.get("scenarios", {})
    for name, entry in report["scenarios"].items():  # type: ignore[union-attr]
        reference = baseline_scenarios.get(name)  # type: ignore[union-attr]
        if reference is None or not reference["equivalent"]:
            continue
        if not entry["equivalent"]:
            failures.append(
                f"{name}: no longer equivalent (baseline was equivalent)"
            )
            continue
        floor = reference["speedup"] / (1.0 + max_regression)
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup decayed to {entry['speedup']:.3f} "
                f"(baseline {reference['speedup']:.3f}, floor {floor:.3f})"
            )
    return failures


def append_history(report: dict[str, object], path: str) -> dict[str, object]:
    """Append one compact trajectory line for ``report`` to ``path``.

    ``BENCH_history.jsonl`` is the perf record over time — one JSON
    object per recorded run, keeping the per-scenario speedups and
    equivalence verdicts (timings are machine-local noise; the ratios
    are what trend).  Returns the appended object.
    """
    line = {
        "scale": report["scale"],
        "python": report["python"],
        "scenarios": {
            name: {
                "speedup": entry["speedup"],
                "equivalent": entry["equivalent"],
            }
            for name, entry in report["scenarios"].items()  # type: ignore[union-attr]
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line
