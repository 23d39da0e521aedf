"""The four workloads: seeded inputs, set-up, the timed loop, output checks.

Every workload drives the program through its public API in the
posture ``repro query`` and ``repro serve`` use by default: row tables,
the sequential relaxation loop (no planner), no similarity index, the
CLI's ``AIMQSettings`` and ``ServeConfig`` defaults.  Inputs come only
from the seed; the program sees nothing but those inputs.

A workload object has four phases, driven by :mod:`benchmarks.e2e.runner`:

``inputs()``   harness-side input generation (untimed): the source rows
               queries are drawn from, the query stream.
``setup()``    builds the program state the timed loop needs; timed and
               repeated, the median is ``setup_s``.
``measure()``  the timed loop; returns one :class:`Op` per request.
``check()``    verifies every output recorded by ``measure()``.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import repro.core.pipeline as pipeline
from repro.core import AIMQSettings, ImpreciseQuery, numeric_similarity
from repro.datasets.cardb import cardb_webdb, generate_cardb
from repro.datasets.census import generate_censusdb
from repro.db import AutonomousWebDatabase, ExecutionStats, ProbeLog
from repro.evalx import census_settings
from repro.serve import (
    AdmissionController,
    Router,
    ServeConfig,
    ServeState,
    answer_payload,
)

from benchmarks.e2e.trace import NO_REQUEST, Tracer

__all__ = ["SCALES", "WORKLOADS", "Op", "Scale", "Workload"]

#: ``repro query`` answers CarDB with these settings and k (CLI defaults).
CLI_CARDB_SETTINGS = AIMQSettings(max_relaxation_level=3)
CLI_K = 10
#: The §6.3 experiment's settings (``run_relaxation_efficiency``).
FIG6_SETTINGS = AIMQSettings(max_relaxation_level=6, max_extracted_per_base_tuple=50000)
FIG6_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
FIG6_TARGET = 20
ZIPF_S = 1.1
#: Scores are checked against an independent Sim(Q, t) to this tolerance.
SIMILARITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-test smoke."""

    cardb_rows: int
    cardb_sample: int
    offline_cardb_rows: int
    offline_cardb_sample: int
    offline_census_rows: int
    offline_census_sample: int
    broad_queries: int
    gather_tuples: int
    serve_pool: int
    serve_rate_qps: float
    setup_repeats: int
    digest_ops: int


SCALES = {
    "full": Scale(
        cardb_rows=10_000,
        cardb_sample=2_500,
        offline_cardb_rows=50_000,
        offline_cardb_sample=15_000,
        offline_census_rows=45_000,
        offline_census_sample=15_000,
        broad_queries=60,
        gather_tuples=300,
        serve_pool=200,
        serve_rate_qps=80.0,
        setup_repeats=3,
        digest_ops=4,
    ),
    "tiny": Scale(
        cardb_rows=600,
        cardb_sample=200,
        offline_cardb_rows=1_000,
        offline_cardb_sample=300,
        offline_census_rows=800,
        offline_census_sample=300,
        broad_queries=6,
        gather_tuples=4,
        serve_pool=12,
        serve_rate_qps=80.0,
        setup_repeats=2,
        digest_ops=2,
    ),
}


@dataclass
class Op:
    """One timed request."""

    index: int  # position in the workload's request stream
    service_s: float  # time the program spent on it
    latency_s: float  # time the user waited: service plus any queueing
    lag_s: float = 0.0  # how late the open-loop generator sent it
    result: Any = None
    errors: list[str] = field(default_factory=list)
    ended: float = 0.0  # perf_counter() when it returned

    @property
    def waited_from(self) -> float:
        """When the user started waiting (sent, or due if open loop)."""
        return self.ended - self.latency_s


def digest_of(parts: Sequence[object]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def oracle_similarity(model: Any, schema: Any, bindings: dict, row: Sequence) -> float:
    """Sim(bindings, row) recomputed from the mined model's parts (paper §5):
    importance weights renormalised over the bound attributes, VSim for
    categorical values, relative closeness for numeric ones."""
    weights = model.ordering.weights_over(tuple(bindings))
    total = 0.0
    for attribute, reference in bindings.items():
        weight = weights[attribute]
        if weight == 0.0 or reference is None:
            continue
        candidate = row[schema.position(attribute)]
        if candidate is None:
            term = 0.0
        elif schema.attribute(attribute).is_numeric:
            term = numeric_similarity(float(reference), float(candidate))
        else:
            term = model.value_similarity.similarity(
                attribute, str(reference), str(candidate)
            )
        total += weight * term
    return total


def check_ranked(
    answers: Sequence[Any],
    rank_key: Callable[[Any], tuple],
    table: Any,
    expected_similarity: Callable[[tuple], float],
) -> list[str]:
    """Answers come in strict rank order, carry the source's rows, and
    score what the model says they score."""
    errors: list[str] = []
    keys = [rank_key(answer) for answer in answers]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        errors.append("answers out of rank order")
    for answer in answers:
        if tuple(answer.row) != tuple(table.row(answer.row_id)):
            errors.append(f"row {answer.row_id} differs from the source")
        elif abs(answer.similarity - expected_similarity(answer.row)) > SIMILARITY_TOLERANCE:
            errors.append(f"row {answer.row_id} scored {answer.similarity!r}")
    return errors


def trace_errors(trace: Any) -> list[str]:
    errors = []
    if trace.degraded:
        errors.append("degraded answer")
    if trace.logical_probes != (
        trace.queries_issued + trace.probes_cached + trace.probes_subsumed
    ):
        errors.append("logical_probes != issued + cached + subsumed")
    return errors


class Workload:
    """Shared machinery: the closed loop and per-stream-position records."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        #: First result seen at each stream position (outputs to check).
        self.first: dict[int, Any] = {}

    # -- phases ------------------------------------------------------------

    def inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def stream_length(self) -> int:
        raise NotImplementedError

    def run_op(self, index: int) -> Any:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None = None) -> list[Op]:
        """Closed loop, one client: the next request leaves when the
        previous one returns.  Runs requests 0, 1, ... for ``seconds``;
        requests started before the deadline finish.  ``tracer`` opens
        an "op" span per request."""
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            ops.append(self._timed(len(ops), tracer))
        return ops

    def _timed(self, index: int, tracer: Tracer | None, due: float | None = None) -> Op:
        """Run request ``index`` now; latency counts from ``due`` if given."""
        if tracer is not None:
            tracer.request = index
            span = tracer.begin("op")
        sent = time.perf_counter()
        try:
            result = self.run_op(index)
            errors: list[str] = []
        except Exception as exc:  # a failed request is counted, not fatal
            result, errors = None, [f"{type(exc).__name__}: {exc}"]
        done = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
            tracer.request = NO_REQUEST
        waited_from = sent if due is None else due
        return Op(
            index,
            service_s=done - sent,
            latency_s=done - waited_from,
            lag_s=sent - waited_from,
            result=result,
            errors=errors,
            ended=done,
        )

    def check(self, ops: list[Op]) -> list[str]:
        """Check every op's output; per-op problems land in ``op.errors``,
        including a request answered differently from an earlier request
        for the same stream position.  Returns problems not tied to a
        timed request."""
        for op in ops:
            if op.result is None:
                continue
            op.errors.extend(self.check_result(op.index, op.result))
            position = op.index % self.stream_length()
            summary = self.summarise(op.result)
            if self.first.setdefault(position, summary) != summary:
                op.errors.append(f"stream position {position} answered differently")
        return []

    def check_result(self, index: int, result: Any) -> list[str]:
        raise NotImplementedError

    def summarise(self, result: Any) -> tuple:
        raise NotImplementedError

    def digest(self) -> str:
        """Digest of the first ``digest_ops`` stream positions' outputs,
        answering any the timed loop did not reach."""
        parts = []
        for position in range(min(self.scale.digest_ops, self.stream_length())):
            if position not in self.first:
                self.first[position] = self.summarise(self.run_op(position))
            parts.append(self.first[position])
        return digest_of(parts)

    # -- per-layer accounting ----------------------------------------------

    def facades(self) -> list[AutonomousWebDatabase]:
        """Source facades whose accounting the db-layer metrics read."""
        raise NotImplementedError

    def op_info(self, result: Any) -> dict[str, float]:
        """Per-request work counters read off the output."""
        return {}

    def built_models(self) -> list[Any]:
        raise NotImplementedError


def accounting(facades: Sequence[AutonomousWebDatabase]) -> tuple[ProbeLog, ExecutionStats]:
    """Summed probe log and executor counters of ``facades``."""
    log, stats = ProbeLog(), ExecutionStats()
    for webdb in facades:
        current = webdb.log
        log.probes_issued += current.probes_issued
        log.tuples_returned += current.tuples_returned
        log.empty_results += current.empty_results
        log.count_probes += current.count_probes
        log.cache_hits += current.cache_hits
        stats.merge(webdb.execution_stats)
    return log, stats


def answer_info(trace: Any) -> dict[str, float]:
    return {
        "extracted": trace.tuples_extracted,
        "relevant": trace.tuples_relevant,
        "base_set_size": trace.base_set_size,
        "generalisation_steps": len(trace.generalisation_steps),
        "retries": trace.degradation.retries_used,
        "degraded": int(trace.degraded),
    }


def answer_summary(answers: Sequence[Any], trace: Any) -> tuple:
    return (
        tuple((answer.row_id, repr(answer.similarity)) for answer in answers),
        trace.logical_probes,
        trace.tuples_extracted,
        trace.tuples_relevant,
    )


# ---------------------------------------------------------------------------


class AnswerBroad(Workload):
    name = "answer_broad"

    def inputs(self) -> None:
        self.table = generate_cardb(self.scale.cardb_rows, seed=self.seed)
        schema = self.table.schema
        make, location = schema.position("Make"), schema.position("Location")
        rows = self.table.rows()
        pairs = Counter((row[make], row[location]) for row in rows)
        # Broad means the base set reaches the engine's cap, so every
        # answer relaxes the same number of base tuples.
        need = min(CLI_CARDB_SETTINGS.base_set_cap, max(pairs.values()))
        rng = random.Random(self.seed + 3)
        self.stream: list[ImpreciseQuery] = []
        while len(self.stream) < self.scale.broad_queries:
            row = rows[rng.randrange(len(rows))]
            if pairs[(row[make], row[location])] >= need:
                self.stream.append(
                    ImpreciseQuery.like(
                        schema.name, Make=row[make], Location=row[location]
                    )
                )

    def setup(self) -> None:
        self.webdb = cardb_webdb(self.scale.cardb_rows, seed=self.seed)
        self.model = pipeline.build_model(
            self.webdb,
            sample_size=self.scale.cardb_sample,
            rng=random.Random(self.seed + 1),
            settings=CLI_CARDB_SETTINGS,
        )
        self.engine = self.model.engine(self.webdb)

    def stream_length(self) -> int:
        return len(self.stream)

    def run_op(self, index: int) -> Any:
        return self.engine.answer(self.stream[index % len(self.stream)], k=CLI_K)

    def check_result(self, index: int, result: Any) -> list[str]:
        query = self.stream[index % len(self.stream)]
        bindings = {c.attribute: c.value for c in query.like_constraints}
        errors = trace_errors(result.trace)
        if len(result.answers) > CLI_K:
            errors.append("more than k answers")
        errors += check_ranked(
            result.answers,
            lambda a: (-a.similarity, -a.base_similarity, a.row_id),
            self.table,
            lambda row: oracle_similarity(self.model, self.table.schema, bindings, row),
        )
        return errors

    def summarise(self, result: Any) -> tuple:
        return answer_summary(result.answers, result.trace)

    def facades(self) -> list[AutonomousWebDatabase]:
        return [self.webdb]

    def op_info(self, result: Any) -> dict[str, float]:
        return answer_info(result.trace)

    def built_models(self) -> list[Any]:
        return [self.model]


class GatherFig6(Workload):
    name = "gather_fig6"

    def inputs(self) -> None:
        self.table = generate_cardb(self.scale.cardb_rows, seed=self.seed)
        rng = random.Random(self.seed + 2)
        tuples = rng.sample(range(len(self.table)), self.scale.gather_tuples)
        # Thresholds vary fastest, so any prefix of the stream keeps the
        # same threshold mix.
        self.stream = [(row_id, t) for row_id in tuples for t in FIG6_THRESHOLDS]

    def setup(self) -> None:
        self.webdb = cardb_webdb(self.scale.cardb_rows, seed=self.seed)
        self.model = pipeline.build_model(
            self.webdb,
            sample_size=self.scale.cardb_sample,
            rng=random.Random(self.seed + 1),
            settings=FIG6_SETTINGS,
        )

    def stream_length(self) -> int:
        return len(self.stream)

    def run_op(self, index: int) -> Any:
        row_id, threshold = self.stream[index % len(self.stream)]
        # A fresh engine per tuple query, as run_relaxation_efficiency does.
        engine = self.model.engine(self.webdb)
        return engine.gather_similar(
            self.table.row(row_id),
            similarity_threshold=threshold,
            target=FIG6_TARGET,
            row_id=row_id,
        )

    def check_result(self, index: int, result: Any) -> list[str]:
        answers, trace = result
        seed_id, threshold = self.stream[index % len(self.stream)]
        schema = self.table.schema
        seed_row = self.table.row(seed_id)
        bindings = {
            name: value
            for name, value in zip(schema.attribute_names, seed_row)
            if value is not None
        }
        errors = trace_errors(trace)
        if len(answers) > FIG6_TARGET:
            errors.append("more answers than the target")
        for answer in answers:
            if answer.row_id == seed_id:
                errors.append("the seed tuple answered itself")
            if not answer.base_similarity > threshold:
                errors.append(f"row {answer.row_id} at or below T_sim")
            if answer.similarity != answer.base_similarity:
                errors.append(f"row {answer.row_id}: similarity != base similarity")
        errors += check_ranked(
            answers,
            lambda a: (-a.base_similarity, a.row_id),
            self.table,
            lambda row: oracle_similarity(self.model, schema, bindings, row),
        )
        return errors

    def summarise(self, result: Any) -> tuple:
        answers, trace = result
        return answer_summary(answers, trace)

    def facades(self) -> list[AutonomousWebDatabase]:
        return [self.webdb]

    def op_info(self, result: Any) -> dict[str, float]:
        return answer_info(result[1])

    def built_models(self) -> list[Any]:
        return [self.model]


def _zipf_stream(rng: random.Random, pool: int, length: int) -> list[int]:
    """``length`` pool indices with Zipf(s) popularity over a seeded
    permutation of the pool."""
    popularity = list(range(pool))
    rng.shuffle(popularity)
    cumulative, total = [], 0.0
    for rank in range(pool):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    ranks = rng.choices(range(pool), cum_weights=cumulative, k=length)
    return [popularity[rank] for rank in ranks]


def _router_value(value: object) -> object:
    """What the router's ``Attr=Value`` coercion reads back from ``str(value)``."""
    text = str(value)
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


class ServeZipf(Workload):
    name = "serve_zipf"

    #: Longest run the request stream is drawn for before it repeats.
    STREAM_SECONDS = 120

    def inputs(self) -> None:
        self.table = generate_cardb(self.scale.cardb_rows, seed=self.seed)
        schema = self.table.schema
        rng = random.Random(self.seed + 5)
        self.pool: list[dict[str, list[str]]] = []
        self.queries: list[ImpreciseQuery] = []
        while len(self.pool) < self.scale.serve_pool:
            row = self.table.row(rng.randrange(len(self.table)))
            bindings = {
                name: row[schema.position(name)]
                for name in ("Model", "Price", "Location")
            }
            if any(_router_value(v) != v for v in bindings.values()):
                continue  # the router would read this value back as a number
            constraints = [f"{k}={v}" for k, v in bindings.items()]
            self.pool.append({"c": constraints, "k": [str(CLI_K)]})
            self.queries.append(ImpreciseQuery.like(schema.name, **bindings))
        self.rate = self.scale.serve_rate_qps
        self.stream = _zipf_stream(
            rng, len(self.pool), int(self.rate * self.STREAM_SECONDS)
        )

    def setup(self) -> None:
        self.state = ServeState.load(
            ServeConfig(
                rows=self.scale.cardb_rows,
                sample=self.scale.cardb_sample,
                seed=self.seed,
            )
        )
        config = self.state.config
        self.router = Router(self.state, AdmissionController(config), config)
        # Warm-up: every pool query once, in pool order, fills the
        # shared probe cache the way steady traffic would.
        self.warm = [self.router.route("GET", "/query", p) for p in self.pool]

    def stream_length(self) -> int:
        return len(self.stream)

    def run_op(self, index: int) -> Any:
        pool_index = self.stream[index % len(self.stream)]
        return pool_index, self.router.route("GET", "/query", self.pool[pool_index])

    def measure(self, seconds: float, tracer: Tracer | None = None) -> list[Op]:
        """Open loop at a fixed rate: request i is due at start + i/rate
        whether or not earlier ones have returned.  One thread sends, so
        a slow request delays the ones due after it, and latency is
        timed from the due time.  Sends the requests due within
        ``seconds``."""
        ops: list[Op] = []
        interval = 1.0 / self.rate
        start = time.perf_counter()
        for index in range(max(1, int(seconds * self.rate))):
            due = start + index * interval
            wait = due - time.perf_counter()
            if wait > 0:
                if tracer is not None:
                    with tracer.span("loadgen.idle"):
                        time.sleep(wait)
                else:
                    time.sleep(wait)
            ops.append(self._timed(index, tracer, due=due))
        return ops

    def _payload(self, response: Any) -> tuple[dict | None, list[str]]:
        if response.status != 200:
            return None, [f"HTTP {response.status}"]
        payload = response.json()
        trace = payload["trace"]
        errors = []
        if payload["degraded"]:
            errors.append("degraded answer")
        if trace["logical_probes"] != (
            trace["queries_issued"] + trace["probes_cached"] + trace["probes_subsumed"]
        ):
            errors.append("logical_probes != issued + cached + subsumed")
        return payload, errors

    def reference_answers(self) -> list[list[dict]]:
        """Each pool query answered the ``repro query`` way: a fresh
        engine on a cache-less facade over the same source."""
        bundle = self.state.current()
        engine = bundle.model.engine(AutonomousWebDatabase(self.table))
        return [
            answer_payload(engine.answer(query, k=CLI_K))["answers"]
            for query in self.queries
        ]

    def check(self, ops: list[Op]) -> list[str]:
        """Every served answer, warm-up included, must equal the answer
        the ``repro query`` path gives for the same pool query.  Replaces
        each op's result with ``(pool index, status, decoded payload)``."""
        problems = []
        reference = self.reference_answers()
        for pool_index, response in enumerate(self.warm):
            payload, errors = self._payload(response)
            if payload is not None and payload["answers"] != reference[pool_index]:
                errors.append("answers differ from the repro query path")
            if errors:
                problems.append(f"warm-up query {pool_index}: {'; '.join(errors)}")
        for op in ops:
            if op.result is None:
                continue
            pool_index, response = op.result
            payload, errors = self._payload(response)
            if payload is not None and payload["answers"] != reference[pool_index]:
                errors.append("answers differ from the repro query path")
            op.errors.extend(errors)
            op.result = (pool_index, response.status, payload)
        return problems

    def digest(self) -> str:
        """Digest of the warm-up pass: every pool query once, in order."""
        parts = []
        for response in self.warm:
            payload, _ = self._payload(response)
            if payload is None:
                parts.append(response.status)
                continue
            trace = payload["trace"]
            parts.append(
                (
                    tuple((a["row_id"], repr(a["similarity"])) for a in payload["answers"]),
                    trace["logical_probes"],
                    trace["tuples_extracted"],
                    trace["tuples_relevant"],
                )
            )
        return digest_of(parts)

    def facades(self) -> list[AutonomousWebDatabase]:
        return [self.state.current().webdb]

    def op_info(self, result: Any) -> dict[str, float]:
        _, status, payload = result
        info = {"status": status, "shed": int(status == 429)}
        if payload is not None:
            trace = payload["trace"]
            info.update(
                extracted=trace["tuples_extracted"],
                relevant=trace["tuples_relevant"],
                base_set_size=trace["base_set_size"],
                generalisation_steps=trace["generalisation_steps"],
                retries=payload["degradation"]["retries_used"],
                degraded=int(payload["degraded"]),
            )
        return info

    def built_models(self) -> list[Any]:
        return [self.state.current().model]


def model_summary(model: Any) -> tuple:
    """What a model build produces: the attribute ordering and VSim pairs."""
    def exact(mapping: Any) -> tuple:
        return tuple(sorted((key, repr(value)) for key, value in mapping.items()))

    value_similarity = model.value_similarity
    return (
        model.ordering.relaxation_order,
        exact(model.ordering.importance),
        tuple(
            (attribute, exact(value_similarity.pairs(attribute)))
            for attribute in value_similarity.attributes
        ),
    )


class OfflineBuild(Workload):
    name = "offline_build"

    def inputs(self) -> None:
        self.builds: list[AutonomousWebDatabase] = []
        self.models: dict[str, Any] = {}

    def setup(self) -> None:
        self.car_table = generate_cardb(self.scale.offline_cardb_rows, seed=self.seed)
        self.census_table, _ = generate_censusdb(
            self.scale.offline_census_rows, seed=self.seed
        )

    def stream_length(self) -> int:
        return 1

    def _build(self, table: Any, sample: int, settings: AIMQSettings) -> float:
        webdb = AutonomousWebDatabase(table)  # a fresh facade per build
        self.models.pop(table.schema.name, None)
        started = time.perf_counter()
        model = pipeline.build_model(
            webdb,
            sample_size=sample,
            rng=random.Random(self.seed + 1),
            settings=settings,
        )
        elapsed = time.perf_counter() - started
        self.builds.append(webdb)
        self.models[table.schema.name] = model
        return elapsed

    def run_op(self, index: int) -> Any:
        """One op rebuilds both catalogs' models, CarDB then Census."""
        scale = self.scale
        car_s = self._build(
            self.car_table, scale.offline_cardb_sample, CLI_CARDB_SETTINGS
        )
        census_s = self._build(
            self.census_table,
            scale.offline_census_sample,
            census_settings(error_threshold=0.3),
        )
        return {
            "build_s": {"cardb": car_s, "censusdb": census_s},
            "summary": tuple(
                model_summary(self.models[table.schema.name])
                for table in (self.car_table, self.census_table)
            ),
        }

    def check_result(self, index: int, result: Any) -> list[str]:
        errors = []
        schemas = (self.car_table.schema, self.census_table.schema)
        for schema, (order, importance, pairs) in zip(schemas, result["summary"]):
            if sorted(order) != sorted(schema.attribute_names):
                errors.append(f"{schema.name}: ordering does not cover the schema")
            if abs(sum(float(v) for _, v in importance) - 1.0) > 1e-9:
                errors.append(f"{schema.name}: importance does not sum to 1")
            for _, attribute_pairs in pairs:
                if any(not 0.0 <= float(v) <= 1.0 for _, v in attribute_pairs):
                    errors.append(f"{schema.name}: VSim outside [0, 1]")
        return errors

    def summarise(self, result: Any) -> tuple:
        return result["summary"]

    def facades(self) -> list[AutonomousWebDatabase]:
        return self.builds

    def built_models(self) -> list[Any]:
        return list(self.models.values())


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (AnswerBroad, GatherFig6, ServeZipf, OfflineBuild)
}
