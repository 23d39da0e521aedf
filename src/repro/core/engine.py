"""The AIMQ Query Engine: paper Algorithm 1, end to end.

Given an imprecise query Q the engine

1. maps Q to a precise base query Q_pr and fetches the *base set*
   (generalising per footnote 2 when Q_pr is empty);
2. treats each base tuple as a fully bound selection query and issues
   its relaxations — in mined attribute order for
   :class:`~repro.core.relaxation.GuidedRelax`, arbitrarily for
   :class:`~repro.core.relaxation.RandomRelax` — collecting extracted
   tuples whose similarity *to the base tuple* clears ``T_sim``;
3. ranks the extended set by similarity *to the query* and returns the
   top-k.

The engine only talks to the source through the
:class:`AutonomousWebDatabase` facade and keeps a
:class:`~repro.core.results.RelaxationTrace` of the work done, which the
efficiency experiments (Figs 6–7) read off directly.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterable, Iterator, Mapping

from repro.core.attribute_order import AttributeOrdering
from repro.core.config import AIMQSettings
from repro.core.query import BaseQueryMapper, ImpreciseQuery
from repro.core.relaxation import GuidedRelax, _RelaxerBase, tuple_as_query
from repro.core.results import (
    AnswerSet,
    RankedAnswer,
    RelaxationTrace,
    answer_rank_key,
    base_rank_key,
)
from repro.core.similarity import BindingsScorer, TupleSimilarity
from repro.db import (
    AutonomousWebDatabase,
    ProbeLimitExceededError,
    TransientSourceError,
)
from repro.obs.runtime import OBS
from repro.resilience import (
    CircuitOpenError,
    Clock,
    DeadlineExceededError,
    ResiliencePolicy,
    ResilientWebDatabase,
)
from repro.simmining.estimator import SimilarityModel

__all__ = ["AIMQEngine"]


class _ExpansionAborted(Exception):
    """Internal control flow: every future probe of this call is doomed
    (probe budget gone, breaker open, or query deadline passed), so stop
    expanding and let the already-ranked tuples stand as the answer."""


def _untimed_phase(name: str) -> ContextManager[None]:
    return nullcontext()


@dataclass
class _Call:
    """The state one ``answer``/``gather_similar`` call threads through
    :meth:`AIMQEngine._driven`: its trace, ``T_sim``, the extended set
    (deduplicated by row id) and, once ranked, the answers."""

    trace: RelaxationTrace
    threshold: float
    phase: Callable[[str], ContextManager[None]]
    extended: dict[int, RankedAnswer] = field(default_factory=dict)
    answers: list[RankedAnswer] = field(default_factory=list)

    def rank(
        self, order: Callable[[Iterable[RankedAnswer]], list[RankedAnswer]]
    ) -> None:
        """Rank the extended set into ``answers`` with ``order``."""
        with self.phase("ranking"), OBS.span(
            "engine.ranking", candidates=len(self.extended)
        ):
            self.answers = order(self.extended.values())


class AIMQEngine:
    """Online half of AIMQ: answers imprecise queries with mined models."""

    def __init__(
        self,
        webdb: AutonomousWebDatabase | ResilientWebDatabase,
        ordering: AttributeOrdering,
        value_similarity: SimilarityModel,
        settings: AIMQSettings | None = None,
        strategy: _RelaxerBase | None = None,
        numeric_extents: dict[str, tuple[float, float]] | None = None,
        resilience: ResiliencePolicy | None = None,
        clock: Clock | None = None,
    ) -> None:
        if resilience is not None and not isinstance(
            webdb, ResilientWebDatabase
        ):
            webdb = ResilientWebDatabase(webdb, resilience, clock=clock)
        self.webdb = webdb
        self.ordering = ordering
        self.settings = settings or AIMQSettings()
        self.strategy = strategy if strategy is not None else GuidedRelax(ordering)
        self.similarity = TupleSimilarity(
            webdb.schema,
            ordering,
            value_similarity,
            numeric_mode=self.settings.numeric_similarity_mode,
            numeric_extents=numeric_extents,
        )
        self.mapper = BaseQueryMapper(
            webdb,
            relaxation_order=ordering.relaxation_order,
            numeric_band_fraction=self.settings.numeric_band_fraction,
        )

    # -- public API -----------------------------------------------------------

    def answer(
        self,
        query: ImpreciseQuery,
        k: int | None = None,
        similarity_threshold: float | None = None,
    ) -> AnswerSet:
        """Run Algorithm 1 and return the top-k ranked answer set.

        Raises :class:`ValueError` for ``k < 1`` before any probe: no
        answer set could hold a ranked tuple.
        """
        threshold = self._threshold(similarity_threshold)
        top_k = self.settings.top_k if k is None else k
        if top_k < 1:
            raise ValueError(f"k must be at least 1, got {top_k}")
        described = query.describe()
        with self._driven(
            "answer", RelaxationTrace(), threshold,
            span={"query": described, "k": top_k},
            event_query=described, event_k=top_k,
        ) as call:
            with call.phase("mapping"):
                base_rows = self._base_rows(query, call.trace)
            call.trace.base_set_size = len(base_rows)

            # One compiled scorer serves every Sim(Q, t) evaluation of
            # this call: the weight table and per-value VSim lookups are
            # resolved once instead of per candidate row.
            query_scorer = self.similarity.query_scorer(query)

            # Base tuples are answers by construction (they satisfy a
            # specialisation of Q).
            for base_row_id, base_row in base_rows:
                call.extended[base_row_id] = RankedAnswer(
                    row_id=base_row_id,
                    row=base_row,
                    similarity=query_scorer(base_row),
                    base_similarity=1.0,
                    source_base_row_id=base_row_id,
                    relaxation_level=0,
                )
            self._expand(call, base_rows, query_scorer)
            # nsmallest(k, key=...) == sorted(key=...)[:k] by contract,
            # so the deterministic tie-break (see answer_rank_key) is
            # preserved while only a k-sized heap is maintained.
            call.rank(
                lambda found: heapq.nsmallest(top_k, found, key=answer_rank_key)
            )
        return AnswerSet(query=query, answers=call.answers, trace=call.trace)

    def answer_by_example(
        self,
        example: Mapping[str, object],
        k: int | None = None,
        similarity_threshold: float | None = None,
    ) -> AnswerSet:
        """Likeness query built from an example tuple's bindings."""
        query = ImpreciseQuery.like(self.webdb.schema.name, **dict(example))
        return self.answer(query, k=k, similarity_threshold=similarity_threshold)

    def explain(self, query: ImpreciseQuery, answer: "RankedAnswer"):
        """Decompose one answer's score (see :mod:`repro.core.explain`)."""
        from repro.core.explain import explain_answer

        return explain_answer(self.similarity, query, answer)

    def gather_similar(
        self,
        row: tuple,
        similarity_threshold: float | None = None,
        target: int | None = None,
        row_id: int | None = None,
    ) -> tuple[list[RankedAnswer], RelaxationTrace]:
        """Expand one tuple-as-query and gather its similar tuples.

        This is the §6.3 experiment primitive: given a database tuple,
        extract ``target`` tuples whose similarity to it exceeds
        ``T_sim``, reporting the work done in the trace.  Answers are
        ranked by similarity to the seed tuple.
        """
        threshold = self._threshold(similarity_threshold)
        seed_id = row_id if row_id is not None else -1
        with self._driven(
            "gather_similar", RelaxationTrace(base_set_size=1), threshold,
            span={"row_id": seed_id, "threshold": threshold},
            event_query=f"row:{seed_id}",
            event_k=target if target is not None else 0,
        ) as call:
            self._expand(call, [(seed_id, row)], None, target=target)
            call.rank(lambda found: sorted(found, key=base_rank_key))
        return call.answers, call.trace

    # -- internals --------------------------------------------------------

    def _threshold(self, override: float | None) -> float:
        if override is None:
            return self.settings.similarity_threshold
        return override

    @contextmanager
    def _driven(
        self,
        mode: str,
        trace: RelaxationTrace,
        threshold: float,
        span: dict[str, object],
        event_query: str,
        event_k: int,
    ) -> Iterator[_Call]:
        """The scaffolding every answering call shares.

        Before the caller's body: the flight recorder (with the
        ProbeLog snapshot its ``log_*`` deltas need), the resilience
        snapshot, the ``engine.<mode>`` root span and the query's
        deadline scope.  After it: the root span's result attributes,
        this call's share of retries and breaker opens, the query
        metrics and the one wide event.
        """
        recorder = OBS.flight_recorder(f"engine.{mode}")
        log_before = self.webdb.log.snapshot() if recorder is not None else None
        call = _Call(
            trace,
            threshold,
            recorder.phase if recorder is not None else _untimed_phase,
        )
        resilience_before = self._snapshot_resilience()
        with OBS.span(f"engine.{mode}", **span) as root, self._deadline_scope():
            if recorder is not None and OBS.enabled:
                # Events and spans of one call share the span's id.
                recorder.trace_id = root.trace_id
            yield call
            root.set_attribute("answers", len(call.answers))
            root.set_attribute("probes", trace.queries_issued)
            root.set_attribute("degraded", trace.degraded)
        self._finish_degradation(trace, resilience_before)
        if OBS.enabled:
            self._record_query_metrics(mode, trace)
        if recorder is not None:
            self._emit_query_event(
                recorder, mode, event_query, trace, log_before,
                answers=len(call.answers), k=event_k, threshold=threshold,
            )

    def _base_rows(
        self, query: ImpreciseQuery, trace: RelaxationTrace
    ) -> list[tuple[int, tuple]]:
        """Map ``query`` to its base set, capped at ``base_set_cap``."""
        try:
            with OBS.span("engine.base_query_mapping") as mapping_span:
                base = self.mapper.map(query)
                mapping_span.set_attribute("base_set_size", len(base))
                mapping_span.set_attribute(
                    "generalisation_steps", len(base.generalisation_steps)
                )
        except (
            ProbeLimitExceededError,
            TransientSourceError,
            CircuitOpenError,
            DeadlineExceededError,
        ) as exc:
            # Without a base set there is nothing to relax; the
            # degraded answer is empty but still structured.
            trace.degradation.record("base_query", exc)
            return []
        trace.generalisation_steps = base.generalisation_steps
        base_rows = list(zip(base.result.row_ids, base.result.rows))
        return base_rows[: self.settings.base_set_cap]

    def _expand(
        self,
        call: _Call,
        base_rows: list[tuple[int, tuple]],
        query_scorer: BindingsScorer | None,
        target: int | None = None,
    ) -> None:
        """Relax each base tuple in turn; a doomed probe ends the call."""
        with call.phase("expansion"):
            for base_row_id, base_row in base_rows:
                try:
                    self._expand_base_tuple(
                        call, base_row_id, base_row, query_scorer, target
                    )
                except _ExpansionAborted:
                    break

    def _expand_base_tuple(
        self,
        call: _Call,
        base_row_id: int,
        base_row: tuple,
        query_scorer: BindingsScorer | None,
        target: int | None,
    ) -> None:
        """Relax one base tuple until its quota of similar tuples is met.

        With ``query_scorer=None`` (tuple-query mode) the answer's
        query similarity equals its base similarity.
        """
        settings = self.settings
        trace = call.trace
        threshold = call.threshold
        extended = call.extended
        bound_query = tuple_as_query(
            base_row,
            self.webdb.schema,
            numeric_band=settings.tuple_query_numeric_band,
        )
        # Every extracted tuple is compared against this one base row;
        # compile the reference bindings once instead of per comparison.
        # The scorer stops on a row as soon as it provably cannot clear
        # the threshold; every score it returns is exact.
        base_scorer = self.similarity.bounded_row_scorer(base_row, threshold)
        quota = target if target is not None else settings.target_per_base_tuple
        relevant_found = 0
        extracted = 0
        observing = OBS.enabled
        if observing:
            score_histogram = OBS.registry.histogram(
                "repro_core_similarity_score",
                "Base-tuple similarity of every scored extracted tuple.",
                buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            )
            cut_counter = OBS.registry.counter(
                "repro_core_similarity_cut_total",
                "Extracted tuples cut before a full score, as provably "
                "at or below T_sim.",
            )

        with OBS.span(
            "engine.expand_base_tuple", base_row_id=base_row_id
        ) as expand_span:
            for step in self.strategy.relaxation_steps(
                bound_query, settings.max_relaxation_level
            ):
                if relevant_found >= quota:
                    break
                if extracted >= settings.max_extracted_per_base_tuple:
                    break
                with OBS.span(
                    "engine.relaxation_level",
                    level=step.level,
                    relaxed=",".join(step.relaxed_attributes),
                ) as step_span:
                    try:
                        result = self.webdb.query(step.query)
                    except (ProbeLimitExceededError, CircuitOpenError) as exc:
                        # Terminal for the whole call: no future probe
                        # can succeed either.
                        trace.degradation.record(
                            "expansion", exc,
                            base_row_id=base_row_id, level=step.level,
                        )
                        raise _ExpansionAborted from exc
                    except DeadlineExceededError as exc:
                        if exc.scope == "query":
                            trace.degradation.record(
                                "expansion", exc,
                                base_row_id=base_row_id, level=step.level,
                            )
                            raise _ExpansionAborted from exc
                        # Probe-scope deadline: only this step is lost.
                        trace.degradation.record(
                            "relaxation", exc,
                            base_row_id=base_row_id, level=step.level,
                        )
                        continue
                    except TransientSourceError as exc:
                        # Retries (if configured) are already exhausted
                        # by the time this surfaces; skip the step and
                        # try the next relaxation.
                        trace.degradation.record(
                            "relaxation", exc,
                            base_row_id=base_row_id, level=step.level,
                        )
                        continue
                    step_span.set_attribute("result_size", len(result))
                if observing:
                    OBS.registry.counter(
                        "repro_core_relaxation_probes_total",
                        "Relaxation probes issued, by relaxation level.",
                        labels=("level",),
                    ).labels(level=step.level).inc()
                if result.from_cache:
                    trace.probes_cached += 1
                else:
                    trace.queries_issued += 1
                trace.deepest_level = max(trace.deepest_level, step.level)
                for row_id, row in zip(result.row_ids, result.rows):
                    if row_id == base_row_id:
                        continue
                    extracted += 1
                    trace.tuples_extracted += 1
                    base_similarity = base_scorer.score_above(row)
                    if base_similarity is None:
                        if observing:
                            cut_counter.inc()
                        continue
                    if observing:
                        score_histogram.observe(base_similarity)
                    if base_similarity <= threshold:
                        continue
                    existing = extended.get(row_id)
                    if existing is None:
                        # Only distinct relevant tuples count toward the
                        # quota; re-fetching a known answer is not progress.
                        relevant_found += 1
                        trace.tuples_relevant += 1
                    elif existing.base_similarity >= base_similarity:
                        continue
                    query_similarity = (
                        base_similarity
                        if query_scorer is None
                        else query_scorer(row)
                    )
                    extended[row_id] = RankedAnswer(
                        row_id=row_id,
                        row=row,
                        similarity=query_similarity,
                        base_similarity=base_similarity,
                        source_base_row_id=base_row_id,
                        relaxation_level=step.level,
                    )
                    if relevant_found >= quota:
                        break
                    if extracted >= settings.max_extracted_per_base_tuple:
                        break
            expand_span.set_attribute("extracted", extracted)
            expand_span.set_attribute("relevant", relevant_found)

    def _deadline_scope(self):
        """The per-query deadline window (no-op without resilience)."""
        if isinstance(self.webdb, ResilientWebDatabase):
            return self.webdb.deadline_scope()
        return nullcontext()

    def _snapshot_resilience(self) -> tuple[int, int]:
        """(retries, breaker opens) so far, for per-call deltas."""
        if isinstance(self.webdb, ResilientWebDatabase):
            breaker = self.webdb.breaker
            return (
                self.webdb.retrier.retries,
                breaker.open_count if breaker is not None else 0,
            )
        return (0, 0)

    def _finish_degradation(
        self, trace: RelaxationTrace, before: tuple[int, int]
    ) -> None:
        """Attribute this call's share of retry/breaker activity."""
        after = self._snapshot_resilience()
        trace.degradation.retries_used = after[0] - before[0]
        trace.degradation.breaker_opens = after[1] - before[1]

    def _emit_query_event(
        self,
        recorder,
        mode: str,
        query_text: str,
        trace: RelaxationTrace,
        log_before,
        answers: int,
        k: int,
        threshold: float,
    ) -> None:
        """Flatten one call's cross-layer accounting into one wide event.

        Every field mirrors its source exactly: the ``probes_*`` family
        comes from the :class:`RelaxationTrace` (paper Figs 6–7
        semantics), the ``log_*`` family from the facade's
        :class:`~repro.db.ProbeLog` delta over the call, and the
        degradation block from :class:`DegradationReport` — no
        re-derivation, so the event can be asserted against all three.
        """
        log_delta = self.webdb.log.delta(log_before)
        degradation = trace.degradation
        recorder.note(
            mode=mode,
            dataset=self.webdb.schema.name,
            query=query_text,
            k=k,
            threshold=threshold,
            answers=answers,
            base_set_size=trace.base_set_size,
            generalisation_steps=len(trace.generalisation_steps),
            deepest_level=trace.deepest_level,
            probes_issued=trace.queries_issued,
            probes_cached=trace.probes_cached,
            probes_subsumed=trace.probes_subsumed,
            logical_probes=trace.logical_probes,
            tuples_extracted=trace.tuples_extracted,
            tuples_relevant=trace.tuples_relevant,
            resilient=isinstance(self.webdb, ResilientWebDatabase),
            degraded=trace.degraded,
            steps_skipped=len(degradation.skipped),
            skipped_stages=",".join(
                sorted({step.stage for step in degradation.skipped})
            ),
            probes_failed=degradation.probes_failed,
            retries_used=degradation.retries_used,
            breaker_opens=degradation.breaker_opens,
            budget_exhausted=degradation.budget_exhausted,
            breaker_open=degradation.breaker_open,
            deadline_exceeded=degradation.deadline_exceeded,
            log_probes_issued=log_delta.probes_issued,
            log_tuples_returned=log_delta.tuples_returned,
            log_empty_results=log_delta.empty_results,
            log_count_probes=log_delta.count_probes,
            log_cache_hits=log_delta.cache_hits,
        )
        recorder.finish()

    def _record_query_metrics(self, mode: str, trace: RelaxationTrace) -> None:
        """Publish one answered query's work accounting."""
        registry = OBS.registry
        registry.counter(
            "repro_core_queries_answered_total",
            "Imprecise queries answered, by entry point.",
            labels=("mode",),
        ).labels(mode=mode).inc()
        registry.histogram(
            "repro_core_base_set_size",
            "Base-set sizes after mapping/generalisation.",
            buckets=(0, 1, 2, 5, 10, 20, 50, 100, 200),
        ).observe(trace.base_set_size)
        registry.counter(
            "repro_core_tuples_extracted_total",
            "Tuples pulled from the source during relaxation.",
        ).inc(trace.tuples_extracted)
        registry.counter(
            "repro_core_tuples_relevant_total",
            "Extracted tuples clearing the similarity threshold.",
        ).inc(trace.tuples_relevant)
        if trace.degraded:
            registry.counter(
                "repro_core_degraded_answers_total",
                "Answers returned partial because the source failed.",
                labels=("mode",),
            ).labels(mode=mode).inc()
