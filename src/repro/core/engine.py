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
from contextlib import nullcontext
from typing import Iterator, Mapping, Sequence

from repro.core.attribute_order import AttributeOrdering
from repro.core.config import AIMQSettings
from repro.core.plan import PlannerConfig, PlanSession
from repro.core.query import BaseQueryMapper, ImpreciseQuery
from repro.core.relaxation import (
    GuidedRelax,
    RelaxationStep,
    _RelaxerBase,
    tuple_as_query,
)
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
        planner: PlannerConfig | None = None,
    ) -> None:
        if resilience is not None and not isinstance(
            webdb, ResilientWebDatabase
        ):
            webdb = ResilientWebDatabase(webdb, resilience, clock=clock)
        self.webdb = webdb
        self.ordering = ordering
        self.settings = settings or AIMQSettings()
        # Semantic probe planner (repro.core.plan): None — the default —
        # selects the exact sequential relaxation path.
        self.planner = planner
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
        """Run Algorithm 1 and return the top-k ranked answer set."""
        settings = self.settings
        threshold = (
            settings.similarity_threshold
            if similarity_threshold is None
            else similarity_threshold
        )
        top_k = settings.top_k if k is None else k

        trace = RelaxationTrace()
        recorder = OBS.flight_recorder("engine.answer")
        log_before = self.webdb.log.snapshot() if recorder is not None else None
        phase = (
            recorder.phase
            if recorder is not None
            else (lambda name: nullcontext())
        )
        resilience_before = self._snapshot_resilience()
        with OBS.span(
            "engine.answer", query=query.describe(), k=top_k
        ) as root, self._deadline_scope():
            if recorder is not None and OBS.enabled:
                # Events and spans of one call share the span's id.
                recorder.trace_id = root.trace_id
            base_rows: list[tuple[int, tuple]] = []
            with phase("mapping"):
                try:
                    with OBS.span("engine.base_query_mapping") as mapping_span:
                        base = self.mapper.map(query)
                        mapping_span.set_attribute("base_set_size", len(base))
                        mapping_span.set_attribute(
                            "generalisation_steps",
                            len(base.generalisation_steps),
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
                else:
                    trace.generalisation_steps = base.generalisation_steps
                    base_rows = list(
                        zip(base.result.row_ids, base.result.rows)
                    )
                    base_rows = base_rows[: settings.base_set_cap]
            trace.base_set_size = len(base_rows)

            # One compiled scorer serves every Sim(Q, t) evaluation of
            # this call: the weight table and per-value VSim lookups are
            # resolved once instead of per candidate row.
            query_scorer = self.similarity.query_scorer(query)

            # Extended set, deduplicated by row id; base tuples are answers
            # by construction (they satisfy a specialisation of Q).
            extended: dict[int, RankedAnswer] = {}
            for base_row_id, base_row in base_rows:
                extended[base_row_id] = RankedAnswer(
                    row_id=base_row_id,
                    row=base_row,
                    similarity=query_scorer(base_row),
                    base_similarity=1.0,
                    source_base_row_id=base_row_id,
                    relaxation_level=0,
                )

            session = self._open_plan_session()
            programs = self._materialise_programs(session, base_rows)
            with phase("expansion"):
                try:
                    for tuple_index, (base_row_id, base_row) in enumerate(
                        base_rows
                    ):
                        try:
                            self._expand_base_tuple(
                                base_row_id, base_row, query_scorer,
                                threshold, extended, trace,
                                session=session,
                                steps=(
                                    programs[tuple_index]
                                    if programs is not None
                                    else None
                                ),
                                tuple_index=tuple_index,
                            )
                        except _ExpansionAborted:
                            break
                finally:
                    self._close_plan_session(session, trace)

            with phase("ranking"), OBS.span(
                "engine.ranking", candidates=len(extended)
            ):
                # nsmallest(k, key=...) == sorted(key=...)[:k] by
                # contract, so the deterministic tie-break (see
                # answer_rank_key) is preserved while only a k-sized
                # heap is maintained.
                answers = heapq.nsmallest(
                    top_k, extended.values(), key=answer_rank_key
                )
            root.set_attribute("answers", len(answers))
            root.set_attribute("probes", trace.queries_issued)
            root.set_attribute("degraded", trace.degraded)
        self._finish_degradation(trace, resilience_before)
        if OBS.enabled:
            self._record_query_metrics("answer", trace)
        if recorder is not None:
            self._emit_query_event(
                recorder, "answer", query.describe(), trace, log_before,
                answers=len(answers), k=top_k, threshold=threshold,
            )
        return AnswerSet(query=query, answers=answers, trace=trace)

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
        settings = self.settings
        threshold = (
            settings.similarity_threshold
            if similarity_threshold is None
            else similarity_threshold
        )
        trace = RelaxationTrace(base_set_size=1)
        extended: dict[int, RankedAnswer] = {}
        seed_id = row_id if row_id is not None else -1
        recorder = OBS.flight_recorder("engine.gather_similar")
        log_before = self.webdb.log.snapshot() if recorder is not None else None
        phase = (
            recorder.phase
            if recorder is not None
            else (lambda name: nullcontext())
        )
        resilience_before = self._snapshot_resilience()
        with OBS.span(
            "engine.gather_similar", row_id=seed_id, threshold=threshold
        ) as root, self._deadline_scope():
            if recorder is not None and OBS.enabled:
                recorder.trace_id = root.trace_id
            session = self._open_plan_session()
            with phase("expansion"):
                try:
                    self._expand_base_tuple(
                        seed_id,
                        row,
                        None,
                        threshold,
                        extended,
                        trace,
                        target=target,
                        session=session,
                    )
                except _ExpansionAborted:
                    pass
                finally:
                    self._close_plan_session(session, trace)
            with phase("ranking"), OBS.span(
                "engine.ranking", candidates=len(extended)
            ):
                answers = sorted(extended.values(), key=base_rank_key)
            root.set_attribute("answers", len(answers))
            root.set_attribute("probes", trace.queries_issued)
            root.set_attribute("degraded", trace.degraded)
        self._finish_degradation(trace, resilience_before)
        if OBS.enabled:
            self._record_query_metrics("gather_similar", trace)
        if recorder is not None:
            self._emit_query_event(
                recorder, "gather_similar", f"row:{seed_id}", trace,
                log_before, answers=len(answers),
                k=target if target is not None else 0,
                threshold=threshold,
            )
        return answers, trace

    # -- internals --------------------------------------------------------

    def _expand_base_tuple(
        self,
        base_row_id: int,
        base_row: tuple,
        query_scorer: BindingsScorer | None,
        threshold: float,
        extended: dict[int, RankedAnswer],
        trace: RelaxationTrace,
        target: int | None = None,
        session: PlanSession | None = None,
        steps: Sequence[RelaxationStep] | None = None,
        tuple_index: int = 0,
    ) -> None:
        """Relax one base tuple until its quota of similar tuples is met.

        With ``query_scorer=None`` (tuple-query mode) the answer's
        query similarity equals its base similarity.  With an active
        ``session`` the relaxation steps route through the semantic
        planner (frontier batching + local reuse) but are consumed in
        the identical serial order; ``steps`` optionally supplies a
        pre-materialised program (frontier="all").
        """
        settings = self.settings
        schema = self.webdb.schema
        bound_query = tuple_as_query(
            base_row, schema, numeric_band=settings.tuple_query_numeric_band
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
            for step in self._step_source(
                bound_query, session, steps, tuple_index
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
                        result, probe_kind = self._probe_step(step, session)
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
                if probe_kind == "cached":
                    trace.probes_cached += 1
                elif probe_kind == "subsumed":
                    trace.probes_subsumed += 1
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

    # -- semantic planning -------------------------------------------------

    def _open_plan_session(self) -> PlanSession | None:
        """A fresh planning session, or None on the sequential path."""
        if self.planner is None:
            return None
        return PlanSession(self.webdb, self.planner)

    def _close_plan_session(
        self, session: PlanSession | None, trace: RelaxationTrace
    ) -> None:
        """Fold the session's scheduling counters into the trace."""
        if session is None:
            return
        session.close()
        trace.frontier_batches = session.frontier_batches
        trace.probes_speculative = session.probes_speculative

    def _materialise_programs(
        self,
        session: PlanSession | None,
        base_rows: list[tuple[int, tuple]],
    ) -> list[list[RelaxationStep]] | None:
        """Pre-build every base tuple's relaxation program (frontier="all").

        Programs are materialised in tuple order, so a seeded
        RandomRelax draws its RNG stream in the serial sequence.  (The
        draws happen earlier than on the sequential path, which is
        observable across *subsequent* calls only when this call aborts
        early — the serial path would then never have created the later
        tuples' generators.  Documented in docs/PERFORMANCE.md.)
        """
        if (
            session is None
            or not session.active
            or session.config.frontier != "all"
        ):
            return None
        settings = self.settings
        schema = self.webdb.schema
        programs: list[list[RelaxationStep]] = []
        for _, base_row in base_rows:
            bound_query = tuple_as_query(
                base_row, schema,
                numeric_band=settings.tuple_query_numeric_band,
            )
            programs.append(
                list(
                    self.strategy.relaxation_steps(
                        bound_query, settings.max_relaxation_level
                    )
                )
            )
        session.set_programs(
            [
                [(step.query, step.level) for step in program]
                for program in programs
            ]
        )
        return programs

    def _step_source(
        self,
        bound_query,
        session: PlanSession | None,
        steps: Sequence[RelaxationStep] | None,
        tuple_index: int,
    ) -> Iterator[RelaxationStep]:
        """The relaxation step stream for one base tuple.

        Sequential path: the strategy's lazy generator, untouched.
        Batched path: the same steps in the same order, materialised so
        contiguous same-level runs can be announced to the session as
        frontier batches before being consumed.
        """
        if session is None or not session.active:
            if steps is not None:
                return iter(steps)
            return self.strategy.relaxation_steps(
                bound_query, self.settings.max_relaxation_level
            )
        if steps is None:
            steps = list(
                self.strategy.relaxation_steps(
                    bound_query, self.settings.max_relaxation_level
                )
            )
        return self._batched_steps(steps, session, tuple_index)

    @staticmethod
    def _batched_steps(
        steps: Sequence[RelaxationStep],
        session: PlanSession,
        tuple_index: int,
    ) -> Iterator[RelaxationStep]:
        """Yield steps serially, prefetching each same-level run first.

        GuidedRelax emits levels contiguously, so a run is one whole
        relaxation level; RandomRelax's shuffled stream degrades to
        short runs, which bounds its speculation accordingly.
        """
        index = 0
        total = len(steps)
        while index < total:
            level = steps[index].level
            run_end = index
            while run_end < total and steps[run_end].level == level:
                run_end += 1
            group = steps[index:run_end]
            session.prefetch(
                [step.query for step in group], tuple_index, level
            )
            yield from group
            index = run_end

    def _probe_step(
        self, step: RelaxationStep, session: PlanSession | None
    ) -> tuple:
        """Resolve one relaxation step and classify its accounting.

        Returns ``(result, kind)``, ``kind`` ∈ {"issued", "cached",
        "subsumed"}; exceptions propagate for the caller's degradation
        handling exactly as direct ``webdb.query`` calls did.
        """
        if session is not None:
            return session.fetch(step.query)
        result = self.webdb.query(step.query)
        return result, ("cached" if result.from_cache else "issued")

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
        planner = self.planner
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
            probes_speculative=trace.probes_speculative,
            logical_probes=trace.logical_probes,
            frontier_batches=trace.frontier_batches,
            tuples_extracted=trace.tuples_extracted,
            tuples_relevant=trace.tuples_relevant,
            frontier="none" if planner is None else planner.frontier,
            batch_workers=0 if planner is None else planner.workers,
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
        # Registered unconditionally (inc(0) on the sequential path) so
        # `repro stats` always shows the planner families alongside the
        # rest of the pipeline.
        registry.counter(
            "repro_core_probes_subsumed_total",
            "Relaxation steps answered locally from subsuming "
            "results instead of probing the source.",
        ).inc(trace.probes_subsumed)
        registry.counter(
            "repro_core_frontier_batches_total",
            "Frontier waves scheduled by the semantic planner.",
        ).inc(trace.frontier_batches)
        if trace.degraded:
            registry.counter(
                "repro_core_degraded_answers_total",
                "Answers returned partial because the source failed.",
                labels=("mode",),
            ).labels(mode=mode).inc()
