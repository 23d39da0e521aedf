"""Autonomous Web database facade.

The paper's setting (§1, footnote 1) is a *non-local autonomous database
accessible only via a Web form interface*.  This facade enforces that
access model on top of the local engine:

* only conjunctive selection queries may be issued (the boolean model);
* the caller never touches rows, indexes or statistics directly;
* the only metadata exposed is what a real form exposes — the schema
  behind the form and, for categorical attributes, the drop-down
  *form options* (distinct values);
* every probe is accounted, and an optional probe budget and per-query
  result cap mimic rate limits and "first N results" pages.

The Data Collector (:mod:`repro.sampling`) and the online Query Engine
(:mod:`repro.core.engine`) both operate exclusively through this facade,
so nothing in AIMQ accidentally depends on local-database privileges.

Accounting comes in two layers: the cumulative :class:`ProbeLog` (plus
nestable :meth:`AutonomousWebDatabase.accounting_scope` windows over
it), and — when observability is enabled — labelled counters in the
shared metrics registry, including probe counts by predicate shape.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from repro.db.errors import ProbeLimitExceededError
from repro.db.executor import ExecutionStats, Executor, QueryResult
from repro.db.faults import FaultDecision, FaultPolicy
from repro.db.probe_cache import ProbeCache
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.obs.runtime import OBS

__all__ = [
    "ProbeLog",
    "AccountingWindow",
    "AutonomousWebDatabase",
]


@dataclass
class ProbeLog:
    """Account of the probing traffic an autonomous source has seen.

    ``count_probes`` tracks result-count probes separately: a count
    probe costs the source one form submission (and one unit of probe
    budget) but returns no tuples, so it must never inflate
    ``tuples_returned``.

    ``cache_hits`` counts lookups served from the facade's probe cache.
    A hit never reaches the source — no form submission, no budget
    charge — so it is *not* a probe and leaves every other counter
    untouched.  Figures 6–7 read ``probes_issued``, which therefore
    keeps its paper semantics whether the cache is on or off.
    """

    probes_issued: int = 0
    tuples_returned: int = 0
    empty_results: int = 0
    count_probes: int = 0
    cache_hits: int = 0

    def record(self, result: QueryResult) -> None:
        self.probes_issued += 1
        self.tuples_returned += len(result)
        if not result:
            self.empty_results += 1

    def record_count(self, matches: int) -> None:
        """Account one count-only probe (no tuples were returned)."""
        self.probes_issued += 1
        self.count_probes += 1
        if matches == 0:
            self.empty_results += 1

    def record_cache_hit(self) -> None:
        """Account one lookup answered by the probe cache."""
        self.cache_hits += 1

    def snapshot(self) -> "ProbeLog":
        """An independent copy of the current counters."""
        return replace(self)

    def delta(self, since: "ProbeLog") -> "ProbeLog":
        """Traffic recorded after the ``since`` snapshot was taken."""
        return ProbeLog(
            probes_issued=self.probes_issued - since.probes_issued,
            tuples_returned=self.tuples_returned - since.tuples_returned,
            empty_results=self.empty_results - since.empty_results,
            count_probes=self.count_probes - since.count_probes,
            cache_hits=self.cache_hits - since.cache_hits,
        )

    def reset(self) -> None:
        self.probes_issued = 0
        self.tuples_returned = 0
        self.empty_results = 0
        self.count_probes = 0
        self.cache_hits = 0


class AccountingWindow:
    """Delta view over a webdb's accounting since the window opened.

    Windows never mutate the underlying counters, so they nest freely
    and leave the global totals intact — unlike ``reset_accounting``,
    which zeroes everything for every observer at once.
    """

    def __init__(
        self, webdb: "AutonomousWebDatabase", log_start: ProbeLog,
        stats_start: ExecutionStats,
    ) -> None:
        self._webdb = webdb
        self._log_start = log_start
        self._stats_start = stats_start
        self._frozen_log: ProbeLog | None = None
        self._frozen_stats: ExecutionStats | None = None

    @property
    def log(self) -> ProbeLog:
        """Probe traffic inside the window (live until the window closes)."""
        if self._frozen_log is not None:
            return self._frozen_log
        return self._webdb.log.delta(self._log_start)

    @property
    def execution_stats(self) -> ExecutionStats:
        """Engine-side work inside the window."""
        if self._frozen_stats is not None:
            return self._frozen_stats
        return self._webdb.execution_stats.delta(self._stats_start)

    @property
    def probes_issued(self) -> int:
        return self.log.probes_issued

    @property
    def tuples_returned(self) -> int:
        return self.log.tuples_returned

    @property
    def empty_results(self) -> int:
        return self.log.empty_results

    @property
    def count_probes(self) -> int:
        return self.log.count_probes

    @property
    def cache_hits(self) -> int:
        return self.log.cache_hits

    def close(self) -> None:
        """Freeze the window so later traffic stops leaking into it."""
        if self._frozen_log is None:
            self._frozen_log = self.log.snapshot()
            self._frozen_stats = self.execution_stats.snapshot()


class AutonomousWebDatabase:
    """Form-interface view of a relation hosted by an autonomous source.

    Parameters
    ----------
    table:
        The backing relation instance (hidden from callers).
    result_cap:
        When set, every query returns at most this many tuples — the
        "first N results" page a Web form would serve.
    probe_budget:
        When set, raise :class:`ProbeLimitExceededError` once this many
        probes have been issued (rate limiting).
    probe_cache_capacity:
        When set, enable a bounded LRU cache over probes (see
        :mod:`repro.db.probe_cache`).  Off by default — the efficiency
        experiments meter issued probes, and a cache would serve
        repeats for free.  Cache hits are logged as
        ``ProbeLog.cache_hits`` and never charge the probe budget.
    fault_policy:
        When set, every source-reaching probe attempt first consults
        the seeded fault schedule (see :mod:`repro.db.faults`): the
        attempt may be aborted with a transient error, a timeout, a
        throttle response or an outage, or its result page may be
        truncated.  Off by default; with the policy unset this path is
        never entered and probe/accounting semantics are bit-identical
        to a policy-free facade.  An injected error aborts the probe
        before execution, so it charges no budget and moves no
        ``ProbeLog`` counter.
    """

    def __init__(
        self,
        table: Table,
        result_cap: int | None = None,
        probe_budget: int | None = None,
        probe_cache_capacity: int | None = None,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        self._table = table
        self._executor = Executor(table)
        self.result_cap = result_cap
        self.probe_budget = probe_budget
        self.log = ProbeLog()
        # Serialises probe execution + accounting so concurrent callers
        # (server request threads share one facade) cannot interleave a
        # budget check, the executor counters, and the ProbeLog update.
        # The in-memory substrate therefore runs probes one at a time
        # under the lock.
        self._accounting_lock = threading.RLock()
        self._fault_policy = fault_policy
        self._probe_cache: ProbeCache | None = (
            ProbeCache(probe_cache_capacity)
            if probe_cache_capacity is not None
            else None
        )

    # -- metadata a Web form exposes -------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The relation schema projected by the form."""
        return self._table.schema

    @property
    def name(self) -> str:
        return self._table.schema.name

    def form_options(self, attribute: str) -> list[object]:
        """Drop-down options for a categorical attribute.

        Web search forms routinely enumerate categorical domains in
        ``<select>`` elements; this is the hook the spanning-query
        prober uses.  Numeric attributes have free-text inputs, so the
        facade refuses to enumerate them.
        """
        if not self.schema.attribute(attribute).is_categorical:
            raise ValueError(
                f"attribute {attribute!r} is numeric; forms expose no option "
                "list for free-text inputs"
            )
        return sorted(self._table.distinct_values(attribute), key=str)

    def cardinality_hint(self) -> int:
        """Advertised result-count of the unconstrained search.

        Many Web sources display "N listings found"; probers use it to
        size samples.  This is the only total the facade reveals.
        """
        return len(self._table)

    # -- the boolean query interface -------------------------------------------

    def query(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        """Issue one selection probe.

        ``limit`` may further reduce (never exceed) the facade's
        ``result_cap``; ``offset`` requests a later result page, the
        way a Web form's "next page" link does.  A negative ``offset``
        raises :class:`ValueError` before anything is looked up, charged
        or drawn.

        With the probe cache enabled, a repeated probe (same canonical
        conjunction and result window) is served from the cache: the
        returned result is payload-identical but flagged
        ``from_cache=True``, no budget is charged, and only
        ``cache_hits`` accounting moves.

        Thread-safe: the whole probe (budget check, execution, cache and
        log updates) runs under one lock, so concurrent callers observe
        consistent accounting.
        """
        with self._accounting_lock:
            return self._query_locked(query, limit, offset)

    def _query_locked(
        self,
        query: SelectionQuery,
        limit: int | None,
        offset: int,
    ) -> QueryResult:
        # A caller bug, not a source fault: refuse it before the cache,
        # the budget or the fault schedule can see the probe.
        if offset < 0:
            raise ValueError("offset cannot be negative")
        effective_limit = self.result_cap
        if limit is not None:
            effective_limit = (
                limit if effective_limit is None else min(limit, effective_limit)
            )
        cache = self._probe_cache
        if cache is not None:
            cached = cache.get_result(query, effective_limit, offset)
            if cached is not None:
                self.log.record_cache_hit()
                _record_cache_metrics(hit=True)
                _emit_probe_event(
                    query, kind="query", rows=len(cached), from_cache=True
                )
                return replace(cached, from_cache=True)
        self._check_budget()
        decision = self._consult_faults()
        result = self._executor.execute(query, limit=effective_limit, offset=offset)
        fault_truncated = False
        if decision is not None and decision.truncate:
            policy = self._fault_policy
            assert policy is not None
            cut = policy.truncate_result(result)
            fault_truncated = cut is not result
            result = cut
        self.log.record(result)
        if cache is not None and not fault_truncated:
            # A fault-truncated page is not the source's real answer;
            # caching it would replay the corruption on every repeat.
            evicted = cache.put_result(query, effective_limit, offset, result)
            _record_cache_metrics(hit=False, evicted=evicted)
        if OBS.enabled:
            _record_probe_metrics(query, kind="query", empty=not result)
            if result.truncated and self.result_cap is not None:
                OBS.registry.counter(
                    "repro_db_result_cap_truncations_total",
                    "Probes whose result page was cut by the facade's cap.",
                ).inc()
        _emit_probe_event(
            query,
            kind="query",
            rows=len(result),
            from_cache=False,
            truncated=result.truncated,
        )
        return result

    def count(self, query: SelectionQuery) -> int:
        """Result-count probe (forms report counts without listing).

        Uses the executor's count-only path: no rows are materialised,
        and the probe is logged distinctly as a count probe.  The probe
        budget applies exactly as for row probes — a count still costs
        the source one form submission.  Repeated counts are served by
        the probe cache when it is enabled.  Thread-safe, like
        :meth:`query`.
        """
        with self._accounting_lock:
            return self._count_locked(query)

    def _count_locked(self, query: SelectionQuery) -> int:
        cache = self._probe_cache
        if cache is not None:
            cached = cache.get_count(query)
            if cached is not None:
                self.log.record_cache_hit()
                _record_cache_metrics(hit=True)
                _emit_probe_event(
                    query, kind="count", rows=cached, from_cache=True
                )
                return cached
        self._check_budget()
        self._consult_faults()
        matches = self._executor.count(query)
        self.log.record_count(matches)
        if cache is not None:
            evicted = cache.put_count(query, matches)
            _record_cache_metrics(hit=False, evicted=evicted)
        if OBS.enabled:
            _record_probe_metrics(query, kind="count", empty=matches == 0)
        _emit_probe_event(query, kind="count", rows=matches, from_cache=False)
        return matches

    # -- fault injection ---------------------------------------------------------

    @property
    def fault_policy(self) -> FaultPolicy | None:
        """The active fault-injection policy, or None when off."""
        return self._fault_policy

    def set_fault_policy(self, policy: FaultPolicy | None) -> None:
        """Install (or, with None, remove) the fault-injection policy."""
        with self._accounting_lock:
            self._fault_policy = policy

    def _consult_faults(self) -> FaultDecision | None:
        """Draw the fault schedule for one source-reaching attempt.

        Raises the injected error (before any accounting) when the
        schedule says the attempt fails; otherwise returns the decision
        so the caller can apply a pending page truncation.
        """
        policy = self._fault_policy
        if policy is None:
            return None
        decision = policy.decide()
        if decision.error is not None:
            raise decision.error
        return decision

    # -- probe cache management ------------------------------------------------

    @property
    def probe_cache(self) -> ProbeCache | None:
        """The active probe cache, or None when caching is off."""
        return self._probe_cache

    def enable_probe_cache(self, capacity: int = 1024) -> ProbeCache:
        """Switch the probe cache on (replacing any existing one)."""
        with self._accounting_lock:
            self._probe_cache = ProbeCache(capacity)
            return self._probe_cache

    def disable_probe_cache(self) -> None:
        """Switch the probe cache off and drop its entries."""
        with self._accounting_lock:
            self._probe_cache = None

    # -- bookkeeping -----------------------------------------------------------

    @property
    def execution_stats(self) -> ExecutionStats:
        """Engine-side work counters (for experiments, not for AIMQ)."""
        return self._executor.stats

    def reset_accounting(self) -> None:
        """Zero the probe log and engine counters between experiments."""
        self.log.reset()
        self._executor.stats = ExecutionStats()

    @contextmanager
    def accounting_scope(self) -> Iterator[AccountingWindow]:
        """Nestable accounting window over this source's traffic.

        Yields an :class:`AccountingWindow` whose counters cover only
        the probes issued inside the ``with`` block; the global
        :attr:`log` keeps accumulating untouched, so scopes nest and
        concurrent observers never clobber each other — the failure
        mode ``reset_accounting`` has when a probe budget trips
        mid-experiment.
        """
        window = AccountingWindow(
            self, self.log.snapshot(), self._executor.stats.snapshot()
        )
        try:
            yield window
        finally:
            window.close()

    # -- internals -------------------------------------------------------------

    def _check_budget(self) -> None:
        if (
            self.probe_budget is not None
            and self.log.probes_issued >= self.probe_budget
        ):
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_db_probe_budget_exhausted_total",
                    "Probes refused because the source's budget ran out.",
                ).inc()
            raise ProbeLimitExceededError(
                self.probe_budget, probes_issued=self.log.probes_issued
            )


def _record_cache_metrics(hit: bool, evicted: bool = False) -> None:
    if not OBS.enabled:
        return
    registry = OBS.registry
    if hit:
        registry.counter(
            "repro_db_probe_cache_hits_total",
            "Probe lookups served from the facade's probe cache.",
        ).inc()
    else:
        registry.counter(
            "repro_db_probe_cache_misses_total",
            "Probe lookups that missed the cache and reached the source.",
        ).inc()
    if evicted:
        registry.counter(
            "repro_db_probe_cache_evictions_total",
            "Probe cache entries evicted by the LRU capacity bound.",
        ).inc()


def _record_probe_metrics(query: SelectionQuery, kind: str, empty: bool) -> None:
    registry = OBS.registry
    registry.counter(
        "repro_db_probes_total",
        "Probes issued against the autonomous source, by kind and "
        "predicate shape.",
        labels=("kind", "shape"),
    ).labels(kind=kind, shape=_predicate_shape(query)).inc()
    if empty:
        registry.counter(
            "repro_db_empty_results_total",
            "Probes that returned (or counted) zero tuples.",
        ).inc()


def _emit_probe_event(
    query: SelectionQuery,
    kind: str,
    rows: int,
    from_cache: bool,
    truncated: bool = False,
) -> None:
    """One wide event per probe — opt-in (``--events-probe``)."""
    events = OBS.events
    if not (events.enabled and events.probe_events):
        return
    OBS.emit_event(
        "db.probe",
        query=query.describe(),
        kind=kind,
        rows=rows,
        from_cache=from_cache,
        truncated=truncated,
        trace_id=OBS.current_trace_id() or "",
    )


def _predicate_shape(query: SelectionQuery) -> str:
    """Compact shape label, e.g. ``between:1,eq:4`` (``none`` if empty)."""
    kinds: dict[str, int] = {}
    for predicate in query.predicates:
        name = type(predicate).__name__.lower()
        kinds[name] = kinds.get(name, 0) + 1
    if not kinds:
        return "none"
    return ",".join(f"{name}:{kinds[name]}" for name in sorted(kinds))
