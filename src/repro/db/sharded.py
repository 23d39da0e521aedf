"""Sharded autonomous source: scatter-gather over N web databases.

Real mediator deployments rarely face one monolithic source: listings
live behind many partial endpoints.  :class:`ShardedWebDatabase`
models that — rows are hash-partitioned across N independent
:class:`AutonomousWebDatabase` shards and every ``query``/``count``
probe is scattered to all of them, with results gathered back into the
exact answer the unsharded facade would have produced.

Bit-identity contract
---------------------

With all shards healthy, the sharded facade is indistinguishable from
an unsharded one over the same rows:

* each shard keeps its rows in global-row-id order, so a per-shard
  result page is already sorted by global id once mapped through the
  shard's id table; a k-way merge (``heapq.merge``) restores the
  canonical ascending-id order;
* a window of ``offset``/``limit`` is satisfied by asking every shard
  for its first ``offset + limit`` matches (offset 0): the global
  window is a subset of the union of those pages, so the merge can
  page exactly like the single executor does;
* the merged result is ``truncated`` iff some shard's page was cut or
  matches were left over beyond the gathered window — exactly when the
  unsharded executor would have set the flag.

Probe accounting rolls up as documented in docs/PERFORMANCE.md §8: the
facade's :class:`ProbeLog` records one entry per *logical* probe (the
number Figures 6–7 count), while each shard's own log records the
fan-out traffic; ``execution_stats`` is the sum over shard engines.

Degradation
-----------

Shards fail independently (per-shard fault policies) and may be
guarded by injected per-shard *guards* — circuit breakers in practice,
but this module only knows the :class:`ShardGuard` protocol because
``repro.db`` must not depend on ``repro.resilience`` (layering, and
REP003 enforces it).  With ``partial_results=True`` a failing shard is
skipped, the gathered answer covers the healthy shards only, and the
failure is reported through the failure listener (the resilience
wiring routes it into a ``DegradationReport``); with the default
``partial_results=False`` the shard's error propagates unchanged.
Permanent :class:`DatabaseError`\\ s always propagate — degradation is
for source trouble, not for caller bugs.
"""

from __future__ import annotations

import heapq
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Protocol, Sequence

from repro.db.errors import (
    DatabaseError,
    ProbeLimitExceededError,
    TransientSourceError,
)
from repro.db.executor import ExecutionStats, QueryResult
from repro.db.faults import FaultPolicy
from repro.db.probe_cache import ProbeCache
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import (
    AccountingWindow,
    AutonomousWebDatabase,
    ProbeLog,
    _emit_probe_event,
    _record_cache_metrics,
    _record_probe_metrics,
)
from repro.obs.runtime import OBS

__all__ = ["ShardGuard", "ShardFailure", "ShardedWebDatabase", "shard_of"]


class ShardGuard(Protocol):
    """Admission control for one shard (a circuit breaker, in practice).

    ``before_call`` may raise to refuse the call (the exception is
    treated as a shard failure); ``record_success``/``record_failure``
    feed the outcome back.  The protocol keeps ``repro.db`` free of any
    ``repro.resilience`` import — guards are injected from above.
    """

    def before_call(self) -> None: ...

    def record_success(self) -> None: ...

    def record_failure(self, error: BaseException) -> None: ...


@dataclass(frozen=True)
class ShardFailure:
    """One shard dropping out of one scatter (reported to the listener)."""

    shard: int
    stage: str
    error: BaseException


def shard_of(row: tuple, n_shards: int) -> int:
    """Deterministic home shard of a row.

    CRC32 over the row's repr — *not* ``hash()``, whose per-process
    salting would partition differently on every run.
    """
    return zlib.crc32(repr(row).encode("utf-8")) % n_shards


class ShardedWebDatabase:
    """Form-interface facade over hash-partitioned shard sources.

    Construct via :meth:`partition`.  Result caps, probe budgets and
    the probe cache live at this facade (the logical source); the
    shards underneath must be uncapped and unbudgeted, or gathered
    pages could not reproduce the unsharded answer.

    Thread-safe the same way :class:`AutonomousWebDatabase` is: one
    re-entrant lock serialises each logical probe end to end (scatter,
    gather, accounting), so concurrent callers observe consistent
    counters.
    """

    def __init__(
        self,
        shards: Sequence[AutonomousWebDatabase],
        global_ids: Sequence[Sequence[int]],
        result_cap: int | None = None,
        probe_budget: int | None = None,
        probe_cache_capacity: int | None = None,
        partial_results: bool = False,
    ) -> None:
        if not shards:
            raise ValueError("a sharded database needs at least one shard")
        if len(shards) != len(global_ids):
            raise ValueError("one global-id table per shard is required")
        for shard in shards:
            if shard.result_cap is not None or shard.probe_budget is not None:
                raise ValueError(
                    "shards must be uncapped/unbudgeted; caps and budgets "
                    "belong to the sharded facade"
                )
        self._shards = tuple(shards)
        self._global_ids = tuple(tuple(ids) for ids in global_ids)
        self.result_cap = result_cap
        self.probe_budget = probe_budget
        self.partial_results = partial_results
        self.log = ProbeLog()
        self._accounting_lock = threading.RLock()
        self._guards: list[ShardGuard | None] = [None for _ in self._shards]
        self._failure_listener: Callable[[ShardFailure], None] | None = None
        self._probe_cache: ProbeCache | None = (
            ProbeCache(probe_cache_capacity)
            if probe_cache_capacity is not None
            else None
        )

    @classmethod
    def partition(
        cls,
        table: Table,
        n_shards: int,
        auto_index: bool = True,
        result_cap: int | None = None,
        probe_budget: int | None = None,
        probe_cache_capacity: int | None = None,
        partial_results: bool = False,
    ) -> "ShardedWebDatabase":
        """Hash-partition ``table`` into ``n_shards`` shard sources.

        Row ``r`` goes to shard :func:`shard_of`\\ ``(r, n_shards)``;
        each shard remembers the global row ids it holds, in order, so
        gathered results can be mapped back.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        shard_tables = [
            Table(table.schema, auto_index=auto_index) for _ in range(n_shards)
        ]
        shard_rows: list[list[tuple]] = [[] for _ in range(n_shards)]
        global_ids: list[list[int]] = [[] for _ in range(n_shards)]
        for row_id, row in enumerate(table):
            home = shard_of(row, n_shards)
            shard_rows[home].append(row)
            global_ids[home].append(row_id)
        for shard_table, rows in zip(shard_tables, shard_rows):
            shard_table.extend(rows)
        shards = [AutonomousWebDatabase(shard) for shard in shard_tables]
        return cls(
            shards,
            global_ids,
            result_cap=result_cap,
            probe_budget=probe_budget,
            probe_cache_capacity=probe_cache_capacity,
            partial_results=partial_results,
        )

    # -- topology / metadata ---------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def schema(self) -> RelationSchema:
        return self._shards[0].schema

    @property
    def name(self) -> str:
        return self._shards[0].name

    def form_options(self, attribute: str) -> list[object]:
        """Union of the shards' drop-down options (sorted, like a form)."""
        seen: dict[object, None] = {}
        for shard in self._shards:
            for option in shard.form_options(attribute):
                seen.setdefault(option)
        return sorted(seen, key=str)

    def cardinality_hint(self) -> int:
        """Sum of the shards' advertised totals."""
        return sum(shard.cardinality_hint() for shard in self._shards)

    # -- guards, faults, failure reporting -------------------------------------

    def attach_guards(self, guards: Sequence[ShardGuard]) -> None:
        """Install one admission guard per shard (index-aligned)."""
        if len(guards) != len(self._shards):
            raise ValueError("need exactly one guard per shard")
        with self._accounting_lock:
            self._guards = list(guards)

    def set_failure_listener(
        self, listener: Callable[[ShardFailure], None] | None
    ) -> None:
        """Observe shard dropouts (the resilience wiring's hook)."""
        with self._accounting_lock:
            self._failure_listener = listener

    def set_shard_fault_policy(self, shard: int, policy: FaultPolicy | None) -> None:
        """Attach a seeded fault schedule to one shard source."""
        self._shards[shard].set_fault_policy(policy)

    # -- the boolean query interface -------------------------------------------

    def query(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        """Scatter one selection probe, gather the canonical answer.

        Same window semantics as the unsharded facade: ``limit`` may
        reduce (never exceed) ``result_cap``, ``offset`` pages forward,
        and the gathered rows arrive in ascending global row-id order.
        One logical probe moves the facade's :class:`ProbeLog` once,
        however many shards were contacted.
        """
        with self._accounting_lock:
            return self._query_locked(query, limit, offset)

    def _query_locked(
        self,
        query: SelectionQuery,
        limit: int | None,
        offset: int,
    ) -> QueryResult:
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
        per_shard_limit = (
            None if effective_limit is None else offset + effective_limit
        )
        pages: list[list[tuple[int, tuple]]] = []
        shard_truncated = False
        degraded = False
        for index, shard in enumerate(self._shards):
            if not self._admit(index, "query"):
                degraded = True
                continue
            try:
                # The facade lock IS the admission gate: shard sub-probes
                # are one logical probe, serialised by design (PR 7).
                sub = shard.query(  # reprolint: disable=REP009
                    query, limit=per_shard_limit, offset=0
                )
            except TransientSourceError as error:
                self._shard_failed(index, "query", error)
                degraded = True
                continue
            self._shard_succeeded(index)
            shard_truncated = shard_truncated or sub.truncated
            ids = self._global_ids[index]
            pages.append(
                [(ids[local], row) for local, row in zip(sub.row_ids, sub.rows)]
            )
        matched_ids: list[int] = []
        rows: list[tuple] = []
        skipped = 0
        leftover = False
        for global_id, row in heapq.merge(*pages):
            if skipped < offset:
                skipped += 1
                continue
            if (
                effective_limit is not None
                and len(matched_ids) >= effective_limit
            ):
                leftover = True
                break
            matched_ids.append(global_id)
            rows.append(row)
        result = QueryResult(
            query=query,
            row_ids=tuple(matched_ids),
            rows=tuple(rows),
            truncated=shard_truncated or leftover,
        )
        self.log.record(result)
        if cache is not None and not degraded:
            # A degraded gather is not the logical source's real answer;
            # caching it would replay the dropout after recovery.
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
        """Scatter one count probe; the gathered count is the shard sum."""
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
        matches = 0
        degraded = False
        for index, shard in enumerate(self._shards):
            if not self._admit(index, "count"):
                degraded = True
                continue
            try:
                # Same rationale as the query path: sub-counts are one
                # logical probe under the admission-gate lock.
                matches += shard.count(query)  # reprolint: disable=REP009
            except TransientSourceError as error:
                self._shard_failed(index, "count", error)
                degraded = True
                continue
            self._shard_succeeded(index)
        self.log.record_count(matches)
        if cache is not None and not degraded:
            evicted = cache.put_count(query, matches)
            _record_cache_metrics(hit=False, evicted=evicted)
        if OBS.enabled:
            _record_probe_metrics(query, kind="count", empty=matches == 0)
        _emit_probe_event(query, kind="count", rows=matches, from_cache=False)
        return matches

    # -- scatter plumbing ------------------------------------------------------

    def _admit(self, index: int, stage: str) -> bool:
        """Ask shard ``index``'s guard for admission.

        A guard refusal (e.g. an open circuit breaker) is a shard
        failure like any other — reported, and fatal unless partial
        results are enabled.  Database errors from a guard are caller
        bugs and propagate.
        """
        guard = self._guards[index]
        if guard is None:
            return True
        try:
            guard.before_call()
        except DatabaseError:
            raise
        except Exception as error:
            self._report_failure(ShardFailure(index, stage, error))
            return False
        return True

    def _shard_failed(
        self, index: int, stage: str, error: BaseException
    ) -> None:
        guard = self._guards[index]
        if guard is not None:
            guard.record_failure(error)
        self._report_failure(ShardFailure(index, stage, error))

    def _shard_succeeded(self, index: int) -> None:
        guard = self._guards[index]
        if guard is not None:
            guard.record_success()

    def _report_failure(self, failure: ShardFailure) -> None:
        if OBS.enabled:
            OBS.registry.counter(
                "repro_db_shard_failures_total",
                "Shards dropped from a scatter, by stage.",
                labels=("stage",),
            ).labels(stage=failure.stage).inc()
        listener = self._failure_listener
        if listener is not None:
            listener(failure)
        if not self.partial_results:
            raise failure.error

    # -- bookkeeping -----------------------------------------------------------

    @property
    def probe_cache(self) -> ProbeCache | None:
        return self._probe_cache

    def enable_probe_cache(self, capacity: int = 1024) -> ProbeCache:
        with self._accounting_lock:
            self._probe_cache = ProbeCache(capacity)
            return self._probe_cache

    def disable_probe_cache(self) -> None:
        with self._accounting_lock:
            self._probe_cache = None

    @property
    def execution_stats(self) -> ExecutionStats:
        """Engine-side work rolled up across every shard."""
        merged = ExecutionStats()
        for shard in self._shards:
            merged.merge(shard.execution_stats)
        return merged

    def shard_probe_logs(self) -> tuple[ProbeLog, ...]:
        """Per-shard fan-out traffic (snapshots, index-aligned).

        Roll-up rule: the facade's own :attr:`log` counts *logical*
        probes; each shard log counts the physical fan-out, so a fully
        healthy scatter moves every shard's ``probes_issued`` once per
        logical probe.
        """
        return tuple(shard.log.snapshot() for shard in self._shards)

    def reset_accounting(self) -> None:
        """Zero the facade log and every shard's accounting."""
        self.log.reset()
        for shard in self._shards:
            shard.reset_accounting()

    @contextmanager
    def accounting_scope(self) -> Iterator[AccountingWindow]:
        """Nestable accounting window (same semantics as the unsharded one)."""
        window = AccountingWindow(
            self, self.log.snapshot(), self.execution_stats.snapshot()
        )
        try:
            yield window
        finally:
            window.close()

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
