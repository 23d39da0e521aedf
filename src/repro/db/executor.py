"""Boolean query execution with posting-set intersection.

The executor answers conjunctive selection queries over a
:class:`~repro.db.table.Table`.  Planning is deterministic and never
materialises a candidate list just to compare sizes:

1. among the query's predicates, find those an existing index can
   serve, and size each one exactly (a bucket length or two
   bisections);
2. take the smallest as the *driver*;
3. intersect the driver's candidates with the posting set of every
   other hash-served predicate (memoised per value, so each
   intersection is one C-level set operation bounded by the smaller
   side), and with every range-served predicate whose candidate count
   does not exceed the candidates left;
4. verify the remaining (*residual*) predicates row by row on the
   rows that survive, in ascending row-id order.

When no predicate is indexable the executor falls back to a full scan.
Results — rows, order, truncation — never depend on the plan: every
index is exact for the predicates it serves, so an intersected
predicate and a verified one select the same rows.

An :class:`ExecutionStats` record reports how much work each query did —
the efficiency experiments (paper Figs 6–7) count extracted tuples
through this channel — and, when observability is enabled, the same
work lands in the shared metrics registry (probe latency histogram,
rows scanned vs returned, postings intersected, truncations).
Accounting is honest: a row an intersection discards is never
examined, so it never counts in ``rows_examined``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from repro.db.index import HashIndex, SortedIndex
from repro.db.predicates import Eq, IsIn, Predicate
from repro.db.query import SelectionQuery
from repro.db.table import Table
from repro.obs.runtime import OBS

__all__ = ["ExecutionStats", "QueryResult", "Executor"]


@dataclass
class ExecutionStats:
    """Cumulative work counters for one executor.

    ``rows_examined`` counts rows whose values were actually evaluated
    — on an index plan, the rows left after posting intersection;
    ``postings_intersected`` counts predicates answered by intersecting
    index postings into the driver's candidates rather than by
    verifying rows.
    """

    queries_executed: int = 0
    rows_examined: int = 0
    rows_returned: int = 0
    full_scans: int = 0
    index_lookups: int = 0
    postings_intersected: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.queries_executed += other.queries_executed
        self.rows_examined += other.rows_examined
        self.rows_returned += other.rows_returned
        self.full_scans += other.full_scans
        self.index_lookups += other.index_lookups
        self.postings_intersected += other.postings_intersected

    def snapshot(self) -> "ExecutionStats":
        """An independent copy of the current counters."""
        return replace(self)

    def delta(self, since: "ExecutionStats") -> "ExecutionStats":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return ExecutionStats(
            queries_executed=self.queries_executed - since.queries_executed,
            rows_examined=self.rows_examined - since.rows_examined,
            rows_returned=self.rows_returned - since.rows_returned,
            full_scans=self.full_scans - since.full_scans,
            index_lookups=self.index_lookups - since.index_lookups,
            postings_intersected=(
                self.postings_intersected - since.postings_intersected
            ),
        )


@dataclass(frozen=True)
class QueryResult:
    """Result of one selection query: matching row ids and rows.

    ``from_cache`` marks results the facade served from its probe
    cache rather than from the source; payloads are identical either
    way, the flag only drives probe accounting.

    Rows are always ordered by ascending row id (the canonical result
    order, see :meth:`Executor.execute`), so two results for the same
    query are comparable position by position however they were
    produced.
    """

    query: SelectionQuery
    row_ids: tuple[int, ...]
    rows: tuple[tuple, ...]
    truncated: bool = False
    from_cache: bool = False

    def __len__(self) -> int:
        return len(self.row_ids)

    def __bool__(self) -> bool:
        return bool(self.row_ids)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)


@dataclass
class _Plan:
    """How one query is answered.

    ``candidates`` is None for a full scan; otherwise it lists, in
    ascending order, exactly the row ids matching every index-served
    predicate.  ``residual`` holds the predicates still to verify row
    by row (for a full scan, the whole query); ``intersected`` counts
    the predicates intersected into the driver's candidates.
    """

    candidates: list[int] | None
    residual: SelectionQuery
    intersected: int = 0


class Executor:
    """Executes selection queries over a single table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.stats = ExecutionStats()

    # -- planning -------------------------------------------------------------

    def _plan(self, query: SelectionQuery) -> _Plan:
        """Drive from the smallest index, intersect the others' postings.

        Hash postings are always intersected: their sets are memoised,
        so each intersection costs at most the survivors so far.  A
        range's set is built per probe, so it is intersected only when
        it holds no more rows than survive; otherwise verifying it on
        the survivors is the cheaper way to apply it.
        """
        paths: list[tuple[int, int, Predicate, HashIndex | SortedIndex]] = []
        for position, predicate in enumerate(query.predicates):
            index = self._serving_index(predicate)
            if index is not None:
                paths.append((index.size(predicate), position, predicate, index))
        if not paths:
            return _Plan(candidates=None, residual=query)
        # Ties keep query order; positions are unique, so the sort never
        # compares predicates.
        paths.sort()
        _, _, driver, driver_index = paths[0]
        served = {id(driver)}
        intersected = 0
        if len(paths) == 1:
            candidates = sorted(driver_index.candidates(driver))
        else:
            survivors = driver_index.candidate_set(driver)
            for size, _, predicate, index in paths[1:]:
                if isinstance(index, HashIndex) or size <= len(survivors):
                    survivors = survivors & index.candidate_set(predicate)
                    served.add(id(predicate))
                    intersected += 1
            candidates = sorted(survivors)
        residual = SelectionQuery(
            tuple(p for p in query.predicates if id(p) not in served)
        )
        return _Plan(candidates, residual, intersected)

    def _serving_index(
        self, predicate: Predicate
    ) -> HashIndex | SortedIndex | None:
        """The index that answers ``predicate`` exactly, if any."""
        if isinstance(predicate, (Eq, IsIn)):
            hash_index = self.table.hash_index(predicate.attribute)
            if hash_index is not None and hash_index.serves(predicate):
                return hash_index
        sorted_index = self.table.sorted_index(predicate.attribute)
        if sorted_index is not None and sorted_index.serves(predicate):
            return sorted_index
        return None

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        """Run ``query`` and return matching rows (optionally paged).

        ``limit``/``offset`` model a Web form's result pages: skip the
        first ``offset`` matches, return at most ``limit``.  The result
        is flagged ``truncated`` when further matches exist beyond the
        returned window.

        Results come back in *canonical order*: ascending row id,
        whatever plan served the query.  Index candidates are sorted
        into that order before the verify loop, so a paged window
        always means "the first N matches by row id", whichever plan
        served it.
        """
        if offset < 0:
            raise ValueError("offset cannot be negative")
        query.validate_against(self.table.schema)
        observing = OBS.enabled
        started = time.perf_counter() if observing else 0.0
        self.stats.queries_executed += 1
        plan = self._plan(query)

        matched_ids: list[int] = []
        skipped = 0
        truncated = False
        examined = 0
        schema = self.table.schema

        def consume(row_id: int) -> bool:
            """Track one match; returns True when the window is full."""
            nonlocal skipped, truncated
            if skipped < offset:
                skipped += 1
                return False
            if limit is not None and len(matched_ids) >= limit:
                truncated = True
                return True
            matched_ids.append(row_id)
            return False

        if plan.candidates is None:
            self.stats.full_scans += 1
            for row_id, row in enumerate(self.table):
                examined += 1
                if query.matches(row, schema) and consume(row_id):
                    break
        else:
            self.stats.index_lookups += 1
            self.stats.postings_intersected += plan.intersected
            residual = plan.residual
            for row_id in plan.candidates:
                examined += 1
                row = self.table.row(row_id)
                if residual.matches(row, schema) and consume(row_id):
                    break

        self.stats.rows_examined += examined
        rows = tuple(self.table.row(row_id) for row_id in matched_ids)
        self.stats.rows_returned += len(rows)
        if observing:
            self._record_metrics(
                mode="scan" if plan.candidates is None else "index",
                seconds=time.perf_counter() - started,
                examined=examined,
                returned=len(rows),
                truncated=truncated,
                intersected=plan.intersected,
            )
        return QueryResult(
            query=query,
            row_ids=tuple(matched_ids),
            rows=rows,
            truncated=truncated,
        )

    def count(self, query: SelectionQuery) -> int:
        """Number of tuples matching ``query``.

        A true count-only path: no row tuples are materialised and the
        ``rows_returned`` work counter is untouched, so count probes
        never inflate the rows-returned accounting the efficiency
        experiments read.  When intersection served every predicate the
        count is the survivor count, with no per-row work at all.
        """
        query.validate_against(self.table.schema)
        observing = OBS.enabled
        started = time.perf_counter() if observing else 0.0
        self.stats.queries_executed += 1
        plan = self._plan(query)
        schema = self.table.schema
        matches = 0
        examined = 0

        if plan.candidates is None:
            self.stats.full_scans += 1
            for row in self.table:
                examined += 1
                if query.matches(row, schema):
                    matches += 1
        else:
            self.stats.index_lookups += 1
            self.stats.postings_intersected += plan.intersected
            examined = len(plan.candidates)
            if not plan.residual.predicates:
                matches = examined
            else:
                residual = plan.residual
                for row_id in plan.candidates:
                    if residual.matches(self.table.row(row_id), schema):
                        matches += 1

        self.stats.rows_examined += examined
        if observing:
            self._record_metrics(
                mode="scan" if plan.candidates is None else "index",
                seconds=time.perf_counter() - started,
                examined=examined,
                returned=0,
                truncated=False,
                intersected=plan.intersected,
            )
        return matches

    # -- observability --------------------------------------------------------

    def _record_metrics(
        self,
        mode: str,
        seconds: float,
        examined: int,
        returned: int,
        truncated: bool,
        intersected: int = 0,
    ) -> None:
        registry = OBS.registry
        registry.histogram(
            "repro_db_probe_seconds",
            "Latency of one selection probe against the local substrate.",
            labels=("mode",),
        ).labels(mode=mode).observe(seconds)
        registry.counter(
            "repro_db_rows_examined_total",
            "Rows touched while evaluating selection probes.",
        ).inc(examined)
        if intersected:
            registry.counter(
                "repro_db_postings_intersected_total",
                "Predicates answered by intersecting index postings.",
            ).inc(intersected)
        if returned:
            registry.counter(
                "repro_db_rows_returned_total",
                "Rows materialised and handed back to callers.",
            ).inc(returned)
        if truncated:
            registry.counter(
                "repro_db_result_truncations_total",
                "Probes whose result window was cut short by a cap.",
            ).inc()
