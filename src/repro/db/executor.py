"""Boolean query execution with posting-set intersection.

The executor answers conjunctive selection queries over a
:class:`~repro.db.table.Table`.  Planning is deterministic and never
materialises a candidate list just to compare sizes:

1. among the query's predicates, find those an existing index can
   serve, and size each one exactly (a bucket length or two
   bisections) — or read both from the executor's memo of access
   paths, which holds them per predicate;
2. take the smallest as the *driver*;
3. intersect the driver's candidates with the posting set of every
   other hash-served predicate (memoised per value, so each
   intersection is one C-level set operation bounded by the smaller
   side), and with every range-served predicate whose candidate count
   does not exceed the candidates left;
4. verify the remaining (*residual*) predicates row by row on the
   rows that survive, in ascending row-id order; when none remain,
   every survivor matches and the page is sliced from them.

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
from typing import Collection, Iterable, Iterator, Sequence

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


#: An access path: the index serving a predicate (None when the row
#: check must decide it), that index's exact candidate count (0 when
#: unserved) and the predicate's attribute position in a row tuple.
_AccessPath = tuple[HashIndex | SortedIndex | None, int, int]

#: Access paths one executor memoises before it drops them all.  One
#: broad answer combines a few hundred distinct predicates.
_MEMO_BOUND = 4096


@dataclass
class _Plan:
    """How one query is answered.

    ``candidates`` is None for a full scan; otherwise it holds, in no
    particular order, exactly the row ids matching every index-served
    predicate that was applied.  ``checks`` pairs each predicate still
    to verify row by row (for a full scan, the whole query) with its
    tuple position, in query order; ``intersected`` counts the
    predicates intersected into the driver's candidates.
    """

    candidates: Collection[int] | None
    checks: list[tuple[int, Predicate]]
    intersected: int = 0


class Executor:
    """Executes selection queries over a single table.

    The executor memoises each predicate's access path — its serving
    index, that index's exact candidate count and the tuple position of
    its attribute — the first time it sees the predicate, so the probes
    of one relaxation lattice, which share their conjuncts, are planned
    from the memo.  An entry holds no row ids.  A table write or index
    creation drops the memo, and so does reaching ``_MEMO_BOUND``
    entries; a predicate that cannot be hashed is planned afresh on
    every probe.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self.stats = ExecutionStats()
        self._access_paths: dict[Predicate, _AccessPath] = {}
        self._paths_at_write = table.writes

    # -- planning -------------------------------------------------------------

    def _paths(self, predicates: Sequence[Predicate]) -> list[_AccessPath]:
        """Each predicate's access path, from the memo where it can be.

        A new entry validates its predicate's attribute and sizes its
        index, so a query naming an unknown attribute, or holding a value
        its index cannot compare, raises here, before any counter moves.
        """
        if self._paths_at_write != self.table.writes:
            self._access_paths = {}
            self._paths_at_write = self.table.writes
        memo = self._access_paths
        paths = []
        for predicate in predicates:
            try:
                path = memo[predicate]
            except KeyError:
                path = self._access_path(predicate)
                if len(memo) >= _MEMO_BOUND:
                    memo.clear()
                memo[predicate] = path
            except TypeError:
                # An unhashable value (a list, say) cannot key the memo.
                path = self._access_path(predicate)
            paths.append(path)
        return paths

    def _access_path(self, predicate: Predicate) -> _AccessPath:
        column = self.table.schema.position(predicate.attribute)
        index = self._serving_index(predicate)
        size = index.size(predicate) if index is not None else 0
        return index, size, column

    def _plan(self, query: SelectionQuery) -> _Plan:
        """Drive from the smallest index, intersect the others' postings.

        Hash postings are always intersected: their sets are memoised,
        so each intersection costs at most the survivors so far.  A
        range's candidates are a slice of its sorted index, read on
        every probe, so a range is intersected only when it holds no
        more rows than survive; otherwise verifying it on the survivors
        is the cheaper way to apply it.  A range driver's slice is
        intersected as it is, never copied into a set first.
        """
        predicates = query.predicates
        paths = self._paths(predicates)
        indexed = [
            (size, position, predicate, index)
            for position, (predicate, (index, size, _)) in enumerate(
                zip(predicates, paths)
            )
            if index is not None
        ]
        if not indexed:
            return _Plan(
                None, [(column, p) for p, (_, _, column) in zip(predicates, paths)]
            )
        # Ties keep query order; positions are unique, so the sort never
        # compares predicates.
        indexed.sort()
        _, _, driver, driver_index = indexed[0]
        survivors: Collection[int]
        if isinstance(driver_index, HashIndex) and len(indexed) > 1:
            survivors = driver_index.candidate_set(driver)
        else:
            survivors = driver_index.candidates(driver)
        served = {id(driver)}
        intersected = 0
        for size, _, predicate, index in indexed[1:]:
            if isinstance(index, HashIndex):
                survivors = index.candidate_set(predicate).intersection(survivors)
            elif size <= len(survivors):
                survivors = frozenset(survivors).intersection(
                    index.candidates(predicate)
                )
            else:
                continue
            served.add(id(predicate))
            intersected += 1
        checks = [
            (column, p)
            for p, (_, _, column) in zip(predicates, paths)
            if id(p) not in served
        ]
        return _Plan(survivors, checks, intersected)

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

    def _start(self, query: SelectionQuery) -> _Plan:
        """Plan ``query`` and count it as executed."""
        plan = self._plan(query)
        self.stats.queries_executed += 1
        if plan.candidates is None:
            self.stats.full_scans += 1
        else:
            self.stats.index_lookups += 1
            self.stats.postings_intersected += plan.intersected
        return plan

    def _verify(
        self, plan: _Plan, stop: int | None
    ) -> tuple[list[int], bool, int]:
        """The first ``stop`` matches (every match when None) by row id.

        Returns them with whether another match follows and the number
        of rows examined: rows are checked until one match past
        ``stop`` is found.  When intersection left nothing to verify,
        every survivor matches, so the matches are sliced from the
        sorted survivors with the count that loop would have made.
        """
        checks = plan.checks
        rows: Iterable[tuple[int, tuple]]
        if plan.candidates is None:
            rows = enumerate(self.table)
        else:
            row_ids = sorted(plan.candidates)
            if not checks:
                if stop is None or len(row_ids) <= stop:
                    return row_ids, False, len(row_ids)
                return row_ids[:stop], True, stop + 1
            rows = zip(row_ids, self.table.rows(row_ids))
        matched: list[int] = []
        examined = 0
        for row_id, row in rows:
            examined += 1
            for column, predicate in checks:
                if not predicate.matches(row[column]):
                    break
            else:
                if len(matched) == stop:
                    return matched, True, examined
                matched.append(row_id)
        return matched, False, examined

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
        served it.  ``rows_examined`` counts the rows looked at until
        the window and one match past it were found.
        """
        if offset < 0:
            raise ValueError("offset cannot be negative")
        observing = OBS.enabled
        started = time.perf_counter() if observing else 0.0
        plan = self._start(query)
        # A negative limit windows nothing, exactly like a limit of 0.
        stop = None if limit is None else offset + max(limit, 0)
        matched, truncated, examined = self._verify(plan, stop)
        matched_ids = tuple(matched[offset:])

        self.stats.rows_examined += examined
        rows = tuple(self.table.rows(matched_ids))
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
            row_ids=matched_ids,
            rows=rows,
            truncated=truncated,
        )

    def count(self, query: SelectionQuery) -> int:
        """Number of tuples matching ``query``.

        A true count-only path: no row tuples are materialised and the
        ``rows_returned`` work counter is untouched, so count probes
        never inflate the rows-returned accounting the efficiency
        experiments read.  It shares :meth:`execute`'s plan; when
        intersection served every predicate the count is the survivor
        count, with no per-row work at all.
        """
        observing = OBS.enabled
        started = time.perf_counter() if observing else 0.0
        plan = self._start(query)
        matched, _, examined = self._verify(plan, None)

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
        return len(matched)

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
