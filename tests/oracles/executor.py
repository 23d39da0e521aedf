"""Oracle for probe planning (``repro.db.executor``).

``PlanEachProbeExecutor`` is the executor as it was before access paths
were memoised (docs/PERFORMANCE.md §10): every probe validates the
query, finds and sizes each predicate's serving index afresh, turns a
range driver's candidates into a set before intersecting, and verifies
the residual conjuncts through a new ``SelectionQuery`` one row at a
time.  Its metrics recording is left out; results and
``ExecutionStats`` are the contract the memoised executor must keep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.executor import ExecutionStats, QueryResult
from repro.db.index import HashIndex, SortedIndex
from repro.db.predicates import Eq, IsIn, Predicate
from repro.db.query import SelectionQuery
from repro.db.table import Table


@dataclass
class _Plan:
    candidates: list[int] | None
    residual: SelectionQuery
    intersected: int = 0


class PlanEachProbeExecutor:
    """Executes selection queries over a single table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.stats = ExecutionStats()

    def _plan(self, query: SelectionQuery) -> _Plan:
        paths: list[tuple[int, int, Predicate, HashIndex | SortedIndex]] = []
        for position, predicate in enumerate(query.predicates):
            index = self._serving_index(predicate)
            if index is not None:
                paths.append((index.size(predicate), position, predicate, index))
        if not paths:
            return _Plan(candidates=None, residual=query)
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
        if isinstance(predicate, (Eq, IsIn)):
            hash_index = self.table.hash_index(predicate.attribute)
            if hash_index is not None and hash_index.serves(predicate):
                return hash_index
        sorted_index = self.table.sorted_index(predicate.attribute)
        if sorted_index is not None and sorted_index.serves(predicate):
            return sorted_index
        return None

    def execute(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        if offset < 0:
            raise ValueError("offset cannot be negative")
        query.validate_against(self.table.schema)
        self.stats.queries_executed += 1
        plan = self._plan(query)

        matched_ids: list[int] = []
        skipped = 0
        truncated = False
        examined = 0
        schema = self.table.schema

        def consume(row_id: int) -> bool:
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
        return QueryResult(
            query=query,
            row_ids=tuple(matched_ids),
            rows=rows,
            truncated=truncated,
        )

    def count(self, query: SelectionQuery) -> int:
        query.validate_against(self.table.schema)
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
        return matches
