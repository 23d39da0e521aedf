"""Vectorized predicate evaluation over a :class:`ColumnStore`.

:func:`compile_query` lowers a conjunctive :class:`SelectionQuery` into
per-predicate strategies bound to the store's columns.  A compiled
query can:

* **zone-prune** — decide from a block's :class:`BlockStats` alone that
  no row in it can match, without touching values;
* **mask** — evaluate one block as a boolean bitmask per conjunct
  (numpy), ANDed across conjuncts;
* **probe** — evaluate a single row id scalar-wise (used for index
  residual verification).

Exactness is the whole contract: every strategy reproduces the row
engine's Python semantics bit for bit, nulls included (``Eq(None)``
matches nulls, ``Ne`` requires non-null, ``IsIn`` honours a null
member).  Whenever a predicate/column combination cannot be reproduced
exactly — a non-str bound on a categorical column (the row path raises
``TypeError``), an int beyond float64's exact range, a NaN inside an
``IsIn`` set (frozenset membership tests identity first) —
:func:`compile_query` returns None and the executor keeps the per-row
path for the whole query.

Zone-map pruning is *conservative*: ``admits`` may return True for a
block with no matches (cost: one wasted mask), but must never return
False for a block containing a match (that would change results).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.db.columns import (
    BlockStats,
    CategoricalColumn,
    ColumnStore,
    MAX_EXACT_INT,
    NumericColumn,
)
from repro.db.predicates import (
    Between,
    Eq,
    Ge,
    Gt,
    IsIn,
    Le,
    Lt,
    Ne,
    Predicate,
)
from repro.db.query import SelectionQuery

__all__ = ["CompiledPredicate", "CompiledQuery", "compile_query"]


class CompiledPredicate:
    """One predicate bound to one column; base gives exact scalar probe."""

    __slots__ = ("predicate", "position", "column")

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: CategoricalColumn | NumericColumn,
    ) -> None:
        self.predicate = predicate
        self.position = position
        self.column = column

    def matches_at(self, row_id: int) -> bool:
        """Exact per-row check (delegates to the predicate itself)."""
        return self.predicate.matches(self.column.value(row_id))

    def admits(self, stats: BlockStats) -> bool:
        """May any row of a block with these stats match?  Conservative."""
        return True

    def mask(self, start: int, stop: int) -> Any:
        """Boolean numpy mask over rows ``[start, stop)``."""
        raise NotImplementedError


# -- categorical strategies ----------------------------------------------------


class _CatNever(CompiledPredicate):
    """No cell can ever match (e.g. equality with an unknown value)."""

    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return False

    def mask(self, start: int, stop: int) -> Any:
        return np.zeros(stop - start, dtype=bool)


class _CatEqNull(CompiledPredicate):
    """``Eq(None)``: matches exactly the null cells."""

    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return stats.has_null

    def mask(self, start: int, stop: int) -> Any:
        codes = self.column.code_array()[start:stop]  # type: ignore[union-attr]
        return codes < 0


class _CatEqCode(CompiledPredicate):
    """``Eq(value)`` with a dictionary-known value."""

    __slots__ = ("code",)

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: CategoricalColumn,
        code: int,
    ) -> None:
        super().__init__(predicate, position, column)
        self.code = code

    def admits(self, stats: BlockStats) -> bool:
        return stats.codes is None or self.code in stats.codes

    def mask(self, start: int, stop: int) -> Any:
        codes = self.column.code_array()[start:stop]  # type: ignore[union-attr]
        return codes == self.code


class _CatNotNull(CompiledPredicate):
    """``Ne`` variants every non-null cell satisfies."""

    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return stats.non_null > 0

    def mask(self, start: int, stop: int) -> Any:
        codes = self.column.code_array()[start:stop]  # type: ignore[union-attr]
        return codes >= 0


class _CatNeCode(CompiledPredicate):
    """``Ne(value)`` with a dictionary-known value."""

    __slots__ = ("code",)

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: CategoricalColumn,
        code: int,
    ) -> None:
        super().__init__(predicate, position, column)
        self.code = code

    def admits(self, stats: BlockStats) -> bool:
        if stats.codes is None:
            return stats.non_null > 0
        return any(code != self.code for code in sorted(stats.codes))

    def mask(self, start: int, stop: int) -> Any:
        codes = self.column.code_array()[start:stop]  # type: ignore[union-attr]
        return (codes >= 0) & (codes != self.code)


class _CatLut(CompiledPredicate):
    """Dictionary lookup table: ranges over strings and ``IsIn`` sets.

    ``lut[code]`` says whether dictionary entry ``code`` matches; a
    trailing sentinel slot carries the null verdict so numpy fancy
    indexing maps null's ``-1`` code onto it directly.
    """

    __slots__ = ("lut", "null_match", "_lut_array")

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: CategoricalColumn,
        lut: list[bool],
        null_match: bool,
    ) -> None:
        super().__init__(predicate, position, column)
        self.lut = lut
        self.null_match = null_match
        self._lut_array: Any = None

    def admits(self, stats: BlockStats) -> bool:
        if self.null_match and stats.has_null:
            return True
        if stats.codes is None:
            return stats.non_null > 0
        return any(self.lut[code] for code in sorted(stats.codes))

    def mask(self, start: int, stop: int) -> Any:
        if self._lut_array is None or len(self._lut_array) != len(self.lut) + 1:
            self._lut_array = np.asarray(
                self.lut + [self.null_match], dtype=bool
            )
        codes = self.column.code_array()[start:stop]  # type: ignore[union-attr]
        return self._lut_array[codes]


# -- numeric strategies --------------------------------------------------------


class _NumNever(CompiledPredicate):
    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return False

    def mask(self, start: int, stop: int) -> Any:
        return np.zeros(stop - start, dtype=bool)


class _NumEqNull(CompiledPredicate):
    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return stats.has_null

    def mask(self, start: int, stop: int) -> Any:
        _, valid = self.column.arrays()  # type: ignore[union-attr]
        return ~valid[start:stop]


class _NumNotNull(CompiledPredicate):
    """``Ne`` variants every non-null cell satisfies."""

    __slots__ = ()

    def admits(self, stats: BlockStats) -> bool:
        return stats.non_null > 0

    def mask(self, start: int, stop: int) -> Any:
        _, valid = self.column.arrays()  # type: ignore[union-attr]
        return valid[start:stop]


class _NumCompare(CompiledPredicate):
    """``eq/ne/lt/le/gt/ge`` against one float64-exact bound.

    Null cells are stored as NaN in the shadow array, and every float
    comparison with NaN is False — which is exactly the row path's
    null semantics for these operators — so only ``ne`` (which NaN
    *does* satisfy) needs the validity mask.
    """

    __slots__ = ("kind", "bound_f")

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: NumericColumn,
        kind: str,
        bound_f: float,
    ) -> None:
        super().__init__(predicate, position, column)
        self.kind = kind
        self.bound_f = bound_f

    def admits(self, stats: BlockStats) -> bool:
        if self.kind == "ne":
            return stats.non_null > 0
        if stats.unbounded:
            return stats.non_null > 0
        if stats.low is None or stats.high is None:
            return False
        if self.kind == "eq":
            return stats.low <= self.bound_f <= stats.high
        if self.kind == "lt":
            return stats.low < self.bound_f
        if self.kind == "le":
            return stats.low <= self.bound_f
        if self.kind == "gt":
            return stats.high > self.bound_f
        return stats.high >= self.bound_f

    def mask(self, start: int, stop: int) -> Any:
        vals, valid = self.column.arrays()  # type: ignore[union-attr]
        window = vals[start:stop]
        if self.kind == "eq":
            return np.equal(window, self.bound_f)
        if self.kind == "ne":
            return valid[start:stop] & np.not_equal(window, self.bound_f)
        if self.kind == "lt":
            return window < self.bound_f
        if self.kind == "le":
            return window <= self.bound_f
        if self.kind == "gt":
            return window > self.bound_f
        return window >= self.bound_f


class _NumBetween(CompiledPredicate):
    __slots__ = ("low_f", "high_f")

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: NumericColumn,
        low_f: float,
        high_f: float,
    ) -> None:
        super().__init__(predicate, position, column)
        self.low_f = low_f
        self.high_f = high_f

    def admits(self, stats: BlockStats) -> bool:
        if stats.unbounded:
            return stats.non_null > 0
        if stats.low is None or stats.high is None:
            return False
        return stats.low <= self.high_f and stats.high >= self.low_f

    def mask(self, start: int, stop: int) -> Any:
        vals, _ = self.column.arrays()  # type: ignore[union-attr]
        window = vals[start:stop]
        return (window >= self.low_f) & (window <= self.high_f)


class _NumIsIn(CompiledPredicate):
    __slots__ = ("targets", "null_match", "_targets_array")

    def __init__(
        self,
        predicate: Predicate,
        position: int,
        column: NumericColumn,
        targets: list[float],
        null_match: bool,
    ) -> None:
        super().__init__(predicate, position, column)
        self.targets = targets
        self.null_match = null_match
        self._targets_array: Any = None

    def admits(self, stats: BlockStats) -> bool:
        if self.null_match and stats.has_null:
            return True
        if not self.targets:
            return False
        if stats.unbounded:
            return stats.non_null > 0
        if stats.low is None or stats.high is None:
            return False
        return any(
            stats.low <= target <= stats.high for target in self.targets
        )

    def mask(self, start: int, stop: int) -> Any:
        vals, valid = self.column.arrays()  # type: ignore[union-attr]
        window = vals[start:stop]
        if self._targets_array is None:
            self._targets_array = np.asarray(self.targets, dtype=np.float64)
        if self.targets:
            hit = np.isin(window, self._targets_array)
        else:
            hit = np.zeros(stop - start, dtype=bool)
        if self.null_match:
            hit = hit | ~valid[start:stop]
        return hit


# -- compilation ---------------------------------------------------------------


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _exact_float(value: int | float) -> float | None:
    """``value`` as float64, or None when the conversion is not exact."""
    try:
        as_float = float(value)
    except OverflowError:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        if value > MAX_EXACT_INT or value < -MAX_EXACT_INT:
            return None
        if int(as_float) != value:  # pragma: no cover - defensive
            return None
    return as_float


def _plain_value(value: object) -> bool:
    """True for value types whose comparison semantics we can reproduce."""
    return value is None or isinstance(value, (str, int, float))


def _compile_categorical(
    predicate: Predicate, position: int, column: CategoricalColumn
) -> CompiledPredicate | None:
    if isinstance(predicate, Eq):
        value = predicate.value
        if not _plain_value(value):
            return None
        if value is None:
            return _CatEqNull(predicate, position, column)
        code = column.code_for(value)
        if code is None:
            # Unknown string, or a non-str value no str/null cell can
            # equal: nothing matches.
            return _CatNever(predicate, position, column)
        return _CatEqCode(predicate, position, column, code)
    if isinstance(predicate, Ne):
        value = predicate.value
        if not _plain_value(value):
            return None
        code = column.code_for(value)
        if code is None:
            # None / unknown / non-str: every non-null cell differs.
            return _CatNotNull(predicate, position, column)
        return _CatNeCode(predicate, position, column, code)
    if isinstance(predicate, IsIn):
        if not all(_plain_value(v) for v in predicate.values):
            return None
        null_match = None in predicate.values
        lut = [value in predicate.values for value in column.dictionary]
        if not any(lut) and not null_match:
            return _CatNever(predicate, position, column)
        return _CatLut(predicate, position, column, lut, null_match)
    if isinstance(predicate, (Lt, Le, Gt, Ge)):
        if not isinstance(predicate.bound, str):
            # The row path raises TypeError on the first non-null cell;
            # keep that behaviour by refusing to vectorize.
            return None
        lut = [predicate.matches(value) for value in column.dictionary]
        if not any(lut):
            return _CatNever(predicate, position, column)
        return _CatLut(predicate, position, column, lut, False)
    if isinstance(predicate, Between):
        if not (
            isinstance(predicate.low, str) and isinstance(predicate.high, str)
        ):
            return None
        lut = [predicate.matches(value) for value in column.dictionary]
        if not any(lut):
            return _CatNever(predicate, position, column)
        return _CatLut(predicate, position, column, lut, False)
    return None


_COMPARE_KINDS: dict[type, str] = {Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}


def _compile_numeric(
    predicate: Predicate, position: int, column: NumericColumn
) -> CompiledPredicate | None:
    if not column.exact:
        return None
    if isinstance(predicate, (Eq, Ne)):
        value = predicate.value
        if not _plain_value(value):
            return None
        if value is None:
            if isinstance(predicate, Eq):
                return _NumEqNull(predicate, position, column)
            return _NumNotNull(predicate, position, column)
        if isinstance(value, str):
            # int/float cells never equal a str (and never raise).
            if isinstance(predicate, Eq):
                return _NumNever(predicate, position, column)
            return _NumNotNull(predicate, position, column)
        bound_f = _exact_float(value)
        if bound_f is None:
            # No exact-representable cell can equal this huge int.
            if isinstance(predicate, Eq):
                return _NumNever(predicate, position, column)
            return _NumNotNull(predicate, position, column)
        kind = "eq" if isinstance(predicate, Eq) else "ne"
        return _NumCompare(predicate, position, column, kind, bound_f)
    compare_kind = _COMPARE_KINDS.get(type(predicate))
    if compare_kind is not None:
        bound = predicate.bound  # type: ignore[attr-defined]
        if bound is None or not isinstance(bound, (int, float)):
            return None
        bound_f = _exact_float(bound)
        if bound_f is None:
            return None
        return _NumCompare(predicate, position, column, compare_kind, bound_f)
    if isinstance(predicate, Between):
        low, high = predicate.low, predicate.high
        if not (isinstance(low, (int, float)) and isinstance(high, (int, float))):
            return None
        low_f = _exact_float(low)
        high_f = _exact_float(high)
        if low_f is None or high_f is None:
            return None
        return _NumBetween(predicate, position, column, low_f, high_f)
    if isinstance(predicate, IsIn):
        null_match = None in predicate.values
        targets: list[float] = []
        for value in sorted(predicate.values, key=repr):
            if value is None:
                continue
            if _is_nan(value):
                # frozenset membership checks identity before equality,
                # so a NaN member *can* match the very same NaN cell;
                # only the row path reproduces that.
                return None
            if not _plain_value(value):
                return None
            if isinstance(value, str):
                continue  # numeric cells never equal a str
            target = _exact_float(value)
            if target is None:
                continue  # unrepresentable int: no exact cell equals it
            targets.append(target)
        if not targets and not null_match:
            return _NumNever(predicate, position, column)
        return _NumIsIn(predicate, position, column, targets, null_match)
    return None


def compile_predicate(
    predicate: Predicate, position: int, column: CategoricalColumn | NumericColumn
) -> CompiledPredicate | None:
    """Bind one predicate to one column, or None when not exactly doable."""
    if isinstance(column, CategoricalColumn):
        return _compile_categorical(predicate, position, column)
    return _compile_numeric(predicate, position, column)


class CompiledQuery:
    """A conjunction lowered onto one store's columns."""

    __slots__ = ("store", "predicates")

    def __init__(
        self, store: ColumnStore, predicates: list[CompiledPredicate]
    ) -> None:
        self.store = store
        self.predicates = predicates

    def prune_block(self, block: int) -> bool:
        """True when zone maps prove the block holds no match."""
        if not self.store.zone_maps_enabled:
            return False
        for compiled in self.predicates:
            if not compiled.admits(self.store.zone_map(compiled.position, block)):
                return True
        return False

    def matches_at(self, row_id: int) -> bool:
        """Exact scalar conjunction for one row id."""
        return all(compiled.matches_at(row_id) for compiled in self.predicates)

    def block_matches(self, start: int, stop: int) -> list[int]:
        """Matching row ids in ``[start, stop)``, ascending."""
        if not self.predicates:
            return list(range(start, stop))
        mask = self.predicates[0].mask(start, stop)
        for compiled in self.predicates[1:]:
            mask = mask & compiled.mask(start, stop)
        hits: list[int] = (np.flatnonzero(mask) + start).tolist()
        return hits

    def block_match_count(self, start: int, stop: int) -> int:
        """Number of matches in ``[start, stop)`` (no ids materialised)."""
        if not self.predicates:
            return stop - start
        mask = self.predicates[0].mask(start, stop)
        for compiled in self.predicates[1:]:
            mask = mask & compiled.mask(start, stop)
        return int(np.count_nonzero(mask))


def compile_query(
    query: SelectionQuery, store: ColumnStore
) -> CompiledQuery | None:
    """Lower ``query`` onto ``store``; None forces the exact row path."""
    compiled: list[CompiledPredicate] = []
    for predicate in query.predicates:
        position = store.schema.position(predicate.attribute)
        strategy = compile_predicate(predicate, position, store.column_at(position))
        if strategy is None:
            return None
        compiled.append(strategy)
    return CompiledQuery(store, compiled)
