"""Secondary indexes for the in-memory relational engine.

Two index families cover the predicate classes the substrate supports:

* :class:`HashIndex` — value → row ids, serving equality and IN
  predicates in O(1) per value.
* :class:`SortedIndex` — bisectable ``(value, row_id)`` pairs, serving
  range predicates (``<, <=, >, >=, between``) in O(log n + answer).

Both indexes map a single attribute.  They are maintained eagerly by
:class:`repro.db.table.Table`: one ``add`` per inserted row, or one
``add_many`` per column of a bulk ``extend``.  Null values are excluded
from indexes (no predicate matches null), matching SQL semantics, and
the sorted index excludes NaN too, which has no place in an order.
Neither index serves a predicate whose value or bound is None or NaN:
the executor verifies those row by row, so an index plan and a scan
always select the same rows.

Both also expose the three access methods the executor's planner
needs: ``size`` (the exact candidate count, computed without
materialising a single row id), ``candidates`` (ascending for hash
lookups) and ``candidate_set`` (the candidates as a set, for posting
intersection).  ``HashIndex`` memoises each value's posting set, so
intersecting a conjunction's equality predicates costs one C-level set
intersection per predicate, bounded by the smaller side.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.db.predicates import (
    Between,
    Eq,
    Ge,
    Gt,
    IsIn,
    Le,
    Lt,
    Predicate,
)

__all__ = ["HashIndex", "SortedIndex"]


def _indexable(value: object) -> bool:
    """True unless ``value`` is None or NaN (only NaN has ``v != v``).

    No index answers for either: nulls are not indexed, and NaN equals
    nothing and orders against nothing, so a bisection or bucket lookup
    on it would disagree with the row check.
    """
    return value is not None and value == value


class HashIndex:
    """Exact-match index: attribute value → sorted list of row ids.

    Posting sets (a bucket as a ``frozenset``) are built on first use by
    :meth:`candidate_set` and dropped when :meth:`add` or
    :meth:`add_many` grows their bucket, so a single-predicate probe
    never pays for them and a stale set is never served.  Readers
    racing to fill the same entry build equal sets, so whichever lands
    is correct; tables are filled before they are probed, so writes
    never race a reader.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._buckets: dict[object, list[int]] = {}
        self._posting_sets: dict[object, frozenset[int]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def add(self, value: object, row_id: int) -> None:
        if value is None:
            return
        self._buckets.setdefault(value, []).append(row_id)
        self._posting_sets.pop(value, None)

    def add_many(self, values: Iterable[object], row_ids: Sequence[int]) -> None:
        """:meth:`add` each ``(value, row id)`` pair, in order.

        Buckets grow exactly as a loop of :meth:`add` calls grows them;
        every memoised posting set is dropped, so none is served stale.
        """
        buckets = self._buckets
        for value, row_id in zip(values, row_ids):
            if value is not None:
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [row_id]
                else:
                    bucket.append(row_id)
        self._posting_sets.clear()

    def lookup(self, value: object) -> list[int]:
        """Row ids whose attribute equals ``value`` (insertion order)."""
        return list(self._buckets.get(value, ()))

    def lookup_many(self, values: Iterable[object]) -> list[int]:
        """Union of lookups, deduplicated, in ascending row-id order."""
        merged: set[int] = set()
        for value in values:
            merged.update(self._buckets.get(value, ()))
        return sorted(merged)

    def distinct_values(self) -> list[object]:
        """All indexed values (arbitrary but deterministic order)."""
        return list(self._buckets)

    def value_counts(self) -> dict[object, int]:
        """Histogram of indexed values; used by form-option discovery."""
        return {value: len(rows) for value, rows in self._buckets.items()}

    def value_codes(self, n_rows: int) -> tuple[NDArray[np.intp], list[object]]:
        """The column dictionary-coded: each row's value code, and the values.

        Code ``c`` is the ``c``-th of :meth:`distinct_values`, the order
        values first appear in; a row holding no indexed value (a null)
        gets ``-1``.  ``n_rows`` must cover every indexed row id.
        """
        buckets = self._buckets
        codes = np.full(n_rows, -1, dtype=np.intp)
        if buckets:
            row_ids = np.fromiter(
                chain.from_iterable(buckets.values()), dtype=np.intp, count=len(self)
            )
            codes[row_ids] = np.repeat(
                np.arange(len(buckets), dtype=np.intp), list(map(len, buckets.values()))
            )
        return codes, list(buckets)

    def serves(self, predicate: Predicate) -> bool:
        """True when this index can answer ``predicate`` *exactly*.

        Null values are not indexed, so predicates a null cell can
        satisfy — ``Eq(None)``, ``IsIn`` with a None member — must go
        to the scan path or their matches would silently vanish.  A NaN
        value goes there too: a bucket lookup may find a NaN key by
        identity, where the row check's ``==`` never matches it.
        """
        if predicate.attribute != self.attribute:
            return False
        if isinstance(predicate, Eq):
            return _indexable(predicate.value)
        if isinstance(predicate, IsIn):
            return all(map(_indexable, predicate.values))
        return False

    def candidates(self, predicate: Predicate) -> list[int]:
        """Row ids possibly matching ``predicate`` (exact for Eq/IsIn)."""
        if isinstance(predicate, Eq):
            return self.lookup(predicate.value)
        if isinstance(predicate, IsIn):
            return self.lookup_many(predicate.values)
        raise TypeError(f"HashIndex cannot serve {predicate!r}")

    def size(self, predicate: Predicate) -> int:
        """Exact number of :meth:`candidates`, without building them.

        ``IsIn`` values are a frozenset of distinct values, and distinct
        values hash to distinct buckets, so summing bucket lengths
        cannot double-count a row.
        """
        if isinstance(predicate, Eq):
            return len(self._buckets.get(predicate.value, ()))
        if isinstance(predicate, IsIn):
            return sum(len(self._buckets.get(v, ())) for v in predicate.values)
        raise TypeError(f"HashIndex cannot serve {predicate!r}")

    def candidate_set(self, predicate: Predicate) -> frozenset[int]:
        """:meth:`candidates` as a set, memoised per value."""
        if isinstance(predicate, Eq):
            return self._posting_set(predicate.value)
        if isinstance(predicate, IsIn):
            return frozenset().union(
                *(self._posting_set(value) for value in predicate.values)
            )
        raise TypeError(f"HashIndex cannot serve {predicate!r}")

    def _posting_set(self, value: object) -> frozenset[int]:
        posting = self._posting_sets.get(value)
        if posting is None:
            # Copying a set presizes the frozenset's table; building it
            # straight from the list grows it step by step and can leave
            # it up to twice as large.
            posting = frozenset(set(self._buckets.get(value, ())))
            if posting:
                self._posting_sets[value] = posting
        return posting


class SortedIndex:
    """Order index: bisect over ``(value, row_id)`` pairs.

    The index is built lazily on first read and invalidated on writes,
    so bulk loading stays O(n) and the sort cost is paid once.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        # Added values and their row ids, not yet merged into the order,
        # as two parallel lists: 16 bytes a row, where a (value, row id)
        # tuple per row would cost about 80 until the first read, which
        # never comes for a table that is only scanned or read by row id.
        self._pending_keys: list[object] = []
        self._pending_ids: list[int] = []
        self._keys: list[object] = []
        self._row_ids: list[int] = []

    def __len__(self) -> int:
        self._rebuild_if_needed()
        return len(self._keys)

    def add(self, value: object, row_id: int) -> None:
        if not _indexable(value):
            return
        self._pending_keys.append(value)
        self._pending_ids.append(row_id)

    def add_many(self, values: Iterable[object], row_ids: Sequence[int]) -> None:
        """:meth:`add` each ``(value, row id)`` pair, in order."""
        keys, ids = self._pending_keys, self._pending_ids
        for value, row_id in zip(values, row_ids):
            if _indexable(value):
                keys.append(value)
                ids.append(row_id)

    def _rebuild_if_needed(self) -> None:
        if not self._pending_keys:
            return
        # One stable sort by value of the merged entries, pending ones
        # after the ordered ones: equal values keep the order they were
        # added in.
        keys = self._keys + self._pending_keys
        row_ids = self._row_ids + self._pending_ids
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = list(map(keys.__getitem__, order))
        self._row_ids = list(map(row_ids.__getitem__, order))
        self._pending_keys.clear()
        self._pending_ids.clear()

    def range(
        self,
        low: object = None,
        high: object = None,
        inclusive_low: bool = True,
        inclusive_high: bool = True,
    ) -> Iterator[int]:
        """Row ids with values inside the given (optionally open) range."""
        start, stop = self._span(low, high, inclusive_low, inclusive_high)
        return iter(self._row_ids[start:stop])

    def _span(
        self,
        low: object = None,
        high: object = None,
        inclusive_low: bool = True,
        inclusive_high: bool = True,
    ) -> tuple[int, int]:
        """``[start, stop)`` positions of a range in the sorted keys."""
        self._rebuild_if_needed()
        if low is None:
            start = 0
        elif inclusive_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif inclusive_high:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return start, max(start, stop)

    def finite_extent(self) -> tuple[object, object] | None:
        """(min, max) of the finite keys, or None when there are none.

        The keys hold no NaN, and ±inf keys sort to the two ends, so two
        bisections step over them.
        """
        self._rebuild_if_needed()
        keys = self._keys
        start = bisect.bisect_right(keys, -math.inf)
        stop = bisect.bisect_left(keys, math.inf)
        if start == stop:
            return None
        return keys[start], keys[stop - 1]

    def serves(self, predicate: Predicate) -> bool:
        """True when this index can answer ``predicate`` *exactly*.

        A None comparison value disqualifies the index: nulls are not
        indexed (``Eq(None)`` matches rows the index cannot see), and a
        None range bound makes the scan path raise ``TypeError`` — the
        index must not silently answer what the engine would refuse.
        (``Between`` rejects None bounds at construction.)  A NaN value
        or bound, at either end of ``Between`` too, disqualifies it as
        well: every comparison with NaN is false, so the row check
        matches nothing, while a bisection for NaN lands anywhere.
        """
        if predicate.attribute != self.attribute:
            return False
        if isinstance(predicate, Eq):
            return _indexable(predicate.value)
        if isinstance(predicate, (Lt, Le, Gt, Ge)):
            return _indexable(predicate.bound)
        if isinstance(predicate, Between):
            return _indexable(predicate.low) and _indexable(predicate.high)
        return False

    def candidates(self, predicate: Predicate) -> list[int]:
        """Row ids matching a range (or equality) predicate exactly.

        Ordered by value, not by row id.
        """
        start, stop = self._predicate_span(predicate)
        return self._row_ids[start:stop]

    def size(self, predicate: Predicate) -> int:
        """Exact number of :meth:`candidates`: two bisections, no copy."""
        start, stop = self._predicate_span(predicate)
        return stop - start

    def candidate_set(self, predicate: Predicate) -> frozenset[int]:
        """:meth:`candidates` as a set (built per call, never cached)."""
        start, stop = self._predicate_span(predicate)
        return frozenset(self._row_ids[start:stop])

    def _predicate_span(self, predicate: Predicate) -> tuple[int, int]:
        if isinstance(predicate, Eq):
            return self._span(predicate.value, predicate.value)
        if isinstance(predicate, Lt):
            return self._span(high=predicate.bound, inclusive_high=False)
        if isinstance(predicate, Le):
            return self._span(high=predicate.bound)
        if isinstance(predicate, Gt):
            return self._span(low=predicate.bound, inclusive_low=False)
        if isinstance(predicate, Ge):
            return self._span(low=predicate.bound)
        if isinstance(predicate, Between):
            return self._span(predicate.low, predicate.high)
        raise TypeError(f"SortedIndex cannot serve {predicate!r}")
