"""Bags of keywords with bag-semantics Jaccard similarity.

A supertuple attribute is a *bag of keywords*: "we extend the semantics
of a set of keywords by associating an occurrence count for each member
of the set" (paper §5.2, Table 1).  Similarity between two bags uses the
Jaccard coefficient under bag (multiset) semantics:

    SimJ(A, B) = |A ∩ B| / |A ∪ B|

where intersection takes the per-element minimum of counts and union the
per-element maximum.  Because ``max(a, b) = a + b − min(a, b)``, the
union size is computable from the totals and the intersection in one
pass over the smaller bag.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = ["Bag", "jaccard_bags", "jaccard_sets"]


class Bag:
    """An immutable-by-convention multiset of hashable keywords."""

    __slots__ = ("_counts", "_total")

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._counts: Counter = Counter(items)
        self._total = sum(self._counts.values())

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "Bag":
        """Build from an explicit ``{keyword: occurrence_count}`` map.

        Keywords keep the map's order; zero counts are dropped.
        """
        bag = cls()
        if min(counts.values(), default=1) <= 0:
            for keyword, count in counts.items():
                if count < 0:
                    raise ValueError(f"negative count {count} for {keyword!r}")
            counts = {keyword: count for keyword, count in counts.items() if count}
        # Into an empty Counter, a mapping is copied by dict.update.
        bag._counts.update(counts)
        bag._total = sum(bag._counts.values())
        return bag

    # -- collection protocol ----------------------------------------------

    def __len__(self) -> int:
        """Total occurrences (with multiplicity)."""
        return self._total

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._counts)

    def __contains__(self, keyword: Hashable) -> bool:
        return keyword in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = ", ".join(
            f"{keyword!r}:{count}"
            for keyword, count in sorted(
                self._counts.items(), key=lambda kv: (-kv[1], str(kv[0]))
            )[:6]
        )
        suffix = ", ..." if len(self._counts) > 6 else ""
        return f"Bag({{{head}{suffix}}})"

    # -- accessors ----------------------------------------------------------

    def count(self, keyword: Hashable) -> int:
        return self._counts.get(keyword, 0)

    @property
    def support(self) -> int:
        """Number of distinct keywords."""
        return len(self._counts)

    def counts(self) -> dict[Hashable, int]:
        """Copy of the underlying count map."""
        return dict(self._counts)

    def most_common(self, n: int | None = None) -> list[tuple[Hashable, int]]:
        return self._counts.most_common(n)

    def as_set(self) -> frozenset:
        """Forget multiplicities (set-semantics ablation)."""
        return frozenset(self._counts)

    # -- algebra ---------------------------------------------------------------

    def intersection_size(self, other: "Bag") -> int:
        """|A ∩ B| under bag semantics (sum of per-keyword minimums)."""
        small, large = (
            (self, other) if self.support <= other.support else (other, self)
        )
        return sum(
            min(count, large._counts.get(keyword, 0))
            for keyword, count in small._counts.items()
        )

    def union_size(self, other: "Bag") -> int:
        """|A ∪ B| under bag semantics (sum of per-keyword maximums)."""
        return self._total + other._total - self.intersection_size(other)

    def jaccard(self, other: "Bag") -> float:
        """Bag-semantics Jaccard coefficient in [0, 1].

        Two empty bags are defined to be identical (similarity 1).
        """
        if not self._total and not other._total:
            return 1.0
        intersection = self.intersection_size(other)
        union = self._total + other._total - intersection
        return intersection / union


def jaccard_bags(a: Bag, b: Bag) -> float:
    """Module-level alias of :meth:`Bag.jaccard` (reads better in formulas)."""
    return a.jaccard(b)


def jaccard_sets(a: frozenset, b: frozenset) -> float:
    """Plain set-semantics Jaccard; used by ROCK and the bag-vs-set ablation."""
    if not a and not b:
        return 1.0
    intersection = len(a & b)
    return intersection / (len(a) + len(b) - intersection)
