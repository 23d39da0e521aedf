"""Conjunctive selection queries.

A :class:`SelectionQuery` is a conjunction of precise predicates over a
single relation — exactly the class of queries a Web form interface can
express and the only class the boolean substrate answers (paper §3.1).
AIMQ's relaxation machinery manipulates these objects heavily: the base
query, every tuple-as-query, and every relaxed query are all
``SelectionQuery`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.db.errors import QueryError
from repro.db.predicates import Eq, Predicate, parse_op
from repro.db.schema import RelationSchema

__all__ = ["SelectionQuery"]


@dataclass(frozen=True)
class SelectionQuery:
    """A conjunction of predicates over one relation.

    Instances are immutable; the relaxation helpers return new queries.

    >>> from repro.db.predicates import Eq, Lt
    >>> q = SelectionQuery((Eq("Model", "Camry"), Lt("Price", 10000)))
    >>> q.bound_attributes
    ('Model', 'Price')
    """

    predicates: tuple[Predicate, ...]
    # Lazily memoised grouping and canonicalisation (instances are
    # immutable, so the first computation is valid forever).  Stored via
    # object.__setattr__ because the dataclass is frozen.  Relaxation
    # builds a query per probe and groups almost none of them.
    _by_attribute: dict[str, tuple[Predicate, ...]] | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _canonical_cache: tuple[tuple[object, ...], ...] | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def conjunction(cls, predicates: Iterable[Predicate]) -> "SelectionQuery":
        return cls(tuple(predicates))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, str, object]]
    ) -> "SelectionQuery":
        """Build from ``(attribute, operator, value)`` triples.

        >>> SelectionQuery.from_pairs([("Model", "=", "Camry")]).describe()
        "Model = 'Camry'"
        """
        return cls(tuple(parse_op(attr, op, value) for attr, op, value in pairs))

    @classmethod
    def equalities(cls, bindings: Mapping[str, object]) -> "SelectionQuery":
        """Build a fully bound equality query (a tuple-as-query)."""
        return cls(tuple(Eq(attr, value) for attr, value in bindings.items()))

    @classmethod
    def match_all(cls) -> "SelectionQuery":
        """The empty conjunction: matches every tuple."""
        return cls(())

    # -- inspection -----------------------------------------------------------

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    @property
    def bound_attributes(self) -> tuple[str, ...]:
        """Attribute names constrained by this query (first-seen order)."""
        seen: dict[str, None] = {}
        for predicate in self.predicates:
            seen.setdefault(predicate.attribute)
        return tuple(seen)

    def predicates_on(self, attribute: str) -> tuple[Predicate, ...]:
        by_attribute = self._by_attribute
        if by_attribute is None:
            grouped: dict[str, list[Predicate]] = {}
            for predicate in self.predicates:
                grouped.setdefault(predicate.attribute, []).append(predicate)
            by_attribute = {name: tuple(preds) for name, preds in grouped.items()}
            object.__setattr__(self, "_by_attribute", by_attribute)
        return by_attribute.get(attribute, ())

    def equality_binding(self, attribute: str) -> object | None:
        """Return the value an ``Eq`` predicate pins ``attribute`` to."""
        for predicate in self.predicates_on(attribute):
            if isinstance(predicate, Eq):
                return predicate.value
        return None

    def validate_against(self, schema: RelationSchema) -> None:
        """Raise if any predicate references an unknown attribute."""
        for predicate in self.predicates:
            schema.attribute(predicate.attribute)

    # -- canonicalisation -----------------------------------------------------

    def canonical_predicates(self) -> tuple[tuple[object, ...], ...]:
        """Sorted canonical forms of every conjunct (memoised).

        Sorting by ``repr`` keeps mixed value types comparable and makes
        the tuple insensitive to conjunct order, so two queries that
        describe the same form submission share one canonical rendering.
        The result is cached on the instance: relaxation re-canonicalises
        the same queries across every base-set tuple, and the probe cache
        keys on this value.
        """
        cached = self._canonical_cache
        if cached is None:
            cached = tuple(
                sorted((p.canonical_form() for p in self.predicates), key=repr)
            )
            object.__setattr__(self, "_canonical_cache", cached)
        return cached

    # -- evaluation -----------------------------------------------------------

    def matches(self, row: Sequence[object], schema: RelationSchema) -> bool:
        """Boolean query model: full conjunction over one row."""
        for predicate in self.predicates:
            if not predicate.matches(row[schema.position(predicate.attribute)]):
                return False
        return True

    # -- rewriting (used by the relaxation layer) -----------------------------

    def without_attributes(self, attributes: Iterable[str]) -> "SelectionQuery":
        """Drop every predicate on the given attributes.

        This is the primitive behind query relaxation: removing the
        binding of the least-important attribute(s) from a tuple-as-query.
        """
        dropped = set(attributes)
        return SelectionQuery(
            tuple(p for p in self.predicates if p.attribute not in dropped)
        )

    def replacing(self, attribute: str, new_predicates: Iterable[Predicate]) -> "SelectionQuery":
        """Swap the predicates on ``attribute`` for new ones."""
        replacement = tuple(new_predicates)
        for predicate in replacement:
            if predicate.attribute != attribute:
                raise QueryError(
                    f"replacement predicate targets {predicate.attribute!r}, "
                    f"expected {attribute!r}"
                )
        kept = tuple(p for p in self.predicates if p.attribute != attribute)
        return SelectionQuery(kept + replacement)

    def and_also(self, *predicates: Predicate) -> "SelectionQuery":
        """Return this query with extra conjuncts appended."""
        return SelectionQuery(self.predicates + tuple(predicates))

    # -- rendering ------------------------------------------------------------

    def describe(self) -> str:
        if not self.predicates:
            return "<match-all>"
        return " AND ".join(p.describe() for p in self.predicates)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.describe()
