"""Precise selection predicates for the boolean query model.

The autonomous web database (paper §3.1, constraint 1) supports only the
boolean query processing model: a tuple either satisfies a query or it
does not.  These predicate classes are the atoms of that model.  Each
one evaluates against a single attribute value and reports whether an
equality / range index can serve it.

The imprecise ``like`` constraint deliberately does *not* live here —
it belongs to the AIMQ layer (:mod:`repro.core.query`) which rewrites it
into precise predicates before touching the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.db.errors import QueryError

__all__ = [
    "Predicate",
    "Eq",
    "Ne",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "Between",
    "IsIn",
    "parse_op",
]


@dataclass(frozen=True)
class Predicate:
    """Base class: a boolean condition over one attribute."""

    attribute: str

    def matches(self, value: object) -> bool:
        """Return True when ``value`` satisfies the predicate."""
        raise NotImplementedError

    def canonical_form(self) -> tuple[object, ...]:
        """Hashable, order-insensitive identity of this predicate.

        Two predicates describing the same form constraint — regardless
        of construction order or ``IsIn`` value order — share one
        canonical form.  The probe cache keys on it, so the form must
        be *exact*: no two semantically different predicates may
        collide.
        """
        return (self.attribute, type(self).__name__, repr(self))

    @property
    def is_equality(self) -> bool:
        """True when the predicate pins the attribute to one value."""
        return False

    @property
    def is_range(self) -> bool:
        """True when a sorted index can enumerate matching values."""
        return False

    def describe(self) -> str:
        """Human-readable rendering used in logs and query repr."""
        raise NotImplementedError


def _comparable(value: object) -> bool:
    return value is not None


@dataclass(frozen=True)
class Eq(Predicate):
    """``attribute = value``."""

    value: object

    def matches(self, value: object) -> bool:
        return value == self.value

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "eq", self.value)

    @property
    def is_equality(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} = {self.value!r}"


@dataclass(frozen=True)
class Ne(Predicate):
    """``attribute != value`` (nulls never match)."""

    value: object

    def matches(self, value: object) -> bool:
        return value is not None and value != self.value

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "ne", self.value)

    def describe(self) -> str:
        return f"{self.attribute} != {self.value!r}"


@dataclass(frozen=True)
class Lt(Predicate):
    """``attribute < bound``."""

    bound: object

    def matches(self, value: object) -> bool:
        return _comparable(value) and value < self.bound  # type: ignore[operator]

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "lt", self.bound)

    @property
    def is_range(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} < {self.bound!r}"


@dataclass(frozen=True)
class Le(Predicate):
    """``attribute <= bound``."""

    bound: object

    def matches(self, value: object) -> bool:
        return _comparable(value) and value <= self.bound  # type: ignore[operator]

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "le", self.bound)

    @property
    def is_range(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} <= {self.bound!r}"


@dataclass(frozen=True)
class Gt(Predicate):
    """``attribute > bound``."""

    bound: object

    def matches(self, value: object) -> bool:
        return _comparable(value) and value > self.bound  # type: ignore[operator]

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "gt", self.bound)

    @property
    def is_range(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} > {self.bound!r}"


@dataclass(frozen=True)
class Ge(Predicate):
    """``attribute >= bound``."""

    bound: object

    def matches(self, value: object) -> bool:
        return _comparable(value) and value >= self.bound  # type: ignore[operator]

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "ge", self.bound)

    @property
    def is_range(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} >= {self.bound!r}"


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= attribute <= high`` (inclusive on both ends)."""

    low: object
    high: object

    def __post_init__(self) -> None:
        try:
            inverted = self.low > self.high  # type: ignore[operator]
        except TypeError as exc:
            raise QueryError(
                f"between bounds {self.low!r}..{self.high!r} are not comparable"
            ) from exc
        if inverted:
            raise QueryError(
                f"between bounds inverted: {self.low!r} > {self.high!r}"
            )

    def matches(self, value: object) -> bool:
        return (
            _comparable(value)
            and self.low <= value <= self.high  # type: ignore[operator]
        )

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "between", self.low, self.high)

    @property
    def is_range(self) -> bool:
        return True

    def describe(self) -> str:
        return f"{self.attribute} between {self.low!r} and {self.high!r}"


@dataclass(frozen=True)
class IsIn(Predicate):
    """``attribute IN values`` (finite disjunction of equalities)."""

    values: frozenset

    def __init__(self, attribute: str, values: Iterable[object]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise QueryError(f"IN predicate on {attribute!r} needs at least one value")

    def matches(self, value: object) -> bool:
        return value in self.values

    def canonical_form(self) -> tuple[object, ...]:
        return (self.attribute, "in", tuple(sorted(self.values, key=repr)))

    def describe(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{self.attribute} in ({rendered})"


_OPS = {
    "=": Eq,
    "==": Eq,
    "!=": Ne,
    "<": Lt,
    "<=": Le,
    ">": Gt,
    ">=": Ge,
}


def parse_op(attribute: str, op: str, value: object) -> Predicate:
    """Build a predicate from an operator string.

    >>> parse_op("Price", "<", 10000).describe()
    "Price < 10000"
    """
    try:
        factory = _OPS[op]
    except KeyError:
        raise QueryError(
            f"unknown operator {op!r} for attribute {attribute!r}"
        ) from None
    return factory(attribute, value)
