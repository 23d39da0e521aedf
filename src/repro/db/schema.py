"""Relation schemas and attribute typing.

The paper distinguishes exactly two attribute kinds: *categorical*
(Make, Model, Location, ...) and *numerical* (Price, Mileage, ...).
Query relaxation, similarity estimation and supertuple construction all
branch on this distinction, so the schema records it explicitly.

A :class:`RelationSchema` is immutable; tables, queries and mined models
all hold a reference to one and use it to translate attribute names to
tuple positions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.db.errors import SchemaError, TypeMismatchError, UnknownAttributeError

__all__ = ["AttributeKind", "Attribute", "RelationSchema"]

# Exact cell types :meth:`RelationSchema.validate_rows` accepts without
# a per-cell check: each set is a subset of what
# :meth:`Attribute.validate_value` accepts for that kind.
_CATEGORICAL_TYPES = frozenset({str, type(None)})
_NUMERIC_TYPES = frozenset({int, float, type(None)})


class AttributeKind(enum.Enum):
    """Kind of an attribute, driving similarity and relaxation behaviour."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    Parameters
    ----------
    name:
        Attribute name, unique within its relation.
    kind:
        Whether values are categorical labels or numbers.
    """

    name: str
    kind: AttributeKind

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    @property
    def is_categorical(self) -> bool:
        return self.kind is AttributeKind.CATEGORICAL

    @property
    def is_numeric(self) -> bool:
        return self.kind is AttributeKind.NUMERIC

    def validate_value(self, value: object) -> None:
        """Raise :class:`TypeMismatchError` if ``value`` does not fit.

        ``None`` is accepted for either kind and models a missing value.
        Booleans are rejected for numeric attributes because they are
        almost always a bug (``True == 1`` would silently join categories
        with numbers).
        """
        if value is None:
            return
        if self.is_numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    f"attribute {self.name!r} is numeric but got "
                    f"{type(value).__name__} value {value!r}"
                )
        else:
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"attribute {self.name!r} is categorical but got "
                    f"{type(value).__name__} value {value!r}"
                )


@dataclass(frozen=True)
class RelationSchema:
    """An ordered, immutable set of typed attributes.

    >>> schema = RelationSchema(
    ...     "CarDB",
    ...     (
    ...         Attribute("Make", AttributeKind.CATEGORICAL),
    ...         Attribute("Price", AttributeKind.NUMERIC),
    ...     ),
    ... )
    >>> schema.position("Price")
    1
    """

    name: str
    attributes: tuple[Attribute, ...]
    _positions: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"relation {self.name!r} needs at least one attribute")
        positions: dict[str, int] = {}
        for index, attribute in enumerate(self.attributes):
            if attribute.name in positions:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in relation "
                    f"{self.name!r}"
                )
            positions[attribute.name] = index
        object.__setattr__(self, "_positions", positions)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        categorical: Sequence[str] = (),
        numeric: Sequence[str] = (),
        order: Sequence[str] | None = None,
    ) -> "RelationSchema":
        """Build a schema from two name lists.

        ``order`` fixes the column order; when omitted, categorical
        attributes come first in the given order, then numeric ones.
        """
        kind_of = {name_: AttributeKind.CATEGORICAL for name_ in categorical}
        for name_ in numeric:
            if name_ in kind_of:
                raise SchemaError(f"attribute {name_!r} listed as both kinds")
            kind_of[name_] = AttributeKind.NUMERIC
        ordering = list(order) if order is not None else list(kind_of)
        if sorted(ordering) != sorted(kind_of):
            raise SchemaError("order must list exactly the declared attributes")
        return cls(name, tuple(Attribute(n, kind_of[n]) for n in ordering))

    # -- lookups --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, attribute_name: object) -> bool:
        return attribute_name in self._positions

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``."""
        try:
            return self.attributes[self._positions[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def position(self, name: str) -> int:
        """Return the tuple position of attribute ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Return tuple positions for several attribute names at once."""
        return tuple(self.position(name) for name in names)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_categorical)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_numeric)

    # -- row handling ---------------------------------------------------------

    def validate_row(self, row: Sequence[object]) -> tuple[object, ...]:
        """Check arity and per-attribute types; return the row as a tuple."""
        if len(row) != len(self.attributes):
            raise TypeMismatchError(
                f"relation {self.name!r} expects {len(self.attributes)} values, "
                f"got {len(row)}"
            )
        for attribute, value in zip(self.attributes, row):
            attribute.validate_value(value)
        return tuple(row)

    def validate_rows(
        self, rows: Iterable[Sequence[object]]
    ) -> list[tuple[object, ...]]:
        """Validate a batch of rows; return them as tuples, in order.

        Accepts exactly what :meth:`validate_row` accepts, and a bad
        batch raises the error :meth:`validate_row` raises for its first
        bad cell in row-major order.  The common batch — right arity,
        every cell's exact type in its kind's set — is accepted with one
        type scan per column; anything else (a subclass value or a bad
        cell) falls back to checking row by row.
        """
        tuples = [tuple(row) for row in rows]
        arity = len(self.attributes)
        if set(map(len, tuples)) <= {arity} and all(
            set(map(type, map(itemgetter(position), tuples)))
            <= (_CATEGORICAL_TYPES if attribute.is_categorical else _NUMERIC_TYPES)
            for position, attribute in enumerate(self.attributes)
        ):
            return tuples
        for row in tuples:
            self.validate_row(row)
        return tuples

    def row_from_mapping(self, mapping: dict[str, object]) -> tuple[object, ...]:
        """Build a positional row from an attribute-name mapping."""
        extra = set(mapping) - set(self._positions)
        if extra:
            raise UnknownAttributeError(sorted(extra)[0], self.name)
        return self.validate_row(
            [mapping.get(attribute.name) for attribute in self.attributes]
        )

    def row_to_mapping(self, row: Sequence[object]) -> dict[str, object]:
        """Render a positional row as an ``{attribute: value}`` dict."""
        return {
            attribute.name: value for attribute, value in zip(self.attributes, row)
        }

    def project(self, names: Sequence[str]) -> "RelationSchema":
        """Return a new schema with only the named attributes (in order)."""
        return RelationSchema(
            self.name, tuple(self.attribute(name) for name in names)
        )
