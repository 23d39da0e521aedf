"""Imprecise queries and their mapping to precise base queries.

An *imprecise query* "requires a close but not necessarily exact match"
(paper §3.2): constraints are ``like`` rather than ``=``.  AIMQ first
tightens every likeness constraint to equality, producing the precise
*base query* Q_pr whose answers seed the search (the paper's
pseudo-relevance-feedback move).  When Q_pr returns nothing, footnote 2
allows falling back to a generalisation — we widen numeric bindings into
bands and then drop the least-important attributes in relaxation order
until the base set is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db import (
    AutonomousWebDatabase,
    Between,
    Eq,
    IsIn,
    Predicate,
    QueryError,
    QueryResult,
    RelationSchema,
    SelectionQuery,
)

__all__ = [
    "LikeConstraint",
    "PreciseConstraint",
    "ImpreciseQuery",
    "BaseQueryMapper",
    "BaseSet",
]


@dataclass(frozen=True)
class LikeConstraint:
    """``attribute like value`` — the imprecise atom."""

    attribute: str
    value: object

    def describe(self) -> str:
        return f"{self.attribute} like {self.value!r}"


@dataclass(frozen=True)
class PreciseConstraint:
    """A precise predicate embedded in an otherwise imprecise query.

    The motivating example mixes both kinds:
    ``Q :- CarDB(Model = Camry, Price < 10000)`` read as imprecise.
    """

    predicate: Predicate

    @property
    def attribute(self) -> str:
        return self.predicate.attribute

    def describe(self) -> str:
        return self.predicate.describe()


Constraint = LikeConstraint | PreciseConstraint


def _operands(constraint: Constraint) -> tuple[object, ...]:
    """The values ``constraint`` compares its attribute's cells with."""
    if isinstance(constraint, LikeConstraint):
        return (constraint.value,)
    predicate = constraint.predicate
    if isinstance(predicate, IsIn):
        return tuple(predicate.values)
    # A comparison's canonical form is (attribute, operator, *operands).
    return predicate.canonical_form()[2:]


@dataclass(frozen=True)
class ImpreciseQuery:
    """A conjunction of like/precise constraints over one relation."""

    relation: str
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise QueryError("an imprecise query needs at least one constraint")
        seen: set[str] = set()
        for constraint in self.constraints:
            if constraint.attribute in seen:
                raise QueryError(
                    f"attribute {constraint.attribute!r} constrained twice"
                )
            seen.add(constraint.attribute)

    # -- constructors -------------------------------------------------------

    @classmethod
    def like(cls, relation: str, **bindings: object) -> "ImpreciseQuery":
        """All-likeness shorthand:

        >>> ImpreciseQuery.like("CarDB", Model="Camry", Price=10000).describe()
        "CarDB(Model like 'Camry', Price like 10000)"
        """
        return cls(
            relation,
            tuple(LikeConstraint(attr, value) for attr, value in bindings.items()),
        )

    # -- inspection ----------------------------------------------------------

    @property
    def bound_attributes(self) -> tuple[str, ...]:
        return tuple(constraint.attribute for constraint in self.constraints)

    @property
    def like_constraints(self) -> tuple[LikeConstraint, ...]:
        return tuple(
            c for c in self.constraints if isinstance(c, LikeConstraint)
        )

    def like_binding(self, attribute: str) -> object | None:
        for constraint in self.like_constraints:
            if constraint.attribute == attribute:
                return constraint.value
        return None

    def validate_against(self, schema: RelationSchema) -> None:
        """Raise unless the query fits ``schema``: its relation, known
        attributes, and a number (or None) for every numeric attribute.
        """
        if schema.name != self.relation:
            raise QueryError(
                f"query targets {self.relation!r} but schema is {schema.name!r}"
            )
        for constraint in self.constraints:
            attribute = schema.attribute(constraint.attribute)
            if attribute.is_numeric:
                for value in _operands(constraint):
                    attribute.validate_value(value)

    # -- mapping to the precise world -----------------------------------------

    def to_base_query(self) -> SelectionQuery:
        """Tighten likeness to equality: Q → Q_pr."""
        predicates: list[Predicate] = []
        for constraint in self.constraints:
            if isinstance(constraint, LikeConstraint):
                predicates.append(Eq(constraint.attribute, constraint.value))
            else:
                predicates.append(constraint.predicate)
        return SelectionQuery(tuple(predicates))

    def describe(self) -> str:
        rendered = ", ".join(c.describe() for c in self.constraints)
        return f"{self.relation}({rendered})"

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.describe()


@dataclass(frozen=True)
class BaseSet:
    """The base query finally used and the tuples it returned."""

    query: SelectionQuery
    result: QueryResult
    generalisation_steps: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.result)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self.result.rows


class BaseQueryMapper:
    """Maps an imprecise query to a non-empty base set (Alg. 1, step 1).

    Generalisation ladder when Q_pr is empty:

    1. widen each numeric equality into a ±band ``between`` probe
       (a Camry priced 10500 should seed a query for "Price like
       10000");
    2. drop bound attributes one at a time, least-important first
       according to the supplied relaxation order, until some
       generalisation returns tuples.

    The mapper reports the steps taken so callers can explain the
    answer provenance to the user.
    """

    def __init__(
        self,
        webdb: AutonomousWebDatabase,
        relaxation_order: Sequence[str] | None = None,
        numeric_band_fraction: float = 0.1,
    ) -> None:
        if not 0.0 < numeric_band_fraction <= 1.0:
            raise ValueError("numeric_band_fraction must be in (0, 1]")
        self.webdb = webdb
        self.relaxation_order = tuple(relaxation_order or ())
        self.numeric_band_fraction = numeric_band_fraction

    def map(self, query: ImpreciseQuery) -> BaseSet:
        """Return a non-empty base set or raise :class:`QueryError`."""
        query.validate_against(self.webdb.schema)
        base_query = query.to_base_query()
        result = self.webdb.query(base_query)
        if result:
            return BaseSet(query=base_query, result=result)

        steps: list[str] = []
        widened = self._widen_numeric(base_query)
        if widened is not base_query:
            steps.append("widened numeric equalities into bands")
            result = self.webdb.query(widened)
            if result:
                return BaseSet(
                    query=widened,
                    result=result,
                    generalisation_steps=tuple(steps),
                )
            base_query = widened

        for attribute in self._drop_order(base_query):
            base_query = base_query.without_attributes([attribute])
            steps.append(f"dropped constraint on {attribute}")
            if not base_query.predicates:
                break
            result = self.webdb.query(base_query)
            if result:
                return BaseSet(
                    query=base_query,
                    result=result,
                    generalisation_steps=tuple(steps),
                )
        raise QueryError(
            f"no generalisation of {query.describe()} returns any tuple"
        )

    # -- internals ---------------------------------------------------------

    def _widen_numeric(self, base_query: SelectionQuery) -> SelectionQuery:
        schema = self.webdb.schema
        widened = base_query
        for predicate in base_query.predicates:
            if not isinstance(predicate, Eq):
                continue
            if not schema.attribute(predicate.attribute).is_numeric:
                continue
            center = predicate.value
            if not isinstance(center, (int, float)) or isinstance(center, bool):
                continue
            band = abs(center) * self.numeric_band_fraction
            if band == 0:
                band = self.numeric_band_fraction
            widened = widened.replacing(
                predicate.attribute,
                [Between(predicate.attribute, center - band, center + band)],
            )
        return widened

    def _drop_order(self, base_query: SelectionQuery) -> list[str]:
        """Bound attributes, least important first.

        Attributes absent from the supplied relaxation order keep their
        query position but come before ordered ones (we know nothing
        about them, so they are the safest to drop).
        """
        bound = list(base_query.bound_attributes)
        position = {name: i for i, name in enumerate(self.relaxation_order)}
        return sorted(bound, key=lambda name: position.get(name, -1))
