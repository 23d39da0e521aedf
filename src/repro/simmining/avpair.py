"""Attribute-Value pairs (AV-pairs).

An AV-pair is "a distinct combination of a categorical attribute and a
value binding the attribute" (paper §5.1), e.g. ``Make=Ford``.  Viewed
as a selection query binding a single attribute, an AV-pair identifies
the set of tuples that *contain* it; that answer set is summarised by a
supertuple and drives value-similarity estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.predicates import Eq
from repro.db.query import SelectionQuery

__all__ = ["AVPair"]


@dataclass(frozen=True, order=True)
class AVPair:
    """A categorical attribute bound to one of its values."""

    attribute: str
    value: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("AV-pair needs an attribute name")
        # Any string a categorical column holds, the empty one included.
        if not isinstance(self.value, str):
            raise ValueError(f"AV-pair value must be a string, got {self.value!r}")

    def as_query(self) -> SelectionQuery:
        """The single-attribute selection query this AV-pair denotes."""
        return SelectionQuery((Eq(self.attribute, self.value),))

    def describe(self) -> str:
        return f"{self.attribute}={self.value}"

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.describe()
