"""Supertuples: bag-of-keyword summaries of an AV-pair's answer set.

"We represent the answerset containing each AV-pair as a structure
called the supertuple.  The supertuple contains a bag of keywords for
each attribute in the relation not bound by the AV-pair" (paper §5.2,
Table 1).  Categorical co-occurring values enter the bags directly;
numeric values are discretised into range labels — Table 1 itself shows
``Mileage 10k-15k:3`` and ``Price 1k-5k:5`` — so a
:class:`NumericBinner` derived from the sample's extents produces those
labels here.

Bags are counted column-wise: :func:`keyword_columns` turns a sample's
columns into keyword columns once (a range label is computed once per
distinct numeric value), and :func:`supertuple_from_keywords` counts
one AV-pair's bags from its answer set's row ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag

__all__ = [
    "NumericBinner",
    "SuperTuple",
    "build_binners",
    "build_supertuple",
    "keyword_columns",
    "supertuple_from_keywords",
]


@dataclass(frozen=True)
class NumericBinner:
    """Equal-width discretiser mapping numbers to range labels."""

    attribute: str
    low: float
    high: float
    n_bins: int

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        if self.low > self.high:
            raise ValueError(f"inverted extent {self.low}..{self.high}")

    @property
    def width(self) -> float:
        if self.high == self.low:
            return 1.0
        return (self.high - self.low) / self.n_bins

    def bin_index(self, value: float) -> int:
        """Index of the bin containing ``value`` (clamped to the extent)."""
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.n_bins - 1
        return min(int((value - self.low) / self.width), self.n_bins - 1)

    def label(self, value: float) -> str:
        """Human-readable range label, e.g. ``"10000-15000"``.

        A NaN or infinite value lies in no range: its label is its kind,
        ``"nan"``, ``"inf"`` or ``"-inf"``.
        """
        if not -math.inf < value < math.inf:
            return repr(value)
        index = self.bin_index(value)
        bin_low = self.low + index * self.width
        bin_high = bin_low + self.width
        return f"{bin_low:g}-{bin_high:g}"


def build_binners(
    table: Table, n_bins: int = 10
) -> dict[str, NumericBinner]:
    """One binner per numeric attribute, sized to its finite extent.

    Bin edges span the finite values only (see
    :meth:`~repro.db.table.Table.numeric_extent`); an attribute with no
    finite value gets no binner.
    """
    binners: dict[str, NumericBinner] = {}
    for name in table.schema.numeric_names:
        extent = table.numeric_extent(name)
        if extent is None:
            continue
        low, high = float(extent[0]), float(extent[1])
        binners[name] = NumericBinner(
            attribute=name, low=low, high=high, n_bins=n_bins
        )
    return binners


class SuperTuple:
    """Per-attribute keyword bags describing one AV-pair's answer set."""

    def __init__(
        self,
        avpair: AVPair,
        bags: Mapping[str, Bag],
        answerset_size: int,
    ) -> None:
        self.avpair = avpair
        self._bags = dict(bags)
        self.answerset_size = answerset_size

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes summarised by this supertuple (all but the bound one)."""
        return tuple(self._bags)

    def bag(self, attribute: str) -> Bag:
        """The keyword bag for ``attribute`` (empty bag if absent)."""
        return self._bags.get(attribute, Bag())

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._bags

    def describe(self, top: int = 5) -> str:
        """Render in the 2-column style of paper Table 1."""
        lines = [f"SuperTuple[{self.avpair}] ({self.answerset_size} tuples)"]
        for attribute in self.attributes:
            entries = ", ".join(
                f"{keyword}:{count}"
                for keyword, count in self.bag(attribute).most_common(top)
            )
            lines.append(f"  {attribute:<12} {entries}")
        return "\n".join(lines)


def keyword_columns(
    columns: Mapping[str, Sequence[object]],
    schema: RelationSchema,
    binners: Mapping[str, NumericBinner] | None = None,
) -> dict[str, Sequence[object]]:
    """Each attribute's bag keywords, row-aligned with ``columns``.

    A value is its own keyword, except that a numeric attribute with a
    binner maps each value to its range label, computed once per
    distinct value.  A NaN or ±inf numeric cell gets one keyword per
    kind (``"nan"``, ``"inf"``, ``"-inf"``), binner or not, and never a
    range label.  Nulls stay None and contribute nothing to a bag.
    """
    binners = binners or {}
    keywords: dict[str, Sequence[object]] = {}
    for attribute in schema:
        name = attribute.name
        column = columns[name]
        if not attribute.is_numeric:
            keywords[name] = column
            continue
        binner = binners.get(name)
        if binner is None:
            # ``-inf < v < inf`` is False exactly for NaN and ±inf.
            kinds = {
                value: repr(float(value))  # type: ignore[arg-type]
                for value in set(column)
                if value is not None
                and not -math.inf < value < math.inf  # type: ignore[operator]
            }
            keywords[name] = (
                [kinds.get(value, value) for value in column] if kinds else column
            )
            continue
        labels: dict[object, object] = {
            value: binner.label(float(value))  # type: ignore[arg-type]
            for value in set(column)
            if value is not None
        }
        labels[None] = None
        keywords[name] = [labels[value] for value in column]
    return keywords


def supertuple_from_keywords(
    avpair: AVPair,
    row_ids: Sequence[int],
    keywords: Mapping[str, Sequence[object]],
) -> SuperTuple:
    """The supertuple of the answer set ``row_ids`` over keyword columns.

    ``row_ids`` must index the answer set of ``avpair.as_query()`` in
    ``keywords`` (see :func:`keyword_columns`); the builder does not
    re-filter.  Each bag counts its keywords in ``row_ids`` order.
    """
    bags: dict[str, Bag] = {}
    for name, column in keywords.items():
        if name == avpair.attribute:
            continue
        present = [k for k in map(column.__getitem__, row_ids) if k is not None]
        bags[name] = Bag(present)
    return SuperTuple(avpair=avpair, bags=bags, answerset_size=len(row_ids))


def build_supertuple(
    avpair: AVPair,
    rows: Sequence[tuple],
    schema: RelationSchema,
    binners: Mapping[str, NumericBinner] | None = None,
) -> SuperTuple:
    """Summarise ``rows`` (the AV-pair's answer set) into a supertuple.

    ``rows`` must already be the answer set of ``avpair.as_query()``;
    the builder does not re-filter.  Null values contribute nothing to
    the bags.
    """
    columns = {
        attribute.name: [row[position] for row in rows]
        for position, attribute in enumerate(schema)
    }
    keywords = keyword_columns(columns, schema, binners)
    return supertuple_from_keywords(avpair, range(len(rows)), keywords)
