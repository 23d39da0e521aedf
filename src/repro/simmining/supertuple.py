"""Supertuples: bag-of-keyword summaries of an AV-pair's answer set.

"We represent the answerset containing each AV-pair as a structure
called the supertuple.  The supertuple contains a bag of keywords for
each attribute in the relation not bound by the AV-pair" (paper §5.2,
Table 1).  Categorical co-occurring values enter the bags directly;
numeric values are discretised into range labels — Table 1 itself shows
``Mileage 10k-15k:3`` and ``Price 1k-5k:5`` — so a
:class:`NumericBinner` derived from the sample's extents produces those
labels here.

Bags are counted on coded columns (docs/PERFORMANCE.md §14):
:func:`code_keywords` and :func:`code_table` turn each column into
integer keyword codes once (a range label is computed once per bin),
:func:`cooccurrence` counts a bound attribute's values against another
attribute's keywords into one dense value × keyword matrix, and
:func:`bags_from_counts` reads each value's bag off its matrix row, in
first-occurrence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag

__all__ = [
    "KeywordCodes",
    "NumericBinner",
    "SuperTuple",
    "bags_from_counts",
    "build_binners",
    "build_supertuple",
    "code_keywords",
    "code_table",
    "cooccurrence",
]

#: A coded keyword column: each row's keyword code (``-1`` for a null)
#: and each code's keyword.
KeywordCodes = tuple[NDArray[np.intp], list[Any]]


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

    def bin_indices(self, values: NDArray[np.float64]) -> NDArray[np.intp]:
        """:meth:`bin_index` of every value of a finite array, in one pass.

        Each test and each float operation is the scalar method's, so
        every index is the one it returns.
        """
        indices = np.zeros(len(values), dtype=np.intp)
        above = values > self.low
        top = above & (values >= self.high)
        inner = above & ~top
        indices[top] = self.n_bins - 1
        # The quotient is positive, so truncation is int()'s.
        quotients = (values[inner] - self.low) / self.width
        indices[inner] = np.minimum(quotients.astype(np.intp), self.n_bins - 1)
        return indices

    def bin_label(self, index: int) -> str:
        """The range label of bin ``index``, e.g. ``"10000-15000"``."""
        bin_low = self.low + index * self.width
        bin_high = bin_low + self.width
        return f"{bin_low:g}-{bin_high:g}"

    def label(self, value: float) -> str:
        """Human-readable range label, e.g. ``"10000-15000"``.

        A NaN or infinite value lies in no range: its label is its kind,
        ``"nan"``, ``"inf"`` or ``"-inf"``.
        """
        if not -math.inf < value < math.inf:
            return repr(value)
        return self.bin_label(self.bin_index(value))


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
        bag = self._bags.get(attribute)
        return Bag() if bag is None else bag

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


def code_keywords(
    column: Sequence[object],
    numeric: bool,
    binner: NumericBinner | None = None,
) -> KeywordCodes:
    """Code one column's bag keywords, row-aligned with ``column``.

    A cell is its own keyword, except that a numeric cell under a
    ``binner`` is its range label, computed once per bin (a finite
    value's label depends only on its bin index), and that a NaN or
    ±inf numeric cell is its kind (``"nan"``, ``"inf"``, ``"-inf"``),
    binner or not.  Codes number the distinct keywords: a binner's
    labels first, in bin order, then the other keywords in the order
    they first appear.  Equal keywords share one code, whose keyword is
    the first of them.  A null gets ``-1`` and contributes nothing to a
    bag.
    """
    codes = np.full(len(column), -1, dtype=np.intp)
    keyword_codes: dict[object, int] = {}
    rest: Sequence[int] = range(len(column))
    if numeric and binner is not None:
        cells = np.array(column, dtype=float)  # a null reads as NaN
        binned = np.isfinite(cells)
        bin_codes = np.array(
            [
                keyword_codes.setdefault(binner.bin_label(index), len(keyword_codes))
                for index in range(binner.n_bins)
            ],
            dtype=np.intp,
        )
        codes[binned] = bin_codes[binner.bin_indices(cells[binned])]
        rest = np.flatnonzero(~binned).tolist()
    rows: list[int] = []
    found: list[int] = []
    for row in rest:
        cell = column[row]
        if cell is None:
            continue
        # ``-inf < v < inf`` is False exactly for NaN and ±inf.
        if numeric and not -math.inf < cell < math.inf:  # type: ignore[operator]
            cell = repr(float(cell))  # type: ignore[arg-type]
        rows.append(row)
        found.append(keyword_codes.setdefault(cell, len(keyword_codes)))
    codes[rows] = found
    return codes, list(keyword_codes)


def code_table(
    table: Table, binners: Mapping[str, NumericBinner]
) -> dict[str, KeywordCodes]:
    """Every attribute's keyword codes over ``table``'s rows.

    A categorical attribute with a hash index is coded from the index's
    buckets (:meth:`~repro.db.index.HashIndex.value_codes`), which gives
    the codes :func:`code_keywords` gives its column.
    """
    coded: dict[str, KeywordCodes] = {}
    for attribute in table.schema:
        name = attribute.name
        index = table.hash_index(name) if attribute.is_categorical else None
        if index is not None:
            coded[name] = index.value_codes(len(table))
        else:
            coded[name] = code_keywords(
                table.column(name), attribute.is_numeric, binners.get(name)
            )
    return coded


def cooccurrence(
    values: NDArray[np.intp],
    n_values: int,
    keywords: NDArray[np.intp],
    n_keywords: int,
) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Value × keyword co-occurrence counts, and each cell's first row.

    ``values`` and ``keywords`` are row-aligned codes, and a row where
    either is ``-1`` counts for nothing.  ``counts[v, k]`` is the number
    of rows holding value ``v`` and keyword ``k`` (one ``np.bincount``);
    ``firsts[v, k]`` is the first such row (one ``np.minimum.at``), or
    ``len(values)`` when there is none.
    """
    rows = np.flatnonzero((values >= 0) & (keywords >= 0))
    cells = values[rows] * n_keywords + keywords[rows]
    size = n_values * n_keywords
    counts = np.bincount(cells, minlength=size).reshape(n_values, n_keywords)
    firsts = np.full(size, len(values), dtype=np.intp)
    np.minimum.at(firsts, cells, rows)
    return counts, firsts.reshape(n_values, n_keywords)


def bags_from_counts(
    counts: NDArray[np.intp], firsts: NDArray[np.intp], keywords: Sequence[object]
) -> list[Bag]:
    """One bag per row of ``counts`` (see :func:`cooccurrence`).

    A bag holds the row's keywords in the order of their first rows,
    which is the order a row-by-row count over the answer set meets
    them in, so ``most_common`` ties and Table 1 render as they would.
    """
    value_ids, keyword_ids = np.nonzero(counts)
    # value_ids ascend, so sorting by (value, first row) keeps each
    # value's keywords together, in first-occurrence order.
    keyword_ids = keyword_ids[np.lexsort((firsts[value_ids, keyword_ids], value_ids))]
    amounts = counts[value_ids, keyword_ids].tolist()
    names = list(map(keywords.__getitem__, keyword_ids.tolist()))
    bags: list[Bag] = []
    start = 0
    for end in np.cumsum(np.bincount(value_ids, minlength=len(counts))).tolist():
        bags.append(Bag.from_counts(dict(zip(names[start:end], amounts[start:end]))))
        start = end
    return bags


def build_supertuple(
    avpair: AVPair,
    rows: Sequence[tuple],
    schema: RelationSchema,
    binners: Mapping[str, NumericBinner] | None = None,
) -> SuperTuple:
    """Summarise ``rows`` (the AV-pair's answer set) into a supertuple.

    ``rows`` must already be the answer set of ``avpair.as_query()``;
    the builder does not re-filter.  Null values contribute nothing to
    the bags.  Bags are counted through the same coder as
    :meth:`~repro.simmining.estimator.ValueSimilarityMiner.build_supertuples`,
    with every row holding the one value.
    """
    binners = binners or {}
    holds_value = np.zeros(len(rows), dtype=np.intp)
    bags: dict[str, Bag] = {}
    for position, attribute in enumerate(schema):
        name = attribute.name
        if name == avpair.attribute:
            continue
        codes, keywords = code_keywords(
            [row[position] for row in rows], attribute.is_numeric, binners.get(name)
        )
        counts, firsts = cooccurrence(holds_value, 1, codes, len(keywords))
        (bags[name],) = bags_from_counts(counts, firsts, keywords)
    return SuperTuple(avpair=avpair, bags=bags, answerset_size=len(rows))
