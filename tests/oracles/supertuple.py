"""Oracles for supertuple generation (``repro.simmining.supertuple``).

``build_supertuple_row_loop`` walks the answer set row by row and
formats every numeric cell as a range label on the spot.  It was
replaced by keyword columns derived once per sample, with bags counted
from posting row ids (docs/PERFORMANCE.md §11): ``keyword_columns``
and ``supertuple_from_keywords``.  Those were in turn replaced by
coded keyword columns counted into value × keyword matrices
(docs/PERFORMANCE.md §14).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.db.schema import RelationSchema
from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag
from repro.simmining.supertuple import NumericBinner, SuperTuple


def build_supertuple_row_loop(
    avpair: AVPair,
    rows: Sequence[tuple],
    schema: RelationSchema,
    binners: Mapping[str, NumericBinner] | None = None,
) -> SuperTuple:
    """Summarise ``rows`` (the AV-pair's answer set) into a supertuple."""
    binners = binners or {}
    keyword_lists: dict[str, list] = {
        attribute.name: []
        for attribute in schema
        if attribute.name != avpair.attribute
    }
    for row in rows:
        for attribute in schema:
            name = attribute.name
            if name == avpair.attribute:
                continue
            value = row[schema.position(name)]
            if value is None:
                continue
            if attribute.is_numeric and name in binners:
                keyword_lists[name].append(binners[name].label(float(value)))
            elif attribute.is_numeric and not -math.inf < value < math.inf:
                # A NaN or ±inf cell gets its kind, binner or not.
                keyword_lists[name].append(repr(float(value)))
            else:
                keyword_lists[name].append(value)
    bags = {name: Bag(items) for name, items in keyword_lists.items()}
    return SuperTuple(avpair=avpair, bags=bags, answerset_size=len(rows))


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
