"""Oracle for supertuple generation (``repro.simmining.supertuple``).

``build_supertuple_row_loop`` walks the answer set row by row and
formats every numeric cell as a range label on the spot.  It was
replaced by keyword columns derived once per sample, with bags counted
from posting row ids (docs/PERFORMANCE.md §11).
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
