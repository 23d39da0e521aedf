"""Checkpoint/resume for probing-based collection runs.

Extracting a 100k-tuple sample through a Web form costs thousands of
probes; a source outage halfway through used to cost all of them.  In
resumable mode :func:`~repro.sampling.collector.probe_all` raises
:class:`CollectionInterrupted` carrying a
:class:`CollectionCheckpoint` — the exact position in the spanning
family, the page offset, and every row already collected — and a later
call continues from that position, re-issuing no completed probe.

Checkpoints round-trip through JSON so long collections can survive
process restarts, not just exception handling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

__all__ = ["CollectionCheckpoint", "CollectionInterrupted"]


@dataclass(frozen=True)
class CollectionCheckpoint:
    """Where a collection run stopped and what it had.

    ``next_query_index`` indexes the deterministic spanning-query
    family (same order every run — REP001 guarantees it);
    ``next_offset`` is the result page to request next within that
    query.  ``rows`` holds every row collected so far, in collection
    order, so the resumed run rebuilds an identical local table.
    """

    spanning_attribute: str
    next_query_index: int
    next_offset: int
    rows: tuple[tuple, ...]
    probes_issued: int = 0
    truncated_probes: int = 0
    pages_followed: int = 0

    def __post_init__(self) -> None:
        if self.next_query_index < 0 or self.next_offset < 0:
            raise ValueError("checkpoint positions cannot be negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "spanning_attribute": self.spanning_attribute,
            "next_query_index": self.next_query_index,
            "next_offset": self.next_offset,
            "rows": [list(row) for row in self.rows],
            "probes_issued": self.probes_issued,
            "truncated_probes": self.truncated_probes,
            "pages_followed": self.pages_followed,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "CollectionCheckpoint":
        """Decode :meth:`to_dict` output; raise ``ValueError`` otherwise.

        Row cells are not checked here: a resumed run validates the
        rows against the source schema before its first probe.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"checkpoint must be a JSON object, not {type(payload).__name__}"
            )
        attribute = payload.get("spanning_attribute")
        if not isinstance(attribute, str):
            raise ValueError("checkpoint spanning_attribute must be a string")
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise ValueError("checkpoint rows must be a list of lists")
        return cls(
            spanning_attribute=attribute,
            next_query_index=_count(payload, "next_query_index", required=True),
            next_offset=_count(payload, "next_offset", required=True),
            rows=tuple(tuple(row) for row in rows),
            probes_issued=_count(payload, "probes_issued"),
            truncated_probes=_count(payload, "truncated_probes"),
            pages_followed=_count(payload, "pages_followed"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CollectionCheckpoint":
        """Decode :meth:`to_json` output; raise ``ValueError`` otherwise."""
        return cls.from_dict(json.loads(text))


def _count(payload: dict[str, Any], key: str, required: bool = False) -> int:
    """``payload[key]`` as a non-negative int (0 when optional and absent)."""
    if key not in payload and not required:
        return 0
    value = payload.get(key)
    if type(value) is not int or value < 0:
        raise ValueError(f"checkpoint {key} must be a non-negative integer")
    return value


class CollectionInterrupted(Exception):
    """A resumable collection run hit a failure it could not ride out.

    Deliberately *not* a :class:`~repro.db.errors.DatabaseError`: the
    source error that caused the interruption is chained as
    ``__cause__``, while this exception's job is to hand the caller the
    :class:`CollectionCheckpoint` to resume from.
    """

    def __init__(self, checkpoint: CollectionCheckpoint, reason: str) -> None:
        self.checkpoint = checkpoint
        self.reason = reason
        super().__init__(
            f"collection interrupted at spanning query "
            f"{checkpoint.next_query_index} offset {checkpoint.next_offset} "
            f"with {len(checkpoint.rows)} rows collected: {reason}"
        )
