"""Ranked answers returned by the AIMQ engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.query import ImpreciseQuery
from repro.db import RelationSchema
from repro.resilience.degradation import DegradationReport

__all__ = [
    "RankedAnswer",
    "AnswerSet",
    "RelaxationTrace",
    "answer_rank_key",
    "base_rank_key",
]


@dataclass(frozen=True, slots=True)
class RankedAnswer:
    """One tuple of the extended set with its similarity scores.

    Slotted: callers hold thousands of these (every extended set, every
    served page), and a slotted instance is one allocation half the
    size of a dict-backed one.
    """

    row_id: int
    row: tuple
    similarity: float
    base_similarity: float
    source_base_row_id: int
    relaxation_level: int

    def as_mapping(self, schema: RelationSchema) -> dict[str, object]:
        return schema.row_to_mapping(self.row)


def answer_rank_key(answer: RankedAnswer) -> tuple[float, float, int]:
    """The engine's canonical ranking key for ``answer()`` results.

    Ascending sort under this key ranks by query similarity
    (descending), then base-tuple similarity (descending), then row id
    (ascending).  The trailing row id makes every tie-break explicit
    and total: two answers never compare equal, so the top-k cut is
    deterministic regardless of the order the extended set was
    populated in.
    """
    return (-answer.similarity, -answer.base_similarity, answer.row_id)


def base_rank_key(answer: RankedAnswer) -> tuple[float, int]:
    """Canonical ranking key for ``gather_similar()`` results.

    Base-tuple similarity descending, then row id ascending — the same
    total, deterministic order contract as :func:`answer_rank_key`.
    """
    return (-answer.base_similarity, answer.row_id)


@dataclass
class RelaxationTrace:
    """Work accounting for one answered query (drives Figs 6–7).

    ``queries_issued`` counts probes that actually reached the source —
    the quantity Figures 6–7 plot.  When the facade's probe cache is
    on, lookups it served are counted separately in ``probes_cached``
    so the issued-probe semantics stay comparable to the paper's; with
    the cache off (the default, and how the efficiency benchmarks run)
    ``probes_cached`` is always zero.

    ``probes_subsumed`` counts relaxation steps answered without the
    source or its probe cache.  The engine has no such path, so it is
    always 0; it stays in the trace, the ``/query`` payload and the
    wide event so the accounting identity ``logical_probes == issued +
    cached + subsumed`` that dashboards and the end-to-end benchmark
    check keeps its shape.
    """

    base_set_size: int = 0
    queries_issued: int = 0
    probes_cached: int = 0
    probes_subsumed: int = 0
    tuples_extracted: int = 0
    tuples_relevant: int = 0
    deepest_level: int = 0
    generalisation_steps: tuple[str, ...] = ()
    degradation: DegradationReport = field(default_factory=DegradationReport)

    @property
    def degraded(self) -> bool:
        """True when source failures forced the engine to skip work."""
        return self.degradation.degraded

    @property
    def total_lookups(self) -> int:
        """Issued probes plus cache-served lookups."""
        return self.queries_issued + self.probes_cached

    @property
    def logical_probes(self) -> int:
        """Relaxation steps resolved, however they were answered."""
        return self.queries_issued + self.probes_cached + self.probes_subsumed

    @property
    def work_per_relevant_tuple(self) -> float:
        """|T_extracted| / |T_relevant| (paper §6.3); inf when none found."""
        if self.tuples_relevant == 0:
            return float("inf")
        return self.tuples_extracted / self.tuples_relevant


@dataclass
class AnswerSet:
    """Top-k ranked answers plus provenance for one imprecise query."""

    query: ImpreciseQuery
    answers: list[RankedAnswer] = field(default_factory=list)
    trace: RelaxationTrace = field(default_factory=RelaxationTrace)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[RankedAnswer]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> RankedAnswer:
        return self.answers[index]

    @property
    def rows(self) -> list[tuple]:
        return [answer.row for answer in self.answers]

    @property
    def row_ids(self) -> list[int]:
        return [answer.row_id for answer in self.answers]

    @property
    def degradation(self) -> DegradationReport:
        return self.trace.degradation

    @property
    def degraded(self) -> bool:
        """True when this answer is partial because the source failed."""
        return self.trace.degraded

    def describe(self, schema: RelationSchema, top: int | None = None) -> str:
        lines = [f"Answers for {self.query.describe()}:"]
        shown = self.answers if top is None else self.answers[:top]
        for rank, answer in enumerate(shown, start=1):
            rendered = ", ".join(
                f"{k}={v}" for k, v in answer.as_mapping(schema).items()
            )
            lines.append(f"  {rank:>2}. sim={answer.similarity:.3f}  {rendered}")
        return "\n".join(lines)
