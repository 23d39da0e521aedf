"""Data Collector: probing-based extraction of database samples.

The Data Collector (paper Figure 1) is the offline component that
"probes the databases to extract sample subsets".  It only talks to the
:class:`AutonomousWebDatabase` facade — never to the engine directly —
so it works against any source that answers form queries.

Two collection modes are provided:

* :func:`probe_all` — issue the full spanning family and materialise
  every reachable tuple locally (the paper's 100k CarDB extraction);
* :func:`collect_sample` — same extraction, then simple random
  sampling without replacement down to a target size (the paper's
  15k/25k/50k subsets); only the sample is built as a table.

:func:`nested_samples` derives several sample sizes from one pass so
robustness experiments (Figs 3–4) compare orderings across sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.db.errors import ProbeLimitExceededError, TransientSourceError
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.obs.runtime import OBS
from repro.resilience.errors import ResilienceError
from repro.sampling.checkpoint import CollectionCheckpoint, CollectionInterrupted
from repro.sampling.spanning import (
    categorical_spanning_queries,
    choose_spanning_attribute,
)

__all__ = ["CollectionReport", "probe_all", "collect_sample", "nested_samples"]


@dataclass
class CollectionReport:
    """What one collection run did and what it may have missed."""

    spanning_attribute: str
    probes_issued: int = 0
    tuples_collected: int = 0
    truncated_probes: int = 0
    pages_followed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when no probe page was left truncated by a result cap."""
        return self.truncated_probes == 0


def probe_all(
    webdb: AutonomousWebDatabase,
    spanning_attribute: str | None = None,
    paginate: bool = True,
    max_pages_per_probe: int = 1000,
    resumable: bool = False,
    checkpoint: CollectionCheckpoint | None = None,
) -> tuple[Table, CollectionReport]:
    """Materialise every reachable tuple via spanning probes.

    When a source caps result pages, ``paginate=True`` (default) keeps
    requesting later offsets — the way a scraper follows "next page"
    links — until the probe is exhausted or ``max_pages_per_probe`` is
    hit.  With ``paginate=False`` only the first page of each probe is
    taken and the report flags the under-coverage.

    With ``resumable=True`` a transient/budget/resilience failure does
    not discard the probes already paid for: the run raises
    :class:`~repro.sampling.checkpoint.CollectionInterrupted` carrying
    a :class:`~repro.sampling.checkpoint.CollectionCheckpoint`, and a
    later call with ``checkpoint=`` continues exactly where it stopped,
    re-issuing no completed probe.  By default (``resumable=False``)
    failures propagate unchanged, as they always did.
    """
    rows, report = _extract(
        webdb,
        spanning_attribute,
        paginate=paginate,
        max_pages_per_probe=max_pages_per_probe,
        resumable=resumable,
        checkpoint=checkpoint,
    )
    local = Table(webdb.schema)
    local.extend(rows)
    return local, report


def collect_sample(
    webdb: AutonomousWebDatabase,
    size: int,
    rng: random.Random,
    spanning_attribute: str | None = None,
) -> tuple[Table, CollectionReport]:
    """Simple random sample (without replacement) of the reachable tuples.

    When ``size`` is at least the number of reachable tuples the full
    extraction is returned unchanged.  Only the returned table is
    built: the extraction stays a list of rows.
    """
    if size <= 0:
        raise ValueError("sample size must be positive")
    rows, report = _extract(webdb, spanning_attribute)
    sample = Table(webdb.schema)
    if size >= len(rows):
        sample.extend(rows)
        return sample, report
    chosen = rng.sample(range(len(rows)), size)
    sample.extend([rows[index] for index in sorted(chosen)])
    report.notes.append(f"subsampled {size} of {len(rows)} extracted tuples")
    report.tuples_collected = len(sample)
    return sample, report


def _extract(
    webdb: AutonomousWebDatabase,
    spanning_attribute: str | None,
    paginate: bool = True,
    max_pages_per_probe: int = 1000,
    resumable: bool = False,
    checkpoint: CollectionCheckpoint | None = None,
) -> tuple[list[tuple], CollectionReport]:
    """Every reachable row, in collection order, and the run's report.

    Each page (and a checkpoint's carried-over rows, before the first
    probe) is validated against the source schema as it arrives, so a
    bad row fails on the page that returned it, before any later probe.
    """
    if checkpoint is not None:
        if (
            spanning_attribute is not None
            and spanning_attribute != checkpoint.spanning_attribute
        ):
            raise ValueError(
                "checkpoint was taken with spanning attribute "
                f"{checkpoint.spanning_attribute!r}, not {spanning_attribute!r}"
            )
        attribute = checkpoint.spanning_attribute
    else:
        attribute = spanning_attribute or choose_spanning_attribute(webdb)
    report = CollectionReport(spanning_attribute=attribute)
    schema = webdb.schema
    collected: list[tuple] = []
    start_index = 0
    start_offset = 0
    if checkpoint is not None:
        collected = schema.validate_rows(checkpoint.rows)
        report.probes_issued = checkpoint.probes_issued
        report.truncated_probes = checkpoint.truncated_probes
        report.pages_followed = checkpoint.pages_followed
        start_index = checkpoint.next_query_index
        start_offset = checkpoint.next_offset
        report.notes.append(
            f"resumed from checkpoint: spanning query {start_index}, "
            f"offset {start_offset}, {len(checkpoint.rows)} rows carried over"
        )
        if OBS.enabled:
            OBS.registry.counter(
                "repro_sampling_resumes_total",
                "Collection runs resumed from a checkpoint.",
            ).inc()
    for query_index, query in enumerate(
        categorical_spanning_queries(webdb, attribute)
    ):
        if query_index < start_index:
            continue
        offset = start_offset if query_index == start_index else 0
        pages = 0
        while True:
            try:
                result = webdb.query(query, offset=offset)
            except (
                TransientSourceError,
                ProbeLimitExceededError,
                ResilienceError,
            ) as exc:
                if not resumable:
                    raise
                position = CollectionCheckpoint(
                    spanning_attribute=attribute,
                    next_query_index=query_index,
                    next_offset=offset,
                    rows=tuple(collected),
                    probes_issued=report.probes_issued,
                    truncated_probes=report.truncated_probes,
                    pages_followed=report.pages_followed,
                )
                if OBS.enabled:
                    OBS.registry.counter(
                        "repro_sampling_interruptions_total",
                        "Resumable collection runs interrupted, by error.",
                        labels=("error",),
                    ).labels(error=type(exc).__name__).inc()
                raise CollectionInterrupted(position, reason=str(exc)) from exc
            report.probes_issued += 1
            collected.extend(schema.validate_rows(result))
            offset += len(result)
            pages += 1
            if not result.truncated:
                break
            if not paginate or pages >= max_pages_per_probe:
                report.truncated_probes += 1
                break
            report.pages_followed += 1
    report.tuples_collected = len(collected)
    if report.truncated_probes:
        report.notes.append(
            f"{report.truncated_probes} probes were left truncated by the "
            "source's result cap; the extracted set under-covers the relation"
        )
    return collected, report


def nested_samples(
    source: Table, sizes: list[int], rng: random.Random
) -> dict[int, Table]:
    """Nested random subsets of ``source``, one per requested size.

    The largest size's row set contains every smaller one, so apparent
    differences across sizes reflect sample size, not draw luck — the
    property the robustness experiments want to isolate.  Sizes above
    ``len(source)`` are clamped.
    """
    if not sizes:
        return {}
    if any(size <= 0 for size in sizes):
        raise ValueError("sample sizes must be positive")
    ordering = list(range(len(source)))
    rng.shuffle(ordering)
    samples: dict[int, Table] = {}
    for size in sorted(set(sizes)):
        clamped = min(size, len(source))
        samples[size] = source.sample(sorted(ordering[:clamped]))
    return samples
