"""Oracle for ``repro.sampling.collector``.

The collector that inserted every probed row into a full, indexed
local table one ``Table.insert`` at a time, then copied the sample out
of it with the per-row ``Table.sample`` loop (``sample_per_row``, the
one line not kept verbatim).  ``collect_sample`` now keeps the
extraction as a list of validated rows and builds only the table it
returns (docs/PERFORMANCE.md §12).
"""

from __future__ import annotations

import random

from repro.db.errors import ProbeLimitExceededError, TransientSourceError
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.obs.runtime import OBS
from repro.resilience.errors import ResilienceError
from repro.sampling.checkpoint import CollectionCheckpoint, CollectionInterrupted
from repro.sampling.collector import CollectionReport
from repro.sampling.spanning import (
    categorical_spanning_queries,
    choose_spanning_attribute,
)
from tests.oracles.table import sample_per_row


def probe_all_full_table(
    webdb: AutonomousWebDatabase,
    spanning_attribute: str | None = None,
    paginate: bool = True,
    max_pages_per_probe: int = 1000,
    resumable: bool = False,
    checkpoint: CollectionCheckpoint | None = None,
) -> tuple[Table, CollectionReport]:
    """Materialise every reachable tuple via spanning probes."""
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
    local = Table(webdb.schema)
    collected: list[tuple] = []
    start_index = 0
    start_offset = 0
    if checkpoint is not None:
        for row in checkpoint.rows:
            local.insert(row)
            collected.append(row)
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
            for row in result:
                local.insert(row)
                collected.append(row)
            offset += len(result)
            pages += 1
            if not result.truncated:
                break
            if not paginate or pages >= max_pages_per_probe:
                report.truncated_probes += 1
                break
            report.pages_followed += 1
    report.tuples_collected = len(local)
    if report.truncated_probes:
        report.notes.append(
            f"{report.truncated_probes} probes were left truncated by the "
            "source's result cap; the extracted set under-covers the relation"
        )
    return local, report


def collect_sample_full_table(
    webdb: AutonomousWebDatabase,
    size: int,
    rng: random.Random,
    spanning_attribute: str | None = None,
) -> tuple[Table, CollectionReport]:
    """Simple random sample (without replacement) of the reachable tuples.

    When ``size`` is at least the number of reachable tuples the full
    extraction is returned unchanged.
    """
    if size <= 0:
        raise ValueError("sample size must be positive")
    full, report = probe_all_full_table(webdb, spanning_attribute)
    if size >= len(full):
        return full, report
    chosen = rng.sample(range(len(full)), size)
    sample = sample_per_row(full, sorted(chosen))
    report.notes.append(f"subsampled {size} of {len(full)} extracted tuples")
    report.tuples_collected = len(sample)
    return sample, report
