"""Paired comparison of two sets of benchmark results.

Applies the acceptance rule of the benchmark: for every end-to-end
metric on every workload, each side's median and quartiles, the share
of paired runs the head side wins, and one verdict:

``better``      the head wins at least 9 in 10 pairs and the medians
                differ by more than the base runs' interquartile range;
``regressed``   the head's median is worse than the base's by more than
                the metric's bound in ``BENCHMARK.json``;
``unresolved``  either side's runs spread wider than the bound (unless
                every head run beats every base run);
``no-worse``    otherwise.

Both sides must have produced identical answer digests for every seed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from benchmarks.e2e.stats import quartiles, relative_iqr

__all__ = ["Verdict", "compare_results", "format_verdicts", "load_results"]

WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    workload: str
    metric: str
    unit: str
    base: tuple[float, float, float]  # q1, median, q3
    head: tuple[float, float, float]
    change: float  # signed relative change of the median, positive = worse
    win_share: float
    bound: float
    verdict: str


def load_results(directory: Path) -> list[dict[str, Any]]:
    """Every untraced run record (``--out`` files) under ``directory``."""
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "workload" in record and not record.get("trace"):
            records.append(record)
    return records


def _judge(
    base: list[float], head: list[float], better: str, bound: float
) -> tuple[float, float, str]:
    sign = 1.0 if better == "lower" else -1.0
    base_q, head_q = quartiles(base), quartiles(head)
    change = sign * (head_q[1] - base_q[1]) / abs(base_q[1]) if base_q[1] else 0.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    every_better = all(sign * (h - b) < 0 for h in head for b in base)
    if max(relative_iqr(base), relative_iqr(head)) > bound and not every_better:
        return change, win_share, "unresolved"
    if win_share >= WIN_SHARE and abs(head_q[1] - base_q[1]) > base_q[2] - base_q[0]:
        return change, win_share, "better"
    if change > bound:
        return change, win_share, "regressed"
    return change, win_share, "no-worse"


def compare_results(
    base: list[dict[str, Any]],
    head: list[dict[str, Any]],
    spec: dict[str, Any],
) -> tuple[list[Verdict], list[str]]:
    """Verdicts for every metric x workload pair, and the problems that
    void the comparison (digest mismatches, failed or incorrect runs)."""
    problems: list[str] = []
    digests: dict[tuple[str, int], set[str]] = defaultdict(set)
    for side, records in (("base", base), ("head", head)):
        for record in records:
            digests[(record["workload"], record["seed"])].add(record["digest"])
            if not record["correct"] or record["failed"]:
                problems.append(
                    f"{side} {record['workload']} seed {record['seed']}: "
                    f"incorrect or failed run"
                )
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: answer digests differ")

    def grouped(records: list[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
        by_workload: dict[str, list[dict[str, Any]]] = defaultdict(list)
        for record in records:
            by_workload[record["workload"]].append(record)
        for runs in by_workload.values():
            runs.sort(key=lambda record: record["seed"])
        return by_workload

    base_runs, head_runs = grouped(base), grouped(head)
    verdicts = []
    for workload in sorted(set(base_runs) & set(head_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base_runs[workload]]
            head_values = [r["metrics"][name]["value"] for r in head_runs[workload]]
            change, win_share, verdict = _judge(
                base_values, head_values, metric["better"], metric["bound"]
            )
            verdicts.append(
                Verdict(
                    workload=workload,
                    metric=name,
                    unit=metric["unit"],
                    base=quartiles(base_values),
                    head=quartiles(head_values),
                    change=change,
                    win_share=win_share,
                    bound=metric["bound"],
                    verdict=verdict,
                )
            )
    for workload in sorted(set(base_runs) ^ set(head_runs)):
        problems.append(f"{workload}: runs on one side only")
    return verdicts, problems


def format_verdicts(verdicts: list[Verdict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<18} {'base median [q1, q3]':>30} "
        f"{'head median [q1, q3]':>30} {'change':>8} {'wins':>5} {'bound':>6}  verdict"
    ]
    for v in verdicts:
        base = f"{v.base[1]:.4g} [{v.base[0]:.4g}, {v.base[2]:.4g}]"
        head = f"{v.head[1]:.4g} [{v.head[0]:.4g}, {v.head[2]:.4g}]"
        lines.append(
            f"{v.workload:<14} {v.metric:<18} {base:>30} {head:>30} "
            f"{v.change:>+8.1%} {v.win_share:>5.0%} {v.bound:>6.0%}  {v.verdict}"
        )
    return "\n".join(lines)
