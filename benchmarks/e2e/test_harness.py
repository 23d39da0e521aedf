"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repository root.  The smoke tests run every workload at the ``tiny``
scale in fresh processes, exactly as the benchmark command does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from benchmarks.e2e import trace as trace_module
from benchmarks.e2e.cli import DEFAULT_SECONDS
from benchmarks.e2e.compare import compare_results
from benchmarks.e2e.runner import END_TO_END, PER_LAYER
from benchmarks.e2e.stats import percentile, supported_tail
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import (
    SCALES,
    WORKLOADS,
    AnswerBroad,
    GatherFig6,
    ServeZipf,
)

ROOT = Path(__file__).resolve().parents[2]
TINY = SCALES["tiny"]


def run_benchmark(*args: str, src: Path | None = None) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "benchmarks.e2e", "--scale", "tiny", *args]
    if src is not None:
        command += ["--src", str(src)]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


# -- statistics --------------------------------------------------------------


@pytest.mark.parametrize(
    ("samples", "expected"),
    [(9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert supported_tail(samples) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 50.0) == 5.5
    assert percentile(values, 90.0) == pytest.approx(9.1)
    assert percentile(values, 100.0) == 10.0
    assert percentile([3.0], 99.0) == 3.0


# -- self time ------------------------------------------------------------------


@pytest.fixture()
def fake_clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(trace_module.time, "perf_counter", lambda: now[0])
    return now


def self_time(summary, name: str) -> float:
    return summary.self_seconds((name,))


def test_self_time_subtracts_nested_children(fake_clock):
    tracer = Tracer()
    fake_clock[0] = 0.0
    outer = tracer.begin("outer")
    fake_clock[0] = 1.0
    first = tracer.begin("child")
    fake_clock[0] = 3.0
    grandchild = tracer.begin("grandchild")
    fake_clock[0] = 3.5
    tracer.end(grandchild)
    fake_clock[0] = 4.0
    tracer.end(first)
    fake_clock[0] = 6.0
    with tracer.span("child"):
        fake_clock[0] = 7.0
    fake_clock[0] = 10.0
    tracer.end(outer)

    summary = tracer.summary()
    assert self_time(summary, "outer") == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(summary, "child") == pytest.approx(3.0 - 0.5 + 1.0)
    assert self_time(summary, "grandchild") == pytest.approx(0.5)
    assert summary.total_self() == pytest.approx(10.0)
    assert summary.children_of("child", "outer") == 2


def test_self_time_does_not_cross_threads(fake_clock):
    """A span running on another thread meanwhile is no child: it must
    not be subtracted from the span open on the first thread."""
    tracer = Tracer()
    with ThreadPoolExecutor(1) as first, ThreadPoolExecutor(1) as second:

        def at(when, pool, fn, *args):
            fake_clock[0] = when
            return pool.submit(fn, *args).result(timeout=10)

        outer = at(0.0, first, tracer.begin, "outer")
        other = at(1.0, second, tracer.begin, "other")
        inner = at(2.0, first, tracer.begin, "inner")
        at(5.0, first, tracer.end, inner)
        other_child = at(5.5, second, tracer.begin, "other.child")
        at(5.75, second, tracer.end, other_child)
        at(6.0, second, tracer.end, other)
        at(10.0, first, tracer.end, outer)

    summary = tracer.summary()
    assert self_time(summary, "outer") == pytest.approx(7.0)
    assert self_time(summary, "inner") == pytest.approx(3.0)
    assert self_time(summary, "other") == pytest.approx(5.0 - 0.25)
    assert self_time(summary, "other.child") == pytest.approx(0.25)
    assert summary.children_of("other.child", "other") == 1
    assert summary.children_of("other", "outer") == 0


def test_traced_iterator_times_each_step_and_counts_exhaustion(fake_clock):
    tracer = Tracer()
    steps = tracer.wrap_iter(lambda n: iter(range(n)), "steps")
    assert list(steps(3)) == [0, 1, 2]
    summary = tracer.summary()
    assert summary.calls("steps") == 4
    assert summary.counts["steps.exhausted"] == 1


# -- open loop ----------------------------------------------------------------


class _StallingRouter:
    """Answers instantly except the first request, which stalls."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def route(self, method, path, params):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return object()


def test_open_loop_charges_a_stall_to_the_requests_due_after_it():
    workload = ServeZipf(0, TINY)
    workload.rate = 100.0  # one request due every 10 ms
    workload.pool = [{}]
    workload.stream = [0] * 50
    workload.router = _StallingRouter(stall=0.2)
    ops = workload.measure(0.5)

    assert len(ops) == 50
    stalled, delayed = ops[0], ops[1:10]
    assert stalled.latency_s >= 0.2
    for op in delayed:
        # Sent late, and its latency counts from when it was due.
        assert op.lag_s >= 0.2 - 0.01 * op.index - 0.005
        assert op.latency_s >= op.lag_s + op.service_s - 1e-6
    assert min(op.lag_s for op in ops[-10:]) < 0.005  # the backlog drained


# -- inputs come from the seed ---------------------------------------------------


def stream_of(workload_cls, seed):
    workload = workload_cls(seed, TINY)
    workload.inputs()
    if workload_cls is ServeZipf:
        return [q.describe() for q in workload.queries], workload.stream[:200]
    if workload_cls is AnswerBroad:
        return [q.describe() for q in workload.stream]
    return workload.stream


@pytest.mark.parametrize("workload_cls", [AnswerBroad, GatherFig6, ServeZipf])
def test_same_seed_same_inputs_other_seed_other_inputs(workload_cls):
    assert stream_of(workload_cls, 3) == stream_of(workload_cls, 3)
    assert stream_of(workload_cls, 3) != stream_of(workload_cls, 4)


# -- the command ------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["run_seconds"] == DEFAULT_SECONDS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize(("trace", "units"), [("0", END_TO_END), ("1", PER_LAYER)])
def test_smoke_every_workload_prints_every_metric(trace, units):
    completed = run_benchmark("--workload", "all", "--seconds", "1", "--trace", trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for name, unit in units.items():
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], float | int)
    printed = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert f"{name} " in printed and f" {unit}" in printed


def test_a_perturbed_answer_fails_the_command(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    scorer = src / "repro" / "core" / "similarity.py"
    text = scorer.read_text(encoding="utf-8")
    exact = "            total += weight * value_score(row[position])\n        return total\n"
    assert exact in text
    scorer.write_text(
        text.replace(exact, exact.replace("return total", "return total + 1e-6")),
        encoding="utf-8",
    )
    completed = run_benchmark("--workload", "answer_broad", "--seconds", "1", src=src)
    assert completed.returncode != 0
    result = json.loads(completed.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    completed = run_benchmark("--workload", "gather_fig6", src=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


# -- paired comparison ------------------------------------------------------------


def record(seed, value, digest="d"):
    return {
        "workload": "answer_broad",
        "seed": seed,
        "trace": 0,
        "correct": True,
        "failed": 0,
        "digest": digest,
        "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
    }


SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    ]
}


@pytest.mark.parametrize(
    ("head_values", "verdict"),
    [
        ([80, 81, 79, 80, 82, 80, 81, 79, 80, 80], "better"),
        ([100, 101, 99, 100, 102, 100, 101, 99, 100, 100], "no-worse"),
        ([120, 121, 119, 120, 122, 120, 121, 119, 120, 120], "regressed"),
        ([60, 140, 70, 130, 60, 140, 70, 130, 100, 100], "unresolved"),
    ],
)
def test_compare_verdicts(head_values, verdict):
    base = [record(s, v) for s, v in enumerate([100, 101, 99, 100, 102, 100, 101, 99, 100, 100])]
    head = [record(s, v) for s, v in enumerate(head_values)]
    verdicts, problems = compare_results(base, head, SPEC)
    assert problems == []
    assert [v.verdict for v in verdicts] == [verdict]


def test_compare_requires_identical_digests():
    _, problems = compare_results([record(0, 100)], [record(0, 100, digest="e")], SPEC)
    assert problems == ["answer_broad seed 0: answer digests differ"]
