"""Unit tests for the committed-baseline gate and the history trail.

These run on hand-built report dicts — no benchmark execution — so the
gate's decay arithmetic, scale-mismatch refusal, and skip rules are
pinned independently of how fast the machine happens to be.
"""

import json
from pathlib import Path

from repro.perf import append_history, check_baseline, load_report

REPO_ROOT = Path(__file__).resolve().parents[2]


def _report(scale="smoke", **scenarios):
    return {
        "scale": scale,
        "python": "3.x",
        "scenarios": {
            name: {"speedup": speedup, "equivalent": equivalent}
            for name, (speedup, equivalent) in scenarios.items()
        },
    }


def test_baseline_passes_when_speedups_hold():
    baseline = _report(a=(2.0, True), b=(1.5, True))
    report = _report(a=(1.9, True), b=(1.7, True))
    assert check_baseline(report, baseline) == []


def test_baseline_fails_on_speedup_decay():
    baseline = _report(a=(2.0, True))
    report = _report(a=(1.2, True))
    failures = check_baseline(report, baseline, max_regression=0.25)
    assert len(failures) == 1
    assert "a" in failures[0]
    assert "decayed" in failures[0]


def test_baseline_tolerates_decay_within_max_regression():
    baseline = _report(a=(2.0, True))
    # Floor is 2.0 / 1.25 = 1.6; exactly at the floor passes.
    assert check_baseline(_report(a=(1.6, True)), baseline) == []
    assert check_baseline(_report(a=(1.59, True)), baseline) != []


def test_baseline_fails_when_equivalence_is_lost():
    baseline = _report(a=(2.0, True))
    report = _report(a=(3.0, False))
    failures = check_baseline(report, baseline)
    assert len(failures) == 1
    assert "no longer equivalent" in failures[0]


def test_baseline_skips_new_and_non_equivalent_baseline_scenarios():
    baseline = _report(flaky=(2.0, False))
    report = _report(flaky=(0.1, False), brand_new=(0.1, True))
    assert check_baseline(report, baseline) == []


def test_baseline_refuses_scale_mismatch():
    baseline = _report(scale="default", a=(2.0, True))
    report = _report(scale="smoke", a=(2.0, True))
    failures = check_baseline(report, baseline)
    assert len(failures) == 1
    assert "scale mismatch" in failures[0]


def test_append_history_writes_one_compact_line_per_run(tmp_path):
    path = tmp_path / "history.jsonl"
    first = _report(a=(2.0, True))
    second = _report(a=(2.1, True), b=(1.4, False))
    append_history(first, str(path))
    appended = append_history(second, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    last = json.loads(lines[1])
    assert last == appended
    assert last["scale"] == "smoke"
    assert last["scenarios"]["b"] == {"speedup": 1.4, "equivalent": False}
    # Timings are deliberately not recorded — only the portable ratios.
    assert "results" not in last


def test_load_report_round_trips(tmp_path):
    path = tmp_path / "report.json"
    report = _report(a=(2.0, True))
    path.write_text(json.dumps(report), encoding="utf-8")
    assert load_report(str(path)) == report


def test_committed_baseline_matches_the_gate_scale():
    # The CI gate runs at smoke scale; a baseline committed at any
    # other scale would make every CI run fail on the mismatch refusal.
    baseline = load_report(str(REPO_ROOT / "BENCH_perf.json"))
    assert baseline["scale"] == "smoke"
    for name, entry in baseline["scenarios"].items():
        assert entry["equivalent"], name


def test_every_baseline_scenario_is_registered():
    # check_baseline only judges scenarios a run reports, so a baseline
    # entry without a registered scenario is dead weight nobody gates.
    import repro.serve.bench  # noqa: F401 — registers serve_load on import
    from repro.perf.bench import SCENARIOS

    baseline = load_report(str(REPO_ROOT / "BENCH_perf.json"))
    assert set(baseline["scenarios"]) <= set(SCENARIOS)
