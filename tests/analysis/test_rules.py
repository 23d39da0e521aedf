"""Golden-fixture tests: every rule fires on its bad twin, not its good one."""

from pathlib import Path

import pytest

from repro.analysis import LintEngine, all_rules, load_project, rule_ids

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "REP001": ("rep001_bad.py", "rep001_good.py"),
    "REP002": ("rep002_bad.py", "rep002_good.py"),
    "REP003": ("rep003_bad", "rep003_good"),
    "REP004": ("rep004_bad.py", "rep004_good.py"),
    "REP005": ("rep005_bad.py", "rep005_good.py"),
    "REP006": ("rep006_bad.py", "rep006_good.py"),
    "REP007": ("rep007_bad.py", "rep007_good.py"),
    "REP008": ("rep008_bad.py", "rep008_good.py"),
    "REP009": ("rep009_bad.py", "rep009_good.py"),
    "REP010": ("rep010_bad.py", "rep010_good.py"),
}


def run_rule(rule_id: str, target: Path):
    engine = LintEngine(all_rules([rule_id]))
    return engine.run([target])


def test_every_shipped_rule_has_a_fixture_pair():
    assert set(RULE_FIXTURES) == set(rule_ids())
    for bad, good in RULE_FIXTURES.values():
        assert (FIXTURES / bad).exists()
        assert (FIXTURES / good).exists()


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_bad_fixture_triggers_rule(rule_id):
    bad, _ = RULE_FIXTURES[rule_id]
    run = run_rule(rule_id, FIXTURES / bad)
    assert run.findings, f"{rule_id} found nothing in {bad}"
    assert {f.rule_id for f in run.findings} == {rule_id}
    for finding in run.findings:
        assert finding.line > 0
        assert finding.message
        assert finding.hint


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_good_fixture_is_clean_under_all_rules(rule_id):
    _, good = RULE_FIXTURES[rule_id]
    engine = LintEngine()
    run = engine.run([FIXTURES / good])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep001_reports_each_violation_kind():
    run = run_rule("REP001", FIXTURES / "rep001_bad.py")
    messages = " ".join(f.message for f in run.findings)
    assert "iterating a set" in messages
    assert "random" in messages
    assert "wall-clock" in messages


def test_rep001_flags_posting_set_traversal():
    # The inverted-index idiom: partner sets gathered from posting
    # lists must be sorted before they feed an ordered pair list.
    run = run_rule("REP001", FIXTURES / "rep001_bad.py")
    set_iterations = [
        f for f in run.findings if "iterating a set" in f.message
    ]
    assert len(set_iterations) == 2  # the ranked() loop + the posting loop


def test_rep003_reports_facade_and_cycle():
    run = run_rule("REP003", FIXTURES / "rep003_bad")
    messages = " ".join(f.message for f in run.findings)
    assert "facade" in messages
    assert "cycle" in messages
    assert "upward import" in messages


def test_rep003_flags_core_importing_serve():
    run = run_rule("REP003", FIXTURES / "rep003_serve_bad")
    assert run.findings, "core -> serve import was not flagged"
    messages = " ".join(f.message for f in run.findings)
    assert "upward import" in messages
    assert "repro.core (layer 4)" in messages
    assert "repro.serve.admission (layer 6)" in messages


def test_rep003_serve_good_fixture_is_clean_under_all_rules():
    run = LintEngine().run([FIXTURES / "rep003_serve_good"])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep003_flags_simmining_importing_core():
    run = run_rule("REP003", FIXTURES / "rep003_simmining_bad")
    assert run.findings, "simmining -> core import was not flagged"
    messages = " ".join(f.message for f in run.findings)
    assert "upward import" in messages
    assert "repro.simmining (layer 2)" in messages
    assert "repro.core.engine (layer 4)" in messages


def test_rep003_simmining_good_fixture_is_clean_under_all_rules():
    run = LintEngine().run([FIXTURES / "rep003_simmining_good"])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep006_flags_retry_loops_swallowing_permanent_errors():
    run = run_rule("REP006", FIXTURES / "rep006_retry_bad.py")
    assert len(run.findings) == 2
    messages = " ".join(f.message for f in run.findings)
    assert "retry loop" in messages
    assert "QueryError" in messages
    assert "ProbeLimitExceededError" in messages


def test_rep006_retry_good_fixture_is_clean_under_all_rules():
    run = LintEngine().run([FIXTURES / "rep006_retry_good.py"])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep004_flags_probelog_fabrication():
    run = run_rule("REP004", FIXTURES / "rep004_fabricate_bad.py")
    assert len(run.findings) == 5
    messages = " ".join(f.message for f in run.findings)
    assert "ProbeLog.record()" in messages
    assert "ProbeLog.record_cache_hit()" in messages
    assert "ProbeLog.record_count()" in messages
    assert "mutation of ProbeLog.probes_issued" in messages
    assert "probes_subsumed" in messages


def test_rep004_fabricate_good_fixture_is_clean_under_all_rules():
    run = LintEngine().run([FIXTURES / "rep004_fabricate_good.py"])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep004_flags_index_posting_internals():
    run = run_rule("REP004", FIXTURES / "rep004_postings_bad.py")
    messages = " ".join(f.message for f in run.findings)
    for attr in ("_posting_sets", "_buckets", "_serving_index"):
        assert f"({attr})" in messages
    assert len(run.findings) == 3


def test_rep005_flags_event_hygiene_violations():
    run = run_rule("REP005", FIXTURES / "rep005_events_bad.py")
    assert len(run.findings) == 6
    messages = " ".join(f.message for f in run.findings)
    assert "'Engine.Answer'" in messages
    assert "'answer'" in messages
    assert "constant string" in messages
    assert "'probesIssued'" in messages
    assert "'Total'" in messages
    assert "ad-hoc wide event" in messages


def test_rep005_events_good_fixture_is_clean_under_all_rules():
    run = LintEngine().run([FIXTURES / "rep005_events_good.py"])
    assert run.findings == [], [f.render() for f in run.findings]


def test_rep007_reports_unguarded_and_escaping_writes():
    run = run_rule("REP007", FIXTURES / "rep007_bad.py")
    messages = " ".join(f.message for f in run.findings)
    assert "'_budget'" in messages
    assert "'_issued'" in messages
    assert "no lock held" in messages
    assert "worker thread" in messages


def test_rep008_names_the_conflicting_site():
    run = run_rule("REP008", FIXTURES / "rep008_bad.py")
    assert len(run.findings) == 2
    messages = " ".join(f.message for f in run.findings)
    assert "_CACHE_LOCK" in messages
    assert "_STATS_LOCK" in messages
    assert "opposite order" in messages
    assert "deadlock" in messages


def test_rep009_labels_each_blocking_kind():
    run = run_rule("REP009", FIXTURES / "rep009_bad.py")
    messages = " ".join(f.message for f in run.findings)
    assert "probe dispatch 'webdb.query()'" in messages
    assert "time.sleep()" in messages
    assert "executor '.submit()'" in messages
    assert "executor '.result()'" in messages


def test_rep010_reports_payload_and_callable_crossings():
    run = run_rule("REP010", FIXTURES / "rep010_bad.py")
    assert len(run.findings) == 2
    messages = " ".join(f.message for f in run.findings)
    assert "EventLog" in messages
    assert "RelaxationTrace" in messages
    assert "argument payload" in messages
    assert "as the callable" in messages


def test_db_package_blocks_under_no_lock_and_suppresses_nothing():
    import repro

    db = Path(repro.__file__).resolve().parent / "db"
    run = LintEngine(all_rules(["REP009"])).run([db])
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.suppressed == [], [f.render() for f in run.suppressed]
    for path in sorted(db.rglob("*.py")):
        assert "reprolint: disable" not in path.read_text(encoding="utf-8"), path


def test_suppression_comment_silences_a_finding(tmp_path):
    source = FIXTURES / "rep006_bad.py"
    patched = tmp_path / "patched.py"
    text = source.read_text(encoding="utf-8").replace(
        "    except Exception:",
        "    except Exception:  # reprolint: disable=REP006",
    )
    patched.write_text(text, encoding="utf-8")
    run = LintEngine(all_rules(["REP006"])).run([patched])
    assert len(run.suppressed) == 1
    assert len(run.findings) == 1  # the bare except is still reported


def test_unknown_rule_id_is_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        all_rules(["REP999"])


def test_parse_error_becomes_rep000_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    run = LintEngine().run([broken])
    assert [f.rule_id for f in run.findings] == ["REP000"]
    assert run.findings[0].severity.value == "error"


def test_repo_source_tree_is_clean():
    import repro

    package = Path(repro.__file__).resolve().parent
    run = LintEngine().run([package])
    assert run.findings == [], [f.render() for f in run.findings]


def test_module_names_derive_from_repro_root():
    project = load_project([FIXTURES / "rep003_bad"])
    names = sorted(m.module for m in project.modules)
    assert names == ["repro.core.engine", "repro.db.table"]
