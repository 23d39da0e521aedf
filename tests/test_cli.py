"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.parser import parse_binding


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "cardb", "--rows", "50", "--out", "x.csv"]
        )
        assert args.dataset == "cardb" and args.rows == 50

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nope", "--out", "x.csv"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig5"])
        assert args.name == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestParseBinding:
    def test_string_value(self):
        assert parse_binding("Model=Camry") == ("Model", "Camry")

    def test_int_value(self):
        assert parse_binding("Price=10000") == ("Price", 10000)

    def test_float_value(self):
        assert parse_binding("Price=99.5") == ("Price", 99.5)

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="must look like Attribute=Value"):
            parse_binding("Model")


class TestCommands:
    def test_generate_cardb(self, tmp_path, capsys):
        out = tmp_path / "cars.csv"
        code = main(
            ["generate", "cardb", "--rows", "40", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "wrote 40 rows" in capsys.readouterr().out

    def test_generate_censusdb_with_labels(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        labels = tmp_path / "labels.txt"
        code = main(
            [
                "generate",
                "censusdb",
                "--rows",
                "30",
                "--out",
                str(out),
                "--labels-out",
                str(labels),
            ]
        )
        assert code == 0
        assert len(labels.read_text().splitlines()) == 30

    def test_mine_prints_ordering(self, capsys):
        code = main(
            ["mine", "cardb", "--rows", "1200", "--sample", "500"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Attribute ordering" in output
        assert "DependencyModel" in output

    def test_mine_save_and_query_from_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "mine",
                    "cardb",
                    "--rows",
                    "1500",
                    "--sample",
                    "600",
                    "--save",
                    str(model_path),
                ]
            )
            == 0
        )
        assert model_path.exists()
        capsys.readouterr()
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "1500",
                "--model",
                str(model_path),
                "-k",
                "3",
                "Model=Camry",
                "Price=9000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Camry" in output and "sim=" in output

    def test_query_without_model(self, capsys):
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "1500",
                "--sample",
                "600",
                "-k",
                "3",
                "Make=Honda",
            ]
        )
        assert code == 0
        assert "Answers for" in capsys.readouterr().out

    def test_query_unknown_attribute_fails_cleanly(self, capsys):
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "1200",
                "--sample",
                "500",
                "Nope=1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_text_form(self, capsys):
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "1500",
                "--sample",
                "600",
                "-k",
                "3",
                "--text",
                "Model like Camry AND Price < 12000",
            ]
        )
        assert code == 0
        assert "Camry" in capsys.readouterr().out

    def test_query_text_and_pairs_conflict(self, capsys):
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "1200",
                "--sample",
                "500",
                "--text",
                "Model like Camry",
                "Price=9000",
            ]
        )
        assert code == 2

    def test_query_without_any_constraint(self, capsys):
        code = main(["query", "cardb", "--rows", "1200", "--sample", "500"])
        assert code == 2

    @pytest.mark.parametrize("command", ["query", "trace"])
    @pytest.mark.parametrize(
        "flags",
        [["--batched"], ["--frontier", "all"], ["--batch-workers", "4"]],
    )
    def test_planner_flags_are_rejected(self, command, flags, capsys):
        code = main(
            [
                command,
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                *flags,
                "Make=Ford",
            ]
        )
        assert code == 2
        assert "must look like Attr=Value" in capsys.readouterr().err

    def test_experiment_table1(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        assert "Make=Ford" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["query", "trace", "stats"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_fails_cleanly(self, command, k, capsys):
        from repro.obs import OBS

        argv = [command, "cardb", "--rows", "300", "--sample", "100", "-k", k]
        if command != "stats":
            argv.append("Make=Ford")
        try:
            code = main(argv)
        finally:
            OBS.reset()
        assert code == 2
        assert "k must be at least 1" in capsys.readouterr().err

    def test_bench_is_not_a_command(self, capsys):
        # Performance is measured end to end (python3 -m benchmarks.e2e);
        # the CLI has no micro-benchmark command.
        with pytest.raises(SystemExit) as exited:
            main(["bench"])
        assert exited.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _isolate_obs(self):
        from repro.obs import OBS

        OBS.reset()
        yield
        OBS.reset()

    def test_stats_emits_both_formats(self, capsys):
        code = main(
            ["stats", "cardb", "--rows", "300", "--sample", "120", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"metrics"' in out  # JSON section
        assert "# TYPE" in out  # Prometheus section
        for prefix in (
            "repro_db_",
            "repro_afd_",
            "repro_simmining_",
            "repro_core_",
        ):
            assert prefix in out

    def test_stats_writes_json_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "snapshot.json"
        code = main(
            [
                "stats",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "120",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["metrics"]

    def test_trace_flag_prints_span_tree(self, capsys):
        code = main(
            [
                "--trace",
                "query",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "120",
                "-k",
                "3",
                "Make=Ford",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline.build_model" in out
        assert "engine.answer" in out
        assert "engine.base_query_mapping" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "cardb", "--rows", "300", "--sample", "120", "-k", "3"],
            ["trace", "cardb", "--rows", "300", "--sample", "120", "Make=Ford"],
            ["--trace", "query", "cardb", "--rows", "300", "--sample", "120",
             "Make=Ford"],
        ],
        ids=["stats", "trace", "query-trace"],
    )
    def test_main_switches_observability_back_off(self, argv, capsys):
        from repro.obs import OBS

        assert OBS.enabled is False
        assert main(argv) == 0
        assert OBS.enabled is False

    def test_each_trace_run_prints_only_its_own_answer_tree(self, capsys):
        argv = [
            "--trace", "query", "cardb", "--rows", "300", "--sample", "120",
            "-k", "3", "Make=Ford",
        ]
        for _ in range(2):
            assert main(argv) == 0
            roots = [
                line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("engine.answer ")
            ]
            assert len(roots) == 1

    def test_metrics_out_flag_writes_prometheus(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(
            [
                "--metrics-out",
                str(out),
                "--metrics-format",
                "prom",
                "mine",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "120",
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "# TYPE repro_db_probe_seconds histogram" in text
        assert "repro_afd_partitions_computed_total" in text

    def test_stats_parser_defaults(self):
        args = build_parser().parse_args(["stats", "cardb"])
        assert args.format == "both" and args.k == 10
        assert args.trace is False and args.metrics_out is None


class TestWideEventsCli:
    """The PR 6 acceptance path: query --trace --events-out --chrome-out."""

    @pytest.fixture(autouse=True)
    def _isolate_obs(self):
        from repro.obs import OBS

        OBS.reset()
        yield
        OBS.reset()

    def test_acceptance_invocation_yields_one_consistent_event(
        self, tmp_path, capsys
    ):
        import json

        events = tmp_path / "e.jsonl"
        chrome = tmp_path / "t.json"
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "--resilient",
                "--trace",
                "--events-out",
                str(events),
                "--chrome-out",
                str(chrome),
                "Make=Ford",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"events written to {events}" in out
        assert f"trace events written to {chrome}" in out
        records = [
            json.loads(line)
            for line in events.read_text(encoding="utf-8").splitlines()
            if line
        ]
        answers = [r for r in records if r["event"] == "engine.answer"]
        assert len(answers) == 1
        (event,) = answers
        assert event["dataset"] == "CarDB"
        assert event["resilient"] is True
        assert event["logical_probes"] == (
            event["probes_issued"]
            + event["probes_cached"]
            + event["probes_subsumed"]
        )
        assert event["trace_id"].startswith("t-")
        trace = json.loads(chrome.read_text(encoding="utf-8"))
        names = [e["name"] for e in trace["traceEvents"]]
        assert "engine.answer" in names
        # Every probe/retry span belongs to the answering trace.
        answer_args = next(
            e["args"]
            for e in trace["traceEvents"]
            if e["name"] == "engine.answer"
        )
        assert answer_args["trace_id"] == event["trace_id"]

    def test_obs_flags_accepted_before_the_subcommand(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        code = main(
            [
                "--events-out",
                str(events),
                "query",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "Make=Ford",
            ]
        )
        assert code == 0
        assert events.exists()
        assert "events written to" in capsys.readouterr().out

    def test_events_probe_flag_adds_probe_events(self, tmp_path, capsys):
        import json

        events = tmp_path / "e.jsonl"
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "--events-out",
                str(events),
                "--events-probe",
                "Make=Ford",
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in events.read_text(encoding="utf-8").splitlines()
            if line
        ]
        kinds = {r["event"] for r in records}
        assert "db.probe" in kinds and "engine.answer" in kinds

    def test_main_restores_event_flags(self, tmp_path):
        from repro.obs import OBS

        events = tmp_path / "e.jsonl"
        assert OBS.events.enabled is False
        code = main(
            [
                "query",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "--events-out",
                str(events),
                "--events-probe",
                "Make=Ford",
            ]
        )
        assert code == 0
        assert OBS.events.enabled is False
        assert OBS.events.probe_events is False


class TestTraceCommand:
    @pytest.fixture(autouse=True)
    def _isolate_obs(self):
        from repro.obs import OBS

        OBS.reset()
        yield
        OBS.reset()

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.dataset == "cardb" and args.k == 5
        assert args.tree is False and args.from_events is None

    def test_prints_summary_table_and_answer_event(self, capsys):
        code = main(
            [
                "trace",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "Make=Ford",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.answer" in out
        assert "total_s" in out  # summary table header
        assert '"event": "engine.answer"' in out

    def test_tree_flag_prints_the_span_tree(self, capsys):
        code = main(
            [
                "trace",
                "cardb",
                "--rows",
                "300",
                "--sample",
                "100",
                "--tree",
                "Make=Ford",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.answer" in out
        assert "engine.base_query_mapping" in out

    def test_from_events_summarises_an_existing_log(self, tmp_path, capsys):
        import json

        path = tmp_path / "e.jsonl"
        lines = [
            {"event": "db.probe", "rows": 3},
            {"event": "db.probe", "rows": 0},
            {"event": "engine.answer", "answers": 5, "probes_issued": 2},
        ]
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n",
            encoding="utf-8",
        )
        code = main(["trace", "--from-events", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2  db.probe" in out
        assert "1  engine.answer" in out
        assert '"probes_issued": 2' in out

    def test_from_events_rejects_a_line_that_is_not_an_object(
        self, tmp_path, capsys
    ):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"event": "db.probe", "rows": 3}\n[1, 2]\n', encoding="utf-8"
        )
        code = main(["trace", "--from-events", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}:2:" in err


class TestStatsFamilies:
    @pytest.fixture(autouse=True)
    def _isolate_obs(self):
        from repro.obs import OBS

        OBS.reset()
        yield
        OBS.reset()

    def test_stats_includes_resilience_families(self, capsys):
        code = main(
            ["stats", "cardb", "--rows", "300", "--sample", "120", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for family in (
            "repro_resilience_attempts_total",
            "repro_resilience_retries_total",
            "repro_resilience_retry_exhaustions_total",
            "repro_resilience_deadline_refusals_total",
            "repro_resilience_backoff_seconds",
            "repro_resilience_breaker_rejections_total",
            "repro_resilience_breaker_transitions_total",
            "repro_resilience_skipped_steps_total",
        ):
            assert family in out
        assert "# EOF" in out
