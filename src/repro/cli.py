"""Command-line interface: ``python -m repro <command>``.

Four commands cover the life cycle a downstream user walks through:

* ``generate`` — synthesise a CarDB/CensusDB instance to CSV;
* ``mine``     — run the offline pipeline and (optionally) persist the
  mined model as JSON;
* ``query``    — answer an imprecise query, optionally from a stored
  model;
* ``experiment`` — rerun one of the paper's tables/figures;
* ``stats``    — exercise the full pipeline once with observability on
  and dump the metrics snapshot;
* ``trace``    — answer one query with tracing + wide events on and
  summarise the recorded spans (or summarise an existing JSONL event
  log via ``--from-events``).

Every command also accepts the observability flags, before **or**
after the subcommand: ``--trace`` (print the recorded span trees
afterwards), ``--metrics-out PATH`` (metrics snapshot, JSON or
Prometheus text per ``--metrics-format``), ``--events-out PATH``
(wide-event log as JSONL), ``--events-probe`` (additionally one event
per issued probe), and ``--chrome-out PATH`` (Chrome/Perfetto trace
JSON for ``chrome://tracing`` or https://ui.perfetto.dev).

Examples::

    python -m repro generate cardb --rows 10000 --out /tmp/cars.csv
    python -m repro mine cardb --rows 8000 --sample 2000 --save /tmp/model.json
    python -m repro query cardb --rows 8000 --sample 2000 -k 5 \\
        Model=Camry Price=10000
    python -m repro query cardb --resilient --trace \\
        --events-out events.jsonl --chrome-out trace.json Make=Ford
    python -m repro trace cardb Make=Ford
    python -m repro experiment fig5
    python -m repro stats cardb --rows 2000 --sample 500 --format prom
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.pipeline import AIMQModel
from repro.core.parser import build_query, parse_binding
from repro.core.query import ImpreciseQuery
from repro.core.store import StoreError, save_model
from repro.datasets.cardb import generate_cardb
from repro.datasets.census import generate_censusdb
from repro.analysis.cli import add_lint_arguments, run_lint
from repro.db.csvio import write_csv
from repro.db.errors import DatabaseError
from repro.db.faults import FaultPolicy, FaultSpec
from repro.db.webdb import AutonomousWebDatabase
from repro.evalx import (
    format_efficiency,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig8,
    format_fig9,
    format_metrics_appendix,
    format_table2,
    format_table3,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig8_multi,
    run_fig9,
    run_relaxation_efficiency,
    run_table1,
    run_table2,
    run_table3,
)
from repro.obs import (
    OBS,
    render_span_tree,
    span_summary,
    to_json,
    to_prometheus,
    write_chrome_trace,
)
from repro.resilience import (
    ResilienceError,
    ResiliencePolicy,
    ResilientWebDatabase,
    preregister_resilience_metrics,
)
from repro.serve import AIMQServer, ServeConfig, preregister_serve_metrics
from repro.serve.state import dataset_webdb, load_or_build_model

__all__ = ["main", "build_parser"]


def _constraint_query(
    args: argparse.Namespace, webdb: AutonomousWebDatabase
) -> ImpreciseQuery:
    """The query given by ``--text`` or the ``Attr=Value`` constraints."""
    bindings = dict(map(parse_binding, args.constraints))
    return build_query(webdb.schema, getattr(args, "text", None), bindings)


# -- commands ---------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "cardb":
        table = generate_cardb(args.rows, seed=args.seed)
        labels = None
    else:
        table, labels = generate_censusdb(args.rows, seed=args.seed)
    written = write_csv(table, args.out)
    print(f"wrote {written} rows to {args.out}")
    if labels is not None and args.labels_out:
        with open(args.labels_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(labels) + "\n")
        print(f"wrote {len(labels)} labels to {args.labels_out}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    webdb = dataset_webdb(args.dataset, args.rows, args.seed)
    model = load_or_build_model(
        webdb, args.dataset, args.sample, args.seed, args.model
    )
    print(model.ordering.describe())
    print()
    print(model.dependencies.summary())
    print()
    for attribute in webdb.schema.categorical_names[:3]:
        values = sorted(model.value_similarity.known_values(attribute))
        if not values:
            continue
        probe = values[0]
        ranked = model.value_similarity.top_similar(attribute, probe, n=3)
        rendered = ", ".join(f"{v} ({s:.2f})" for v, s in ranked)
        print(f"{attribute}={probe} ~ {rendered}")
    if args.save:
        path = save_model(model, args.save)
        print(f"\nmodel saved to {path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    webdb = dataset_webdb(args.dataset, args.rows, args.seed)
    query = _constraint_query(args, webdb)
    model = load_or_build_model(
        webdb, args.dataset, args.sample, args.seed, args.model
    )
    if args.fault_rate > 0.0:
        webdb.set_fault_policy(
            FaultPolicy(
                FaultSpec(transient_rate=args.fault_rate),
                seed=args.fault_seed,
            )
        )
    resilience = (
        ResiliencePolicy() if (args.resilient or args.fault_rate > 0.0) else None
    )
    engine = model.engine(webdb, resilience=resilience)
    answers = engine.answer(query, k=args.k)
    print(answers.describe(webdb.schema))
    trace = answers.trace
    print(
        f"\n{trace.queries_issued} probes, {trace.tuples_extracted} extracted, "
        f"{trace.tuples_relevant} relevant"
    )
    if answers.degraded:
        print()
        print(answers.degradation.summary())
    if isinstance(engine.webdb, ResilientWebDatabase):
        stats = engine.webdb.stats()
        rendered = ", ".join(f"{key}={value}" for key, value in stats.items())
        print(f"resilience: {rendered}")
    return 0


_EXPERIMENTS = {
    "table1": lambda: print(run_table1()),
    "table2": lambda: print(format_table2(run_table2())),
    "table3": lambda: print(format_table3(run_table3())),
    "fig3": lambda: print(format_fig3(run_fig3())),
    "fig4": lambda: print(format_fig4(run_fig4())),
    "fig5": lambda: print(format_fig5(run_fig5())),
    "fig6": lambda: print(
        format_efficiency(run_relaxation_efficiency("guided"))
    ),
    "fig7": lambda: print(
        format_efficiency(run_relaxation_efficiency("random"))
    ),
    "fig8": lambda: print(format_fig8(run_fig8_multi())),
    "fig9": lambda: print(format_fig9(run_fig9())),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    _EXPERIMENTS[args.name]()
    appendix = format_metrics_appendix()
    if appendix:
        print()
        print(appendix)
    return 0


def _demo_query(
    webdb: AutonomousWebDatabase, model: AIMQModel
) -> ImpreciseQuery:
    """A small likeness query built from the sample's first row."""
    schema = webdb.schema
    row = model.sample.row(0)
    bindings: dict[str, object] = {}
    for name in schema.categorical_names + schema.numeric_names:
        value = row[schema.position(name)]
        if value is None:
            continue
        bindings[name] = value
        if len(bindings) >= 3:
            break
    if not bindings:
        raise ValueError("sample row has no usable bindings for a demo query")
    return ImpreciseQuery.like(schema.name, **bindings)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run build + one query with observability on; dump the snapshot."""
    OBS.reset()
    OBS.enable()
    # A healthy run trips no retry and serves no request: give those
    # families zero series so the dump shows them quiet.
    preregister_resilience_metrics(OBS.registry)
    preregister_serve_metrics(OBS.registry)
    webdb = dataset_webdb(args.dataset, args.rows, args.seed)
    model = load_or_build_model(
        webdb, args.dataset, args.sample, args.seed, args.model
    )
    # Answer through the resilience wrapper so every layer's metric
    # families (attempt outcomes, retries, breaker state) appear in the
    # dump.
    engine = model.engine(webdb, resilience=ResiliencePolicy())
    engine.answer(_demo_query(webdb, model), k=args.k)
    snapshot = OBS.registry.snapshot()
    sections = []
    if args.format in ("json", "both"):
        sections.append(to_json(snapshot))
    if args.format in ("prom", "both"):
        sections.append(to_prometheus(snapshot).rstrip("\n"))
    output = "\n\n".join(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
        print(f"metrics snapshot written to {args.out}")
    else:
        print(output)
    return 0


def _summarise_events(path: str) -> int:
    """Summarise an existing JSONL wide-event log without running."""
    counts: dict[str, int] = {}
    last_answer = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: an event must be a JSON object, "
                    f"got {type(record).__name__}"
                )
            name = str(record.get("event", "?"))
            counts[name] = counts.get(name, 0) + 1
            if name.startswith("engine."):
                last_answer = record
    if not counts:
        print(f"no events in {path}")
        return 0
    for name in sorted(counts):
        print(f"{counts[name]:>6}  {name}")
    if last_answer is not None:
        print()
        print(json.dumps(last_answer, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Answer one query with tracing + events on; summarise the trace."""
    if args.from_events:
        return _summarise_events(args.from_events)
    OBS.reset()
    OBS.enable()
    OBS.events.enabled = True
    webdb = dataset_webdb(args.dataset, args.rows, args.seed)
    query = _constraint_query(args, webdb) if args.constraints else None
    model = load_or_build_model(
        webdb, args.dataset, args.sample, args.seed, args.model
    )
    if query is None:
        query = _demo_query(webdb, model)
    resilience = ResiliencePolicy() if args.resilient else None
    engine = model.engine(webdb, resilience=resilience)
    engine.answer(query, k=args.k)
    root = None
    for candidate in reversed(OBS.tracer.traces()):
        if candidate.name == "engine.answer":
            root = candidate
            break
    if root is None:
        print("no engine.answer trace recorded", file=sys.stderr)
        return 1
    if args.tree:
        print(render_span_tree(root))
    else:
        print(
            f"{'span':<28} {'count':>6} {'total_s':>9} "
            f"{'max_s':>9} {'errors':>6}"
        )
        for row in span_summary([root]):
            print(
                f"{row['name']:<28} {row['count']:>6} "
                f"{row['total_seconds']:>9.4f} {row['max_seconds']:>9.4f} "
                f"{row['errors']:>6}"
            )
    event = OBS.events.last()
    if event is not None:
        print()
        print(json.dumps(event, indent=2, sort_keys=True))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static invariant checks over the source tree."""
    return run_lint(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived answering server until SIGTERM/SIGINT."""
    config = ServeConfig(
        host=args.host,
        port=args.port,
        dataset=args.dataset,
        rows=args.rows,
        sample=args.sample,
        seed=args.seed,
        model_path=args.model,
        default_k=args.k,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_wait_seconds=args.queue_wait,
        rate=args.rate,
        burst=args.burst,
        pressure_threshold=args.pressure_threshold,
        query_deadline_seconds=args.deadline,
        pressured_deadline_seconds=args.pressured_deadline,
        pressured_probe_cap=args.pressured_probe_cap,
        drain_seconds=args.drain_seconds,
    )
    # A server always runs with metrics and wide events on — /metrics
    # and the per-request audit trail are part of its contract.
    OBS.enable()
    OBS.events.enabled = True
    print(f"loading {config.dataset} model ...", flush=True)
    server = AIMQServer(config)
    print(f"serving {config.dataset} on {server.url}", flush=True)
    drained = server.serve_forever()
    print(f"shut down ({'drained' if drained else 'drain deadline hit'})")
    return 0 if drained else 1


# -- parser -------------------------------------------------------------------


def _add_obs_args(
    target: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """Register the observability flags on ``target``.

    The same flags are registered on the root parser (real defaults)
    and on every subparser (``SUPPRESS`` defaults), so
    ``repro --trace query ...`` and ``repro query --trace ...`` both
    work: a suppressed subparser flag never overwrites the root value.
    """
    extra: dict[str, object] = (
        {"default": argparse.SUPPRESS} if suppress else {}
    )
    target.add_argument(
        "--trace",
        action="store_true",
        help="enable observability and print the recorded span trees",
        **extra,  # type: ignore[arg-type]
    )
    target.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="enable observability and write a metrics snapshot to PATH",
        **extra,  # type: ignore[arg-type]
    )
    metrics_format: dict[str, object] = (
        {"default": argparse.SUPPRESS} if suppress else {"default": "json"}
    )
    target.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        help="format for --metrics-out (default: json)",
        **metrics_format,  # type: ignore[arg-type]
    )
    target.add_argument(
        "--events-out",
        metavar="PATH",
        help="enable the wide-event log and write it to PATH as JSONL",
        **extra,  # type: ignore[arg-type]
    )
    target.add_argument(
        "--events-probe",
        action="store_true",
        help="additionally emit one wide event per issued probe",
        **extra,  # type: ignore[arg-type]
    )
    target.add_argument(
        "--chrome-out",
        metavar="PATH",
        help="enable observability and write a Chrome/Perfetto trace "
        "(chrome://tracing, ui.perfetto.dev) to PATH",
        **extra,  # type: ignore[arg-type]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIMQ (ICDE 2006) reproduction command line",
    )
    _add_obs_args(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesise a dataset to CSV"
    )
    generate.add_argument("dataset", choices=("cardb", "censusdb"))
    generate.add_argument("--rows", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.add_argument(
        "--labels-out", help="censusdb only: income labels output path"
    )
    _add_obs_args(generate, suppress=True)
    generate.set_defaults(handler=_cmd_generate)

    def add_mining_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("dataset", choices=("cardb", "censusdb"))
        sub.add_argument("--rows", type=int, default=8_000)
        sub.add_argument("--sample", type=int, default=2_000)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument(
            "--model", help="load a stored model instead of mining"
        )

    mine = subparsers.add_parser(
        "mine", help="probe + mine and print the learned artifacts"
    )
    add_mining_args(mine)
    mine.add_argument("--save", help="persist the mined model as JSON")
    _add_obs_args(mine, suppress=True)
    mine.set_defaults(handler=_cmd_mine)

    query = subparsers.add_parser("query", help="answer an imprecise query")
    add_mining_args(query)
    query.add_argument("-k", type=int, default=10)
    query.add_argument(
        "--text",
        help="paper-style query text, e.g. "
        "\"Model like Camry AND Price < 10000\"",
    )
    query.add_argument(
        "--resilient",
        action="store_true",
        help="guard every probe with retries, a circuit breaker and "
        "deadline budgets",
    )
    query.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject seeded transient probe failures with probability P "
        "(implies --resilient)",
    )
    query.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault schedule (default: 0)",
    )
    _add_obs_args(query, suppress=True)
    query.add_argument(
        "constraints",
        nargs="*",
        metavar="Attr=Value",
        help="likeness constraints, e.g. Model=Camry Price=10000",
    )
    query.set_defaults(handler=_cmd_query)

    experiment = subparsers.add_parser(
        "experiment", help="rerun one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    _add_obs_args(experiment, suppress=True)
    experiment.set_defaults(handler=_cmd_experiment)

    stats = subparsers.add_parser(
        "stats",
        help="run the pipeline once with observability on and dump metrics",
    )
    add_mining_args(stats)
    stats.add_argument("-k", type=int, default=10)
    stats.add_argument(
        "--format",
        choices=("json", "prom", "both"),
        default="both",
        help="snapshot rendering(s) to emit (default: both)",
    )
    stats.add_argument("--out", help="write the snapshot here, not stdout")
    _add_obs_args(stats, suppress=True)
    stats.set_defaults(handler=_cmd_stats)

    trace = subparsers.add_parser(
        "trace",
        help="answer one query with tracing + wide events on and "
        "summarise the recorded spans",
    )
    trace.add_argument(
        "dataset", nargs="?", choices=("cardb", "censusdb"), default="cardb"
    )
    trace.add_argument("--rows", type=int, default=2_000)
    trace.add_argument("--sample", type=int, default=500)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--model", help="load a stored model instead of mining")
    trace.add_argument("-k", type=int, default=5)
    trace.add_argument(
        "--resilient",
        action="store_true",
        help="answer through the resilience wrapper",
    )
    trace.add_argument(
        "--tree",
        action="store_true",
        help="print the full span tree instead of the per-span summary",
    )
    trace.add_argument(
        "--from-events",
        metavar="PATH",
        help="summarise an existing JSONL event log instead of running",
    )
    _add_obs_args(trace, suppress=True)
    trace.add_argument(
        "constraints",
        nargs="*",
        metavar="Attr=Value",
        help="likeness constraints (default: a demo query from the sample)",
    )
    trace.set_defaults(handler=_cmd_trace)

    lint = subparsers.add_parser(
        "lint",
        help="run the reprolint invariant checks (REP001-REP010)",
    )
    add_lint_arguments(lint)
    _add_obs_args(lint, suppress=True)
    lint.set_defaults(handler=_cmd_lint)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived answering server (HTTP, stdlib only)",
    )
    add_mining_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port; 0 binds an ephemeral port (default: 8080)",
    )
    serve.add_argument(
        "-k", type=int, default=10, help="default top-k per request"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrently answering requests before queueing (default: 8)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="bounded wait-queue depth; beyond it requests are shed "
        "with 429 (default: 16)",
    )
    serve.add_argument(
        "--queue-wait",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how long a queued request may wait for a slot (default: 2)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="token-bucket admission rate in requests/second "
        "(0 disables throttling)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=1,
        help="token-bucket burst size (default: 1)",
    )
    serve.add_argument(
        "--pressure-threshold",
        type=float,
        default=0.75,
        help="in-flight utilisation at which per-request budgets "
        "shrink (default: 0.75)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query deadline budget under normal load "
        "(default: none)",
    )
    serve.add_argument(
        "--pressured-deadline",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-query deadline once pressured (default: 2)",
    )
    serve.add_argument(
        "--pressured-probe-cap",
        type=int,
        default=64,
        help="per-request source-probe cap once pressured (default: 64)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="how long SIGTERM waits for in-flight requests (default: 5)",
    )
    _add_obs_args(serve, suppress=True)
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # argparse's single-pass positional matching cannot see trailing
    # Attr=Value pairs behind optionals; collect them as extras.
    args, extras = parser.parse_known_args(argv)
    if extras:
        if getattr(args, "command", None) not in ("query", "trace"):
            print(f"error: unrecognized arguments: {extras}", file=sys.stderr)
            return 2
        malformed = [text for text in extras if "=" not in text]
        if malformed:
            print(
                f"error: constraints must look like Attr=Value: {malformed}",
                file=sys.stderr,
            )
            return 2
        args.constraints = list(args.constraints) + extras
    trace_flag = getattr(args, "trace", False)
    metrics_out = getattr(args, "metrics_out", None)
    chrome_out = getattr(args, "chrome_out", None)
    events_out = getattr(args, "events_out", None)
    events_probe = getattr(args, "events_probe", False)
    saved_flags = (OBS.enabled, OBS.events.enabled, OBS.events.probe_events)
    if trace_flag or metrics_out or chrome_out:
        # Only this run's spans and metrics are printed or written.
        OBS.registry.reset()
        OBS.tracer.reset()
        OBS.enable()
    if events_out or events_probe:
        OBS.events.enabled = True
    if events_probe:
        OBS.events.probe_events = True
    try:
        code = args.handler(args)
        if trace_flag:
            for root in OBS.tracer.traces():
                print(render_span_tree(root))
        if metrics_out:
            render = (
                to_json
                if getattr(args, "metrics_format", "json") == "json"
                else to_prometheus
            )
            rendered = render(OBS.registry.snapshot())
            if not rendered.endswith("\n"):
                rendered += "\n"
            with open(metrics_out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"metrics snapshot written to {metrics_out}")
        if events_out:
            written = OBS.events.write_jsonl(events_out)
            print(f"{written} events written to {events_out}")
        if chrome_out:
            written = write_chrome_trace(OBS.tracer.traces(), chrome_out)
            print(f"{written} trace events written to {chrome_out}")
        return code
    except (ValueError, OSError, DatabaseError, StoreError, ResilienceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # ``stats`` and ``trace`` switch observability on themselves.
        OBS.enabled, OBS.events.enabled, OBS.events.probe_events = saved_flags


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
