"""Command line of the end-to-end benchmark.

Three modes::

    python -m benchmarks.e2e [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR] [--src DIR]
    python -m benchmarks.e2e compare BASE_DIR HEAD_DIR
    python -m benchmarks.e2e pairs --base CHECKOUT --head CHECKOUT --pairs N --out DIR

A single workload runs in this process and prints its metrics, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
``--workload all`` runs each workload in a fresh subprocess.  The exit
code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("answer_broad", "gather_fig6", "serve_zipf", "offline_build")
DEFAULT_SECONDS = 20.0
#: A single workload run must finish well within this.
CHILD_TIMEOUT_S = 900


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, help="also write the result record here")
    parser.add_argument(
        "--src", type=Path, help="source tree of the program (default: ./src)"
    )
    return parser


def _child_args(args: argparse.Namespace, workload: str, src: Path | None) -> list[str]:
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if args.out is not None:
        command += ["--out", str(args.out)]
    if src is not None:
        command += ["--src", str(src)]
    return command


def _run_child(command: list[str]) -> tuple[int, list[str]]:
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(completed.stderr)
    return completed.returncode, completed.stdout.splitlines()


def _write_record(out: Path, record: dict[str, Any]) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    run = 1
    while (path := out / f"{stem}-r{run}.json").exists():
        run += 1
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def _print_record(record: dict[str, Any]) -> None:
    status = "correct" if record["correct"] else "INCORRECT"
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"scale={record['scale']}: {record['attempted']} requests, "
        f"{record['failed']} failed, {status}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    details = record["details"]
    if "speed_factor_p50" in details:
        print(
            f"  (times at reference CPU speed; unscaled latency_p50_ms "
            f"{details['raw_latency_p50_ms']:.6g}, median speed factor "
            f"{details['speed_factor_p50']:.3f})"
        )
    if details.get("supported_tail"):
        print(
            f"  (tail rule: p{details['supported_tail']:g} = "
            f"{details['supported_tail_ms']:.6g} ms over {record['attempted']} requests)"
        )
    for dataset in ("cardb", "censusdb"):
        if f"build_s.{dataset}" in details:
            print(f"  build_s.{dataset:<26} {details[f'build_s.{dataset}']:>14.6g} s")
    match = (
        "no expected digest for this seed"
        if record["expected_digest"] is None
        else "matches expected" if record["digest"] == record["expected_digest"]
        else "DIFFERS from expected"
    )
    print(f"  answer digest {record['digest'][:16]} ({match})")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args: argparse.Namespace, started: float) -> int:
    src = (args.src or ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from benchmarks.e2e.runner import run_workload

    import_s = time.perf_counter() - started
    record = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        import_s=import_s,
    )
    if args.out is not None:
        _write_record(args.out, record)
    _print_record(record)
    print(
        _result_line(
            record["correct"], record["attempted"], record["failed"], record["metrics"]
        )
    )
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        code, lines = _run_child(_child_args(args, workload, args.src))
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {code})")
            correct = False
            continue
        correct = correct and result["correct"] and code == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update(
            {f"{workload}/{name}": value for name, value in result["metrics"].items()}
        )
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def compare_main(argv: Sequence[str]) -> int:
    from benchmarks.e2e.compare import compare_results, format_verdicts, load_results

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("base", type=Path, help="result records of the parent")
    parser.add_argument("head", type=Path, help="result records of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    verdicts, problems = compare_results(
        load_results(args.base), load_results(args.head), spec
    )
    print(format_verdicts(verdicts))
    for problem in problems:
        print(f"problem: {problem}")
    regressed = [v for v in verdicts if v.verdict == "regressed"]
    return 1 if problems or regressed or not verdicts else 0


def pairs_main(argv: Sequence[str]) -> int:
    """Run two checkouts alternately with this benchmark code, then compare."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e pairs")
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=Path, required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="repeatable; default: every workload",
    )
    parser.add_argument("--seed", type=int, default=0, help="pair i runs seed + i - 1")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve() / "src", "head": args.head.resolve() / "src"}
    for pair in range(1, args.pairs + 1):
        # The parent runs first on odd pairs, second on even ones.
        order = ("base", "head") if pair % 2 else ("head", "base")
        for side in order:
            for workload in args.workload or WORKLOAD_NAMES:
                run_args = argparse.Namespace(
                    seed=args.seed + pair - 1,
                    seconds=args.seconds,
                    trace=0,
                    scale=args.scale,
                    out=args.out / side,
                )
                code, lines = _run_child(_child_args(run_args, workload, sides[side]))
                print(f"pair {pair} {side} {workload}: exit {code}; {lines[-1] if lines else ''}")
    return compare_main([str(args.out / "base"), str(args.out / "head")])


def main(argv: Sequence[str] | None = None, started: float | None = None) -> int:
    started = time.perf_counter() if started is None else started
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "pairs":
        return pairs_main(argv[1:])
    args = _run_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, started)
