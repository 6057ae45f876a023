"""CLI entry point.

``python -m repro.bench [experiment ...|all] [--full]`` regenerates the
paper's tables/figures and the repo-internal benchmarks;
``python -m repro.bench check --baseline <dir>`` compares the current
``BENCH_*.json`` files against committed baselines (the CI
benchmark-regression gate, runnable locally);
``python -m repro.bench trend`` renders the persistent run-to-run ratio
history (``benchmarks/history/history.jsonl`` — see
:mod:`repro.bench.history`) that experiment runs append to, and ``check``
when given ``--record``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import available, run_experiment
from repro.bench.history import (
    DEFAULT_HISTORY,
    append_payload,
    load_history,
    render_trend,
    result_payload,
)


def _run_check(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench check",
        description="Compare current BENCH_*.json files against baselines.",
    )
    parser.add_argument(
        "--baseline", required=True,
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current", default=".",
        help="directory holding the current BENCH_*.json files (default: .)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional ratio drop before failing (default: 0.5)",
    )
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY),
        help="bench history JSONL to read trends from "
             "(default: benchmarks/history/history.jsonl)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="also append this run's ratios to the history (the file is "
             "tracked: the default leaves the working tree untouched)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not read the bench history (no trend column)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(
            f"--tolerance must be in [0, 1) (a fraction, not a percentage); "
            f"got {args.tolerance}"
        )

    from repro.bench.regression import check_against_baselines

    history = None if args.no_history else load_history(args.history)
    ok, lines = check_against_baselines(
        args.baseline, args.current, tolerance=args.tolerance,
        history=history,
    )
    for line in lines:
        print(line)
    if args.record:
        appended = 0
        for path in sorted(Path(args.current).glob("BENCH_*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if append_payload(payload, "check", args.history) is not None:
                appended += 1
        if appended:
            print(f"history: {appended} experiment(s) appended "
                  f"to {args.history}")
    print("benchmark regression check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _run_trend(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trend",
        description="Render the persistent bench-ratio trajectory.",
    )
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY),
        help="bench history JSONL (default: benchmarks/history/history.jsonl)",
    )
    parser.add_argument(
        "--experiment", default=None,
        help="restrict to one experiment id (default: all)",
    )
    parser.add_argument(
        "--limit", type=int, default=10,
        help="most recent values shown per ratio (default: 10)",
    )
    args = parser.parse_args(argv)
    records = load_history(args.history)
    for line in render_trend(records, experiment=args.experiment,
                             limit=args.limit):
        print(line)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        return _run_check(argv[1:])
    if argv and argv[0] == "trend":
        return _run_trend(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures "
                    "(or 'check' for the benchmark-regression gate).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment ids ({', '.join(available())}) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-size runs (default is the quick configuration)",
    )
    args = parser.parse_args(argv)

    ids = available() if args.experiments == ["all"] or "all" in args.experiments else args.experiments
    exit_code = 0
    for eid in ids:
        start = time.perf_counter()
        try:
            result = run_experiment(eid, quick=not args.full)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"({elapsed:.1f}s)\n")
        append_payload(result_payload(result), "run")
        if not result.passed():
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
