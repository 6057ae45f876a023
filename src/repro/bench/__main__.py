"""CLI entry point.

``python -m repro.bench [experiment ...|all] [--full]`` regenerates the
paper's tables and figures and evaluates their shape checks.  It writes
no file; the performance record is ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import available, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
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

    ids = available() if "all" in args.experiments else args.experiments
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
        if not result.passed():
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
