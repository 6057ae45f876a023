#!/usr/bin/env python3
"""End-to-end benchmark of the store -> engine -> service stack.

One workload, one pass (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload reach_dag --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, both passes, each in its own process (so ``peak_rss_mb`` is
per workload), collected into ``DIR/result.json``::

    python3 benchmarks/e2e/run.py --seed 1 --out DIR [--runs N] [--scale smoke]

Exit code is non-zero when an answer was wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

try:
    import repro  # noqa: F401 - the program under test
except ImportError as exc:
    sys.exit(f"benchmarks/e2e: cannot import the program under test from src/: {exc}")

from inputs import NOMINAL_SECONDS, SPECS, Inputs, smoke  # noqa: E402


def run_one(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process."""
    # Imported here so the orchestrating process stays small.
    from layers import run_traced
    from workloads import run_timed

    spec = SPECS[args.workload]
    if args.scale == "smoke":
        spec = smoke(spec)
    cpus = os.cpu_count() or 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{spec.name}-", dir=out))
    wall = time.perf_counter()
    try:
        inputs = Inputs(spec, args.seed, args.seconds)
        sha = inputs.sha256()
        # The benchmark's own objects leave the collector's sight, so a
        # collection during a timed window walks the program's heap only.
        gc.collect()
        gc.freeze()
        print(f"== {spec.name}  seed={args.seed} seconds={args.seconds:g} scale={args.scale} "
              f"cpus={cpus} trace={args.trace} ==")
        print(f"  inputs_sha256 {sha}")
        print(f"  graph |V|={inputs.graph.order()} |E|={inputs.graph.size()}  "
              f"client={spec.driver} x1 closed loop")
        result = (run_traced if args.trace else run_timed)(inputs, workdir, cpus)
        if args.trace:
            trace_path = out / f"trace_{spec.name}.jsonl"
            result["spans"].write(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result["tally"]
    for line in tally.lines() + [f"  note: {note}" for note in result["notes"]]:
        print(line)
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    detail = result["detail"]
    if args.trace:
        print_table(result["table"], trace_path)
    else:
        print(f"  routed_vs_direct_x {detail['routed_vs_direct_x']:.3f} = routed "
              f"{metrics['routed_qps'][0]:.1f} 1/s / direct {metrics['direct_qps'][0]:.1f} 1/s")
        print(f"  not gated: routed_p95_ms {detail['routed_p95_ms']:.6g}  "
              f"first_apply_ms {detail['first_apply_ms']:.6g}  "
              f"first_fresh_answer_ms {detail['first_fresh_answer_ms']:.6g}")
        print(f"  {len(detail['lifecycles'])} lifecycles; samples: " + "  ".join(
            f"{key} {len(values)}" for key, values in detail["samples"].items()))
        print(f"  latency samples: {detail['latency_samples']} requests of "
              f"{detail['queries_per_request']} queries" + (
                  f"; p{detail['top_percentile']:.2f} = {detail['top_percentile_ms']:.4g} ms "
                  "is the highest percentile with 10 samples beyond it"
                  if detail["top_percentile"] else ""))
    if not args.trace:
        print("  phase wall " + "  ".join(
            f"{phase} {seconds:.2f} s" for phase, seconds in detail["phase_wall_s"].items()))
    print(f"  wall {time.perf_counter() - wall:.1f} s")

    finite = all(value == value and abs(value) != float("inf") for value, _ in metrics.values())
    correct = tally.failed == 0 and finite
    payload = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if value == value else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(payload, workload=spec.name, seed=args.seed, trace=args.trace,
                  inputs_sha256=sha, phases=tally.phases, detail=detail)
    (out / f"run_{spec.name}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(payload))
    return 0 if correct else 1


def print_table(table: Dict[str, Any], trace_path: Path) -> None:
    """Where a request's time goes: probe rows + glue = request time."""
    request = table["request_s"]
    print(f"  self time of {table['queries']} traced queries (spans: {trace_path}):")
    for name, (count, total) in sorted(table["rows"].items(), key=lambda kv: -kv[1][1]):
        print(f"    {name:<22} {count:>7} spans {total * 1e3:>10.3f} ms {total / request:>7.1%}")
    print(f"    {'engine.glue':<22} {'':>13} {table['glue_s'] * 1e3:>10.3f} ms "
          f"{table['glue_s'] / request:>7.1%}")
    accounted = table["probes_s"] + table["glue_s"]
    print(f"    request time {request * 1e3:.3f} ms; rows + glue {accounted * 1e3:.3f} ms; "
          f"residual {(request - accounted) * 1e3:.3f} ms; "
          f"untraced {table['untraced_request_s'] * 1e3:.3f} ms")


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload x pass x run, one subprocess each."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(SPECS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    result: Dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds, "scale": args.scale,
        "cpus": os.cpu_count(), "python": platform.python_version(), "workloads": {},
    }
    status = 0
    for name in workloads:
        entry: Dict[str, Any] = {"inputs_sha256": [], "attempted": [], "failed": [],
                                 "end_to_end": {}, "per_layer": {}}
        result["workloads"][name] = entry
        for run in range(args.runs):
            for trace in passes:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed + run), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", args.scale, "--out", str(out),
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
                sys.stdout.write(done.stdout)
                record_path = out / f"run_{name}_trace{trace}.json"
                if done.returncode or not record_path.exists():
                    status = 1
                if not record_path.exists():
                    continue
                record = json.loads(record_path.read_text())
                record_path.unlink()
                section = entry["per_layer" if trace else "end_to_end"]
                for metric, cell in record["metrics"].items():
                    row = section.setdefault(metric, {"unit": cell["unit"], "values": []})
                    row["values"].append(cell["value"])
                entry["attempted"].append(record["attempted"])
                entry["failed"].append(record["failed"])
                if record["inputs_sha256"] not in entry["inputs_sha256"]:
                    entry["inputs_sha256"].append(record["inputs_sha256"])
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(f"wrote {out / 'result.json'}")
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="nominal measured time; scales the work of every phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end, 1 per-layer; default: both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=".bench_e2e",
                        help="result, trace and scratch files (default: ./.bench_e2e)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1 (all-workload mode)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    if args.workload and args.trace is not None and args.runs == 1:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
