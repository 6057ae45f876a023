"""``python -m repro.service`` — serving-stack maintenance commands.

Three subcommands:

``chaos``
    One stress round (:func:`repro.service.epoch_stress.run_stress`) per
    seed under that seed's fault plan (:func:`~repro.service.epoch_stress
    .chaos_plan`), followed by full answer re-verification.  Exit status 0
    means the exactness invariant held — every delivered answer matched
    from-scratch evaluation and no unhandled exception escaped the
    service; 1 means it was violated.  The JSON report
    (``--out``) is the artifact the CI ``chaos-stress`` job uploads;
    ``--trace-out`` additionally dumps every recorded span as JSONL.

``metrics``
    Drive one stress round with the obs registry and tracer installed,
    then print the whole registry as Prometheus text exposition on
    stdout (run summary and slow-query log go to stderr, so stdout
    stays scrape-clean).  The quickest way to see what the serving
    stack actually measures — see ``src/repro/obs/README.md`` for the
    metric catalogue.

``serve-obs``
    Stand up a live :class:`~repro.service.front.EngineService` with the
    HTTP introspection endpoint mounted (``/metrics``, ``/health``,
    ``/epochs``, ``/slow``, ``/traces`` — see
    ``src/repro/obs/README.md``) and keep it under a light self-traffic
    loop so every endpoint has live data.  The bound URL is the first
    stdout line; runs until ``--duration`` elapses or Ctrl-C.  Binds
    localhost by default — the endpoint is unauthenticated.

``chaos`` and ``metrics`` drive the same rounds (:func:`_stress_rounds`),
each on a temporary catalog that is removed afterwards.  Both accept
``--obs-port`` to mount the same introspection endpoint (registry +
tracer, no service) for the duration of the run, so a live stress round
can be scraped mid-flight.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.obs.metrics import MetricsRegistry, installed
from repro.obs.serve import ObsHTTPServer
from repro.obs.trace import Tracer, tracing, write_jsonl
from repro.service.epoch_stress import build_schedule, chaos_plan, run_stress
from repro.service.executor import QueryExecutor
from repro.service.front import EngineService


def _make_graph(args: argparse.Namespace) -> Any:
    graph = gnm_random_graph(
        args.nodes, args.edges, num_labels=4, seed=args.graph_seed
    )
    attach_equivalent_leaves(
        graph, [4, 3], parents_per_group=2, seed=args.graph_seed + 1
    )
    return graph


def _mount_obs(args: argparse.Namespace) -> Optional[ObsHTTPServer]:
    """Start a standalone introspection endpoint when ``--obs-port`` was
    given (``0`` = OS-assigned); caller stops it."""
    if getattr(args, "obs_port", None) is None:
        return None
    server = ObsHTTPServer(args.obs_host, args.obs_port)
    server.start()
    print(f"obs endpoints on {server.url}", file=sys.stderr, flush=True)
    return server


def _stress_rounds(
    args: argparse.Namespace, seeds: List[int], faults: bool
) -> Tuple[List[Dict[str, Any]], MetricsRegistry, Tracer]:
    """One :func:`run_stress` round per seed, sized by the flags, each on a
    temporary catalog it removes, under a live registry and tracer (mounted
    on ``--obs-port`` when given); ``faults`` runs each round under
    ``chaos_plan(seed)``."""
    graph = _make_graph(args)
    registry = MetricsRegistry()
    tracer = Tracer(slow_threshold_s=args.slow_ms / 1e3)
    reports: List[Dict[str, Any]] = []
    with installed(registry), tracing(tracer):
        obs_server = _mount_obs(args)
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="repro-") as catalog_dir:
                reports.append(run_stress(
                    graph,
                    readers=args.readers,
                    executor_workers=args.workers,
                    writer_batches=3 if args.quick else 6,
                    queries_per_reader=10 if args.quick else 30,
                    seed=seed,
                    catalog_dir=catalog_dir,
                    plan=chaos_plan(seed) if faults else None,
                ))
        if obs_server is not None:
            obs_server.stop()
    return reports, registry, tracer


def _chaos(args: argparse.Namespace) -> int:
    reports, _, tracer = _stress_rounds(args, args.seeds, faults=True)
    violations = 0
    for report in reports:
        ok = (
            report["mismatches"] == 0
            and not report["errors"]
            and report["queries"] > 0
        )
        report["ok"] = ok
        violations += not ok
        print(
            f"chaos seed={report['seed']}: "
            f"delivered={report['queries']} "
            f"mismatches={report['mismatches']} "
            f"failed={sum(report['failed'].values())} "
            f"errors={len(report['errors'])} "
            f"rollbacks={report['rollbacks']} "
            f"faults_fired={report['faults']['total_fired']} "
            f"quarantined={len(report['quarantined'])} "
            f"-> {'OK' if ok else 'VIOLATION'}"
        )
    payload = {
        "workers": args.workers,
        "seeds": list(args.seeds),
        "violations": violations,
        "runs": reports,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    if args.trace_out:
        n = write_jsonl(tracer.spans(), args.trace_out)
        print(f"{n} spans written to {args.trace_out}")
    if violations:
        print(f"FAILED: {violations} run(s) violated the exactness invariant",
              file=sys.stderr)
        return 1
    print(f"all {len(reports)} chaos run(s) held the exactness invariant")
    return 0


def _metrics(args: argparse.Namespace) -> int:
    (report,), registry, tracer = _stress_rounds(args, [args.seed],
                                                 faults=False)
    sys.stdout.write(registry.render())
    print(
        f"stress: queries={report['queries']} "
        f"mismatches={report['mismatches']} errors={len(report['errors'])} "
        f"epochs={report['epochs_published']} "
        f"spans={len(tracer.spans())}",
        file=sys.stderr,
    )
    for entry in tracer.slow_queries(limit=args.slow_limit):
        print(
            f"slow trace={entry['trace_id']} {entry['name']} "
            f"{entry['duration_ms']:.3f}ms attrs={entry['attrs']} "
            f"spans={len(entry['spans'])}",
            file=sys.stderr,
        )
    if args.trace_out:
        n = write_jsonl(tracer.spans(), args.trace_out)
        print(f"{n} spans written to {args.trace_out}", file=sys.stderr)
    if report["mismatches"] or report["errors"]:
        print("FAILED: stress run violated the exactness invariant",
              file=sys.stderr)
        return 1
    return 0


def _serve_obs(args: argparse.Namespace) -> int:
    """A live service with the introspection endpoint mounted, kept warm
    by a light self-traffic loop (queries + periodic publications) so
    ``/metrics``, ``/epochs`` and the slow-query log all have data."""
    graph = _make_graph(args)
    registry = MetricsRegistry()
    tracer = Tracer(slow_threshold_s=args.slow_ms / 1e3)
    batches, pool = build_schedule(
        graph, writer_batches=8, batch_size=6, seed=args.seed
    )
    rng = random.Random(args.seed)
    with installed(registry), tracing(tracer):
        server = ObsHTTPServer(args.host, args.port)
        service = EngineService(graph.copy(), obs_http=server)
        executor = (
            QueryExecutor(service, args.workers, max_batch=8)
            if args.workers else None
        )
        if executor is not None:
            server.attach_executor(executor)
        print(f"obs endpoints on {server.url}", flush=True)
        deadline = (
            time.monotonic() + args.duration if args.duration > 0 else None
        )
        issued = 0
        next_batch = 0
        try:
            while deadline is None or time.monotonic() < deadline:
                if args.no_traffic:
                    time.sleep(0.1)
                    continue
                query = pool[rng.randrange(len(pool))]
                try:
                    if executor is not None:
                        executor.submit(query).result(timeout=30.0)
                    else:
                        service.query(query)
                except Exception as exc:  # noqa: BLE001 - keep serving
                    print(f"traffic query failed: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                issued += 1
                # Publish a new epoch every so often: apply the schedule's
                # batches once, then refreeze, so /epochs keeps moving.
                if issued % 40 == 0:
                    try:
                        if next_batch < len(batches):
                            service.apply(batches[next_batch])
                            next_batch += 1
                        else:
                            service.refreeze()
                    except Exception as exc:  # noqa: BLE001 - keep serving
                        print(f"traffic publish failed: "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
                time.sleep(args.traffic_interval_s)
        except KeyboardInterrupt:
            pass
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
            service.close()  # stops the mounted server too
    print(f"served {issued} self-traffic queries, "
          f"{service.version + 1} epochs published", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="serving-stack maintenance commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chaos = sub.add_parser("chaos", help="run the seeded chaos harness")
    chaos.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="fault-plan seeds to run (one round each)")
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--nodes", type=int, default=60)
    chaos.add_argument("--edges", type=int, default=170)
    chaos.add_argument("--graph-seed", type=int, default=11)
    chaos.add_argument("--quick", action="store_true",
                       help="smaller workload (CI smoke)")
    chaos.add_argument("--out", help="write the JSON report here")
    chaos.add_argument("--trace-out",
                       help="write every recorded span as JSONL here")
    chaos.add_argument("--obs-port", type=int, default=None,
                       help="mount the introspection endpoint on this port "
                            "for the run (0 = OS-assigned)")
    chaos.add_argument("--obs-host", default="127.0.0.1",
                       help="introspection bind address (default localhost)")
    chaos.set_defaults(func=_chaos, readers=3, slow_ms=50.0)

    metrics = sub.add_parser(
        "metrics",
        help="run a stress round and print Prometheus text exposition",
    )
    metrics.add_argument("--readers", type=int, default=4)
    metrics.add_argument("--workers", type=int, default=2,
                         help="executor workers (0 = direct)")
    metrics.add_argument("--nodes", type=int, default=60)
    metrics.add_argument("--edges", type=int, default=170)
    metrics.add_argument("--graph-seed", type=int, default=11)
    metrics.add_argument("--seed", type=int, default=0,
                         help="stress schedule seed")
    metrics.add_argument("--quick", action="store_true",
                         help="smaller workload (CI smoke)")
    metrics.add_argument("--slow-ms", type=float, default=5.0,
                         help="slow-query log threshold (milliseconds)")
    metrics.add_argument("--slow-limit", type=int, default=10,
                         help="max slow-query log entries printed")
    metrics.add_argument("--trace-out",
                         help="write every recorded span as JSONL here")
    metrics.add_argument("--obs-port", type=int, default=None,
                         help="mount the introspection endpoint on this port "
                              "for the run (0 = OS-assigned)")
    metrics.add_argument("--obs-host", default="127.0.0.1",
                         help="introspection bind address (default localhost)")
    metrics.set_defaults(func=_metrics)

    serve = sub.add_parser(
        "serve-obs",
        help="run a live service with the HTTP introspection endpoint",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default localhost; the endpoint "
                            "is unauthenticated)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = OS-assigned; the bound "
                            "URL is printed on stdout)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="seconds to serve (0 = until Ctrl-C)")
    serve.add_argument("--workers", type=int, default=2,
                       help="executor workers (0 = direct "
                            "service queries, no breaker on /health)")
    serve.add_argument("--nodes", type=int, default=60)
    serve.add_argument("--edges", type=int, default=170)
    serve.add_argument("--graph-seed", type=int, default=11)
    serve.add_argument("--seed", type=int, default=0,
                       help="self-traffic schedule seed")
    serve.add_argument("--slow-ms", type=float, default=5.0,
                       help="slow-query log threshold (milliseconds)")
    serve.add_argument("--no-traffic", action="store_true",
                       help="serve idle (no self-traffic loop)")
    serve.add_argument("--traffic-interval-s", type=float, default=0.01,
                       help="pause between self-traffic queries")
    serve.set_defaults(func=_serve_obs)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
