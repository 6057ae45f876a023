"""Randomized reader/writer stress harness for the concurrent front.

The service's whole contract is one sentence: *every answer is exact for
the epoch that produced it*.  This module turns that sentence into a
machine-checkable experiment run by the test suite
(``tests/test_service.py``), the chaos harness and the ``python -m
repro.service`` subcommands:

1. pre-generate a deterministic update schedule (so the run is
   reproducible for a given seed) and a mixed query pool;
2. run N reader threads — either querying the service directly or
   submitting through a :class:`~repro.service.executor.QueryExecutor` —
   *while* a writer thread applies the schedule, publishing a new epoch
   per batch;
3. every reader records ``(epoch_version, query, answer)``;
4. afterwards, reconstruct each version's exact graph from the writer's
   publication journal and re-answer every recorded query from scratch
   (reference evaluators, no compression, no caches); any divergence is a
   correctness bug, not noise.

The report also checks the memory side of the RCU contract: once readers
drain, every retired epoch must have freed its derived state.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets.patterns import random_pattern
from repro.datasets.updates import mixed_batch
from repro.faults.plan import FaultPlan, FaultRule
from repro.graph.digraph import DiGraph
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.queries.matching import MatchContext, match
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability
from repro.service.errors import ApplyError, ServiceFault
from repro.service.executor import QueryExecutor
from repro.service.front import EngineService
from repro.store.catalog import SnapshotCatalog


def freeze_answer(answer: Any) -> Any:
    """Order-independent, hashable rendering of any query answer."""
    if isinstance(answer, dict):
        return tuple(sorted(
            (repr(u), tuple(sorted(map(repr, vs)))) for u, vs in answer.items()
        ))
    return answer


def obs_report() -> Optional[Dict[str, Any]]:
    """Snapshot of the installed obs registry/tracer, or ``None`` when off.

    Embedded verbatim in stress/chaos reports so a JSON artifact from a
    CI run carries the same series ``python -m repro.service metrics``
    would have exposed live, plus the slow-query log keyed by trace id.
    """
    registry = current_registry()
    tracer = current_tracer()
    if registry is None and tracer is None:
        return None
    report: Dict[str, Any] = {}
    if registry is not None:
        report["metrics"] = registry.to_state()
    if tracer is not None:
        report["slow_queries"] = tracer.slow_queries()
        report["spans_recorded"] = len(tracer.spans())
    return report


def direct_answer(graph: DiGraph, query: Any,
                  context: Optional[MatchContext] = None) -> Any:
    """From-scratch evaluation of *query* on *graph* (the ground truth)."""
    if isinstance(query, ReachabilityQuery):
        return evaluate_reachability(graph, query.source, query.target)
    return match(query, graph, context)


def build_schedule(
    graph: DiGraph, *, writer_batches: int, batch_size: int, seed: int,
    pool_pairs: int = 40, pool_patterns: int = 6,
) -> Tuple[List[List[Tuple[str, Any, Any]]], List[Any]]:
    """Deterministic update batches plus a mixed query pool.

    Batches are generated against an evolving copy so deletes name edges
    that exist at apply time; the query pool draws nodes from both the
    initial and final graphs (queries naming not-yet-created nodes are
    legal — answers are total).
    """
    rng = random.Random(seed)
    evolve = graph.copy()
    batches: List[List[Tuple[str, Any, Any]]] = []
    for i in range(writer_batches):
        batch = mixed_batch(evolve, batch_size, insert_ratio=0.55,
                            seed=seed + 101 + i)
        for op, u, v in batch:
            (evolve.add_edge if op == "+" else evolve.remove_edge)(u, v)
        batches.append(batch)
    nodes = list(dict.fromkeys(graph.node_list() + evolve.node_list()))
    pool: List[Any] = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(pool_pairs)
    ]
    for i in range(pool_patterns):
        pool.append(random_pattern(graph, 3, 3, max_bound=2, star_prob=0.25,
                                   seed=seed + 211 + i))
    return batches, pool


def run_stress(
    graph: DiGraph,
    *,
    backend: str = "csr",
    readers: int = 4,
    writer_batches: int = 6,
    batch_size: int = 8,
    queries_per_reader: int = 30,
    seed: int = 0,
    executor_workers: int = 0,
    max_batch: int = 8,
    writer_pause_s: float = 0.002,
    catalog_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One full stress round; see the module docstring for the shape.

    ``executor_workers > 0`` routes reader queries through a
    :class:`QueryExecutor` of that size (micro-batching in the loop);
    ``0`` has reader threads call the service directly.  ``catalog_dir``
    attaches a :class:`SnapshotCatalog` so the store layer is in play
    (and in the obs series) too.  Returns a report dict —
    ``report["mismatches"] == 0`` and ``report["errors"] == []`` are the
    assertions that matter.
    """
    batches, pool = build_schedule(
        graph, writer_batches=writer_batches, batch_size=batch_size, seed=seed
    )
    catalog = SnapshotCatalog(catalog_dir) if catalog_dir is not None else None
    service = EngineService(graph.copy(), catalog, backend=backend,
                            journal=True)
    executor = (
        QueryExecutor(service, executor_workers, max_batch=max_batch)
        if executor_workers else None
    )

    records: List[Tuple[int, int, Any]] = []
    rec_lock = threading.Lock()
    errors: List[str] = []
    start_evt = threading.Event()
    writer_done = threading.Event()

    def reader(idx: int) -> None:
        r = random.Random(seed * 977 + idx)
        start_evt.wait()
        done = 0
        # Keep reading until the writer has retired every batch (so reads
        # genuinely overlap publications), with a hard cap as a safety net.
        while (done < queries_per_reader or not writer_done.is_set()) \
                and done < queries_per_reader * 20:
            done += 1
            qi = r.randrange(len(pool))
            try:
                if executor is not None:
                    fut = executor.submit(pool[qi])
                    answer = fut.result(timeout=120.0)
                    version = fut.epoch_version  # type: ignore[attr-defined]
                else:
                    version, answer = service.query_versioned(pool[qi])
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                errors.append(f"reader {idx}: {type(exc).__name__}: {exc}")
                return
            with rec_lock:
                records.append((version, qi, freeze_answer(answer)))
            time.sleep(0)  # yield the GIL so the writer interleaves fairly

    def writer() -> None:
        start_evt.wait()
        try:
            for batch in batches:
                service.apply(batch)
                time.sleep(writer_pause_s)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"writer: {type(exc).__name__}: {exc}")
        finally:
            writer_done.set()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"stress-reader-{i}")
        for i in range(readers)
    ]
    threads.append(threading.Thread(target=writer, name="stress-writer"))
    for t in threads:
        t.start()
    start_evt.set()
    for t in threads:
        t.join(timeout=300.0)
        if t.is_alive():  # pragma: no cover - only on a real deadlock
            errors.append(f"{t.name} stalled")
    if executor is not None:
        executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Verification: every recorded answer vs from-scratch evaluation on
    # the exact graph of its epoch.
    # ------------------------------------------------------------------
    expected_graphs: Dict[int, Tuple[DiGraph, MatchContext]] = {}
    mismatches = 0
    for version, qi, frozen in records:
        if version not in expected_graphs:
            g_at = service.graph_at(version)
            expected_graphs[version] = (g_at, MatchContext(g_at))
        g_at, ctx = expected_graphs[version]
        expected = freeze_answer(direct_answer(g_at, pool[qi], ctx))
        if expected != frozen:
            mismatches += 1

    draining = len(service.draining())
    service.close()
    obs = obs_report()
    return {
        **({"obs": obs} if obs is not None else {}),
        "backend": backend,
        "readers": readers,
        "executor_workers": executor_workers,
        "queries": len(records),
        "checked": len(records),
        "mismatches": mismatches,
        "errors": errors,
        "epochs_published": service.version + 1,
        "versions_seen": sorted({v for v, _, _ in records}),
        "draining_after_join": draining,
        "current_freed_after_close": service.current.freed,
        "per_class": service.stats.snapshot(),
    }


# ----------------------------------------------------------------------
# Chaos extension: the same harness under an injected fault schedule.
# ----------------------------------------------------------------------

def chaos_plan(seed: int) -> FaultPlan:
    """A seeded menu of faults across every hardened layer.

    Probabilities and windows are tuned so a quick run sees several
    firings of each family without starving delivery entirely; delays are
    bounded well under the executor timeout so nothing hangs.
    """
    rules = [
        # store/catalog: flaky reads and corrupted payloads — exercised
        # through quarantine + transparent rebuild-from-base.
        # (the read io_error starts after two clean reads so the bytes
        # corruption below gets a chance to reach the decoder first)
        FaultRule(point="catalog.variant.read", kind="io_error",
                  probability=0.6, after=2, times=4),
        FaultRule(point="catalog.variant.bytes", kind="corrupt",
                  probability=0.7, times=3),
        FaultRule(point="catalog.variant.write", kind="io_error",
                  probability=0.5, times=3),
        # engine: builds that die or crawl — exercised through the epoch
        # deadline + degraded direct-on-G routing.
        FaultRule(point="epoch.build.*", kind="error",
                  probability=0.35, times=3),
        FaultRule(point="epoch.build.*", kind="delay", delay_s=0.5,
                  probability=0.3, after=3, times=2),
        # executor: transient dispatch failures and slowness — exercised
        # through retry-with-backoff, timeouts and the circuit breaker.
        FaultRule(point="executor.dispatch", kind="io_error",
                  probability=0.25, times=5),
        FaultRule(point="executor.dispatch", kind="delay", delay_s=0.1,
                  probability=0.2, after=5, times=4),
        # service: update batches failing mid-publication — exercised
        # through the transactional apply rollback.
        FaultRule(point="service.apply", kind="io_error",
                  probability=0.5, times=2),
        FaultRule(point="service.publish", kind="error",
                  probability=0.5, times=2),
    ]
    return FaultPlan(rules, seed=seed)


def run_chaos(
    graph: DiGraph,
    *,
    workers: int = 2,
    readers: int = 3,
    writer_batches: int = 5,
    batch_size: int = 6,
    queries_per_reader: int = 25,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    build_deadline_s: float = 0.25,
    timeout_s: float = 5.0,
    retries: int = 3,
    catalog_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One chaos round: the stress workload under an injected fault plan.

    The exactness invariant under test: *degradation may change latency
    and route, never answers*.  Readers submit through a fully hardened
    :class:`QueryExecutor`; a typed :class:`ServiceFault` is a tolerated
    failed delivery, any other escaping exception is an unhandled one
    (``report["unhandled"]`` must be empty).  After the run — faults
    uninstalled — every delivered ``(version, query, answer)`` record is
    re-verified against from-scratch evaluation on that version's exact
    journal-reconstructed graph (``report["mismatches"]`` must be 0).
    """
    batches, pool = build_schedule(
        graph, writer_batches=writer_batches, batch_size=batch_size, seed=seed
    )
    if catalog_dir is None:
        catalog_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    catalog = SnapshotCatalog(catalog_dir)
    service = EngineService(
        graph.copy(), catalog, journal=True, build_deadline_s=build_deadline_s
    )
    executor = QueryExecutor(
        service, workers, max_batch=8,
        timeout_s=timeout_s, retries=retries, backoff_s=0.005,
    )
    if plan is None:
        plan = chaos_plan(seed)

    records: List[Tuple[int, int, Any]] = []
    rec_lock = threading.Lock()
    failed: Dict[str, int] = {}
    unhandled: List[str] = []
    rollbacks = 0
    start_evt = threading.Event()
    writer_done = threading.Event()

    def reader(idx: int) -> None:
        r = random.Random(seed * 977 + idx)
        start_evt.wait()
        done = 0
        while (done < queries_per_reader or not writer_done.is_set()) \
                and done < queries_per_reader * 20:
            done += 1
            qi = r.randrange(len(pool))
            try:
                fut = executor.submit(pool[qi])
                answer = fut.result(timeout=120.0)
                version = fut.epoch_version  # type: ignore[attr-defined]
            except (ServiceFault, TimeoutError) as exc:
                # Typed, expected degradation: count it and keep reading.
                with rec_lock:
                    name = type(exc).__name__
                    failed[name] = failed.get(name, 0) + 1
                continue
            except Exception as exc:  # noqa: BLE001 - the invariant breach
                with rec_lock:
                    unhandled.append(
                        f"reader {idx}: {type(exc).__name__}: {exc}"
                    )
                return
            with rec_lock:
                records.append((version, qi, freeze_answer(answer)))
            time.sleep(0)

    def writer() -> None:
        nonlocal rollbacks
        start_evt.wait()
        try:
            for i, batch in enumerate(batches):
                try:
                    service.apply(batch)
                except ApplyError:
                    # Rolled back: the batch is dropped, the service keeps
                    # serving the prior epoch.  Later batches still apply
                    # cleanly (deletes of never-inserted edges are no-ops).
                    rollbacks += 1
                # Republishing the same graph revisits its digest: the
                # warm-variant *read* path (and its corruption faults →
                # quarantine → transparent rebuild) gets exercised.
                try:
                    service.refreeze()
                except ApplyError:
                    rollbacks += 1
                time.sleep(0.002)
        except Exception as exc:  # noqa: BLE001 - the invariant breach
            with rec_lock:
                unhandled.append(f"writer: {type(exc).__name__}: {exc}")
        finally:
            writer_done.set()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"chaos-reader-{i}")
        for i in range(readers)
    ]
    threads.append(threading.Thread(target=writer, name="chaos-writer"))
    with plan.installed():
        for t in threads:
            t.start()
        start_evt.set()
        for t in threads:
            t.join(timeout=300.0)
            if t.is_alive():  # pragma: no cover - only on a real deadlock
                unhandled.append(f"{t.name} stalled")
    # Faults are uninstalled from here on: shutdown and verification run
    # clean (queued work during shutdown still resolves, fault-free).
    executor.shutdown(wait=True)

    expected_graphs: Dict[int, Tuple[DiGraph, MatchContext]] = {}
    mismatches = 0
    for version, qi, frozen in records:
        if version not in expected_graphs:
            g_at = service.graph_at(version)
            expected_graphs[version] = (g_at, MatchContext(g_at))
        g_at, ctx = expected_graphs[version]
        expected = freeze_answer(direct_answer(g_at, pool[qi], ctx))
        if expected != frozen:
            mismatches += 1

    obs = obs_report()
    report = {
        **({"obs": obs} if obs is not None else {}),
        "seed": seed,
        "workers": workers,
        "readers": readers,
        "delivered": len(records),
        "checked": len(records),
        "mismatches": mismatches,
        "failed": dict(sorted(failed.items())),
        "unhandled": unhandled,
        "rollbacks_observed": rollbacks,
        "epochs_published": service.version + 1,
        "versions_seen": sorted({v for v, _, _ in records}),
        "counters": dict(service.counters),
        "per_class": service.stats.snapshot(),
        "breaker": executor.breaker.snapshot(),
        "quarantined": catalog.quarantined(),
        "faults": plan.report(),
    }
    service.close()
    return report
