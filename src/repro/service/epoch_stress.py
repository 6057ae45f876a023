"""Randomized reader/writer harness for the concurrent front.

The service's whole contract is one sentence: *every answer is exact for
the epoch that produced it* — under concurrency and, with a fault plan,
under injected faults.  :func:`run_stress` turns that sentence into a
machine-checkable experiment, run by the test suite and the ``python -m
repro.service`` subcommands:

1. pre-generate a deterministic update schedule (so the run is
   reproducible for a given seed) and a mixed query pool;
2. run N reader threads — either querying the service directly or
   submitting through a :class:`~repro.service.executor.QueryExecutor` —
   *while* a writer thread publishes the schedule, one epoch per batch,
   recording each version's exact graph (:func:`publish`);
3. every reader records ``(epoch_version, query, answer)``;
4. afterwards, re-answer every recorded query from scratch on its
   version's graph (:func:`check_answers`: reference evaluators, no
   compression, no caches); any divergence is a correctness bug, not
   noise.

The report also counts retention: the writer keeps a weak reference to
every epoch it publishes, and ``superseded_alive_after_close`` is how
many of them are still alive once the threads have joined and the
service is closed — counted without a ``gc.collect()``, so a reference
cycle or a leaked handle shows.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
import weakref
from typing import Any, ContextManager, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.datasets.patterns import random_pattern
from repro.datasets.updates import mixed_batch
from repro.engine.updates import EdgeUpdate
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

#: Executor and epoch settings of every round.  The build deadline and the
#: per-attempt timeout apply only under a fault plan.
BUILD_DEADLINE_S = 0.25
TIMEOUT_S = 5.0
RETRIES = 3
BACKOFF_S = 0.005
MAX_BATCH = 8


def freeze_answer(answer: Any) -> Any:
    """Order-independent, hashable rendering of any query answer."""
    if isinstance(answer, dict):
        return tuple(sorted(
            (repr(u), tuple(sorted(map(repr, vs)))) for u, vs in answer.items()
        ))
    return answer


def obs_report() -> Optional[Dict[str, Any]]:
    """Snapshot of the installed obs registry/tracer, or ``None`` when off.

    Embedded verbatim in stress reports so a JSON artifact from a CI run
    carries the same series ``python -m repro.service metrics`` would have
    exposed live, plus the slow-query log keyed by trace id.
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


def publish(service: EngineService, graphs: Dict[int, DiGraph],
            batch: Optional[List[EdgeUpdate]] = None) -> None:
    """Apply *batch* (``None``: refreeze) and record the new version's graph.

    *graphs* maps each version published so far to its exact graph; seed
    it with ``{service.version: <a copy of the source graph>}``.  The raw
    batch is replayed onto a copy of the previous version's graph with
    ``add_edge`` / ``remove_edge``, which do nothing on an edge already
    present or already absent — the same semantics the service's update
    log applies to its snapshot.  A failed publication
    (:class:`ApplyError`) raises before anything is recorded.
    """
    mirror = graphs[service.version]
    if batch is None:
        service.refreeze()
    else:
        service.apply(batch)
        mirror = mirror.copy()
        for op, u, v in batch:
            (mirror.add_edge if op == "+" else mirror.remove_edge)(u, v)
    graphs[service.version] = mirror


def check_answers(
    graphs: Mapping[int, DiGraph], records: Iterable[Tuple[int, Any, Any]]
) -> Tuple[int, List[str]]:
    """The oracle: how many ``(version, query, freeze_answer(answer))``
    records differ from :func:`direct_answer` on ``graphs[version]``, plus
    one error per record whose version was never recorded (it cannot be
    checked, so it is not skipped)."""
    contexts = {version: MatchContext(g) for version, g in graphs.items()}
    mismatches = 0
    errors: List[str] = []
    for version, query, frozen in records:
        if version not in graphs:
            errors.append(f"answer from version {version}, which the writer "
                          f"never published")
        elif freeze_answer(direct_answer(graphs[version], query,
                                         contexts[version])) != frozen:
            mismatches += 1
    return mismatches, errors


def build_schedule(
    graph: DiGraph, *, writer_batches: int, batch_size: int, seed: int,
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
        for _ in range(40)
    ]
    for i in range(6):
        pool.append(random_pattern(graph, 3, 3, max_bound=2, star_prob=0.25,
                                   seed=seed + 211 + i))
    return batches, pool


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


def run_stress(
    graph: DiGraph,
    *,
    readers: int = 4,
    writer_batches: int = 6,
    batch_size: int = 8,
    queries_per_reader: int = 30,
    seed: int = 0,
    executor_workers: int = 0,
    writer_pause_s: float = 0.002,
    catalog_dir: Optional[str] = None,
    plan: Optional[FaultPlan] = None,
) -> Dict[str, Any]:
    """One full reader/writer round; see the module docstring for the shape.

    ``executor_workers > 0`` routes reader queries through a
    :class:`QueryExecutor` of that size (micro-batching in the loop);
    ``0`` has reader threads call the service directly.  ``catalog_dir``
    attaches a :class:`SnapshotCatalog` so the store layer is in play
    (and in the obs series) too.  ``plan`` runs the round under that fault
    plan (``chaos_plan(seed)`` is the standard menu).  Returns a report
    dict — ``report["mismatches"] == 0`` and ``report["errors"] == []``
    are the assertions that matter.
    """
    batches, pool = build_schedule(
        graph, writer_batches=writer_batches, batch_size=batch_size, seed=seed
    )
    catalog = SnapshotCatalog(catalog_dir) if catalog_dir is not None else None
    service = EngineService(
        graph.copy(), catalog,
        build_deadline_s=BUILD_DEADLINE_S if plan is not None else None,
    )
    executor = QueryExecutor(
        service, executor_workers, max_batch=MAX_BATCH, retries=RETRIES,
        backoff_s=BACKOFF_S, timeout_s=TIMEOUT_S if plan is not None else None,
    ) if executor_workers else None

    graphs: Dict[int, DiGraph] = {service.version: graph.copy()}
    published = [weakref.ref(service.current)]
    records: List[Tuple[int, Any, Any]] = []
    failed: Dict[str, int] = {}
    errors: List[str] = []
    rollbacks = 0
    lock = threading.Lock()
    start_evt = threading.Event()
    writer_done = threading.Event()

    def reader(idx: int) -> None:
        r = random.Random(seed * 977 + idx)
        start_evt.wait()
        done = 0
        # Keep reading until the writer has published every batch (so reads
        # genuinely overlap publications), with a hard cap as a safety net.
        while (done < queries_per_reader or not writer_done.is_set()) \
                and done < queries_per_reader * 20:
            done += 1
            query = pool[r.randrange(len(pool))]
            try:
                if executor is not None:
                    fut = executor.submit(query)
                    answer = fut.result(timeout=120.0)
                    version = fut.epoch_version  # type: ignore[attr-defined]
                else:
                    version, answer = service.query_versioned(query)
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                name = type(exc).__name__
                with lock:
                    if plan is None or not isinstance(
                            exc, (ServiceFault, TimeoutError)):
                        errors.append(f"reader {idx}: {name}: {exc}")
                        return
                    # Typed, expected degradation: count it, keep reading.
                    failed[name] = failed.get(name, 0) + 1
                continue
            with lock:
                records.append((version, query, freeze_answer(answer)))
            time.sleep(0)  # yield the GIL so the writer interleaves fairly

    def writer() -> None:
        nonlocal rollbacks
        start_evt.wait()
        try:
            for batch in batches:
                # Under a plan a rolled-back batch is dropped (the service
                # keeps serving the prior epoch), and every batch is
                # followed by a republication of the same graph, which
                # revisits its digest: the warm-variant read path (and its
                # corruption faults → quarantine → transparent rebuild)
                # gets exercised.
                for step in (batch, None) if plan is not None else (batch,):
                    try:
                        publish(service, graphs, step)
                    except ApplyError:
                        if plan is None:
                            raise
                        rollbacks += 1
                    else:
                        published.append(weakref.ref(service.current))
                time.sleep(writer_pause_s)
        except Exception as exc:  # noqa: BLE001
            with lock:
                errors.append(f"writer: {type(exc).__name__}: {exc}")
        finally:
            writer_done.set()

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"stress-reader-{i}")
        for i in range(readers)
    ]
    threads.append(threading.Thread(target=writer, name="stress-writer"))
    faults: ContextManager[Any] = (
        plan.installed() if plan is not None else contextlib.nullcontext()
    )
    with faults:
        for t in threads:
            t.start()
        start_evt.set()
        for t in threads:
            t.join(timeout=300.0)
            if t.is_alive():  # pragma: no cover - only on a real deadlock
                errors.append(f"{t.name} stalled")
    # Faults are uninstalled from here on: shutdown and verification run
    # clean (queued work during shutdown still resolves, fault-free).
    if executor is not None:
        executor.shutdown(wait=True)

    mismatches, unrecorded = check_answers(graphs, records)
    errors.extend(unrecorded)
    service.close()
    obs = obs_report()
    report: Dict[str, Any] = {
        **({"obs": obs} if obs is not None else {}),
        "seed": seed,
        "queries": len(records),
        "checked": len(records) - len(unrecorded),
        "mismatches": mismatches,
        "errors": errors,
        "failed": dict(sorted(failed.items())),
        "rollbacks": rollbacks,
        "epochs_published": service.version + 1,
        "versions_seen": sorted({v for v, _, _ in records}),
        # Under a plan a helper thread abandoned at a build deadline may
        # still be running, holding its epoch until it returns, so only
        # plan=None asserts this is 0.
        "superseded_alive_after_close": sum(ref() is not None for ref in published),
        "counters": dict(service.counters),
        "per_class": service.stats.snapshot(),
    }
    if executor is not None:
        report["breaker"] = executor.breaker.snapshot()
    if catalog is not None:
        report["quarantined"] = catalog.quarantined()
    if plan is not None:
        report["faults"] = plan.report()
    return report
