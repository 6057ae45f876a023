"""``QueryExecutor`` — a worker pool with adaptive micro-batching.

The serving shape the ROADMAP asks for: callers ``submit`` first-class
query objects and get :class:`concurrent.futures.Future`\\ s back; a pool
of worker *threads* drains the queue.

Every worker that wakes up drains whatever compatible single-query tasks
are already queued (up to ``max_batch``) into one micro-batch: the batch
reads one epoch, dispatches through
:meth:`~repro.engine.router.QueryRouter.dispatch_batch`, and therefore
shares one :class:`~repro.queries.matching.MatchContext` and one
traversal per same-class group.  The batch size *adapts to load* — an
idle service evaluates single queries with no added latency, a busy one
amortises per-query overhead across whole groups.  Under CPython's GIL
threads do not add CPU parallelism; micro-batching is what moves
single-core throughput, and threads keep readers fully concurrent with
the writer (``apply`` never blocks a reader).

Workload statistics flow two ways: per-class hits/latencies land in the
service's shared :class:`~repro.engine.counters.RouterStats`, and the
executor keeps its own batching
aggregates (:meth:`QueryExecutor.workload_stats`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.router import ORIGINAL
from repro.faults.breaker import CircuitBreaker
from repro.faults.deadline import DeadlineExceeded, run_with_deadline
from repro.faults.plan import FaultError, fault_point
from repro.obs.metrics import (
    inc as obs_inc,
    metrics_on,
    observe as obs_observe,
    set_gauge as obs_set_gauge,
)
from repro.obs.trace import attach, current_context, record_span, tracing_on
from repro.service.errors import QueryTimeout, RetriesExhausted, ServiceFault
from repro.service.front import EngineService

#: Failure classes worth another attempt: transient I/O (a flaky disk, an
#: injected ``InjectedIOError``), injected faults and timeouts (the next
#: attempt may hit a warm cache).  Query-intrinsic errors
#: (``TypeError``/``ValueError``) are deterministic and never retried.
_RETRYABLE = (OSError, FaultError, TimeoutError)


def _resolve(future: "Future[Any]", value: Any = None,
             exc: Optional[BaseException] = None) -> None:
    """Set a future's outcome, tolerating a caller-side cancel race.

    A caller that timed out on ``result()`` may ``cancel()`` between our
    state check and the set call; ``InvalidStateError`` here must never
    kill a worker thread.
    """
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(value)
    except Exception:  # InvalidStateError: cancelled under our feet
        pass


class _Task:
    """One queued unit: a single query or a caller-built batch."""

    __slots__ = ("queries", "on", "algorithm", "future", "single",
                 "trace_ctx", "t_enqueue")

    def __init__(self, queries: List[Any], on: str, algorithm: Optional[str],
                 future: "Future[Any]", single: bool) -> None:
        self.queries = queries
        self.on = on
        self.algorithm = algorithm
        self.future = future
        self.single = single
        #: The submitter's ambient trace context — dispatch/queue-wait
        #: spans recorded by whichever worker runs the task nest under it.
        self.trace_ctx = current_context()
        #: Submit timestamp for queue-wait accounting (0.0 when obs off).
        self.t_enqueue = (
            time.perf_counter() if (metrics_on() or tracing_on()) else 0.0
        )


class QueryExecutor:
    """Concurrent query evaluation over an :class:`EngineService`.

    Parameters
    ----------
    service:
        The concurrent front to serve.  The executor only *reads* the
        service's epochs; updates keep going through ``service.apply`` from
        any thread.
    workers:
        Pool size (default: the machine's CPU count).
    mode:
        ``"thread"``, the only pool there is; any other value raises
        ``ValueError``.
    max_batch:
        Micro-batch ceiling per worker wake-up and chunk size for
        :meth:`map` fan-out.
    timeout_s:
        Per-attempt wall-clock budget for one dispatched micro-batch.
        An attempt over budget fails with
        :class:`~repro.service.errors.QueryTimeout` and is retried.
        ``None`` (default) = no timeout.
    retries:
        Extra attempts after a retryable failure (transient I/O, injected
        faults, timeouts).  The task fails with
        :class:`~repro.service.errors.RetriesExhausted` once the budget is
        spent.  Query-intrinsic ``TypeError``/``ValueError`` never retry.
    backoff_s:
        Base sleep between attempts; doubles each retry.
    breaker:
        Per-representation circuit breaker.  A representation key tripped
        open degrades its queries to direct-on-``G`` (answers unchanged)
        until a cooldown probe succeeds.  Pass your own to share or tune;
        default is a fresh ``CircuitBreaker(threshold=5, cooldown_s=0.5)``.
    """

    def __init__(
        self,
        service: EngineService,
        workers: Optional[int] = None,
        *,
        mode: str = "thread",
        max_batch: int = 32,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.01,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if mode != "thread":
            raise ValueError(
                f"unknown mode {mode!r}: the fork pool was removed, "
                "'thread' is the only mode"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.service = service
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.max_batch = max_batch
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            threshold=5, cooldown_s=0.5
        )
        self._router = service._router
        self._lock = threading.Lock()
        self._shutdown = False
        # -- batching aggregates ---------------------------------------
        self._agg_lock = threading.Lock()
        self._agg = {"tasks": 0, "dispatches": 0, "batched_queries": 0,
                     "max_batch": 0}
        self._queue: Deque[_Task] = deque()
        self._cv = threading.Condition()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-exec-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, query: Any, *, on: str = "auto",
               algorithm: Optional[str] = None) -> "Future[Any]":
        """Queue one query; the future resolves to its answer."""
        future: "Future[Any]" = Future()
        self._enqueue(_Task([query], on, algorithm, future, single=True))
        return future

    def submit_batch(self, queries: Sequence[Any], *, on: str = "auto",
                     algorithm: Optional[str] = None) -> "Future[List[Any]]":
        """Queue a caller-built batch; the future resolves to the answer
        list (input order).  The whole batch evaluates on one epoch."""
        future: "Future[List[Any]]" = Future()
        self._enqueue(_Task(list(queries), on, algorithm, future, single=False))
        return future

    def map(self, queries: Sequence[Any], *, on: str = "auto",
            algorithm: Optional[str] = None) -> List[Any]:
        """Evaluate *queries* across the pool; blocks, preserves order.

        Fan-out is chunked at ``max_batch`` so every worker gets whole
        micro-batches — the high-throughput bulk entry point.
        """
        queries = list(queries)
        futures = [
            self.submit_batch(queries[i:i + self.max_batch], on=on,
                              algorithm=algorithm)
            for i in range(0, len(queries), self.max_batch)
        ]
        out: List[Any] = []
        for f in futures:
            out.extend(f.result())
        return out

    def workload_stats(self) -> Dict[str, Any]:
        """Executor-side batching aggregates plus the shared per-class stats."""
        with self._agg_lock:
            agg = dict(self._agg)
        agg["mean_batch"] = (
            round(agg["batched_queries"] / agg["dispatches"], 2)
            if agg["dispatches"] else 0.0
        )
        agg["per_class"] = self.service.stats.snapshot()
        return agg

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.  With ``wait`` the queue drains first; without,
        still-queued futures are cancelled."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        with self._cv:
            if not wait:
                while self._queue:
                    task = self._queue.popleft()
                    task.future.cancel()
            self._cv.notify_all()
        if wait:
            for t in self._threads:
                t.join()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _enqueue(self, task: _Task) -> None:
        with self._cv:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            self._queue.append(task)
            obs_set_gauge("executor_queue_depth", len(self._queue))
            self._cv.notify()

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._shutdown:
                    self._cv.wait()
                if not self._queue:
                    return  # shutdown with a drained queue
                first = self._queue.popleft()
                tasks = [first]
                if first.single:
                    # Adaptive micro-batching: absorb whatever compatible
                    # single-query tasks are already waiting — batch size
                    # follows the instantaneous backlog.
                    budget = self.max_batch - 1
                    while (budget > 0 and self._queue and self._queue[0].single
                           and self._queue[0].on == first.on
                           and self._queue[0].algorithm == first.algorithm):
                        tasks.append(self._queue.popleft())
                        budget -= 1
                obs_set_gauge("executor_queue_depth", len(self._queue))
            try:
                self._run_tasks(tasks)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                # Safety net: _run_tasks handles its own failures; if
                # something still escapes, fail the affected futures and
                # keep the worker thread alive — a dead worker silently
                # shrinks the pool.
                for task in tasks:
                    if not task.future.done():
                        _resolve(task.future, exc=ServiceFault(
                            f"internal dispatch failure: "
                            f"{type(exc).__name__}: {exc}"
                        ))

    def _run_tasks(self, tasks: List[_Task]) -> None:
        # Transition every future to RUNNING (dropping ones the caller
        # cancelled while queued) so a later cancel() cannot race the
        # result-setting below.
        running = [t for t in tasks if t.future.set_running_or_notify_cancel()]
        # Route each task's queries up front: one caller's unroutable
        # query must fail that caller alone, never its batch-mates.
        live: List[Tuple[_Task, Set[str]]] = []
        for task in running:
            keys: Set[str] = set()
            try:
                for q in task.queries:
                    keys.add(self._router.route(q, task.on))
            except (TypeError, ValueError) as exc:
                _resolve(task.future, exc=exc)
                continue
            live.append((task, keys))
        if not live:
            return
        # Partition around the circuit breaker: a task touching a tripped
        # representation degrades to direct-on-G (answers unchanged — the
        # preservation theorem again), the rest dispatch normally.
        normal: List[_Task] = []
        degraded: List[_Task] = []
        for task, keys in live:
            tripped = [k for k in keys
                       if k != ORIGINAL and not self.breaker.allow(k)]
            if tripped:
                for k in tripped:
                    self.service.stats.record_fallback(
                        k, queries=len(task.queries)
                    )
                degraded.append(task)
            else:
                normal.append(task)
        on, algorithm = live[0][0].on, live[0][0].algorithm
        if normal:
            keys = set().union(*(k for t, k in live if t in normal))
            self._run_group(normal, on, algorithm, keys - {ORIGINAL})
        if degraded:
            self._run_group(degraded, ORIGINAL, None, set())

    def _run_group(self, group: List[_Task], on: str,
                   algorithm: Optional[str], keys: Set[str]) -> None:
        """Dispatch one compatible task group with timeout + retry."""
        queries: List[Any] = []
        for task in group:
            queries.extend(task.queries)
        # Deeper spans (engine.dispatch, epoch.build) nest under the first
        # traced submitter; per-task queue-wait/dispatch spans are recorded
        # retroactively below against each task's own context.
        trace_parent = next(
            (t.trace_ctx for t in group if t.trace_ctx is not None), None
        )
        attempt = 0
        while True:
            attempt += 1
            t_dispatch = (
                time.perf_counter() if (metrics_on() or tracing_on()) else 0.0
            )
            try:
                version, answers = self._attempt(
                    queries, on, algorithm, trace_parent
                )
            except Exception as exc:  # noqa: BLE001 - typed at the boundary
                for key in keys:
                    self.breaker.record_failure(key)
                if isinstance(exc, _RETRYABLE) and attempt <= self.retries:
                    obs_inc("executor_retries_total")
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                    continue
                self._fail_group(group, exc, attempt)
                return
            for key in keys:
                self.breaker.record_success(key)
            self._note_dispatch(len(group), len(queries))
            if t_dispatch:
                t_done = time.perf_counter()
                obs_observe("executor_dispatch_seconds", t_done - t_dispatch)
                for task in group:
                    if task.t_enqueue:
                        obs_observe("executor_queue_wait_seconds",
                                    t_dispatch - task.t_enqueue)
                    if task.trace_ctx is not None:
                        if task.t_enqueue:
                            record_span("executor.queue_wait", task.t_enqueue,
                                        t_dispatch, parent=task.trace_ctx)
                        record_span("executor.dispatch", t_dispatch, t_done,
                                    parent=task.trace_ctx, version=version,
                                    batch=len(queries))
            i = 0
            for task in group:
                chunk = answers[i:i + len(task.queries)]
                i += len(task.queries)
                # Which epoch answered — the stress harness correlates
                # answers with the exact graph they were computed on.
                task.future.epoch_version = version  # type: ignore[attr-defined]
                _resolve(task.future, chunk[0] if task.single else chunk)
            return

    def _attempt(self, queries: List[Any], on: str, algorithm: Optional[str],
                 trace_parent: Optional[Any] = None) -> Tuple[int, List[Any]]:
        """One dispatch attempt on the current epoch, under the executor's
        timeout."""

        def call() -> Tuple[int, List[Any]]:
            fault_point("executor.dispatch")
            with attach(trace_parent):
                with self.service.pin() as epoch:
                    answers = self._router.dispatch_batch(
                        queries, epoch, on=on, algorithm=algorithm,
                        stats=self.service.stats,
                    )
                    return epoch.version, answers

        if self.timeout_s is None:
            return call()
        try:
            return run_with_deadline(call, self.timeout_s, label="dispatch")
        except DeadlineExceeded as exc:
            obs_inc("executor_timeouts_total")
            raise QueryTimeout(
                f"micro-batch of {len(queries)} quer"
                f"{'y' if len(queries) == 1 else 'ies'} exceeded the "
                f"{self.timeout_s:g}s timeout"
            ) from exc

    @staticmethod
    def _fail_group(group: List[_Task], exc: BaseException,
                    attempts: int) -> None:
        """Fail every future in *group* with a typed, caller-safe error."""
        if isinstance(exc, (TypeError, ValueError, ServiceFault)):
            wrapped: BaseException = exc  # already part of the contract
        elif isinstance(exc, _RETRYABLE):
            wrapped = RetriesExhausted(
                f"dispatch failed after {attempts} attempt"
                f"{'' if attempts == 1 else 's'}: {type(exc).__name__}: {exc}"
            )
            wrapped.__cause__ = exc
        else:
            wrapped = ServiceFault(
                f"dispatch failed: {type(exc).__name__}: {exc}"
            )
            wrapped.__cause__ = exc
        for task in group:
            _resolve(task.future, exc=wrapped)

    def _note_dispatch(self, tasks: int, queries: int) -> None:
        obs_observe("executor_batch_queries", queries)
        with self._agg_lock:
            self._agg["tasks"] += tasks
            self._agg["dispatches"] += 1
            self._agg["batched_queries"] += queries
            if queries > self._agg["max_batch"]:
                self._agg["max_batch"] = queries


__all__ = ["QueryExecutor"]
