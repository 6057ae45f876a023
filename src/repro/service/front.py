"""``EngineService`` — the thread-safe concurrent front over ``GraphEngine``.

The paper's economics are *compress once, query forever*; the ROADMAP's
target is heavy concurrent traffic.  This module is the bridge: one
single-writer :class:`~repro.engine.session.GraphEngine` owns the mutable
lifecycle, and every published version of the graph is an immutable
:class:`~repro.engine.epoch.Epoch` that any number of reader threads query
without taking a lock.

Concurrency contract:

* **readers** read the current epoch once, into a local, and answer the
  whole query or batch on that immutable version — no lock, no counter;
* **the writer** (:meth:`EngineService.apply`) is serialised by a writer
  lock: it drives the update batch through the engine, freezes, and
  *publishes* a new epoch with one attribute store; in-flight readers
  keep answering on the epoch they hold — answers are always exact for
  the epoch's graph;
* **superseded epochs** are freed by reference counting when the last
  reader holding one returns (at once, when nobody held it).

Every epoch's answers equal from-scratch evaluation on that epoch's graph
— the stress harness (:mod:`repro.service.epoch_stress`) verifies exactly
that against the graph its writer recorded for each version, across hash
seeds and fault plans.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Tuple,
)

from repro.engine.counters import RouterStats, bump
from repro.engine.epoch import Epoch
from repro.engine.router import QueryRouter
from repro.engine.session import GraphEngine, GraphSource, UpdateReport
from repro.engine.updates import EdgeUpdate
from repro.faults.plan import fault_point
from repro.index.tol import TOLError
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import metrics_on
from repro.obs.metrics import observe as obs_observe
from repro.obs.serve import ObsHTTPServer
from repro.obs.trace import trace_span, tracing_on
from repro.queries.reachability import ReachabilityQuery
from repro.service.errors import ApplyError


class EngineService:
    """A concurrent query service over one graph and its compressions.

    Parameters
    ----------
    source, catalog, router:
        Forwarded to the underlying single-writer
        :class:`~repro.engine.session.GraphEngine`, which freezes a
        ``DiGraph`` source and holds ``G`` as that snapshot plus the net
        delta of the batch in flight — the writer never thaws it.  The
        engine's auto-refreeze is disabled — the service freezes at every
        publication anyway.
    build_deadline_s:
        Wall-clock budget for each published epoch's lazy Gr/Gb builds.
        A build over budget degrades that representation to direct-on-G
        for the epoch (answers unchanged).  ``None`` (default) = no limit.
    obs_http:
        An :class:`~repro.obs.serve.ObsHTTPServer` for this service to
        lifecycle-manage: the service mounts itself on it, starts it
        here, and stops it in :meth:`close`.  The server's ``/health``,
        ``/ready`` and ``/epochs`` endpoints then introspect this
        service live (localhost bind by default — see the serve module's
        security note).
    """

    def __init__(
        self,
        source: GraphSource,
        catalog: Optional[Any] = None,
        *,
        router: Optional[QueryRouter] = None,
        build_deadline_s: Optional[float] = None,
        obs_http: Optional[ObsHTTPServer] = None,
    ) -> None:
        self._engine = GraphEngine(
            source, catalog, refreeze_threshold=None, router=router
        )
        self._catalog = catalog
        self._build_deadline_s = build_deadline_s
        self._router = router if router is not None else QueryRouter()
        #: Shared per-class routing stats — one instance across all reader
        #: threads and executor workers.
        self.stats = RouterStats()
        self._writer_lock = threading.RLock()
        self._version = 0
        #: The published epoch; ``None`` once the service is closed.
        self._current: Optional[Epoch] = self._make_epoch(0)
        #: Mounted introspection server (started here, stopped in close).
        self._obs_http = obs_http
        if obs_http is not None:
            obs_http.service = self
            obs_http.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the current epoch (publication ordinal)."""
        return self._version

    @property
    def counters(self) -> Dict[str, int]:
        """The underlying engine's lifecycle counters."""
        return self._engine.counters

    @property
    def obs_http(self) -> Optional[ObsHTTPServer]:
        """The introspection server this service lifecycle-manages."""
        return self._obs_http

    def catalog_lock_status(self) -> Optional[Dict[str, Any]]:
        """The catalog writer-lock's operator snapshot (``/health`` feed);
        ``None`` without a catalog."""
        if self._catalog is None:
            return None
        lock = self._catalog.lock()
        status = getattr(lock, "status", None)
        return status() if callable(status) else None

    @property
    def current(self) -> Epoch:
        """The current epoch.  It stays exact and serving for as long as
        the caller holds it, whatever the writer publishes meanwhile;
        ``RuntimeError`` once the service is closed."""
        epoch = self._current
        if epoch is None:
            raise RuntimeError("service is closed")
        return epoch

    def describe(self) -> Dict[str, Any]:
        epoch = self._current
        return {
            "version": self._version,
            "closed": epoch is None,
            "epoch": epoch.describe() if epoch is not None else None,
            "stats": self.stats.snapshot(),
            **self._engine.counters,
        }

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @contextmanager
    def pin(self) -> Iterator[Epoch]:
        """The current epoch, for a read section.

        The yielded epoch is what the router reads; everything evaluated
        inside the ``with`` block answers on this one immutable version,
        even if the writer publishes concurrently.  Holding the reference
        is all it takes: there is nothing to release.
        """
        yield self.current

    def query(self, q: Any, *, on: str = "auto",
              algorithm: Optional[str] = None) -> Any:
        """Answer one query on the current epoch (thread-safe)."""
        return self.query_versioned(q, on=on, algorithm=algorithm)[1]

    def query_versioned(
        self, q: Any, *, on: str = "auto", algorithm: Optional[str] = None
    ) -> Tuple[int, Any]:
        """Like :meth:`query` but returns ``(epoch_version, answer)`` —
        the stress harness correlates answers with the exact graph they
        were computed on.

        A plain ``ReachabilityQuery`` on the default route runs the current
        epoch's compiled reach path (:meth:`Epoch.reach_fn`) with no router
        frame.  Everything else, and a reach query the closure cannot
        serve, goes through :meth:`QueryRouter.dispatch`, which picks the
        slower rung and records why: routes can change, answers cannot.
        """
        epoch = self._current
        if epoch is None:
            raise RuntimeError("service is closed")
        if type(q) is ReachabilityQuery and on == "auto" and algorithm is None:
            reach = self._router.compiled_reach(epoch)
            if reach is not None:
                observed = metrics_on() or tracing_on()
                try:
                    answer = (self._observed_reach(reach, q, epoch) if observed
                              else reach(q.source, q.target))
                except (TOLError, KeyError):
                    pass  # the router re-answers it and records the breaker failure
                else:
                    if not observed:
                        self.stats.tally_reachability()
                    return epoch.version, answer
        with trace_span("service.query", version=epoch.version, queries=1):
            answer = self._router.dispatch(
                q, epoch, on=on, algorithm=algorithm, stats=self.stats
            )
        return epoch.version, answer

    def _observed_reach(self, reach: Callable[[Any, Any], bool],
                        q: ReachabilityQuery, epoch: Epoch) -> bool:
        """The compiled reach path in a ``service.query`` span, timed into
        :meth:`RouterStats.record` when a registry is installed."""
        start = time.perf_counter()
        with trace_span("service.query", version=epoch.version, queries=1):
            answer = reach(q.source, q.target)
        if metrics_on():
            self.stats.record("reachability", time.perf_counter() - start)
        else:
            self.stats.tally_reachability()
        return answer

    def query_batch(self, qs: Iterable[Any], *, on: str = "auto",
                    algorithm: Optional[str] = None) -> List[Any]:
        """Answer a batch on one epoch (micro-batched dispatch)."""
        queries = list(qs)
        with self.pin() as epoch:
            with trace_span("service.query", version=epoch.version,
                            queries=len(queries)):
                return self._router.dispatch_batch(
                    queries, epoch, on=on, algorithm=algorithm, stats=self.stats
                )

    # ------------------------------------------------------------------
    # Write side (single writer)
    # ------------------------------------------------------------------
    def _make_epoch(self, version: int) -> Epoch:
        return self._engine.epoch(
            version, build_deadline_s=self._build_deadline_s
        )

    def apply(self, deltas: Iterable[EdgeUpdate]) -> UpdateReport:
        """Apply a ΔG batch and publish a new epoch — transactionally.

        Serialised by the writer lock (concurrent writers queue up, they
        do not error).  Readers holding the previous epoch finish their
        queries on it; the superseded epoch and its derived state are
        freed when the last such reader returns.

        A failure anywhere between accepting the batch and publishing the
        new epoch rolls the writer back to the prior epoch's exact graph
        and raises :class:`~repro.service.errors.ApplyError`: readers
        never observe a half-applied batch (``self._current`` is only ever
        swapped to a fully-built epoch).
        """
        deltas = list(deltas)
        with self._writer_lock:
            prior = self.current
            t_publish = time.perf_counter()
            new_version = self._version + 1
            try:
                fault_point("service.apply")
                report = self._engine.apply(deltas)
                new_epoch = self._make_epoch(new_version)
                fault_point("service.publish")
            except (TypeError, ValueError):
                # Caller-input validation — the engine rejects before
                # touching state, no rollback needed, surface as-is.
                raise
            except Exception as exc:  # noqa: BLE001 - transactional boundary
                self._rollback(prior, exc)
            self._publish(new_epoch)
            obs_observe("service_publish_seconds",
                        time.perf_counter() - t_publish)
        return report

    def refreeze(self) -> Epoch:
        """Force a publication without updates (e.g. after catalog warm)."""
        with self._writer_lock:
            prior = self.current
            t_publish = time.perf_counter()
            try:
                new_epoch = self._make_epoch(self._version + 1)
            except Exception as exc:  # noqa: BLE001 - transactional boundary
                self._rollback(prior, exc)
            published = self._publish(new_epoch)
            obs_observe("service_publish_seconds",
                        time.perf_counter() - t_publish)
            return published

    def _rollback(self, prior: Epoch, exc: BaseException) -> NoReturn:
        """Reset the writer to *prior*'s exact graph and raise ApplyError.

        Readers are untouched — ``self._current`` still is *prior* (the
        swap never happened).  Only the writer may hold partially-applied
        state — a logged delta, or a snapshot nobody will serve — so it is
        reset in place to the prior epoch's frozen snapshot and digest:
        cheap (nothing is thawed or recompressed) and exact (the snapshot
        *is* the published graph).  A graph the batch stored before it
        failed leaves the catalog's memo with the writer's last reference.
        """
        self._engine.reset(prior.csr, prior._digest)
        bump(self._engine.counters, "apply_rollbacks")
        obs_inc("service_rollbacks_total")
        raise ApplyError(
            f"update batch failed before publication "
            f"({type(exc).__name__}: {exc}); rolled back to epoch "
            f"{prior.version}",
            version=prior.version,
        ) from exc

    def _publish(self, new_epoch: Epoch) -> Epoch:
        """Swap in *new_epoch* (callers hold the writer lock): one store,
        which readers see whole.  The predecessor lives on in the readers
        still holding it, and no longer."""
        self._current = new_epoch
        self._version = new_epoch.version
        obs_inc("service_publications_total")
        return new_epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the current epoch and refuse further queries/updates; the
        epoch is freed when the readers still holding it return.  A
        mounted introspection server is stopped with the service."""
        with self._writer_lock:
            if self._current is None:
                return
            self._current = None
            if self._obs_http is not None:
                self._obs_http.stop()

    def __enter__(self) -> "EngineService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineService(v{self._version}, closed={self._current is None})"
        )
