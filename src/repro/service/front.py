"""``EngineService`` — the thread-safe concurrent front over ``GraphEngine``.

The paper's economics are *compress once, query forever*; the ROADMAP's
target is heavy concurrent traffic.  This module is the bridge: one
single-writer :class:`~repro.engine.session.GraphEngine` owns the mutable
lifecycle, and every published version of the graph is an immutable
:class:`~repro.engine.epoch.Epoch` that any number of reader threads query
without taking the writer's locks.

Concurrency contract (RCU-style):

* **readers** pin the current epoch for the duration of one query or
  batch (:meth:`EngineService.pin` — a reference-count bump under a
  micro-lock; the evaluation itself is lock-free over immutable state);
* **the writer** (:meth:`EngineService.apply`) is serialised by a writer
  lock: it drives the update batch through the engine, freezes, and
  *publishes* a new epoch by swapping one reference; in-flight readers
  keep answering on their pinned epoch — answers are always exact for
  the epoch's graph;
* **retired epochs** free their artifact/context memory as soon as their
  reader count drains (immediately, when nobody was pinned).

Every epoch's answers equal from-scratch evaluation on that epoch's graph
— the stress harness (:mod:`repro.service.epoch_stress`) verifies exactly
that against replayed update journals, across backends and hash seeds.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
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
from repro.engine.updates import EdgeUpdate, UpdateJournal, effective_updates
from repro.faults.plan import fault_point
from repro.graph.digraph import DiGraph
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import observe as obs_observe
from repro.obs.serve import ObsHTTPServer
from repro.obs.trace import trace_span
from repro.service.errors import ApplyError


class EngineService:
    """A concurrent query service over one graph and its compressions.

    Parameters
    ----------
    source, catalog, backend, router:
        Forwarded to the underlying single-writer
        :class:`~repro.engine.session.GraphEngine` (same adoption
        semantics for a ``DiGraph`` source).  The engine's auto-refreeze
        is disabled — the service freezes at every publication anyway.
    journal:
        When true, keep the writer-side :class:`UpdateJournal` (plus a
        copy of the initial graph) so :meth:`graph_at` can reconstruct
        any epoch's exact graph.  Verification machinery — leave off in
        production unless you need time travel; it grows with the update
        history.
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
        backend: str = "csr",
        router: Optional[QueryRouter] = None,
        journal: bool = False,
        build_deadline_s: Optional[float] = None,
        obs_http: Optional[ObsHTTPServer] = None,
    ) -> None:
        self._engine = GraphEngine(
            source, catalog, backend=backend, refreeze_threshold=None, router=router
        )
        self._catalog = catalog
        self._build_deadline_s = build_deadline_s
        self._router = router if router is not None else QueryRouter()
        #: Shared per-class routing stats — one instance across all reader
        #: threads and executor workers (feeds the router's hot-first probe).
        self.stats = RouterStats()
        self._writer_lock = threading.RLock()
        self._publish_lock = threading.Lock()
        self._journal = UpdateJournal() if journal else None
        self._journal_base: Optional[DiGraph] = (
            self._engine.graph.copy() if journal else None
        )
        self._closed = False
        self._version = 0
        self._current: Epoch = self._make_epoch(0)
        #: Retired epochs whose readers have not drained yet (diagnostics).
        self._draining: List[Epoch] = []
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
    def backend(self) -> str:
        return self._engine.backend

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
        """The current epoch, *unpinned* — peek only.  Query through
        :meth:`pin`/:meth:`query` so publication cannot free state under
        you."""
        return self._current

    def draining(self) -> List[Epoch]:
        """Retired epochs still pinned by in-flight readers (diagnostic)."""
        with self._publish_lock:
            self._draining = [e for e in self._draining if not e.freed]
            return list(self._draining)

    def describe(self) -> Dict[str, Any]:
        epoch = self._current
        return {
            "version": self._version,
            "backend": self.backend,
            "draining": len(self.draining()),
            "closed": self._closed,
            "epoch": epoch.describe(),
            "stats": self.stats.snapshot(),
            **self._engine.counters,
        }

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @contextmanager
    def pin(self) -> Iterator[Epoch]:
        """Pin the current epoch for a read section.

        The yielded epoch speaks the router's session protocol; everything
        evaluated inside the ``with`` block answers on this one immutable
        version, even if the writer publishes concurrently.
        """
        epoch = self._acquire_current()
        try:
            yield epoch
        finally:
            epoch.release()

    def _acquire_current(self) -> Epoch:
        with self._publish_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            return self._current.acquire()

    def query(self, q: Any, *, on: str = "auto",
              algorithm: Optional[str] = None) -> Any:
        """Answer one query on the current epoch (thread-safe)."""
        with self.pin() as epoch:
            with trace_span("service.query", version=epoch.version, queries=1):
                return self._router.dispatch(
                    q, epoch, on=on, algorithm=algorithm, stats=self.stats
                )

    def query_versioned(
        self, q: Any, *, on: str = "auto", algorithm: Optional[str] = None
    ) -> Tuple[int, Any]:
        """Like :meth:`query` but returns ``(epoch_version, answer)`` —
        the stress harness correlates answers with the exact graph they
        were computed on."""
        with self.pin() as epoch:
            with trace_span("service.query", version=epoch.version, queries=1):
                answer = self._router.dispatch(
                    q, epoch, on=on, algorithm=algorithm, stats=self.stats
                )
            return epoch.version, answer

    def query_batch(self, qs: Iterable[Any], *, on: str = "auto",
                    algorithm: Optional[str] = None) -> List[Any]:
        """Answer a batch on one pinned epoch (micro-batched dispatch)."""
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
        do not error).  Readers pinned to the previous epoch finish their
        queries on it; the superseded epoch is retired and frees its
        derived state when the last such reader drains.

        A failure anywhere between accepting the batch and publishing the
        new epoch rolls the writer back to the prior epoch's exact graph
        and raises :class:`~repro.service.errors.ApplyError`: readers
        never observe a half-applied batch (``self._current`` is only ever
        swapped to a fully-built epoch), and the journal records only
        published versions.
        """
        deltas = list(deltas)
        with self._writer_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            t_publish = time.perf_counter()
            prior = self._current
            new_version = self._version + 1
            try:
                fault_point("service.apply")
                # The overlay simulation is journal-only bookkeeping (the
                # engine recomputes its own); skip it on the plain write path.
                effective = (
                    effective_updates(self._engine.graph, deltas)
                    if self._journal is not None else None
                )
                report = self._engine.apply(deltas)
                new_epoch = self._make_epoch(new_version)
                fault_point("service.publish")
            except (TypeError, ValueError):
                # Caller-input validation — the engine rejects before
                # touching state, no rollback needed, surface as-is.
                raise
            except Exception as exc:  # noqa: BLE001 - transactional boundary
                self._rollback(prior, exc)
            if self._journal is not None and effective is not None:
                self._journal.record(new_version, effective)
            self._publish(new_epoch)
            obs_observe("service_publish_seconds",
                        time.perf_counter() - t_publish)
        return report

    def refreeze(self) -> Epoch:
        """Force a publication without updates (e.g. after catalog warm)."""
        with self._writer_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            t_publish = time.perf_counter()
            prior = self._current
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
        swap never happened).  Only the writer-side engine may hold
        partially-applied state, so it is rebuilt from the prior epoch's
        frozen snapshot: cheap (the CSR is already frozen and, with a
        catalog, content-addressed, so no recompression happens) and
        exact (the snapshot *is* the published graph).
        """
        counters = self._engine.counters
        # The batch may have been stored before it failed: that graph will
        # never be served, so the catalog handle need not remember it.
        failed = self._engine._digest
        if failed is not None and failed != prior._digest:
            self._catalog.forget(failed)
        self._engine = GraphEngine(
            prior.csr,
            self._catalog,
            backend=self._engine.backend,
            refreeze_threshold=None,
            router=self._router,
        )
        # Keep the lifecycle counters dict *identity*: published epochs
        # (including *prior*, still serving) bump into it.
        counters.update(
            {k: v for k, v in self._engine.counters.items() if k not in counters}
        )
        self._engine.counters = counters
        bump(counters, "apply_rollbacks")
        obs_inc("service_rollbacks_total")
        raise ApplyError(
            f"update batch failed before publication "
            f"({type(exc).__name__}: {exc}); rolled back to epoch "
            f"{prior.version}",
            version=prior.version,
        ) from exc

    def _publish(self, new_epoch: Epoch) -> Epoch:
        """Swap in *new_epoch* and retire its predecessor.

        Callers hold the writer lock; the swap itself happens under the
        publish lock so no pin can land between the decision and the
        retire.
        """
        with self._publish_lock:
            old, self._current = self._current, new_epoch
            self._version = new_epoch.version
            self._draining = [e for e in self._draining if not e.freed]
            self._draining.append(old)
        old.retire(forget=old._digest != new_epoch._digest)
        obs_inc("service_publications_total")
        return new_epoch

    # ------------------------------------------------------------------
    # Verification (journal-backed)
    # ------------------------------------------------------------------
    def graph_at(self, version: int) -> DiGraph:
        """The exact graph epoch *version* served (journal required)."""
        if self._journal is None or self._journal_base is None:
            raise ValueError("service was built without journal=True")
        return self._journal.graph_at(self._journal_base, version)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the current epoch and refuse further queries/updates.
        A mounted introspection server is stopped with the service."""
        with self._writer_lock:
            with self._publish_lock:
                if self._closed:
                    return
                self._closed = True
                current = self._current
                self._draining = [e for e in self._draining if not e.freed]
            current.retire(forget=True)
            if self._obs_http is not None:
                self._obs_http.stop()

    def __enter__(self) -> "EngineService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineService(v{self._version}, backend={self.backend!r}, "
            f"closed={self._closed})"
        )
