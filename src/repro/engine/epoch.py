"""Epoch snapshots — the immutable unit of publication for concurrent reads.

A :class:`GraphEngine` session interleaves queries and updates in one
thread.  The concurrent front (:mod:`repro.service`) needs the opposite
shape: many reader threads, one writer.  The classic RCU answer is to make
the readable state *immutable* and swap whole versions atomically — and
that is exactly what an :class:`Epoch` is:

* the frozen snapshot of ``G`` at one publication point (a
  :class:`~repro.graph.csr.CSRGraph`),
* its compressed representations ``Gr`` / ``Gb`` (built lazily, exactly
  once, from the epoch's own snapshot — deterministic and canonical, so
  every thread sees byte-identical artifacts),
* sealed :class:`~repro.queries.matching.MatchContext` caches shared by
  every reader pinned to the epoch,
* the pin/retire lifecycle: readers pin an epoch for the duration of one
  query (or batch), the writer retires a superseded epoch, and a retired
  epoch frees its artifact/context memory when its last reader drains.

An epoch speaks the router's session protocol (``artifact`` /
``context_for`` / ``evaluate_original``), so
:class:`~repro.engine.router.QueryRouter` dispatches over an epoch exactly
as it does over a full engine session — same code path, same answers.

The lazy artifact builds use double-checked locking: reads are a plain
dict probe (no lock), the build itself runs under a per-epoch lock so
concurrent first readers do the work once.  After :meth:`_free` the epoch
refuses to build anything new — serving from an unpinned retired epoch is
a lifecycle bug and raises :class:`EpochRetired` instead of silently
resurrecting freed state.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, NoReturn, Optional, Union

from repro.core.base import QueryPreservingCompression
from repro.core.pattern import compress_pattern, compress_pattern_csr
from repro.core.reachability import compress_reachability, compress_reachability_csr
from repro.engine.counters import bump
from repro.engine.router import ORIGINAL, RepresentationUnavailable
from repro.faults.deadline import DeadlineExceeded, run_with_deadline
from repro.faults.plan import fault_point
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import observe as obs_observe
from repro.obs.trace import trace_span
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.index.tol import TOLIndex
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability

#: representation key -> catalog variant name.
CATALOG_VARIANTS = {"reachability": "reachability", "pattern": "bisimulation"}


class EpochRetired(RuntimeError):
    """A freed (retired and fully drained) epoch was asked to serve."""


def compress_frozen(
    key: str,
    csr: CSRGraph,
    backend: str = "csr",
    catalog: Optional[Any] = None,
    digest: Optional[str] = None,
    counters: Optional[Dict[str, int]] = None,
    thawed: Optional[DiGraph] = None,
) -> QueryPreservingCompression:
    """Build the *key* artifact for a frozen graph, catalog-aware.

    The one place the "compute ``Gr``/``Gb`` from a snapshot" decision
    lives: a catalog (csr backend only) serves warm hits with zero
    recomputation, otherwise the artifact is compressed from the snapshot
    with the CSR kernels — or, for ``backend="dict"``, from the thawed
    graph through the reference pipeline (*thawed* lets callers share one
    thaw across both representations).  Both engine sessions and epochs
    delegate here, so the two serving paths cannot drift.
    """
    if key not in CATALOG_VARIANTS:
        raise ValueError(f"unknown representation {key!r}")
    if backend == "csr" and catalog is not None:
        if digest is None:
            digest = catalog.put(csr)
        warm = catalog.has_variant(digest, CATALOG_VARIANTS[key])
        builder = catalog.reachability if key == "reachability" else catalog.bisimulation
        artifact = builder(digest)
        if counters is not None and warm:
            bump(counters, "catalog_warm_hits")
        return artifact
    if backend == "csr":
        if key == "reachability":
            return compress_reachability_csr(csr)
        return compress_pattern_csr(csr)
    graph = thawed if thawed is not None else csr.to_digraph()
    if key == "reachability":
        return compress_reachability(graph, backend="dict")
    return compress_pattern(graph)


class Epoch:
    """One immutable published version of a graph and its representations.

    Readers never mutate an epoch (lazy builds are internal and idempotent);
    the writer that published it is the only party that may :meth:`retire`
    it.  ``version`` is the publication ordinal assigned by the publisher.
    """

    def __init__(
        self,
        csr: CSRGraph,
        version: int = 0,
        *,
        backend: str = "csr",
        catalog: Optional[Any] = None,
        digest: Optional[str] = None,
        counters: Optional[Dict[str, int]] = None,
        build_deadline_s: Optional[float] = None,
    ) -> None:
        if backend not in ("csr", "dict"):
            raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")
        if build_deadline_s is not None and build_deadline_s <= 0:
            raise ValueError("build_deadline_s must be positive (or None)")
        self.version = version
        self.csr = csr
        self.backend = backend
        self._catalog = catalog
        self._digest = digest
        #: Shared build counters (the publishing engine's ``counters``).
        self._counters = counters
        #: Wall-clock budget for each lazy Gr/Gb build; ``None`` = no limit.
        self.build_deadline_s = build_deadline_s
        self._build_lock = threading.RLock()
        self._artifacts: Dict[str, QueryPreservingCompression] = {}
        #: key -> reason: representations whose build failed or timed out
        #: this epoch.  Degradation is sticky for the epoch's lifetime — a
        #: fresh publication gets a fresh chance, but within an epoch a
        #: failed build is not retried on every query (no rebuild storm).
        self._degraded: Dict[str, str] = {}
        self._contexts: Dict[str, MatchContext] = {}
        self._thawed: Optional[DiGraph] = None  # dict-backend builds share one thaw
        #: Sealed TOL reachability labels over this epoch's Gr — built once
        #: (lazily, first routed reachability query), then read-only and
        #: shared by every reader thread.  A failed build degrades the
        #: epoch to label-free reachability (BFS on Gr) — sticky, like the
        #: artifact degradations, but it never refuses the representation.
        self._tol: Optional["TOLIndex"] = None
        # Pin/retire lifecycle (RCU-style grace period accounting).
        self._pin_lock = threading.Lock()
        self._pins = 0
        self._retired = False
        self._freed = False
        self._forget = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def pins(self) -> int:
        """Current reader count (diagnostic; racy by nature)."""
        return self._pins

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def freed(self) -> bool:
        """True once retired *and* drained — caches have been released."""
        return self._freed

    def acquire(self) -> "Epoch":
        """Pin the epoch for reading.  Publishers call this under their
        publication lock so a pin can never land on an epoch after its
        retire decision observed zero readers."""
        with self._pin_lock:
            if self._freed:
                raise EpochRetired(
                    f"epoch {self.version} was retired and freed; pin the "
                    "current epoch through the service, not a stale handle"
                )
            self._pins += 1
        return self

    def release(self) -> None:
        """Unpin; the last reader out of a retired epoch frees it."""
        free = False
        with self._pin_lock:
            if self._pins <= 0:
                raise RuntimeError("epoch release without a matching acquire")
            self._pins -= 1
            if self._retired and self._pins == 0 and not self._freed:
                self._freed = True
                free = True
        if free:
            self._free()

    def retire(self, forget: bool = False) -> bool:
        """Mark superseded (writer-side).  Frees immediately when no reader
        is pinned; otherwise the last :meth:`release` frees.  Returns True
        when the memory was released synchronously.  With *forget* the
        catalog's memo of this epoch's digest goes when the epoch is freed
        (the publisher passes it unless the successor has the same digest)."""
        free = False
        with self._pin_lock:
            self._retired = True
            self._forget = forget
            if self._pins == 0 and not self._freed:
                self._freed = True
                free = True
        if free:
            self._free()
        return free

    def _free(self) -> None:
        """Drop the derived state (snapshot stays — it may be catalog-shared)."""
        with self._build_lock:
            self._artifacts.clear()
            self._contexts.clear()
            self._thawed = None
            self._tol = None
        if self._forget and self._catalog is not None and self._digest is not None:
            self._catalog.forget(self._digest)

    def __enter__(self) -> "Epoch":
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # ------------------------------------------------------------------
    # Router session protocol
    # ------------------------------------------------------------------
    def artifact(self, key: str) -> QueryPreservingCompression:
        """The *key* compression artifact, built exactly once per epoch.

        A build that raises or exceeds ``build_deadline_s`` marks *key*
        degraded for the rest of the epoch and raises
        :class:`~repro.engine.router.RepresentationUnavailable` — the
        router catches it and answers directly on ``G``, so degradation
        changes the route, never the answer.
        """
        artifact = self._artifacts.get(key)  # lock-free fast path
        if artifact is not None:
            return artifact
        with self._build_lock:
            artifact = self._artifacts.get(key)
            if artifact is None:
                reason = self._degraded.get(key)
                if reason is not None:
                    raise RepresentationUnavailable(key, reason)
                self._check_serving()
                try:
                    artifact = self._build(key)
                except (EpochRetired, RepresentationUnavailable):
                    raise
                except DeadlineExceeded as exc:
                    self._degrade(key, f"build exceeded {exc.timeout:g}s deadline")
                except Exception as exc:  # noqa: BLE001 - degrade, don't die
                    self._degrade(key, f"build failed: {type(exc).__name__}: {exc}")
                self._artifacts[key] = artifact
                if self._counters is not None:
                    bump(self._counters, "artifact_builds")
        return artifact

    def _build(self, key: str) -> QueryPreservingCompression:
        """Run one ``compress_frozen`` build, under the epoch's deadline."""

        def build() -> QueryPreservingCompression:
            # Inside the deadline scope: injected slowness/errors at this
            # point hit the same timeout machinery a real slow build would.
            fault_point(f"epoch.build.{key}")
            return compress_frozen(
                key,
                self.csr,
                self.backend,
                self._catalog,
                self._digest,
                self._counters,
                thawed=self._thaw() if self.backend == "dict" else None,
            )

        start = time.perf_counter()
        with trace_span("epoch.build", representation=key, version=self.version):
            if self.build_deadline_s is None:
                artifact = build()
            else:
                artifact = run_with_deadline(
                    build, self.build_deadline_s,
                    label=f"epoch {self.version} {key} build",
                )
        obs_inc("epoch_builds_total", (key,))
        obs_observe("epoch_build_seconds", time.perf_counter() - start, (key,))
        return artifact

    def _degrade(self, key: str, reason: str) -> NoReturn:
        """Record a failed build and refuse the representation this epoch."""
        self._degraded[key] = reason
        if self._counters is not None:
            bump(self._counters, "degraded_builds")
        obs_inc("epoch_degraded_total", (key,))
        raise RepresentationUnavailable(key, reason)

    def context_for(self, key: str) -> Optional[Any]:
        """The epoch's shared evaluation cache for representation *key*.

        Pattern and original targets get one sealed
        :class:`MatchContext` per epoch — built once, then read-only and
        safely shared by every reader thread (the original one only on
        request: see :meth:`evaluate_original`); reachability gets the
        epoch's sealed :class:`~repro.index.tol.TOLIndex` (``None`` when
        its build degraded — the evaluator then runs BFS on ``Gr``).
        """
        if key == "reachability":
            return self._tol_index()
        if key not in ("pattern", ORIGINAL):
            raise ValueError(f"unknown representation {key!r}")
        ctx = self._contexts.get(key)  # lock-free fast path
        if ctx is not None:
            return ctx
        with self._build_lock:
            ctx = self._contexts.get(key)
            if ctx is None:
                self._check_serving()
                if key == "pattern":
                    ctx = MatchContext(
                        self.artifact("pattern").compressed, backend=self.backend
                    )
                else:
                    ctx = MatchContext(self.csr)
                ctx.seal()
                self._contexts[key] = ctx
        return ctx

    def _tol_index(self) -> Optional[TOLIndex]:
        """The epoch's sealed TOL label index, or ``None`` when degraded.

        Built exactly once under the epoch's build lock (double-checked,
        like the artifacts) and subject to the same ``build_deadline_s``
        and fault-injection point (``epoch.build.tol``).  Unlike artifact
        degradation this never raises: an epoch without labels still
        serves reachability — BFS on ``Gr``, same answers, slower route.
        A catalog-backed epoch rehydrates the persisted label variant
        (warm hit: zero recompute); the artifact ids are canonical on both
        sides of that seam, so the rehydrated labels answer identically.
        """
        index = self._tol  # lock-free fast path
        if index is not None:
            return index
        if "tol" in self._degraded:
            return None
        with self._build_lock:
            index = self._tol
            if index is not None:
                return index
            if "tol" in self._degraded:
                return None
            self._check_serving()

            def build() -> TOLIndex:
                fault_point("epoch.build.tol")
                if self.backend == "csr" and self._catalog is not None:
                    digest = self._digest
                    if digest is None:
                        digest = self._catalog.put(self.csr)
                    built: TOLIndex = self._catalog.tol(digest, gr=gr)
                    return built
                return TOLIndex(gr, backend=self.backend)

            start = time.perf_counter()
            try:
                # Fetched here, not inside build(): the build lock is
                # re-entrant for this thread, not for a deadline helper.
                gr = self.artifact("reachability").compressed
                with trace_span("epoch.build", representation="tol",
                                version=self.version):
                    if self.build_deadline_s is None:
                        index = build()
                    else:
                        index = run_with_deadline(
                            build, self.build_deadline_s,
                            label=f"epoch {self.version} tol build",
                        )
            except EpochRetired:
                raise
            except DeadlineExceeded as exc:
                self._degrade_tol(f"build exceeded {exc.timeout:g}s deadline")
                return None
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                self._degrade_tol(f"build failed: {type(exc).__name__}: {exc}")
                return None
            dt = time.perf_counter() - start
            obs_inc("epoch_builds_total", ("tol",))
            obs_observe("epoch_build_seconds", dt, ("tol",))
            obs_observe("tol_build_seconds", dt)
            if self._counters is not None:
                bump(self._counters, "tol_builds")
            self._tol = index
        return index

    def _degrade_tol(self, reason: str) -> None:
        """Record a failed label build; reachability stays label-free this
        epoch (sticky, no rebuild storm) but is never refused."""
        self._degraded["tol"] = reason
        if self._counters is not None:
            bump(self._counters, "degraded_builds")
        obs_inc("epoch_degraded_total", ("tol",))
        obs_inc("tol_fallbacks_total", ("build",))

    def evaluate_original(self, query: Any, algorithm: Optional[str] = None) -> Any:
        """Direct evaluation on the epoch's frozen ``G``.

        A direct pattern query does not *create* the shared ORIGINAL
        context: its ``G``-sized row tables (``n`` rows of ``n`` bits per
        bound — 18 MB at 12 k nodes) would be built inside whichever
        requests first used each bound (70 ms instead of 5) and then stay
        pinned with the epoch.  Without one the query runs on a context of
        its own that dies with the call, so every direct query costs the
        same.  The shared context is used once somebody asked for it
        (``context_for("original")`` — a caller timing warm direct
        evaluation does).
        """
        if isinstance(query, ReachabilityQuery):
            return evaluate_reachability(
                self.csr, query.source, query.target,
                algorithm if algorithm is not None else "bfs",
            )
        if isinstance(query, GraphPattern):
            if algorithm not in (None, "match"):
                raise ValueError(f"unknown algorithm {algorithm!r}; expected 'match'")
            return match(query, self.csr, self._contexts.get(ORIGINAL))
        raise TypeError(
            f"cannot evaluate {type(query).__name__} on the original graph; "
            "expected a ReachabilityQuery or GraphPattern"
        )

    # ------------------------------------------------------------------
    def _thaw(self) -> DiGraph:
        """Thawed copy for dict-backend builds (shared across both keys).

        Callers already hold ``_build_lock``.
        """
        if self._thawed is None:
            self._thawed = self.csr.to_digraph()
        return self._thawed

    def _check_serving(self) -> None:
        if self._freed:
            raise EpochRetired(
                f"epoch {self.version} was retired and freed; it can no "
                "longer build representations"
            )

    def describe(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "nodes": self.csr.n,
            "edges": self.csr.m,
            "backend": self.backend,
            "digest": self._digest,
            "materialized": sorted(self._artifacts),
            "tol": self._tol is not None,
            "degraded": dict(sorted(self._degraded.items())),
            "pins": self._pins,
            "retired": self._retired,
            "freed": self._freed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(v{self.version}, |V|={self.csr.n}, |E|={self.csr.m}, "
            f"pins={self._pins}, retired={self._retired})"
        )


#: Union accepted by helpers that serve either a live session or an epoch.
ServingTarget = Union["Epoch", Any]
