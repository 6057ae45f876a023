"""Epoch snapshots — the immutable unit of publication for concurrent reads.

A :class:`GraphEngine` interleaves queries and updates in one thread.
The concurrent front (:mod:`repro.service`) needs the opposite shape:
many reader threads, one writer.  The answer is to make the readable
state *immutable* and swap whole versions with one reference store — and
that is exactly what an :class:`Epoch` is:

* the frozen snapshot of ``G`` at one publication point (a
  :class:`~repro.graph.csr.CSRGraph`),
* its compressed representations ``Gr`` / ``Gb`` (built lazily, exactly
  once, from the epoch's own snapshot — deterministic and canonical, so
  every thread sees byte-identical artifacts),
* sealed :class:`~repro.queries.matching.MatchContext` caches shared by
  every reader holding the epoch.

An epoch has no lifecycle of its own.  A reader takes a reference to the
current epoch and answers on it; the writer publishes a successor by
swapping the service's reference.  A superseded epoch — its artifacts,
contexts, labels and compiled closure — is freed by reference counting
the moment its last reader drops it, and never before: nothing a
published epoch holds refers back to it, so no collector pass is needed.

Every read goes through an epoch: :class:`~repro.engine.router.QueryRouter`
dispatches over its ``artifact`` / ``context_for`` / ``evaluate_original``.
The service publishes epochs built from a snapshot alone; a standalone
:class:`~repro.engine.session.GraphEngine` reads through a private *view*
epoch that is handed the artifacts its incremental maintainers keep exact
(``artifacts=``) and the labels it repaired across the last update batch
(``tol=``).  One implementation of the lazy, build-locked,
deadline-bounded, degradable read state serves both.

The lazy artifact builds use double-checked locking: reads are a plain
dict probe (no lock), the build itself runs under a per-epoch lock so
concurrent first readers do the work once.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.core.base import QueryPreservingCompression
from repro.core.pattern import compress_pattern_csr
from repro.core.reachability import ReachabilityCompression, compress_reachability_csr
from repro.engine.counters import bump
from repro.engine.router import ORIGINAL, RepresentationUnavailable
from repro.faults.deadline import DeadlineExceeded, run_with_deadline
from repro.faults.plan import fault_point
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import observe as obs_observe
from repro.obs.trace import trace_span
from repro.graph.csr import CSRGraph
from repro.index.tol import TOLIndex
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability

#: representation key -> catalog variant name.
CATALOG_VARIANTS = {"reachability": "reachability", "pattern": "bisimulation"}

_T = TypeVar("_T")


def compress_frozen(
    key: str,
    csr: CSRGraph,
    catalog: Optional[Any] = None,
    digest: Optional[str] = None,
    counters: Optional[Dict[str, int]] = None,
) -> QueryPreservingCompression:
    """Build the *key* artifact for a frozen graph, catalog-aware.

    The one place the "compute ``Gr``/``Gb`` from a snapshot" decision
    lives: a catalog serves warm hits with zero recomputation, otherwise
    the artifact is compressed from the snapshot with the CSR kernels.
    Every :class:`Epoch` build that is not handed a maintained artifact
    runs here.
    """
    if key not in CATALOG_VARIANTS:
        raise ValueError(f"unknown representation {key!r}")
    if catalog is not None:
        if digest is None:
            digest = catalog.put(csr)
        warm = catalog.has_variant(digest, CATALOG_VARIANTS[key])
        builder = catalog.reachability if key == "reachability" else catalog.bisimulation
        artifact = builder(digest)
        if counters is not None and warm:
            bump(counters, "catalog_warm_hits")
        return artifact
    if key == "reachability":
        return compress_reachability_csr(csr)
    return compress_pattern_csr(csr)


class Epoch:
    """One immutable published version of a graph and its representations.

    Readers never mutate an epoch (lazy builds are internal and idempotent).
    ``version`` is the publication ordinal assigned by the publisher.

    *artifacts* maps a representation key to a zero-argument callable (a
    maintainer's bound ``artifact``) that the epoch's build calls in place
    of :func:`compress_frozen` — under the same lock, fault point, deadline
    and degradation, and only when a query first reads that key.  *tol*
    takes the epoch's reachability artifact and returns labels carried
    over from an earlier version, brought up to date, or ``None`` for a
    fresh build.  A handed-in ``Gr`` has non-canonical class ids, so its
    labels never come from (or go to) the catalog.
    """

    def __init__(
        self,
        csr: CSRGraph,
        version: int = 0,
        *,
        catalog: Optional[Any] = None,
        digest: Optional[str] = None,
        counters: Optional[Dict[str, int]] = None,
        build_deadline_s: Optional[float] = None,
        artifacts: Optional[Dict[str, Callable[[], QueryPreservingCompression]]] = None,
        tol: Optional[Callable[[QueryPreservingCompression], Optional[TOLIndex]]] = None,
    ) -> None:
        if build_deadline_s is not None and build_deadline_s <= 0:
            raise ValueError("build_deadline_s must be positive (or None)")
        if tol is not None and (artifacts is None or "reachability" not in artifacts):
            raise ValueError("tol= carries labels over a handed-in Gr; "
                             "pass artifacts['reachability'] with it")
        self.version = version
        self.csr = csr
        self._catalog = catalog
        self._digest = digest
        #: Shared build counters (the publishing engine's ``counters``).
        self._counters = counters
        #: Wall-clock budget for each lazy Gr/Gb build; ``None`` = no limit.
        self.build_deadline_s = build_deadline_s
        self._build_lock = threading.RLock()
        self._artifacts: Dict[str, QueryPreservingCompression] = {}
        #: key -> source of a maintained artifact, called instead of a compression.
        self._sources = dict(artifacts) if artifacts is not None else {}
        self._carried_tol = tol
        #: key -> reason: representations whose build failed or timed out
        #: this epoch.  Degradation is sticky for the epoch's lifetime — a
        #: fresh publication gets a fresh chance, but within an epoch a
        #: failed build is not retried on every query (no rebuild storm).
        self._degraded: Dict[str, str] = {}
        self._contexts: Dict[str, MatchContext] = {}
        #: Sealed TOL reachability labels over this epoch's Gr — built once
        #: (lazily, first routed reachability query), then read-only and
        #: shared by every reader thread.  A failed build degrades the
        #: epoch to label-free reachability (BFS on Gr) — sticky, like the
        #: artifact degradations, but it never refuses the representation.
        self._tol: Optional[TOLIndex] = None
        #: The compiled reach path over the two above (:meth:`reach_fn`).
        self._reach: Optional[Callable[[Any, Any], bool]] = None

    # ------------------------------------------------------------------
    # What the router reads
    # ------------------------------------------------------------------
    def artifact(self, key: str) -> QueryPreservingCompression:
        """The *key* compression artifact, built exactly once per epoch.

        A build that raises or exceeds ``build_deadline_s`` marks *key*
        degraded for the rest of the epoch and raises
        :class:`~repro.engine.router.RepresentationUnavailable` — the
        router catches it and answers directly on ``G``, so degradation
        changes the route, never the answer.  A key that names no
        representation is the caller's error (``ValueError``), not a
        degraded build.
        """
        artifact = self._artifacts.get(key)  # lock-free fast path
        if artifact is not None:
            return artifact
        if key not in CATALOG_VARIANTS:
            raise ValueError(f"unknown representation {key!r}")
        with self._build_lock:
            artifact = self._artifacts.get(key)
            if artifact is None:
                reason = self._degraded.get(key)
                if reason is not None:
                    raise RepresentationUnavailable(key, reason)
                try:
                    artifact, _ = self._run_build(key, lambda: self._compress(key))
                except RepresentationUnavailable:
                    raise
                except Exception as exc:  # noqa: BLE001 - degrade, don't die
                    raise RepresentationUnavailable(key, self._degrade(key, exc)) from exc
                self._artifacts[key] = artifact
                if self._counters is not None:
                    bump(self._counters, "artifact_builds")
        return artifact

    def _compress(self, key: str) -> QueryPreservingCompression:
        """The handed-in source's artifact, else ``compress_frozen``'s."""
        source = self._sources.get(key)
        if source is not None:
            return source()
        return compress_frozen(key, self.csr, self._catalog, self._digest, self._counters)

    def _run_build(self, key: str, build: Callable[[], _T]) -> Tuple[_T, float]:
        """Run one lazy build behind the ``epoch.build.<key>`` fault point,
        in a trace span and under the epoch's deadline; returns the result
        and the seconds it took."""

        def guarded() -> _T:
            # Inside the deadline scope: injected slowness/errors at this
            # point hit the same timeout machinery a real slow build would.
            fault_point(f"epoch.build.{key}")
            return build()

        start = time.perf_counter()
        with trace_span("epoch.build", representation=key, version=self.version):
            result = run_with_deadline(guarded, self.build_deadline_s,
                                       label=f"epoch {self.version} {key} build")
        seconds = time.perf_counter() - start
        obs_inc("epoch_builds_total", (key,))
        obs_observe("epoch_build_seconds", seconds, (key,))
        return result, seconds

    def _degrade(self, key: str, exc: Exception) -> str:
        """Record a failed (or overrun) build of *key*; returns the reason."""
        if isinstance(exc, DeadlineExceeded):
            reason = f"build exceeded {exc.timeout:g}s deadline"
        else:
            reason = f"build failed: {type(exc).__name__}: {exc}"
        self._degraded[key] = reason
        if self._counters is not None:
            bump(self._counters, "degraded_builds")
        obs_inc("epoch_degraded_total", (key,))
        return reason

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
                if key == "pattern":
                    ctx = MatchContext(self.artifact("pattern").compressed)
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
        Over a handed-in ``Gr`` the labels are the carried ones (``tol=``)
        or a fresh build, never the catalog's.
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

            def labels() -> Tuple[TOLIndex, bool]:
                """The labels, and whether they were built (not carried)."""
                if self._carried_tol is not None:
                    carried = self._carried_tol(artifact)
                    if carried is not None:
                        return carried, False
                if self._catalog is not None and "reachability" not in self._sources:
                    digest = self._digest
                    if digest is None:
                        digest = self._catalog.put(self.csr)
                    rehydrated: TOLIndex = self._catalog.tol(digest, gr=gr)
                    return rehydrated, True
                return TOLIndex(gr), True

            try:
                # Fetched here, not inside labels(): the build lock is
                # re-entrant for this thread, not for a deadline helper.
                artifact = self.artifact("reachability")
                gr = artifact.compressed
                (index, built), seconds = self._run_build("tol", labels)
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                # Reachability stays label-free this epoch, never refused.
                self._degrade("tol", exc)
                obs_inc("tol_fallbacks_total", ("build",))
                return None
            if built:
                obs_observe("tol_build_seconds", seconds)
                if self._counters is not None:
                    bump(self._counters, "tol_builds")
            assert isinstance(artifact, ReachabilityCompression)
            self._reach = artifact.reach_fn(index)
            self._tol = index
        return index

    def reach_fn(self) -> Optional[Callable[[Any, Any], bool]]:
        """The compiled reach path ``(source, target) -> bool`` over this
        epoch's ``Gr`` and labels, compiled right after the labels; it lives
        as long as the epoch.  Reading it builds nothing: ``None`` until
        a routed reach query built the labels (so builds stay inside its
        spans), and for good when ``Gr`` or the labels are degraded."""
        return self._reach

    def evaluate_original(self, query: Any, algorithm: Optional[str] = None) -> Any:
        """Direct evaluation on the epoch's frozen ``G``.

        A direct pattern query does not *create* the shared ORIGINAL
        context: its ``G``-sized row tables (``n`` rows of ``n`` bits per
        bound — 18 MB at 12 k nodes) would be built inside whichever
        requests first used each bound (70 ms instead of 5) and then live
        as long as the epoch.  Without one the query runs on a context of
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
    def describe(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "nodes": self.csr.n,
            "edges": self.csr.m,
            "digest": self._digest,
            "materialized": sorted(self._artifacts),
            "tol": self._tol is not None,
            "degraded": dict(sorted(self._degraded.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(v{self.version}, |V|={self.csr.n}, |E|={self.csr.m})"
        )

