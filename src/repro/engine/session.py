"""``GraphEngine`` — one facade over the whole compress-once lifecycle.

The paper's economics are *compress once, answer every query class on the
right compressed graph, maintain incrementally under updates*.  Before the
engine existed the caller wired that lifecycle by hand across four
packages (``core`` to compress, ``queries`` to evaluate, ``store`` to
persist, ``core.incremental_*`` to maintain).  ``GraphEngine`` owns it:

* **load** — construct from a :class:`~repro.graph.digraph.DiGraph`, a
  frozen :class:`~repro.graph.csr.CSRGraph`, or a path in any registered
  graph format (``.rgs`` snapshots stay frozen — no thaw);
* **freeze once** — the CSR snapshot is built lazily and reused by every
  kernel; with a :class:`~repro.store.catalog.SnapshotCatalog` the freeze
  is content-addressed and compressed variants rehydrate on warm hits with
  zero recomputation;
* **compress lazily** — ``Gr`` (``compressR``) and ``Gb`` (``compressB``)
  materialise on first use, per representation;
* **route** — :meth:`query`/:meth:`query_batch` send each first-class
  query object to the representation that preserves it
  (:mod:`repro.engine.router`) and return answers over original nodes;
* **maintain** — :meth:`apply` drives ``incRCM``/``incPCM`` through the
  uniform maintainer interface (:mod:`repro.engine.updates`), tracking the
  net delta against the last snapshot;
* **re-freeze** — past a configurable staleness threshold the snapshot is
  refreshed via :func:`repro.store.delta.merge_deltas` (no full rebuild)
  and re-published to the catalog.

Batched queries share a per-engine session cache: the
:class:`~repro.queries.matching.MatchContext` bitsets (candidates,
bounded/star closures) are built once per representation and reused across
the batch, invalidated exactly when an update batch lands.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Union

from repro.core.base import QueryPreservingCompression
from repro.core.pattern import compress_pattern
from repro.core.reachability import compress_reachability
from repro.engine.counters import RouterStats, bump
from repro.engine.epoch import Epoch, compress_frozen
from repro.engine.router import ORIGINAL, QueryRouter
from repro.engine.updates import (
    MAINTAINERS,
    CompressionMaintainer,
    EdgeUpdate,
    UpdateLog,
    effective_updates,
    refresh_reachability_index,
)
from repro.index.tol import TOLIndex
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import observe as obs_observe
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import GraphPattern
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability
from repro.store.delta import merge_deltas

Node = Hashable
GraphSource = Union[str, Path, DiGraph, CSRGraph]


class UpdateReport(NamedTuple):
    """What one :meth:`GraphEngine.apply` batch did."""

    #: Updates that changed edge presence (the rest were redundant).
    applied: int
    #: No-op updates (inserting a present edge / deleting an absent one).
    redundant: int
    #: Net snapshot lag after the batch (0 right after a re-freeze).
    staleness: int
    #: Whether this batch tripped the re-freeze threshold.
    refrozen: bool


class GraphEngine:
    """A query session over one graph and its compressed representations.

    Parameters
    ----------
    source:
        The graph — mutable ``DiGraph``, frozen ``CSRGraph``, or a path to
        any registered on-disk format (binary ``.rgs`` snapshots load
        straight into the frozen backend).  A ``DiGraph`` is **adopted**,
        not copied (the engine's memory contract is to hold ``G`` once):
        :meth:`apply` mutates it in place, and the caller must not mutate
        it out-of-band afterwards — pass ``graph.copy()`` to keep an
        independent handle.  Same aliasing contract as the ``copy=False``
        incremental maintainers.
    catalog:
        Optional :class:`~repro.store.catalog.SnapshotCatalog`.  When
        given, the engine stores its snapshot there and rehydrates ``Gr`` /
        ``Gb`` from cached variants (warm hit: zero recomputation); cold
        misses are computed once and persisted for the next session.
    backend:
        ``"csr"`` (default) runs compression over the frozen integer
        kernels; ``"dict"`` forces the reference dict-of-sets pipeline
        everywhere — a cross-validation knob, not a production mode.  Both
        produce identical answers (and identical artifacts).
    refreeze_threshold:
        When the net edge delta since the last freeze exceeds this, a
        re-freeze is triggered at the end of :meth:`apply`.  A float < 1 is
        a fraction of the snapshot's ``|V| + |E|``; an int >= 1 is an
        absolute edge count; ``None`` disables auto re-freezing
        (:meth:`refreeze` stays available).
    """

    def __init__(
        self,
        source: GraphSource,
        catalog: Optional[Any] = None,
        *,
        backend: str = "csr",
        refreeze_threshold: Union[float, int, None] = 0.25,
        router: Optional[QueryRouter] = None,
    ) -> None:
        if backend not in ("csr", "dict"):
            raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")
        if isinstance(refreeze_threshold, (int, float)) and refreeze_threshold <= 0:
            raise ValueError("refreeze_threshold must be positive (or None)")
        self.backend = backend
        self.refreeze_threshold = refreeze_threshold
        self._catalog = catalog
        self._router = router if router is not None else QueryRouter()

        self._graph: Optional[DiGraph] = None
        self._csr: Optional[CSRGraph] = None
        if isinstance(source, (str, Path)):
            source = self._load(Path(source))
        if isinstance(source, CSRGraph):
            self._csr = source
        elif isinstance(source, DiGraph):
            self._graph = source
        else:
            raise TypeError(
                f"cannot build an engine from {type(source).__name__}; "
                "expected a DiGraph, CSRGraph or path"
            )

        self._digest: Optional[str] = None
        self._artifacts: Dict[str, QueryPreservingCompression] = {}
        self._maintainers: Dict[str, CompressionMaintainer] = {}
        self._graph_owner: Optional[str] = None  # maintainer adopting _graph
        self._log = UpdateLog()
        self._contexts: Dict[str, MatchContext] = {}
        self._builders = {
            "reachability": self._build_reachability,
            "pattern": self._build_pattern,
        }
        # TOL reachability labels over Gr's condensation: built lazily on
        # the first routed reachability query, patched in place after
        # update batches, degraded (None context -> BFS on Gr) when a
        # build/repair fails.  ``_tol_reason`` records why the session is
        # degraded; the next apply() clears it so rebuilds get retried.
        self._tol: Optional[TOLIndex] = None
        self._tol_fresh: bool = True
        self._tol_reason: Optional[str] = None
        #: Lifecycle instrumentation (the bench reports these).
        self.counters: Dict[str, int] = {
            "catalog_warm_hits": 0,
            "artifact_builds": 0,
            "refreezes": 0,
            "queries": 0,
            "tol_builds": 0,
            "tol_repairs": 0,
            "tol_rebuilds": 0,
        }
        #: Per-class routing statistics (:mod:`repro.engine.counters`) —
        #: hit counts and latencies per representation key, recorded by
        #: every dispatch and consumed by the router's hot-first probing.
        self.stats = RouterStats()

    @staticmethod
    def _load(path: Path) -> Union[DiGraph, CSRGraph]:
        if path.suffix.lower() == ".rgs":
            from repro.store.format import load_snapshot

            return load_snapshot(path)  # stays frozen — no thaw
        from repro.graph.io import read_graph

        return read_graph(path)

    # ------------------------------------------------------------------
    # Graph state
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current (updated) graph, thawed on demand.

        May be owned by a maintainer after :meth:`apply` — read-only for
        callers; all mutation goes through :meth:`apply`.
        """
        if self._graph is None:
            assert self._csr is not None
            self._graph = self._csr.to_digraph()
        return self._graph

    @property
    def staleness(self) -> int:
        """Net edge delta between the live graph and the last snapshot."""
        return self._log.staleness

    def freeze(self) -> CSRGraph:
        """The frozen snapshot of the *current* graph (idempotent).

        First call freezes (or adopts the construction-time snapshot);
        after updates the pending net delta is folded in with
        :func:`~repro.store.delta.merge_deltas` — untouched adjacency rows
        are copied, not re-sorted.  With a catalog the snapshot is
        ``put`` there, memoising the content digest.
        """
        if self._csr is not None and self._log.staleness == 0:
            if self._catalog is not None and self._digest is None:
                self._digest = self._catalog.put(self._csr)
            return self._csr
        was_refreeze = self._csr is not None
        if self._csr is not None:
            merged = merge_deltas(self._csr, self._log.added, self._log.removed)
            # Node order can only diverge when nodes were created since the
            # last freeze; otherwise the |V|-long comparison is skipped.
            if self._log.new_nodes and merged.node_order() != self.graph.node_list():
                # The live graph holds a node the surviving edge delta no
                # longer mentions (or insertion orders diverged) — fall
                # back to the always-correct full freeze.
                merged = CSRGraph.from_digraph(self.graph)
        else:
            merged = CSRGraph.from_digraph(self.graph)
        self._csr = merged
        self._log.clear()
        self._contexts.clear()  # "original" contexts re-anchor to the snapshot
        self._digest = None
        if was_refreeze:
            bump(self.counters, "refreezes")
        if self._catalog is not None:
            self._digest = self._catalog.put(merged)
        return merged

    # Re-freezing is freezing; the distinct name marks the lifecycle stage.
    refreeze = freeze

    def digest(self) -> str:
        """Content digest of the current graph (freezes if needed)."""
        csr = self.freeze()
        return self._digest if self._digest is not None else csr.digest()

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    def artifact(self, key: str) -> QueryPreservingCompression:
        """The compression artifact behind representation *key* (lazy).

        Served from the incremental maintainer once updates have flowed,
        from the session cache otherwise; first materialisation goes
        through the catalog when one is attached.
        """
        maintainer = self._maintainers.get(key)
        if maintainer is not None:
            return maintainer.artifact()
        artifact = self._artifacts.get(key)
        if artifact is None:
            try:
                build = self._builders[key]
            except KeyError:
                raise ValueError(f"unknown representation {key!r}") from None
            artifact = build()
            self._artifacts[key] = artifact
            # bump(): the counters dict is shared with published epochs,
            # whose reader threads increment the same slots concurrently.
            bump(self.counters, "artifact_builds")
        return artifact

    def reachability(self) -> QueryPreservingCompression:
        """``Gr`` — the reachability preserving compression (Section 3)."""
        return self.artifact("reachability")

    def bisimulation(self) -> QueryPreservingCompression:
        """``Gb`` — the pattern preserving compression (Section 4)."""
        return self.artifact("pattern")

    def _build_reachability(self) -> QueryPreservingCompression:
        if self.backend == "csr":
            return compress_frozen(
                "reachability", self.freeze(), "csr",
                self._catalog, self._digest, self.counters,
            )
        return compress_reachability(self.graph, backend="dict")

    def _build_pattern(self) -> QueryPreservingCompression:
        if self.backend == "csr":
            return compress_frozen(
                "pattern", self.freeze(), "csr",
                self._catalog, self._digest, self.counters,
            )
        return compress_pattern(self.graph)

    # ------------------------------------------------------------------
    # TOL reachability labels
    # ------------------------------------------------------------------
    def tol(self) -> Optional[TOLIndex]:
        """The session's TOL label index over ``Gr``, or ``None`` degraded.

        Built lazily from the reachability artifact; after update batches
        the labels are patched in place via
        :func:`~repro.engine.updates.refresh_reachability_index` (full
        rebuild when the delta is outside the repairable class).  Any
        build/refresh failure degrades the session to label-free answering
        — BFS on ``Gr``, same answers — until the next :meth:`apply`
        clears the degradation and a rebuild is retried.
        """
        if self._tol_reason is not None:
            return None
        try:
            artifact = self.artifact("reachability")
            if self._tol is None:
                self._tol = self._build_tol(artifact)
            elif not self._tol_fresh:
                action = refresh_reachability_index(self._tol, artifact)
                if action == "rebuild":
                    bump(self.counters, "tol_rebuilds")
                    obs_inc("tol_rebuilds_total")
                    self._tol = self._build_tol(artifact)
                elif action == "repaired":
                    bump(self.counters, "tol_repairs")
            self._tol_fresh = True
            return self._tol
        except Exception:
            self._tol = None
            self._tol_reason = "build"
            obs_inc("tol_fallbacks_total", ("build",))
            return None

    def _build_tol(self, artifact: QueryPreservingCompression) -> TOLIndex:
        """Build (or rehydrate) the label index for *artifact*.

        The catalog variant is only usable when the artifact itself came
        through the catalog — i.e. no maintainer is serving reachability
        and the snapshot is fresh.  incRCM-maintained artifacts carry
        non-canonical class ids, so for those the index is always built
        from the exact artifact object the query rewrite uses.
        """
        start = time.perf_counter()
        index: Optional[TOLIndex] = None
        if (
            self._catalog is not None
            and self.backend == "csr"
            and "reachability" not in self._maintainers
            and self._log.staleness == 0
        ):
            index = self._catalog.tol(self.digest(), gr=artifact.compressed)
        if index is None:
            index = TOLIndex(artifact.compressed, backend=self.backend)
        bump(self.counters, "tol_builds")
        obs_observe("tol_build_seconds", time.perf_counter() - start)
        return index

    # ------------------------------------------------------------------
    # Session cache
    # ------------------------------------------------------------------
    def context_for(self, key: str) -> Optional[Any]:
        """The session's evaluation cache for representation *key*.

        Pattern targets get a :class:`MatchContext` over the compressed (or
        original) graph, built once and shared across every query of the
        session until an update batch invalidates it; reachability gets the
        session's :class:`~repro.index.tol.TOLIndex` (or ``None`` when the
        labels are degraded — the evaluator then runs BFS on ``Gr``).
        """
        if key == "reachability":
            return self.tol()
        if key == "pattern":
            ctx = self._contexts.get(key)
            if ctx is None:
                ctx = MatchContext(self.artifact("pattern").compressed,
                                   backend=self.backend)
                self._contexts[key] = ctx
            return ctx
        if key == ORIGINAL:
            target = self._original_target()
            ctx = self._contexts.get(key)
            if ctx is not None and (target is ctx.graph or target is ctx._csr):
                return ctx
            if isinstance(target, CSRGraph):
                ctx = MatchContext(target)
            else:
                ctx = MatchContext(target, backend=self.backend)
            self._contexts[key] = ctx
            return ctx
        raise ValueError(f"unknown representation {key!r}")

    def clear_session_cache(self) -> None:
        """Drop the per-session evaluation caches (one-shot query mode)."""
        self._contexts.clear()

    def _original_target(self) -> Union[DiGraph, CSRGraph]:
        """Where ``on="original"`` evaluation runs: the fresh snapshot when
        there is one, the live graph otherwise."""
        if self._csr is not None and self._log.staleness == 0:
            return self._csr
        return self.graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, q: Any, *, on: str = "auto",
              algorithm: Optional[str] = None) -> Any:
        """Answer one first-class query object.

        ``on="auto"`` routes to the preserving representation
        (:class:`ReachabilityQuery` → ``Gr``, :class:`GraphPattern` →
        ``Gb``); ``on="original"`` (or ``"Gr"``/``"Gb"``/a representation
        key) forces a target.  Answers are always in terms of original
        nodes — hypernode expansion has already happened.
        """
        self.counters["queries"] += 1
        return self._router.dispatch(q, self, on=on, algorithm=algorithm)

    def query_batch(self, qs: Iterable[Any], *, on: str = "auto",
                    algorithm: Optional[str] = None) -> List[Any]:
        """Answer a batch, sharing the session cache across all of it.

        Batches go through the router's micro-batching dispatch: same-class
        groups share one ``answer_batch`` call (shared traversals on ``Gr``,
        deduplicated patterns on ``Gb``) with answers element-wise identical
        to one-by-one :meth:`query` calls.
        """
        queries = list(qs)
        self.counters["queries"] += len(queries)
        return self._router.dispatch_batch(queries, self, on=on, algorithm=algorithm)

    def evaluate_original(self, query: Any,
                          algorithm: Optional[str] = None) -> Any:
        """Direct evaluation on ``G`` (the router's ``original`` target)."""
        target = self._original_target()
        if isinstance(query, ReachabilityQuery):
            return evaluate_reachability(
                target, query.source, query.target,
                algorithm if algorithm is not None else "bfs",
            )
        if isinstance(query, GraphPattern):
            if algorithm not in (None, "match"):
                raise ValueError(f"unknown algorithm {algorithm!r}; expected 'match'")
            return match(query, target, self.context_for(ORIGINAL))
        raise TypeError(
            f"cannot evaluate {type(query).__name__} on the original graph; "
            "expected a ReachabilityQuery or GraphPattern"
        )

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def epoch(self, version: int = 0, *,
              build_deadline_s: Optional[float] = None) -> Epoch:
        """Publish the current graph as an immutable :class:`Epoch`.

        Freezes (folding any pending delta) and hands the snapshot — with
        the catalog/digest wiring and this session's build counters — to a
        new epoch.  The epoch serves reads on its own; this session stays
        the single writer.  The concurrent front
        (:mod:`repro.service`) calls this after every update batch.
        ``build_deadline_s`` caps each of the epoch's lazy Gr/Gb builds;
        a build over budget degrades that representation to direct-on-G
        for the epoch's lifetime.
        """
        csr = self.freeze()
        return Epoch(
            csr,
            version,
            backend=self.backend,
            catalog=self._catalog,
            digest=self._digest,
            counters=self.counters,
            build_deadline_s=build_deadline_s,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, deltas: Iterable[EdgeUpdate]) -> UpdateReport:
        """Apply a ΔG batch across the whole session.

        Every materialised representation is kept exact by its Section 5
        incremental maintainer (created lazily on the first batch — the
        first one *adopts* the engine's working graph, ``copy=False``, so
        the graph is held once); representations never yet materialised
        stay lazy and will compress the updated graph on first use.
        Session caches are invalidated, the net delta is logged, and the
        snapshot re-freezes once the staleness threshold trips.
        """
        deltas = list(deltas)
        graph = self.graph  # thaw before anything reads it
        for key in self._builders:
            if key in self._maintainers or key not in self._artifacts:
                continue
            adopt = self._graph_owner is None
            self._maintainers[key] = MAINTAINERS[key](graph, copy=not adopt)
            if adopt:
                self._graph_owner = key
            del self._artifacts[key]  # now served by the maintainer

        effective = effective_updates(graph, deltas)
        # Nodes this batch creates: edge deltas can net out while the node
        # they introduced survives, so node creation is logged separately
        # (it keeps the snapshot stale until the next freeze).
        new_nodes = []
        seen_new = set()
        for op, u, v in effective:
            if op == "+":
                for x in (u, v):
                    if x not in graph and x not in seen_new:
                        seen_new.add(x)
                        new_nodes.append(x)
        self._log.record(effective, new_nodes)
        for maintainer in self._maintainers.values():
            maintainer.apply(deltas)
        if self._graph_owner is None:
            for op, u, v in deltas:
                (graph.add_edge if op == "+" else graph.remove_edge)(u, v)
        self._artifacts.clear()  # anything not maintainer-backed is stale
        self._contexts.clear()
        # The label index is stale, not dead: the next reachability query
        # diffs it against the updated Gr and repairs in place when it can.
        # A degraded session gets its retry here too.
        self._tol_fresh = False
        self._tol_reason = None

        refrozen = False
        if self._should_refreeze():
            self.freeze()
            refrozen = True
        return UpdateReport(
            applied=len(effective),
            redundant=len(deltas) - len(effective),
            staleness=self._log.staleness,
            refrozen=refrozen,
        )

    def _should_refreeze(self) -> bool:
        threshold = self.refreeze_threshold
        if threshold is None or self._csr is None or self._log.staleness == 0:
            return False
        if isinstance(threshold, float) and threshold < 1.0:
            budget = threshold * (self._csr.n + self._csr.m)
        else:
            budget = float(threshold)
        return self._log.staleness >= budget

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Lifecycle snapshot for logging/benchmarks."""
        graph = self._graph
        csr = self._csr
        return {
            "nodes": graph.order() if graph is not None else (csr.n if csr else 0),
            "edges": graph.size() if graph is not None else (csr.m if csr else 0),
            "backend": self.backend,
            "frozen": csr is not None,
            "staleness": self._log.staleness,
            "materialized": sorted(set(self._artifacts) | set(self._maintainers)),
            "maintained": sorted(self._maintainers),
            "catalog": self._catalog is not None,
            "digest": self._digest,
            **self.counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.describe()
        return (
            f"GraphEngine(|V|={d['nodes']}, |E|={d['edges']}, "
            f"materialized={d['materialized']}, staleness={d['staleness']})"
        )
