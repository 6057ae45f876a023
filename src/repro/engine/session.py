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
* **read through one view** — every read (:meth:`query`,
  :meth:`query_batch`, :meth:`artifact`, :meth:`context_for`) goes through
  a private :class:`~repro.engine.epoch.Epoch` over the current snapshot,
  opened on the first read after construction or after an update batch.
  It builds ``Gr`` (``compressR``) and ``Gb`` (``compressB``) lazily, per
  representation, and its :class:`~repro.queries.matching.MatchContext`
  bitsets and TOL labels are shared by every query until the next batch;
* **route** — the view answers each first-class query object on the
  representation that preserves it (:mod:`repro.engine.router`), over
  original nodes;
* **maintain** — :meth:`apply` drives ``incRCM``/``incPCM`` through the
  uniform maintainer interface (:mod:`repro.engine.updates`), tracking the
  net delta against the last snapshot; the next view is handed the
  maintained artifacts and the repaired labels;
* **re-freeze** — a read after :meth:`apply`, or a batch past the
  staleness threshold, folds the net delta into the snapshot via
  :func:`repro.store.delta.merge_deltas` (no full rebuild) and
  re-publishes it to the catalog.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Union,
)

from repro.core.base import QueryPreservingCompression
from repro.engine.counters import RouterStats, bump
from repro.engine.epoch import Epoch
from repro.engine.router import QueryRouter
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
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
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
        re-freeze is triggered at the end of :meth:`apply`; below it the
        delta is folded at the next read.  A float < 1 is a fraction of
        the snapshot's ``|V| + |E|``; an int >= 1 is an absolute edge
        count; ``None`` leaves every fold to the next read (or
        :meth:`refreeze`).
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
        self._maintainers: Dict[str, CompressionMaintainer] = {}
        self._graph_owner: Optional[str] = None  # maintainer adopting _graph
        self._log = UpdateLog()
        #: The epoch every read goes through; ``None`` until the next read.
        self._view: Optional[Epoch] = None
        #: Labels a dropped view built, for the next view to repair
        #: (a failed label build drops them, so the next view rebuilds).
        self._labels: Optional[TOLIndex] = None
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
        #: every dispatch.
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
    # Reads: every one goes through the view epoch
    # ------------------------------------------------------------------
    def _read_view(self) -> Epoch:
        view = self._view
        if view is None:
            view = self._view = self._open_view({})
        return view

    def _open_view(self, built: Dict[str, QueryPreservingCompression]) -> Epoch:
        """A view over the current snapshot (folding any pending delta).

        It is handed each maintainer's artifact and the *built* artifacts
        of a view it replaces; labels carry over only with a handed-in
        ``Gr``, whose class ids are the maintainer's, not the catalog's.
        """
        csr = self.freeze()
        sources: Dict[str, Callable[[], QueryPreservingCompression]] = {
            key: maintainer.artifact for key, maintainer in self._maintainers.items()
        }
        for key, artifact in built.items():
            sources[key] = _constant(artifact)
        return Epoch(
            csr,
            backend=self.backend,
            catalog=self._catalog,
            digest=self._digest,
            counters=self.counters,
            artifacts=sources,
            tol=self._carry_labels if "reachability" in sources else None,
        )

    def _drop_view(self) -> Dict[str, QueryPreservingCompression]:
        """Close the view; returns the artifacts it built, keeps its labels."""
        view, self._view = self._view, None
        if view is None:
            return {}
        if view._tol is not None or "tol" in view._degraded:
            self._labels = view._tol
        return view._artifacts

    def _carry_labels(self, artifact: QueryPreservingCompression) -> Optional[TOLIndex]:
        """The last view's labels brought up to date with *artifact* (the
        maintained ``Gr``), or ``None`` when they must be built afresh.
        The view holds them from here on; the engine keeps no second copy."""
        index, self._labels = self._labels, None
        if index is None:
            return None
        action = refresh_reachability_index(index, artifact)
        if action == "rebuild":
            bump(self.counters, "tol_rebuilds")
            obs_inc("tol_rebuilds_total")
            return None
        if action == "repaired":
            bump(self.counters, "tol_repairs")
        return index

    def artifact(self, key: str) -> QueryPreservingCompression:
        """The compression artifact behind representation *key* (lazy).

        Maintainer-backed once updates have flowed, otherwise compressed
        from the snapshot (through the catalog when one is attached).  A
        failed build raises
        :class:`~repro.engine.router.RepresentationUnavailable` until the
        next :meth:`apply`; queries then answer directly on ``G``.
        """
        return self._read_view().artifact(key)

    def reachability(self) -> QueryPreservingCompression:
        """``Gr`` — the reachability preserving compression (Section 3)."""
        return self.artifact("reachability")

    def bisimulation(self) -> QueryPreservingCompression:
        """``Gb`` — the pattern preserving compression (Section 4)."""
        return self.artifact("pattern")

    def context_for(self, key: str) -> Optional[Any]:
        """The shared evaluation cache for representation *key*: a sealed
        :class:`~repro.queries.matching.MatchContext` for ``pattern`` /
        ``original``, the TOL labels for ``reachability`` (``None`` while
        their build is degraded — reachability then runs BFS on ``Gr``)."""
        return self._read_view().context_for(key)

    def clear_session_cache(self) -> None:
        """Drop the evaluation contexts (one-shot query mode); the
        artifacts and labels already built carry into a fresh view."""
        if self._view is not None:
            self._view = self._open_view(self._drop_view())

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
        return self._router.dispatch(
            q, self._read_view(), on=on, algorithm=algorithm, stats=self.stats
        )

    def query_batch(self, qs: Iterable[Any], *, on: str = "auto",
                    algorithm: Optional[str] = None) -> List[Any]:
        """Answer a batch, sharing the view's caches across all of it.

        Batches go through the router's micro-batching dispatch: same-class
        groups share one ``answer_batch`` call (shared traversals on ``Gr``,
        deduplicated patterns on ``Gb``) with answers element-wise identical
        to one-by-one :meth:`query` calls.
        """
        queries = list(qs)
        self.counters["queries"] += len(queries)
        return self._router.dispatch_batch(
            queries, self._read_view(), on=on, algorithm=algorithm, stats=self.stats
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

        Every representation the view materialised is kept exact by its
        Section 5 incremental maintainer (created lazily on the first batch
        — the first one *adopts* the engine's working graph, ``copy=False``,
        so the graph is held once); representations never yet materialised
        stay lazy and will compress the updated graph on first use.  The
        view is dropped (its labels are kept for the next one to repair),
        the net delta is logged, and the snapshot re-freezes once the
        staleness threshold trips.
        """
        deltas = list(deltas)
        graph = self.graph  # thaw before anything reads it
        built = self._drop_view()
        for key in MAINTAINERS:
            if key in self._maintainers or key not in built:
                continue
            adopt = self._graph_owner is None
            self._maintainers[key] = MAINTAINERS[key](graph, copy=not adopt)
            if adopt:
                self._graph_owner = key

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
        built = set(self._view._artifacts) if self._view is not None else set()
        return {
            "nodes": graph.order() if graph is not None else (csr.n if csr else 0),
            "edges": graph.size() if graph is not None else (csr.m if csr else 0),
            "backend": self.backend,
            "frozen": csr is not None,
            "staleness": self._log.staleness,
            "materialized": sorted(built | set(self._maintainers)),
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


def _constant(artifact: QueryPreservingCompression) -> Callable[[], QueryPreservingCompression]:
    return lambda: artifact
