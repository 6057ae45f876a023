"""``GraphEngine`` — one facade over the whole compress-once lifecycle.

The paper's economics are *compress once, answer every query class on the
right compressed graph, maintain incrementally under updates*.  Before the
engine existed the caller wired that lifecycle by hand across four
packages (``core`` to compress, ``queries`` to evaluate, ``store`` to
persist, ``core.incremental_*`` to maintain).  ``GraphEngine`` owns it:

* **load and freeze once** — construct from a
  :class:`~repro.graph.digraph.DiGraph` (frozen right away), a frozen
  :class:`~repro.graph.csr.CSRGraph`, or a path in any registered graph
  format (``.rgs`` snapshots stay frozen — no thaw); the CSR snapshot is
  the one copy of ``G`` the engine holds, and every kernel reads it; with
  a :class:`~repro.store.catalog.SnapshotCatalog` the snapshot is
  content-addressed and compressed variants rehydrate on warm hits with
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
* **maintain** — :meth:`apply` checks a batch against the snapshot plus
  the net delta logged since (:class:`~repro.engine.updates.UpdateLog`),
  and drives ``incRCM``/``incPCM`` through the uniform maintainer
  interface for every representation a view built; the next view is
  handed the maintained artifacts and the repaired labels;
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
        The graph — a ``DiGraph``, a frozen ``CSRGraph``, or a path to any
        registered on-disk format (binary ``.rgs`` snapshots load straight
        into a ``CSRGraph``).  A ``DiGraph`` is frozen here and never
        read or mutated again: the engine holds ``G`` once, as its
        snapshot plus the update log, and hands each Section 5 maintainer
        a thaw of its own.
    catalog:
        Optional :class:`~repro.store.catalog.SnapshotCatalog`.  When
        given, the engine stores its snapshot there and rehydrates ``Gr`` /
        ``Gb`` from cached variants (warm hit: zero recomputation); cold
        misses are computed once and persisted for the next session.
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
        refreeze_threshold: Union[float, int, None] = 0.25,
        router: Optional[QueryRouter] = None,
    ) -> None:
        if isinstance(refreeze_threshold, (int, float)) and refreeze_threshold <= 0:
            raise ValueError("refreeze_threshold must be positive (or None)")
        self.refreeze_threshold = refreeze_threshold
        self._catalog = catalog
        self._router = router if router is not None else QueryRouter()

        if isinstance(source, (str, Path)):
            source = self._load(Path(source))
        if isinstance(source, DiGraph):
            source = CSRGraph.from_digraph(source)
        if not isinstance(source, CSRGraph):
            raise TypeError(
                f"cannot build an engine from {type(source).__name__}; "
                "expected a DiGraph, CSRGraph or path"
            )
        #: The last frozen snapshot; with ``_log`` it is the whole graph.
        self._csr: CSRGraph = source
        self._digest: Optional[str] = None
        self._maintainers: Dict[str, CompressionMaintainer] = {}
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
        """The current graph: a fresh thaw of the snapshot plus the pending
        delta on every call, for callers only — the engine never reads it,
        and mutating it changes nothing; updates go through :meth:`apply`.
        """
        log = self._log
        graph = self._csr.to_digraph()
        for v in log.new_nodes:
            graph.add_node(v)
        for u, v in log.removed:
            graph.remove_edge(u, v)
        for u, v in log.added:
            graph.add_edge(u, v)
        return graph

    @property
    def staleness(self) -> int:
        """Net edge delta between the live graph and the last snapshot."""
        return self._log.staleness

    def freeze(self) -> CSRGraph:
        """The frozen snapshot of the *current* graph (idempotent).

        A pending delta is folded in with
        :func:`~repro.store.delta.merge_deltas` — untouched adjacency rows
        are copied, not re-sorted, and created nodes keep their creation
        order.  With a catalog the snapshot is ``put`` there, memoising
        the content digest.
        """
        log = self._log
        if log.staleness:
            self._csr = merge_deltas(
                self._csr, log.added, log.removed, new_nodes=log.new_nodes
            )
            log.clear()
            self._digest = None
            bump(self.counters, "refreezes")
        if self._catalog is not None and self._digest is None:
            self._digest = self._catalog.put(self._csr)
        return self._csr

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
        Section 5 incremental maintainer (created on the first batch after
        the build, over a thaw of its own); representations never yet
        materialised stay lazy and will compress the updated graph on
        first use.  The batch is checked against the snapshot plus the
        logged delta, and a bad update raises before anything changes.
        The view is dropped (its labels are kept for the next one to
        repair), and the snapshot re-freezes once the staleness threshold
        trips.
        """
        deltas = list(deltas)
        built = self._view._artifacts if self._view is not None else {}
        for key, make in MAINTAINERS.items():
            if key in built and key not in self._maintainers:
                # A view opens only over a folded snapshot: it is the graph.
                assert self._log.staleness == 0
                self._maintainers[key] = make(self._csr.to_digraph(), copy=False)
        applied, redundant = self._log.record(self._csr, deltas)
        self._drop_view()
        for maintainer in self._maintainers.values():
            maintainer.apply(deltas)

        refrozen = False
        if self._should_refreeze():
            self.freeze()
            refrozen = True
        return UpdateReport(
            applied=applied,
            redundant=redundant,
            staleness=self._log.staleness,
            refrozen=refrozen,
        )

    def reset(self, snapshot: CSRGraph, digest: Optional[str]) -> None:
        """Make *snapshot* (content digest *digest*) the current graph.

        The pending delta, the view, carried labels and maintainers are
        dropped; the counters stay.  A publisher rolls its writer back to
        the last published epoch with this.
        """
        self._csr, self._digest = snapshot, digest
        self._log.clear()
        self._view = self._labels = None
        self._maintainers.clear()

    def _should_refreeze(self) -> bool:
        threshold = self.refreeze_threshold
        if threshold is None or self._log.staleness == 0:
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
        log, csr = self._log, self._csr
        built = set(self._view._artifacts) if self._view is not None else set()
        return {
            "nodes": csr.n + len(log.new_nodes),
            "edges": csr.m + len(log.added) - len(log.removed),
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
