"""Update lifecycle of an engine session (Section 5 behind one interface).

The paper's two incremental algorithms — ``incRCM`` for the reachability
compression and ``incPCM`` for the pattern compression — live in
:mod:`repro.core` with different construction/accessor spellings.  The
engine drives both through one :class:`CompressionMaintainer` interface so
:meth:`repro.engine.session.GraphEngine.apply` is a loop over
representations, not a pair of special cases.

The other piece of the lifecycle is :class:`UpdateLog`, the writer's only
mutable state: the *net* edge delta and the nodes created since the last
frozen snapshot.  Snapshot plus log is the live graph, so an update is
checked against the snapshot's sorted rows (``CSRGraph.has_edge``) and the
log, with no thawed copy of ``G``; and the log is exactly what
:func:`repro.store.delta.merge_deltas` folds into the snapshot at the next
freeze, without re-sorting untouched rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.base import QueryPreservingCompression
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.index.tol import TOLIndex
from repro.index.tol import refresh_index as tol_refresh_index

Node = Hashable
Edge = Tuple[Node, Node]
#: An edge update: ("+"/"-", source, target) — the paper's ΔG entries.
EdgeUpdate = Tuple[str, Node, Node]


class CompressionMaintainer(ABC):
    """Uniform driver interface over the Section 5 incremental algorithms.

    A maintainer owns a mutable copy of ``G ⊕ ΔG`` (the engine hands each
    one a thaw of its own, with ``copy=False``) and keeps its compression
    artifact exact under batch updates.
    """

    #: Representation key this maintainer serves (router vocabulary).
    kind: str = ""

    @property
    @abstractmethod
    def graph(self) -> DiGraph:
        """The maintained copy of ``G ⊕ ΔG``."""

    @abstractmethod
    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        """Apply a ΔG batch and propagate ΔGr."""

    @abstractmethod
    def artifact(self) -> QueryPreservingCompression:
        """The current compression artifact (exact, maintained lazily)."""


class ReachabilityMaintainer(CompressionMaintainer):
    """``incRCM`` behind the uniform interface."""

    kind = "reachability"

    def __init__(self, graph: DiGraph, copy: bool = True) -> None:
        self._inc = IncrementalReachabilityCompressor(graph, copy=copy)

    @property
    def graph(self) -> DiGraph:
        return self._inc.graph

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        self._inc.apply(updates)

    def artifact(self) -> QueryPreservingCompression:
        return self._inc.compression()


class PatternMaintainer(CompressionMaintainer):
    """``incPCM`` behind the uniform interface."""

    kind = "pattern"

    def __init__(self, graph: DiGraph, copy: bool = True) -> None:
        self._inc = IncrementalPatternCompressor(graph, copy=copy)

    @property
    def graph(self) -> DiGraph:
        return self._inc.graph

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        self._inc.apply(updates)

    def artifact(self) -> QueryPreservingCompression:
        return self._inc.compression()


#: representation key -> maintainer class (the engine instantiates lazily,
#: only for representations that have actually been materialised).
MAINTAINERS = {
    ReachabilityMaintainer.kind: ReachabilityMaintainer,
    PatternMaintainer.kind: PatternMaintainer,
}


def refresh_reachability_index(
    index: "TOLIndex", artifact: QueryPreservingCompression
) -> str:
    """Bring a TOL label index up to date with a maintained ``Gr``.

    This is the maintainer → index seam: after ``incRCM``
    (:class:`ReachabilityMaintainer`) patches the reachability artifact,
    the engine hands the :class:`~repro.index.tol.TOLIndex` its last view
    built and the *current* artifact here, as the next view opens.  The
    delta between the index's recorded condensation and the artifact's
    ``compressed`` graph is diffed and, when it is insert-only and
    acyclic, repaired in place by bounded label patching.  Returns the
    action taken:

    ``"fresh"``
        the index already matches — nothing to do;
    ``"repaired"``
        labels were patched in place and remain exact;
    ``"rebuild"``
        the delta is outside the repairable class (deletions, new cycles,
        label bloat past the rebuild ratio) — the caller **must** discard
        the index and rebuild from scratch before answering with it.
    """
    result = tol_refresh_index(index, artifact.compressed)
    if result is None:
        return "fresh"
    return "repaired" if result else "rebuild"


class UpdateLog:
    """The writer's pending change relative to its last frozen snapshot.

    Snapshot plus log is the live graph: an edge is present when it is in
    ``added``, or the snapshot has it and it is not in ``removed``.
    ``added`` holds edges now present that the snapshot lacks, ``removed``
    edges the snapshot has that are now gone (the two are disjoint), both
    in insertion order.  ``new_nodes`` holds the nodes created since the
    snapshot, in creation order: an edge delta can net out while the node
    it introduced survives (``DiGraph.remove_edge`` keeps endpoints), so
    node creation is logged separately and never cancelled, and
    :func:`repro.store.delta.merge_deltas` takes it as ``new_nodes=``.
    ``staleness`` (the total of all three) is the engine's re-freeze
    trigger — and its freshness test: a snapshot is current only when it
    is zero.
    """

    def __init__(self) -> None:
        # dicts as ordered sets: insertion order is part of the contract.
        self._added: Dict[Edge, None] = {}
        self._removed: Dict[Edge, None] = {}
        self._new_nodes: Dict[Node, None] = {}

    def record(
        self, snapshot: CSRGraph, updates: Sequence[EdgeUpdate]
    ) -> Tuple[int, int]:
        """Fold a raw ΔG batch, read against *snapshot* plus this log.

        Returns ``(applied, redundant)``: updates that changed edge
        presence, and no-ops (inserting a present edge, deleting an absent
        one).  Every update is validated before anything changes, so a
        bad one raises ``ValueError`` (``TypeError`` for an unhashable
        node) and leaves the log as it was.
        """
        for op, u, v in updates:
            if op not in ("+", "-"):
                raise ValueError(f"unknown update op {op!r}")
            hash((u, v))
        added, removed, created = self._added, self._removed, self._new_nodes
        applied = 0
        for op, u, v in updates:
            edge = (u, v)
            present = edge in added or (
                edge not in removed and snapshot.has_edge(u, v))
            if present == (op == "+"):
                continue
            applied += 1
            if op == "-":
                if edge in added:
                    del added[edge]
                else:
                    removed[edge] = None
            elif edge in removed:
                del removed[edge]  # back to its snapshot state
            else:
                added[edge] = None
                for x in edge:
                    if x not in snapshot and x not in created:
                        created[x] = None
        return applied, len(updates) - applied

    @property
    def added(self) -> List[Edge]:
        return list(self._added)

    @property
    def removed(self) -> List[Edge]:
        return list(self._removed)

    @property
    def new_nodes(self) -> List[Node]:
        return list(self._new_nodes)

    @property
    def staleness(self) -> int:
        """Size of the pending change — how far the snapshot lags the graph.

        Counts node creations on top of the edge delta, so a batch whose
        edges cancel out but which introduced a node still reads as stale
        (the snapshot is missing that node).
        """
        return len(self._added) + len(self._removed) + len(self._new_nodes)

    def clear(self) -> None:
        """Forget the pending change (right after a freeze or a rollback)."""
        self._added.clear()
        self._removed.clear()
        self._new_nodes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateLog(+{len(self._added)}, -{len(self._removed)}, "
            f"nodes+{len(self._new_nodes)})"
        )
