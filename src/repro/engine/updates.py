"""Update lifecycle of an engine session (Section 5 behind one interface).

The paper's two incremental algorithms — ``incRCM`` for the reachability
compression and ``incPCM`` for the pattern compression — live in
:mod:`repro.core` with different construction/accessor spellings.  The
engine drives both through one :class:`CompressionMaintainer` interface so
:meth:`repro.engine.session.GraphEngine.apply` is a loop over
representations, not a pair of special cases.

Two further pieces belong to the lifecycle:

* :class:`UpdateLog` — the *net* edge delta of the session relative to its
  last frozen snapshot, plus staleness accounting.  The log is what makes
  cheap re-freezing possible: :func:`repro.store.delta.merge_deltas` takes
  exactly this net delta and folds it into the existing snapshot without
  re-sorting untouched rows.
* :func:`effective_updates` — the subsequence of a raw update batch that
  actually changes edge presence, computed *without mutating the graph*
  (an overlay simulation), so the log can be recorded before any
  maintainer touches its copy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.base import QueryPreservingCompression
from repro.graph.digraph import DiGraph
from repro.index.tol import TOLIndex
from repro.index.tol import refresh_index as tol_refresh_index

Node = Hashable
Edge = Tuple[Node, Node]
#: An edge update: ("+"/"-", source, target) — the paper's ΔG entries.
EdgeUpdate = Tuple[str, Node, Node]


class CompressionMaintainer(ABC):
    """Uniform driver interface over the Section 5 incremental algorithms.

    A maintainer owns a mutable copy of ``G ⊕ ΔG`` (possibly *adopted* from
    the engine with ``copy=False`` — see the aliasing contract on the
    underlying compressors) and keeps its compression artifact exact under
    batch updates.
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


def effective_updates(
    graph: DiGraph, updates: Iterable[EdgeUpdate]
) -> List[EdgeUpdate]:
    """The subsequence of *updates* that changes edge presence in *graph*.

    Simulated against an overlay — *graph* is **not** mutated and reflects
    the pre-batch state.  Inserting a present edge / deleting an absent one
    is dropped (the maintainers count those as redundant); an insert+delete
    pair inside the batch survives as both entries, preserving order, so
    replaying the result on any copy of the pre-batch graph reproduces the
    exact final state.
    """
    overlay: Dict[Edge, bool] = {}
    effective: List[EdgeUpdate] = []
    for op, u, v in updates:
        edge = (u, v)
        present = overlay.get(edge)
        if present is None:
            present = graph.has_edge(u, v)
        if op == "+":
            if not present:
                overlay[edge] = True
                effective.append((op, u, v))
        elif op == "-":
            if present:
                overlay[edge] = False
                effective.append((op, u, v))
        else:
            raise ValueError(f"unknown update op {op!r}")
    return effective


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
    """Net edge delta of a session relative to its last frozen snapshot.

    ``added`` holds edges now present that the snapshot lacks (insertion
    order preserved — :func:`repro.store.delta.merge_deltas` appends new
    nodes in first-appearance order over the added edges, which must match
    the order ``DiGraph.add_edge`` created them in the live graph);
    ``removed`` holds edges the snapshot has that are now gone.  The two
    are disjoint by construction.  ``new_nodes`` tracks nodes *created*
    since the last freeze: edge deltas can net out while the node they
    introduced survives (``DiGraph.remove_edge`` keeps endpoints), so node
    creation is logged separately and never cancelled by edge removals.
    ``staleness`` (the total of all three) is the engine's re-freeze
    trigger — and its freshness test: a snapshot is current only when it
    is zero.
    """

    def __init__(self) -> None:
        # dicts as ordered sets: insertion order is part of the contract.
        self._added: Dict[Edge, None] = {}
        self._removed: Dict[Edge, None] = {}
        self._new_nodes: Dict[Node, None] = {}
        #: Total effective (presence-changing) updates ever recorded.
        self.ops_applied = 0

    def record(
        self, effective: Iterable[EdgeUpdate], new_nodes: Iterable[Node] = ()
    ) -> None:
        """Fold an :func:`effective_updates` batch into the net delta.

        *new_nodes* are the nodes this batch creates (endpoints of
        effective insertions absent from the pre-batch graph).
        """
        for op, u, v in effective:
            edge = (u, v)
            self.ops_applied += 1
            if op == "+":
                if edge in self._removed:
                    del self._removed[edge]  # back to its snapshot state
                else:
                    self._added[edge] = None
            else:
                if edge in self._added:
                    del self._added[edge]
                else:
                    self._removed[edge] = None
        for node in new_nodes:
            self._new_nodes[node] = None

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
        """Size of the net delta — how far the snapshot lags the graph.

        Counts node creations on top of the edge delta, so a batch whose
        edges cancel out but which introduced a node still reads as stale
        (the snapshot is missing that node).
        """
        return len(self._added) + len(self._removed) + len(self._new_nodes)

    def clear(self) -> None:
        """Forget the delta (called right after a re-freeze)."""
        self._added.clear()
        self._removed.clear()
        self._new_nodes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateLog(+{len(self._added)}, -{len(self._removed)}, "
            f"nodes+{len(self._new_nodes)}, ops={self.ops_applied})"
        )
