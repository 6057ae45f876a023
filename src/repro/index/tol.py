"""Total-order reachability labeling (TOL) over the compressed ``Gr``.

Butterfly-style total-order labels (Zhu, Lin, Wang, Xiao, SIGMOD'14):
every condensation node ``c`` carries two hub sets — ``L_out(c)`` (hubs
``c`` reaches) and ``L_in(c)`` (hubs reaching ``c``) — built by pruned
traversals under one global *total order* of the nodes, so

``u ⇝ v  iff  (L_out(u) ∪ {u}) ∩ (L_in(v) ∪ {v}) ≠ ∅``.

The order is the butterfly cost heuristic: descending
``(in_degree + 1) · (out_degree + 1)`` with the canonical component id as
the tie-break, making label construction fully deterministic over the
frozen CSR layout (and independent of ``PYTHONHASHSEED``).  The paper's
reachability compression makes this index tiny: it is built over the
condensation of ``Gr`` — already a DAG a fraction of ``G``'s size — so a
routed reachability query becomes one O(1) rewrite plus one label
intersection instead of a per-query BFS.

Incremental maintenance (the dynamic half of TOL) is *bounded repair*:

* an **insert-only, acyclic** delta is repaired in place — for a new DAG
  edge ``a → b``, ``L_out(b) ∪ {b}`` is unioned into every ancestor of
  ``a`` and ``L_in(a) ∪ {a}`` into every descendant of ``b``.  Any pair
  ``x ⇝ y`` newly connected through ``a → b`` was answerable as
  ``b ⇝ y`` before the insert via some hub ``h``, and the backward sweep
  plants exactly that ``h`` (or ``b`` itself) in ``L_out(x)`` — so repair
  preserves completeness, and every label added states a true
  reachability fact about the *new* graph (soundness is free);
* anything else — edge/node **removals**, a **cycle-creating** insert
  (the condensation would change shape), a repair cone past the budget,
  or cumulative repair bloat past ``rebuild_ratio`` of the built size —
  makes :meth:`TOLIndex.apply_delta` return ``False``: the caller must
  rebuild (the engine counts that and falls back down the existing
  degraded-representation ladder).

Answers are byte-identical to BFS on the indexed graph — the randomized
suite in ``tests/test_tol.py`` checks that for ``DiGraph`` and ``CSRGraph``
inputs alike.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.graph.csr import CSRGraph, flatten_rows, split_rows
from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_condensation
from repro.obs.metrics import inc as obs_inc

Node = Hashable
Edge = Tuple[Node, Node]


class TOLError(RuntimeError):
    """The index cannot answer (unknown node / invalidated by a delta).

    The router treats this as "fall back to BFS on ``Gr``" — the route
    changes, the answer never does.
    """


class TOLIndex:
    """A dynamic total-order reachability index over a directed graph.

    >>> g = DiGraph.from_edges([(1, 2), (2, 3)])
    >>> idx = TOLIndex(g)
    >>> idx.reachable(1, 3), idx.reachable(3, 1)
    (True, False)

    Built over the condensation, so cyclic graphs work; the incremental
    :meth:`apply_delta` path only repairs DAG-shaped indexes (the serving
    use case: ``Gr`` is always a DAG) and asks for a rebuild otherwise.

    A :class:`CSRGraph` (``Gr`` always is one) is indexed as it is and a
    :class:`DiGraph` is frozen first; the condensation comes from
    :func:`~repro.graph.kernels.csr_condensation` either way.  *backend*
    accepts only ``"csr"``: it is kept because the end-to-end benchmark
    still passes ``backend="csr"``, and goes once a benchmark change stops
    passing it.
    """

    def __init__(
        self,
        graph: Union[DiGraph, CSRGraph],
        backend: str = "csr",
        rebuild_ratio: float = 1.0,
    ) -> None:
        if backend != "csr":
            raise ValueError(f"unknown backend: {backend!r} (only 'csr' is accepted)")
        if rebuild_ratio <= 0:
            raise ValueError("rebuild_ratio must be positive")
        #: Repair-bloat budget: cumulative label entries added by repairs
        #: beyond ``rebuild_ratio * (built entries + |comp|)`` trigger a
        #: rebuild request.
        self.rebuild_ratio = rebuild_ratio
        # The kernel gets the condensation DAG as successor lists, plus a
        # deferred source for the node-level edges.
        csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_digraph(graph)
        cond = csr_condensation(csr)
        indptr, indices = cond.indptr, cond.indices
        self._build(
            dict(zip(csr.node_order(), cond.comp)),
            [indices[indptr[c]: indptr[c + 1]] for c in range(cond.ncomp)],
            csr.edge_list,  # frozen: safe to read later
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(
        self,
        scc_of: Dict[Node, int],
        succ: List[List[int]],
        edge_source: Callable[[], Collection[Edge]],
    ) -> None:
        """The label-construction kernel.

        *succ* is the condensation DAG as per-component successor lists.
        For each hub in butterfly order — descending
        ``(in_degree + 1) · (out_degree + 1)``, component id tie-break —
        a pruned traversal forward plants the hub in ``L_in`` of every
        node it reaches that the labels so far do not already connect it
        to, and the mirror-image backward traversal fills ``L_out``.

        The traversal only ever adds the hub itself to the *other* side's
        labels, so whether a node is pruned depends on nothing the
        traversal changes: the hub's own label set is constant (hoisted
        out of the loop, tested with C-level ``set.isdisjoint``) and each
        node is tested once.  The labelled set is therefore "everything
        reachable from the hub through unpruned nodes" — a fixed point
        independent of visit order, which is why a plain stack gives the
        same labels, bit for bit, as a BFS queue would.
        """
        ncomp = len(succ)
        pred: List[List[int]] = [[] for _ in range(ncomp)]
        for c, row in enumerate(succ):
            for d in row:
                pred[d].append(c)
        label_out: List[Set[int]] = [set() for _ in range(ncomp)]
        label_in: List[Set[int]] = [set() for _ in range(ncomp)]
        order = sorted(
            range(ncomp),
            key=lambda c: (-(len(pred[c]) + 1) * (len(succ[c]) + 1), c),
        )
        # One visited stamp serves both directions: in a DAG a hub's
        # descendants and ancestors are disjoint.
        mark = [-1] * ncomp
        for hub in order:
            mark[hub] = hub
            for adjacency, mine, theirs in (
                (succ, label_out[hub], label_in),
                (pred, label_in[hub], label_out),
            ):
                stack = [hub]
                while stack:
                    for t in adjacency[stack.pop()]:
                        if mark[t] != hub:
                            mark[t] = hub
                            labels = theirs[t]
                            if mine.isdisjoint(labels):
                                labels.add(hub)
                                stack.append(t)  # else pruned: skip the subtree
        self._scc_of: Dict[Node, int] = scc_of
        self._ncomp = ncomp
        self._label_out = label_out
        self._label_in = label_in
        #: Repairs are only sound while the comp structure is the built
        #: one; a non-trivial SCC means inserts could merge components.
        self._dag = ncomp == len(scc_of)
        self._built_entries = self.entry_count()
        self._seal(edge_source)

    def _seal(self, edge_source: Callable[[], Collection[Edge]]) -> None:
        """Reset the repair counters; defer the repair-only state.

        The node-level edge set (what refresh diffs) and the condensation
        adjacency sets (what repair sweeps walk) are needed only by
        :meth:`apply_delta` / :meth:`edges`; a sealed per-epoch index is
        never repaired, so they are materialised from *edge_source* on
        first use (:meth:`_repair_state`) instead of on every build.
        """
        #: Inserts repaired in place since the last full build.
        self.repairs = 0
        #: Label entries added by those repairs (the bloat counter).
        self.repaired_entries = 0
        self._edge_source: Optional[Callable[[], Collection[Edge]]] = edge_source
        self._edges: Set[Edge] = set()
        self._succ: List[Set[int]] = []
        self._pred: List[Set[int]] = []

    def _repair_state(self) -> Set[Edge]:
        """The indexed edge set, materialising the repair state if deferred."""
        source = self._edge_source
        if source is not None:
            scc_of = self._scc_of
            self._edges = set(source())
            self._succ = [set() for _ in range(self._ncomp)]
            self._pred = [set() for _ in range(self._ncomp)]
            for u, v in self._edges:
                a, b = scc_of[u], scc_of[v]
                if a != b:
                    self._succ[a].add(b)
                    self._pred[b].add(a)
            self._edge_source = None
        return self._edges

    def _node_edges(self) -> Collection[Edge]:
        """The indexed edges, without forcing the repair state."""
        source = self._edge_source
        return self._edges if source is None else source()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, u: Node, v: Node) -> bool:
        """``u ⇝ v`` (reflexive), answered from labels only.

        Raises :class:`TOLError` for a node the index never saw — the
        router's cue to retry the query on ``Gr`` directly.
        """
        obs_inc("tol_lookups_total")
        try:
            su = self._scc_of[u]
            sv = self._scc_of[v]
        except KeyError:
            raise TOLError(f"node not indexed: {u!r} -> {v!r}") from None
        if su == sv:
            return True
        # Self-hubs are implicit: (L_out(u) ∪ {u}) ∩ (L_in(v) ∪ {v}) ≠ ∅,
        # spelled without building either union.
        lo = self._label_out[su]
        li = self._label_in[sv]
        return sv in lo or su in li or not lo.isdisjoint(li)

    def _reach_comp(self, a: int, b: int) -> bool:
        """:meth:`reachable` at component level, for distinct *a*, *b*."""
        lo = self._label_out[a]
        li = self._label_in[b]
        return b in lo or a in li or not lo.isdisjoint(li)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def nodes(self) -> FrozenSet[Node]:
        """The indexed graph's node set (for delta diffing)."""
        return frozenset(self._scc_of)

    def edges(self) -> FrozenSet[Edge]:
        """The indexed graph's edge set (for delta diffing)."""
        return frozenset(self._repair_state())

    def apply_delta(
        self, added_nodes: Iterable[Node], added_edges: Iterable[Edge]
    ) -> bool:
        """Patch the labels for an insert-only delta; ``False`` = rebuild.

        Returns ``True`` when every insert was repaired in place and the
        index stays exact.  Returns ``False`` when the delta cannot be
        soundly repaired (cycle-creating insert, non-DAG build, repair
        cone over budget) or when cumulative repair bloat passed
        ``rebuild_ratio`` — **the index must then be rebuilt before the
        next query**: labels stay sound (every entry is a true fact) but
        may be incomplete mid-delta.

        Removals are never repairable here (labels would over-approximate);
        callers diff the graphs first and skip straight to a rebuild.
        """
        if not self._dag:
            return False
        edges = self._repair_state()
        for v in sorted(added_nodes, key=repr):
            if v in self._scc_of:
                continue
            self._scc_of[v] = self._ncomp
            self._ncomp += 1
            for table in (self._label_out, self._label_in, self._succ, self._pred):
                table.append(set())
        budget = max(128, int(2 * (self._built_entries + self._ncomp)))
        for u, v in sorted(added_edges, key=repr):
            if (u, v) in edges:
                continue
            if u not in self._scc_of or v not in self._scc_of:
                return False  # endpoint the delta never declared
            if not self._insert_edge(u, v, budget):
                return False
        bloat_cap = self.rebuild_ratio * (self._built_entries + self._ncomp)
        return self.repaired_entries <= bloat_cap

    def _insert_edge(self, u: Node, v: Node, budget: int) -> bool:
        a, b = self._scc_of[u], self._scc_of[v]
        if a == b:
            # A self-edge at DAG level can only be a literal self-loop;
            # reachability is reflexive already.
            self._edges.add((u, v))
            return True
        if self._reach_comp(b, a):
            return False  # the insert closes a cycle: comp structure changes
        self._edges.add((u, v))
        already = self._reach_comp(a, b)
        self._succ[a].add(b)
        self._pred[b].add(a)
        if already:
            return True  # transitively implied: labels already cover it
        self.repairs += 1
        obs_inc("tol_repairs_total")
        # Backward cone of a learns how to reach b's hubs; forward cone of
        # b learns a's hubs.  Both sweeps include the endpoints.
        patch_out = self._label_out[b] | {b}
        if not self._sweep(a, self._pred, self._label_out, patch_out, budget):
            return False
        patch_in = self._label_in[a] | {a}
        return self._sweep(b, self._succ, self._label_in, patch_in, budget)

    def _sweep(
        self,
        start: int,
        adjacency: List[Set[int]],
        labels: List[Set[int]],
        patch: Set[int],
        budget: int,
    ) -> bool:
        """Union *patch* into ``labels`` across *start*'s whole cone."""
        seen: Set[int] = {start}
        queue: deque = deque((start,))
        visited = 0
        while queue:
            s = queue.popleft()
            visited += 1
            if visited > budget:
                return False  # cone too large: cheaper to rebuild
            target = labels[s]
            before = len(target)
            target |= patch
            target.discard(s)  # self-hubs are implicit at query time
            self.repaired_entries += len(target) - before
            for t in sorted(adjacency[s]):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return True

    # ------------------------------------------------------------------
    # Persistence (repro.store catalog variant)
    # ------------------------------------------------------------------
    def to_arrays(self, node_order: List[Node]) -> Dict[str, List[int]]:
        """Flatten the index into named integer arrays for the catalog.

        *node_order* must enumerate the indexed graph's nodes in its
        canonical order (for ``Gr`` that is ``range(|Gr|)``); per-node
        maps are aligned to it, so arbitrary node ids never need encoding.
        The indexed graph's edges are *not* part of the arrays: whoever
        persists an index also holds the graph it was built over, and
        hands its edges back to :meth:`from_arrays`.
        """
        if (
            len(node_order) != len(self._scc_of)
            or set(node_order) != self._scc_of.keys()
        ):
            raise ValueError("node_order does not enumerate the indexed graph")
        out_indptr, out_hubs = flatten_rows(map(sorted, self._label_out))
        in_indptr, in_hubs = flatten_rows(map(sorted, self._label_in))
        return {
            "tol_meta": [self._ncomp, self._built_entries, int(self._dag)],
            "tol_comp": list(map(self._scc_of.__getitem__, node_order)),
            "tol_out_indptr": out_indptr,
            "tol_out_hubs": out_hubs,
            "tol_in_indptr": in_indptr,
            "tol_in_hubs": in_hubs,
        }

    @classmethod
    def from_arrays(
        cls,
        node_order: List[Node],
        arrays: Dict[str, List[int]],
        edge_source: Callable[[], Collection[Edge]],
    ) -> "TOLIndex":
        """Rehydrate an index persisted with :meth:`to_arrays`.

        Zero recomputation: labels and counters come off the arrays.
        *edge_source* returns the edges of the graph the index was built
        over; it is called only when a repair or :meth:`edges` first asks
        (a sealed per-epoch index never does), so that graph must not
        change while the index is in use.  Raises ``ValueError`` when the
        arrays do not fit *node_order* or are internally inconsistent —
        the catalog treats that as a corrupt variant and recomputes.
        """
        ncomp, built_entries, dag_flag = arrays["tol_meta"]
        comp = arrays["tol_comp"]
        if len(comp) != len(node_order):
            raise ValueError("persisted arrays do not match the node count")
        if comp and (min(comp) < 0 or max(comp) >= ncomp):
            raise ValueError("persisted component ids out of range")
        self = cls.__new__(cls)
        self.rebuild_ratio = 1.0
        self._scc_of = dict(zip(node_order, comp))
        self._ncomp = ncomp
        self._dag = bool(dag_flag) and ncomp == len(self._scc_of)
        self._label_out, self._label_in = (
            list(map(set, split_rows(
                arrays[f"tol_{side}_indptr"], arrays[f"tol_{side}_hubs"],
                ncomp, ncomp, f"{side}-label hub",
            )))
            for side in ("out", "in")
        )
        self._built_entries = built_entries
        self._seal(edge_source)
        return self

    def canonical_form(self) -> Tuple:
        """Fully-ordered rendering, for byte-stability comparisons.

        Two builds over the same graph (any hash seed) compare equal; the
        cross-``PYTHONHASHSEED`` subprocess test pins exactly this.
        """
        return (
            self._ncomp,
            tuple(sorted(((repr(v), c) for v, c in self._scc_of.items()))),
            tuple(
                tuple(sorted(self._label_out[c])) for c in range(self._ncomp)
            ),
            tuple(
                tuple(sorted(self._label_in[c])) for c in range(self._ncomp)
            ),
            tuple(sorted(self._node_edges(), key=repr)),
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Total number of label entries — the index-size metric."""
        return sum(map(len, self._label_out)) + sum(map(len, self._label_in))

    def memory_cost(self) -> int:
        """Approximate bytes: entries + per-node bookkeeping (8B words)."""
        return 8 * (self.entry_count() + 2 * self._ncomp)

    def stats(self) -> Dict[str, Union[int, float]]:
        """Size and staleness counters (the obs/bench surface)."""
        entries = self.entry_count()
        return {
            "comps": self._ncomp,
            "entries": entries,
            "avg_entries": entries / max(1, self._ncomp),
            "built_entries": self._built_entries,
            "repairs": self.repairs,
            "repaired_entries": self.repaired_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TOLIndex(comps={self._ncomp}, entries={self.entry_count()}, "
            f"repairs={self.repairs})"
        )


def refresh_index(index: TOLIndex, graph: Union[DiGraph, CSRGraph]) -> Optional[bool]:
    """Patch *index* to match *graph*'s current shape; ``None`` = no change.

    Diffs the indexed node/edge sets against *graph* and routes the delta:

    * identical shape → ``None`` (nothing to do);
    * insert-only delta → :meth:`TOLIndex.apply_delta` (``True`` when the
      bounded repair succeeded, ``False`` when the caller must rebuild);
    * any removal → ``False`` immediately (labels cannot forget).
    """
    new_nodes: Set[Node] = set(graph.node_order() if isinstance(graph, CSRGraph) else graph.nodes())
    new_edges: Set[Edge] = set(graph.edge_list())
    old_nodes = index.nodes()
    old_edges = index.edges()
    if old_nodes == new_nodes and old_edges == new_edges:
        return None
    if not (old_nodes <= new_nodes) or not (old_edges <= new_edges):
        return False
    return index.apply_delta(new_nodes - old_nodes, new_edges - old_edges)
