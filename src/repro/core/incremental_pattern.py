"""``incPCM`` — incremental pattern preserving compression (Section 5.2).

Theorem 8: like RCM, the problem is unbounded; the paper's ``incPCM`` runs
in ``O(|AFF|^2 + |Gr|)`` time, independent of ``|G|``.  This implementation
realises the paper's phases with explicit invariants:

1. **minDelta** (redundant update reduction).  Bisimulation here is
   *forward*: a node's equivalence is determined by its label and the
   classes of its successors.  So an inserted edge ``(u, w)`` is redundant
   when ``u`` already has a child in ``[w]`` (``u``'s successor-class set is
   unchanged — exactly the paper's rule "w ∈ [u']Rb and ([u]Rb,[u']Rb) ∈
   Er"), and a deletion is redundant when another child in ``[w]`` remains.
   The cancellation rule falls out: an insert+delete pair hitting the same
   class with a surviving witness leaves both sides untouched.

2. **Affected area.**  Forward bisimilarity propagates along incoming edges
   only, so the affected area is ``AFF = anc*(D)`` — the dirty nodes ``D``
   and everything that can reach them.  (This also covers every rank
   change: a node's ``rb`` depends only on its descendants, and rank-change
   sources are non-redundant endpoints, which are in ``D`` —
   cf. the paper's ``incR`` and Lemma 9.)

3. **Stratified local refinement** (the paper's ``PT(AFFi)``).  Nodes of
   ``AFF`` are removed from the partition, re-ranked (Tarjan + rank formula
   on the induced subgraph; cycles through ``AFF`` provably stay inside
   ``AFF``), and refined from the (label, rank) grouping, reading frozen
   class ids at the frontier.

4. **SplitMerge.**  The frozen classes plus the refined ``AFF`` blocks form
   a *stable* partition, and the quotient map of a stable partition is a
   functional bisimulation; therefore two blocks merge in the maximum
   bisimulation iff their quotient nodes are bisimilar in the quotient
   graph.  Running the (batch) bisimulation algorithm on the quotient —
   whose size is ``O(|Gr| + |AFF|)``, giving the paper's ``+|Gr|`` term —
   yields exactly the needed merges: distinct frozen classes are never
   bisimilar to each other (they were distinct classes of a maximum
   bisimulation and their out-structure is untouched), so every merge joins
   an affected block with at most one frozen class (Lemma 10's condition in
   quotient form).

The maintained partition is therefore always the *maximum* bisimulation of
the updated graph, and the quotient equals ``compressB(G ⊕ ΔG)`` exactly;
tests assert this over randomized update sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.bisimulation import bisimulation_partition
from repro.core.pattern import PatternCompression, quotient_artifact
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.partition import Partition
from repro.graph.rank import NEG_INF, Rank
from repro.graph.scc import strongly_connected_components_within

Node = Hashable
EdgeUpdate = Tuple[str, Node, Node]


class IncrementalPatternCompressor:
    """Maintains ``Gr = compressB(G)`` under batch edge updates."""

    def __init__(self, graph: DiGraph, copy: bool = True) -> None:
        """Compress *graph* and stand ready to maintain it under updates.

        ``copy=False`` adopts the caller's graph instead of deep-copying it
        (same aliasing contract as :class:`repro.queries.incremental_match
        .IncrementalMatcher`: all mutation must go through :meth:`apply`,
        the caller only reads) — the engine's update path uses this so a
        large ``G`` is held once, not once per maintainer.
        """
        self._g = graph.copy() if copy else graph
        self._partition: Partition = bisimulation_partition(self._g)
        self._rank: Dict[Node, Rank] = {}
        self._wf: Dict[Node, bool] = {}
        self._recompute_ranks_within(set(self._g.nodes()))
        #: quotient edge -> number of supporting original edges.
        self._q_support: Dict[Tuple[int, int], int] = {}
        for u, v in self._g.edges():
            key = (self._partition.block_of(u), self._partition.block_of(v))
            self._q_support[key] = self._q_support.get(key, 0) + 1
        self._compression_cache: Optional[PatternCompression] = None
        # -- diagnostics ---------------------------------------------------
        self.last_affected_size = 0
        self.last_redundant = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The maintained copy of ``G ⊕ ΔG``."""
        return self._g

    def partition(self) -> Partition:
        return self._partition

    def compression(self) -> PatternCompression:
        """The current compression artifact (rebuilt lazily after updates)."""
        if self._compression_cache is None:
            self._compression_cache = self._build_artifact()
        return self._compression_cache

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        """Apply batch updates ΔG and propagate ΔGr (see module docstring)."""
        self._compression_cache = None
        self.last_redundant = 0
        dirty: Set[Node] = set()

        for op, u, v in updates:
            if op == "+":
                self._apply_insert(u, v, dirty)
            elif op == "-":
                self._apply_delete(u, v, dirty)
            else:
                raise ValueError(f"unknown update op {op!r}")

        if not dirty:
            self.last_affected_size = 0
            return
        affected = self._ancestor_closure(dirty)
        self.last_affected_size = len(affected)
        self._rebuild_affected(affected)

    # ------------------------------------------------------------------
    # minDelta: per-update dirtiness classification
    # ------------------------------------------------------------------
    def _apply_insert(self, u: Node, v: Node, dirty: Set[Node]) -> None:
        new_nodes = [x for x in dict.fromkeys((u, v)) if x not in self._g]
        if not self._g.add_edge(u, v):
            self.last_redundant += 1
            return
        for x in new_nodes:
            # Fresh singleton block; rank/wf recomputed with the affected set.
            bid = self._partition.add_block([x])
            self._rank[x] = 0
            self._wf[x] = True
            dirty.add(x)
        bv = self._partition.block_of(v)
        witness = any(
            w is not v and w != v and self._partition.block_of(w) == bv
            for w in self._g.successors(u)
        )
        self._q_support[(self._partition.block_of(u), bv)] = (
            self._q_support.get((self._partition.block_of(u), bv), 0) + 1
        )
        if witness:
            self.last_redundant += 1  # u's successor-class set is unchanged
        else:
            dirty.add(u)

    def _apply_delete(self, u: Node, v: Node, dirty: Set[Node]) -> None:
        if not self._g.remove_edge(u, v):
            self.last_redundant += 1
            return
        bu, bv = self._partition.block_of(u), self._partition.block_of(v)
        key = (bu, bv)
        remaining = self._q_support.get(key, 0) - 1
        if remaining <= 0:
            self._q_support.pop(key, None)
        else:
            self._q_support[key] = remaining
        witness = any(
            self._partition.block_of(w) == bv for w in self._g.successors(u)
        )
        if witness:
            self.last_redundant += 1
        else:
            dirty.add(u)

    # ------------------------------------------------------------------
    # Affected area
    # ------------------------------------------------------------------
    def _ancestor_closure(self, seeds: Set[Node]) -> Set[Node]:
        """``anc*(seeds)`` in the updated graph (reverse BFS), plus seeds."""
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            v = queue.popleft()
            for p in self._g.predecessors(v):
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    # ------------------------------------------------------------------
    # Rank maintenance (the paper's incR)
    # ------------------------------------------------------------------
    def _recompute_ranks_within(self, affected: Set[Node]) -> None:
        """Recompute ``rb``/``WF`` for *affected*, frozen at the frontier.

        Any cycle touching an affected node lies wholly inside the affected
        set (it is ancestor-closed), so Tarjan restricted to the set sees
        true SCCs; children outside contribute their cached rank/WF values,
        which are still valid because their descendants are untouched.
        """
        comps = strongly_connected_components_within(self._g, affected)
        for comp in comps:  # reverse topological order
            comp_set = set(comp)
            cyclic = len(comp) > 1 or any(
                self._g.has_edge(x, x) for x in comp
            )
            children: Set[Node] = set()
            for x in comp:
                for c in self._g.successors(x):
                    if c not in comp_set:
                        children.add(c)
            if not children:
                rank: Rank = NEG_INF if cyclic else 0
                wf = not cyclic
            else:
                wf = not cyclic and all(self._wf[c] for c in children)
                best: Rank = NEG_INF
                for c in children:
                    candidate = self._rank[c] + 1 if self._wf[c] else self._rank[c]
                    if candidate > best:
                        best = candidate
                rank = best
            for x in comp:
                self._rank[x] = rank
                self._wf[x] = wf

    # ------------------------------------------------------------------
    # Stratified refinement + SplitMerge
    # ------------------------------------------------------------------
    def _rebuild_affected(self, affected: Set[Node]) -> None:
        partition = self._partition

        # (a) Detach affected nodes, keeping quotient support consistent.
        old_block: Dict[Node, int] = {v: partition.block_of(v) for v in affected}

        def support_delta(key: Tuple[int, int], delta: int) -> None:
            new = self._q_support.get(key, 0) + delta
            if new <= 0:
                self._q_support.pop(key, None)
            else:
                self._q_support[key] = new

        for v in affected:
            for w in self._g.successors(v):
                bw = old_block[w] if w in affected else partition.block_of(w)
                support_delta((old_block[v], bw), -1)
            for p in self._g.predecessors(v):
                if p in affected:
                    continue  # counted from the source side
                support_delta((partition.block_of(p), old_block[v]), -1)
        for v in affected:
            partition.remove_node(v)

        # (b) Re-rank the affected region.
        self._recompute_ranks_within(affected)

        # (c) Local refinement: (label, rank) start, frozen frontier ids.
        local_of = self._refine_affected(affected)

        # (d) SplitMerge via quotient bisimulation.
        merge_map = self._merge_with_frozen(affected, local_of)

        # (e) Materialise the final blocks and restore quotient support.
        local_groups: Dict[object, List[Node]] = {}
        for v in affected:
            local_groups.setdefault(local_of[v], []).append(v)
        final_of: Dict[Node, int] = {}
        for local_id, members in local_groups.items():
            target = merge_map.get(local_id)
            if target is None:
                bid = partition.add_block(members)
            else:
                bid = target
                for v in members:
                    partition.move_node(v, bid)
            for v in members:
                final_of[v] = bid
        for v in affected:
            for w in self._g.successors(v):
                bw = final_of[w] if w in affected else partition.block_of(w)
                support_delta((final_of[v], bw), +1)
            for p in self._g.predecessors(v):
                if p in affected:
                    continue
                support_delta((partition.block_of(p), final_of[v]), +1)

    def _refine_affected(self, affected: Set[Node]) -> Dict[Node, object]:
        """Coarsest stable partition of *affected* relative to frozen blocks.

        Local block ids are ``("a", i)`` tuples; frozen frontier blocks
        appear in signatures as ``("f", bid)`` atoms.  Returns the local id
        of every affected node.
        """
        partition = self._partition
        groups: Dict[Tuple, List[Node]] = {}
        for v in affected:
            groups.setdefault((self._g.label(v), self._rank[v]), []).append(v)
        local_of: Dict[Node, object] = {}
        for i, members in enumerate(groups.values()):
            for v in members:
                local_of[v] = ("a", i)
        next_id = len(groups)

        def signature(v: Node) -> frozenset:
            sig = set()
            for w in self._g.successors(v):
                if w in affected:
                    sig.add(local_of[w])
                else:
                    sig.add(("f", partition.block_of(w)))
            return frozenset(sig)

        while True:
            by_block: Dict[object, Dict[frozenset, List[Node]]] = {}
            for v in affected:
                by_block.setdefault(local_of[v], {}).setdefault(
                    signature(v), []
                ).append(v)
            changed = False
            for sub in by_block.values():
                if len(sub) <= 1:
                    continue
                changed = True
                subgroups = sorted(sub.values(), key=len, reverse=True)
                for extra in subgroups[1:]:
                    for v in extra:
                        local_of[v] = ("a", next_id)
                    next_id += 1
            if not changed:
                return local_of

    def _merge_with_frozen(
        self, affected: Set[Node], local_of: Dict[Node, object]
    ) -> Dict[object, int]:
        """Decide which local blocks merge into which frozen blocks.

        Builds the quotient graph over frozen blocks plus local blocks and
        computes its maximum bisimulation; a local block bisimilar to a
        frozen block (necessarily unique) merges into it.  Local blocks
        bisimilar only to each other merge into one fresh block, which
        :meth:`_rebuild_affected` realises by mapping them to one local id.
        """
        partition = self._partition
        quotient = DiGraph()
        rep_label: Dict[object, str] = {}

        for bid in partition.block_ids():
            rep = next(iter(partition.members(bid)))
            node = ("f", bid)
            quotient.add_node(node, self._g.label(rep))
            rep_label[node] = self._g.label(rep)
        local_members: Dict[object, List[Node]] = {}
        for v in affected:
            local_members.setdefault(local_of[v], []).append(v)
        for local_id, members in local_members.items():
            quotient.add_node(local_id, self._g.label(members[0]))

        for (a, b), count in self._q_support.items():
            if count > 0:
                quotient.add_edge(("f", a), ("f", b))
        for v in affected:
            src = local_of[v]
            for w in self._g.successors(v):
                dst = local_of[w] if w in affected else ("f", partition.block_of(w))
                quotient.add_edge(src, dst)

        qpartition = bisimulation_partition(quotient)

        merge_map: Dict[object, int] = {}
        local_alias: Dict[object, object] = {}
        for block in qpartition.blocks():
            frozen = [n for n in block if isinstance(n, tuple) and n[0] == "f"]
            locals_ = [n for n in block if not (isinstance(n, tuple) and n[0] == "f")]
            if not locals_:
                continue
            if len(frozen) > 1:
                raise AssertionError(
                    "distinct frozen classes became bisimilar; invariant broken"
                )
            if frozen:
                for lid in locals_:
                    merge_map[lid] = frozen[0][1]
            elif len(locals_) > 1:
                # Merge local blocks among themselves: alias to the first.
                canonical = locals_[0]
                for lid in locals_[1:]:
                    local_alias[lid] = canonical
        if local_alias:
            for v in affected:
                lid = local_of[v]
                local_of[v] = local_alias.get(lid, lid)
        return merge_map

    # ------------------------------------------------------------------
    # Artifact construction
    # ------------------------------------------------------------------
    def _build_artifact(self) -> PatternCompression:
        nodes = self._g.node_list()
        return quotient_artifact(
            NodeIndexer(nodes),
            list(map(self._partition.block_of, nodes)),
            (pair for pair, count in self._q_support.items() if count > 0),
            self._g.label,
            self._g.size(),
        )
