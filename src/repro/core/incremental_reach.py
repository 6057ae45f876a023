"""``incRCM`` — incremental reachability preserving compression (Section 5.1).

Theorem 6: the problem is *unbounded* — no algorithm's cost is a function of
``|AFF| = |ΔG| + |ΔGr|`` alone.  The paper nevertheless gives ``incRCM``,
whose cost is ``O(|AFF||Gr|)``, independent of ``|G|``.  This module follows
the paper's architecture — reduce redundant updates, maintain topological
structure, then split/merge equivalence classes rank-by-rank — organised
around invariants that make every step locally checkable:

1. **Condensation maintenance.**  The SCC structure (node -> SCC, SCC DAG
   with per-edge multiplicities) is maintained per update: a cross-SCC
   insertion that closes a cycle merges exactly the SCCs on condensation
   paths ``scc(v) ⇝ scc(u)``; an intra-SCC deletion re-runs Tarjan on that
   SCC's *internal* subgraph only.  (The paper's prose updates "topological
   ranks" and "finds all the newly formed SCCs"; edge multiplicities and the
   internal member adjacency are exactly the state its omitted ``Split`` /
   ``Merge`` procedures need.)

2. **Redundant update reduction** (line 1/9 of ``incRCM``).  An insertion
   whose source SCC already reaches the target SCC, or a deletion that
   leaves the supporting multiplicity positive / the SCC strongly connected,
   provably leaves the transitive closure — hence ``Re`` and ``Gr`` —
   unchanged, and is dropped from the propagation (it is still applied to
   the stored graph).

3. **Affected-area propagation.**  Non-redundant updates seed a *dirty* SCC
   set; only SCCs in ``anc*(dirty) ∪ desc*(dirty)`` (on the final
   condensation) can change their ancestor/descendant signatures, so the
   signatures — cached per SCC as bitsets — are recomputed inside that cone
   only, reading frozen values at its frontier.  Classes are then re-derived
   for cone SCCs by signature lookup, which performs the paper's ``Split``
   (cone SCC leaves its class) and ``Merge`` (signature matches an existing
   class) in one step.

The result is *canonically identical* to ``compressR(G ⊕ ΔG)`` — the
maximum ``Re`` is unique and the transitive reduction of the quotient DAG is
unique — which the test suite asserts over randomized update sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.base import member_rows
from repro.core.reachability import ReachabilityCompression
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DEFAULT_LABEL, DiGraph, NodeIndexer
from repro.graph.scc import (
    strongly_connected_components,
    strongly_connected_components_within,
)
from repro.graph.transitive import dag_transitive_reduction

Node = Hashable
EdgeUpdate = Tuple[str, Node, Node]

_CYCLIC = "cyclic-scc"


class IncrementalReachabilityCompressor:
    """Maintains ``Gr = compressR(G)`` under batch edge updates.

    >>> # rc = IncrementalReachabilityCompressor(g)
    >>> # rc.apply([("+", 1, 2), ("-", 2, 3)])
    >>> # rc.compression().query(1, 3)
    """

    def __init__(self, graph: DiGraph, copy: bool = True) -> None:
        """Compress *graph* and stand ready to maintain it under updates.

        ``copy=False`` adopts the caller's graph instead of deep-copying it
        (same aliasing contract as :class:`repro.queries.incremental_match
        .IncrementalMatcher`: all mutation must go through :meth:`apply`,
        the caller only reads) — the engine's update path uses this so a
        large ``G`` is held once, not once per maintainer.
        """
        self._g = graph.copy() if copy else graph
        # -- condensation state ------------------------------------------
        self._scc_of: Dict[Node, int] = {}
        self._scc_members: Dict[int, Set[Node]] = {}
        self._scc_cyclic: Set[int] = set()
        self._dag_succ: Dict[int, Set[int]] = {}
        self._dag_pred: Dict[int, Set[int]] = {}
        self._dag_support: Dict[Tuple[int, int], int] = {}
        self._next_sid = 0
        # -- signature state ----------------------------------------------
        self._bit_of: Dict[int, int] = {}
        self._next_bit = 0
        self._anc: Dict[int, int] = {}
        self._desc: Dict[int, int] = {}
        # -- class state ----------------------------------------------------
        self._class_of_scc: Dict[int, int] = {}
        self._class_sccs: Dict[int, Set[int]] = {}
        self._sig_to_class: Dict[Tuple, int] = {}
        self._next_cid = 0
        # -- quotient state -------------------------------------------------
        self._q_support: Dict[Tuple[int, int], int] = {}
        # -- diagnostics ------------------------------------------------------
        self.last_cone_size = 0
        self.last_dirty_count = 0
        self.last_redundant = 0
        self._batch_had_deletion = False
        self._batch_had_insertion = False
        self._compression_cache: Optional[ReachabilityCompression] = None
        self._full_rebuild()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The maintained copy of ``G ⊕ ΔG``."""
        return self._g

    def compression(self) -> ReachabilityCompression:
        """The current compression artifact (rebuilt lazily after updates)."""
        if self._compression_cache is None:
            self._compression_cache = self._build_artifact()
        return self._compression_cache

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        """Apply batch updates ΔG and propagate ΔGr.

        Update format: ``("+", u, v)`` inserts an edge, ``("-", u, v)``
        deletes one.  No-op updates (inserting an existing edge / deleting a
        missing one) are ignored, as in the paper's redundant-update
        reduction.
        """
        self._compression_cache = None
        self.last_dirty_count = 0
        self.last_redundant = 0
        dirty: Set[int] = set()
        retired: Set[int] = set()
        # Within-batch validity flags for the cached anc/desc bitsets: an
        # un-dirty SCC's cached sets *understate* reachability once edges
        # were inserted and *overstate* it once edges were deleted; the fast
        # paths below only draw conclusions that stay sound under the
        # corresponding slack direction.
        self._batch_had_deletion = False
        self._batch_had_insertion = False

        for op, u, v in updates:
            if op == "+":
                self._apply_insert(u, v, dirty, retired)
            elif op == "-":
                self._apply_delete(u, v, dirty, retired)
            else:
                raise ValueError(f"unknown update op {op!r}")

        dirty -= retired
        self.last_dirty_count = len(dirty)
        if dirty:
            self._propagate(dirty)
        # Compact retired bit positions when they dominate the registry.
        if self._next_bit > 2 * len(self._scc_members) + 64:
            self._full_rebuild()

    # ------------------------------------------------------------------
    # Full (re)build — also the initial construction
    # ------------------------------------------------------------------
    def _full_rebuild(self) -> None:
        g = self._g
        self._scc_of.clear()
        self._scc_members.clear()
        self._scc_cyclic.clear()
        self._dag_succ.clear()
        self._dag_pred.clear()
        self._dag_support.clear()
        self._bit_of.clear()
        self._anc.clear()
        self._desc.clear()
        self._class_of_scc.clear()
        self._class_sccs.clear()
        self._sig_to_class.clear()
        self._q_support.clear()
        self._next_sid = 0
        self._next_bit = 0
        self._next_cid = 0

        for comp in strongly_connected_components(g):
            sid = self._new_sid()
            self._scc_members[sid] = set(comp)
            for x in comp:
                self._scc_of[x] = sid
            if len(comp) > 1:
                self._scc_cyclic.add(sid)
        for x, y in g.edges():
            sx, sy = self._scc_of[x], self._scc_of[y]
            if sx == sy:
                if len(self._scc_members[sx]) == 1:
                    self._scc_cyclic.add(sx)  # self-loop
                continue
            self._dag_support[(sx, sy)] = self._dag_support.get((sx, sy), 0) + 1
            self._dag_succ[sx].add(sy)
            self._dag_pred[sy].add(sx)

        self._recompute_signatures(set(self._scc_members))
        self._reassign_classes(set(self._scc_members), set())
        self._compression_cache = None

    # ------------------------------------------------------------------
    # Per-update structural maintenance
    # ------------------------------------------------------------------
    def _new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        self._scc_members.setdefault(sid, set())
        self._dag_succ.setdefault(sid, set())
        self._dag_pred.setdefault(sid, set())
        self._bit_of[sid] = self._next_bit
        self._next_bit += 1
        return sid

    def _ensure_node(self, v: Node, dirty: Set[int]) -> None:
        if v in self._scc_of:
            return
        self._g.add_node(v)
        sid = self._new_sid()
        self._scc_members[sid] = {v}
        self._scc_of[v] = sid
        self._anc[sid] = 0
        self._desc[sid] = 0
        dirty.add(sid)

    def _apply_insert(self, u: Node, v: Node, dirty: Set[int], retired: Set[int]) -> None:
        self._ensure_node(u, dirty)
        self._ensure_node(v, dirty)
        if not self._g.add_edge(u, v):
            self.last_redundant += 1
            return  # edge already present
        su, sv = self._scc_of[u], self._scc_of[v]
        if u == v:
            if su not in self._scc_cyclic:
                self._scc_cyclic.add(su)
                dirty.add(su)  # class kind changes (trivial -> cyclic)
            else:
                self.last_redundant += 1
            return
        if su == sv:
            self.last_redundant += 1  # intra-SCC edge: closure unchanged
            return
        self._batch_had_insertion = True

        def cache_valid(sid: int) -> bool:
            return sid not in dirty and sid not in retired and sid in self._desc

        # Fast path: pre-batch reachability sv ⇝ su proves a cycle forms
        # (insertions only ever add reachability).
        cycle = False
        if (
            not self._batch_had_deletion
            and cache_valid(sv)
            and (self._desc[sv] >> self._bit_of[su]) & 1
        ):
            cycle = True
        elif self._dag_reaches(sv, su):
            cycle = True
        if cycle:
            # Merge every SCC on a path sv ⇝ su.
            merged = self._merge_cycle(su, sv, retired)
            dirty.add(merged)
            return
        had_support = self._dag_support.get((su, sv), 0) > 0
        self._dag_edge_delta(su, sv, +1)
        if had_support:
            self.last_redundant += 1
            return
        # Fast path: pre-batch path su ⇝ sv (other than this edge) proves
        # transitive redundancy.
        if (
            not self._batch_had_deletion
            and cache_valid(su)
            and (self._desc[su] >> self._bit_of[sv]) & 1
        ):
            self.last_redundant += 1
            return
        if self._dag_path_avoiding_edge(su, sv):
            self.last_redundant += 1
            return
        dirty.add(su)
        dirty.add(sv)

    def _apply_delete(self, u: Node, v: Node, dirty: Set[int], retired: Set[int]) -> None:
        if u not in self._scc_of or v not in self._scc_of:
            self.last_redundant += 1
            return
        if not self._g.remove_edge(u, v):
            self.last_redundant += 1
            return
        su, sv = self._scc_of[u], self._scc_of[v]
        if u == v:
            self._batch_had_deletion = True
            if len(self._scc_members[su]) == 1:
                self._scc_cyclic.discard(su)
                dirty.add(su)
            else:
                self.last_redundant += 1
            return
        if su == sv:
            self._batch_had_deletion = True
            # Fast path: if u still reaches v inside the SCC, the component
            # is intact and the closure unchanged (any rerouting path stays
            # within the SCC — see module docstring).
            if self._reaches_within_scc(u, v, su):
                self.last_redundant += 1
                return
            self._handle_intra_scc_deletion(su, dirty, retired)
            return
        self._batch_had_deletion = True
        remaining = self._dag_support.get((su, sv), 0) - 1
        self._dag_edge_delta(su, sv, -1)
        if remaining > 0:
            self.last_redundant += 1
            return
        if self._dag_reaches(su, sv):
            self.last_redundant += 1
            return
        dirty.add(su)
        dirty.add(sv)

    def _reaches_within_scc(self, u: Node, v: Node, sid: int) -> bool:
        """Directed BFS ``u ⇝ v`` restricted to one SCC's members.

        Early-exit integrity test after an intra-SCC deletion: if ``u``
        still reaches ``v`` the SCC is intact (rerouting cannot leave the
        SCC), which avoids a full Tarjan pass for the common case.
        """
        members = self._scc_members[sid]
        seen = {u}
        queue = deque((u,))
        while queue:
            x = queue.popleft()
            for y in self._g.successors(x):
                if y == v:
                    return True
                if y in members and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    def _handle_intra_scc_deletion(self, sid: int, dirty: Set[int], retired: Set[int]) -> None:
        """Carve the broken pieces out of one SCC after a deletion.

        Asymmetric split (mirror of the union-by-size merge): the largest
        strongly connected part keeps the SCC id and all external adjacency
        attributed to nodes it retains; only edges incident to the carved
        nodes are re-pointed.
        """
        members = self._scc_members[sid]
        parts = self._tarjan_on_members(members)
        if len(parts) == 1:
            self.last_redundant += 1  # SCC survived; closure unchanged
            return
        keep = max(parts, key=len)
        keep_set = set(keep)
        carved: List[Node] = []
        for comp in parts:
            if comp is keep:
                continue
            new_sid = self._new_sid()
            self._scc_members[new_sid] = set(comp)
            for x in comp:
                self._scc_of[x] = new_sid
                carved.append(x)
            if len(comp) > 1 or self._g.has_edge(comp[0], comp[0]):
                self._scc_cyclic.add(new_sid)
            self._anc[new_sid] = 0
            self._desc[new_sid] = 0
            dirty.add(new_sid)
        # Re-attribute edges incident to carved nodes ("source side wins"
        # for carved-to-carved edges).
        for x in carved:
            sx = self._scc_of[x]
            for y in self._g.successors(x):
                if y in keep_set:
                    self._dag_edge_delta(sx, sid, +1)
                elif y in members and y not in keep_set:
                    sy = self._scc_of[y]
                    if sy != sx:
                        self._dag_edge_delta(sx, sy, +1)
                else:
                    sy = self._scc_of[y]
                    self._dag_edge_delta(sid, sy, -1)
                    self._dag_edge_delta(sx, sy, +1)
            for p in self._g.predecessors(x):
                if p in keep_set:
                    self._dag_edge_delta(sid, sx, +1)
                elif p in members and p not in keep_set:
                    continue  # handled from the carved source side
                else:
                    sp = self._scc_of[p]
                    self._dag_edge_delta(sp, sid, -1)
                    self._dag_edge_delta(sp, sx, +1)
        self._scc_members[sid] = keep_set
        if len(keep_set) == 1:
            lone = keep[0]
            if not self._g.has_edge(lone, lone):
                self._scc_cyclic.discard(sid)
        dirty.add(sid)

    def _tarjan_on_members(self, members: Set[Node]) -> List[List[Node]]:
        """Iterative Tarjan restricted to *members* (no subgraph copy)."""
        return strongly_connected_components_within(self._g, members)

    def _merge_cycle(self, su: int, sv: int, retired: Set[int]) -> int:
        """Merge all SCCs on condensation paths ``sv ⇝ su`` into one.

        Union-by-size: the largest constituent keeps its id (and all of its
        untouched external adjacency), and only the smaller SCCs' incident
        edges are re-pointed — crucial when a giant SCC with thousands of
        fringe neighbours repeatedly absorbs small components.
        """
        on_path = self._dag_between(sv, su)
        base = max(on_path, key=lambda sid: len(self._scc_members[sid]))
        others = on_path - {base}
        # Drop base's own edges into/out of the merged region first.
        for s in list(self._dag_succ[base]):
            if s in others:
                self._dag_edge_delta(base, s, -self._dag_support[(base, s)])
        for p in list(self._dag_pred[base]):
            if p in others:
                self._dag_edge_delta(p, base, -self._dag_support[(p, base)])
        base_members = self._scc_members[base]
        for sid in others:
            for p in list(self._dag_pred[sid]):
                count = self._dag_support[(p, sid)]
                self._dag_edge_delta(p, sid, -count)
                if p not in on_path:
                    self._dag_edge_delta(p, base, +count)
            for s in list(self._dag_succ[sid]):
                count = self._dag_support[(sid, s)]
                self._dag_edge_delta(sid, s, -count)
                if s not in on_path:
                    self._dag_edge_delta(base, s, +count)
            for x in self._scc_members[sid]:
                self._scc_of[x] = base
            base_members |= self._scc_members[sid]
            self._remove_scc(sid, retired)
        self._scc_cyclic.add(base)
        # Base's signature and class change; detaching here mirrors what
        # _remove_scc did for the others (reassignment happens in the
        # propagation phase, which sees base as dirty).
        return base

    def _remove_scc(self, sid: int, retired: Set[int]) -> None:
        """Retire an SCC id (its class membership is cleaned up here too)."""
        retired.add(sid)
        self._scc_cyclic.discard(sid)
        del self._scc_members[sid]
        del self._dag_succ[sid]
        del self._dag_pred[sid]
        self._anc.pop(sid, None)
        self._desc.pop(sid, None)
        self._detach_from_class(sid)

    # ------------------------------------------------------------------
    # Condensation-level helpers
    # ------------------------------------------------------------------
    def _dag_edge_delta(self, a: int, b: int, delta: int) -> None:
        """Adjust a condensation edge's multiplicity, syncing the quotient."""
        if delta == 0:
            return
        key = (a, b)
        old = self._dag_support.get(key, 0)
        new = old + delta
        if new < 0:
            raise AssertionError("negative condensation edge support")
        if new == 0:
            self._dag_support.pop(key, None)
            self._dag_succ[a].discard(b)
            self._dag_pred[b].discard(a)
        else:
            self._dag_support[key] = new
            self._dag_succ[a].add(b)
            self._dag_pred[b].add(a)
        if old == 0 and new > 0:
            self._quotient_edge_delta(a, b, +1)
        elif old > 0 and new == 0:
            self._quotient_edge_delta(a, b, -1)

    def _quotient_edge_delta(self, a: int, b: int, delta: int) -> None:
        ca = self._class_of_scc.get(a)
        cb = self._class_of_scc.get(b)
        if ca is None or cb is None or ca == cb:
            return  # endpoints mid-reassignment; fixed in _reassign_classes
        key = (ca, cb)
        new = self._q_support.get(key, 0) + delta
        if new <= 0:
            self._q_support.pop(key, None)
        else:
            self._q_support[key] = new

    def _dag_reaches(self, a: int, b: int) -> bool:
        """BFS on the condensation DAG (current state)."""
        if a == b:
            return True
        seen = {a}
        queue = deque((a,))
        while queue:
            s = queue.popleft()
            for t in self._dag_succ[s]:
                if t == b:
                    return True
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return False

    def _dag_path_avoiding_edge(self, a: int, b: int) -> bool:
        """Is there a path ``a ⇝ b`` not using the direct edge ``(a, b)``?"""
        seen = {a}
        queue = deque((a,))
        first = True
        while queue:
            s = queue.popleft()
            for t in self._dag_succ[s]:
                if s == a and t == b and first:
                    continue
                if t == b:
                    return True
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
            first = False
        return False

    def _dag_between(self, start: int, end: int) -> Set[int]:
        """SCCs on some path ``start ⇝ end`` (inclusive)."""
        forward: Set[int] = {start}
        queue = deque((start,))
        while queue:
            s = queue.popleft()
            for t in self._dag_succ[s]:
                if t not in forward:
                    forward.add(t)
                    queue.append(t)
        backward: Set[int] = {end}
        queue = deque((end,))
        while queue:
            s = queue.popleft()
            for t in self._dag_pred[s]:
                if t in forward and t not in backward:
                    backward.add(t)
                    queue.append(t)
        result = forward & backward
        result.add(start)
        result.add(end)
        return result

    # ------------------------------------------------------------------
    # Signature propagation (the Split/Merge phase)
    # ------------------------------------------------------------------
    def _propagate(self, dirty: Set[int]) -> None:
        cone = self._cone_of(dirty)
        self.last_cone_size = len(cone)
        self._recompute_signatures(cone)
        self._reassign_classes(cone, dirty)

    def _cone_of(self, seeds: Set[int]) -> Set[int]:
        """``anc*(seeds) ∪ desc*(seeds)`` on the final condensation."""
        cone = set(seeds)
        queue = deque(seeds)
        while queue:
            s = queue.popleft()
            for p in self._dag_pred[s]:
                if p not in cone:
                    cone.add(p)
                    queue.append(p)
        queue = deque(seeds)
        desc_seen = set(seeds)
        while queue:
            s = queue.popleft()
            for t in self._dag_succ[s]:
                if t not in desc_seen:
                    desc_seen.add(t)
                    cone.add(t)
                    queue.append(t)
        return cone

    def _recompute_signatures(self, cone: Set[int]) -> None:
        """Refresh ``anc``/``desc`` bitsets for *cone*, frozen at the frontier.

        Cone SCCs are processed in a topological order of the cone-induced
        sub-DAG; predecessors/successors outside the cone contribute their
        cached (still valid) bitsets.
        """
        order = self._cone_topological_order(cone)
        for sid in order:
            mask = 0
            for p in self._dag_pred[sid]:
                mask |= self._anc[p] | (1 << self._bit_of[p])
            self._anc[sid] = mask
        for sid in reversed(order):
            mask = 0
            for s in self._dag_succ[sid]:
                mask |= self._desc[s] | (1 << self._bit_of[s])
            self._desc[sid] = mask

    def _cone_topological_order(self, cone: Set[int]) -> List[int]:
        indegree = {
            sid: sum(1 for p in self._dag_pred[sid] if p in cone) for sid in cone
        }
        queue = deque(sid for sid, d in indegree.items() if d == 0)
        order: List[int] = []
        while queue:
            sid = queue.popleft()
            order.append(sid)
            for t in self._dag_succ[sid]:
                if t in cone:
                    indegree[t] -= 1
                    if indegree[t] == 0:
                        queue.append(t)
        if len(order) != len(cone):
            raise AssertionError("condensation contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Class reassignment (Split + Merge in one step)
    # ------------------------------------------------------------------
    def _signature_key(self, sid: int) -> Tuple:
        if sid in self._scc_cyclic:
            return (_CYCLIC, sid)
        return (self._anc[sid], self._desc[sid])

    def _detach_from_class(self, sid: int) -> None:
        cid = self._class_of_scc.pop(sid, None)
        if cid is None:
            return
        sccs = self._class_sccs[cid]
        sccs.discard(sid)
        if not sccs:
            del self._class_sccs[cid]
            for sig, mapped in list(self._sig_to_class.items()):
                if mapped == cid:
                    del self._sig_to_class[sig]
                    break

    def _reassign_classes(self, cone: Set[int], dirty: Set[int]) -> None:
        """Re-derive class membership for every cone SCC.

        Removing a cone SCC from its class is the paper's ``Split``; the
        signature-map lookup that lands it in an existing class is ``Merge``.
        Quotient edges incident to SCCs that changed class are re-attributed
        afterwards.
        """
        old_class: Dict[int, Optional[int]] = {
            sid: self._class_of_scc.get(sid) for sid in cone
        }
        for sid in cone:
            self._detach_from_class(sid)
        changed: List[int] = []
        for sid in cone:
            key = self._signature_key(sid)
            cid = self._sig_to_class.get(key)
            if cid is None:
                cid = self._next_cid
                self._next_cid += 1
                self._sig_to_class[key] = cid
                self._class_sccs[cid] = set()
            self._class_sccs[cid].add(sid)
            self._class_of_scc[sid] = cid
            if old_class[sid] != cid:
                changed.append(sid)
        self._reattribute_quotient_edges(changed, old_class)

    def _reattribute_quotient_edges(
        self, changed: List[int], old_class: Dict[int, Optional[int]]
    ) -> None:
        """Move quotient support from old class pairs to new ones.

        Only condensation edges incident to class-changed SCCs move; each
        such edge is processed once (source side wins for edges between two
        changed SCCs).
        """
        changed_set = set(changed)

        def former(sid: int) -> Optional[int]:
            return old_class.get(sid, self._class_of_scc.get(sid))

        def adjust(key: Tuple[int, int], delta: int) -> None:
            ca, cb = key
            if ca is None or cb is None or ca == cb:
                return
            new = self._q_support.get((ca, cb), 0) + delta
            if new <= 0:
                self._q_support.pop((ca, cb), None)
            else:
                self._q_support[(ca, cb)] = new

        for sid in changed:
            for t in self._dag_succ[sid]:
                adjust((former(sid), former(t)), -1)
                adjust((self._class_of_scc[sid], self._class_of_scc[t]), +1)
            for p in self._dag_pred[sid]:
                if p in changed_set:
                    continue  # handled from the source side
                adjust((former(p), former(sid)), -1)
                adjust((self._class_of_scc[p], self._class_of_scc[sid]), +1)

    # ------------------------------------------------------------------
    # Artifact construction
    # ------------------------------------------------------------------
    def _build_artifact(self) -> ReachabilityCompression:
        """Freeze the maintained quotient once: ``Gr``'s nodes are the
        class ids as they stand (gapped, stable across batches), so the
        labels carried from batch to batch see the same hypernodes."""
        quotient = DiGraph()
        for cid in self._class_sccs:
            quotient.add_node(cid, DEFAULT_LABEL)
        for (ca, cb), count in self._q_support.items():
            if count > 0:
                quotient.add_edge(ca, cb)
        gr = CSRGraph.from_digraph(dag_transitive_reduction(quotient))

        nodes = self._g.node_list()
        scc_of = list(map(self._scc_of.__getitem__, nodes))
        class_of = list(map(self._class_of_scc.__getitem__, scc_of))
        scc_size = len(self._scc_members) + len(self._dag_support)
        return ReachabilityCompression(
            gr,
            class_of,
            NodeIndexer(nodes),
            member_rows(nodes, gr.indexer.indices(class_of), gr.n),
            self._g.size(),
            scc_of,
            frozenset(self._scc_cyclic),
            scc_size,
        )
