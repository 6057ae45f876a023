"""``Match`` — graph pattern matching via bounded simulation [9].

A data graph ``G`` matches a pattern ``Qp`` iff there is a binary relation
``S ⊆ Vp × V`` such that every pattern node has a match, matched data nodes
carry the required label, and every pattern edge ``(u, u')`` with bound
``b`` is matched from every ``(u, v) ∈ S`` by a nonempty path of length
``<= b`` (any length for ``*``) to some ``v'`` with ``(u', v') ∈ S``.
Lemma 1 [9]: when a match exists, a unique *maximum* match ``SM`` exists;
the answer to ``Qp`` is ``SM``, or the empty relation otherwise.

Algorithm
---------
Greatest-fixpoint candidate refinement over bitsets, scheduled by a
worklist (:func:`match_bitsets`; :func:`match` and
:func:`repro.queries.simulation.simulation` are its two entries).

*Tables.*  Data nodes are addressed by their dense id (position in the
graph's node order) throughout.  ``cand(u)`` is one big integer whose bit
``i`` says "data node ``i`` may still match pattern node ``u``".
``reach_b`` is a **list indexed by dense id**: ``reach_b[i]`` is the
bitset of nodes within ``1..b`` nonempty hops of node ``i`` (``reach_*``:
any nonempty path).  The tables depend only on the data graph, so
:class:`MatchContext` builds each once and shares it across the many
patterns of a run; neither the builders nor the kernel hash a node or
translate an id per element — original nodes are named only when the final
candidate sets are expanded (:func:`repro.graph.bitset.select`).

*Round 0 is a table lookup.*  ``cand(u)`` starts as the label mask of
``fv(u)``.  While ``cand(u')`` is still the full label mask of ``fv(u')``,
the candidates of ``u`` that satisfy edge ``(u, u', b)`` are exactly
``cand(u) & pre[b, fv(u')]``, where ``pre[b, l]`` = nodes whose
``reach_b`` row meets the label mask of ``l`` — a property of the data
graph alone, built once per context (:meth:`MatchContext.preimage`).  So
the first pass over every pattern edge is one AND per edge.

*Worklist invariant.*  Call an edge ``(u, u', b)`` *settled* when every
``i`` in ``cand(u)`` has ``reach_b[i] & cand(u') != 0``.  After round 0
every edge whose target still holds its full label mask is settled.  The
worklist holds the pattern nodes whose candidate set shrank since the
edges entering them were last scanned; every edge whose target is not on
the worklist is settled.  Popping ``u'`` rescans only the edges entering
``u'`` — candidates only ever shrink, so an edge can become unsettled in
no other way (the Henzinger–Henzinger–Kopke scheduling) — and pushes each
source that lost candidates.  The scan is one pass over the ids of
``cand(u)`` testing ``reach_b[i] & cand(u')``; the ids that fail are
folded back into the mask in one step.  An empty candidate set means no
match; an empty worklist means every edge is settled, i.e. the candidate
sets form a match relation.

*Why the order does not matter.*  A candidate is deleted only when it
violates the definition against the *current* sets, which contain the
maximum match ``SM`` (induction: they start as supersets, and a member of
``SM`` always has its witness inside ``SM``, so it is never deleted).  Any
schedule therefore ends in a match relation that contains ``SM`` — which
by maximality (Lemma 1) *is* ``SM``.  Worklist order, the round-0
shortcut and the old edge-by-edge global loop all reach the same sets;
:func:`match_naive`, a direct depth-bounded-BFS implementation of the
definition, and ``backend="dict"`` are kept as the cross-validation
references.
"""

from __future__ import annotations

import threading
from functools import reduce
from operator import or_
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.graph.bitset import bitset_of, iter_bits, mask_of_flags, select
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.obs.metrics import inc as obs_inc
from repro.graph.scc import condensation
from repro.graph.traversal import bfs_distances, topological_order
from repro.queries.pattern import STAR, Bound, GraphPattern

Node = Hashable

MatchResult = Dict[Node, Set[Node]]


def _snapshot_matches(csr: CSRGraph, graph: DiGraph) -> bool:
    """Best-effort check that *csr* is a freeze of *graph*.

    O(n), no per-edge hashing (that cost is exactly what adopting a
    snapshot avoids): edge count, node list, every node's label and every
    node's out- *and* in-degree must agree.  This catches wrong-file
    confusion, relabeling, and any edge delta that shifts a degree in
    either direction (a single rewire ``u→a ⇒ u→b`` keeps u's out-degree
    but moves an in-degree); an adversarial rewire preserving all degrees
    is the caller's responsibility (compare ``csr.digest()`` when in
    doubt).
    """
    if csr.m != graph.size() or csr.node_order() != graph.node_list():
        return False
    indptr = csr.fwd()[0]
    rindptr = csr.rev()[0]
    successors = graph.successors
    predecessors = graph.predecessors
    label_names = csr.label_names
    codes = csr.label_codes()
    graph_label = graph.label
    return all(
        indptr[i + 1] - indptr[i] == len(successors(v))
        and rindptr[i + 1] - rindptr[i] == len(predecessors(v))
        and label_names[codes[i]] == graph_label(v)
        for i, v in enumerate(csr.node_order())
    )


class MatchContext:
    """Per-graph cache of candidate and reachability bitsets.

    Build one per data graph and pass it to repeated :func:`match` calls;
    the benchmarks rely on this to evaluate hundreds of patterns without
    recomputing closures.  Every reachability table is a list indexed by
    dense node id (``indexer`` fixes the id ↔ node bijection).

    ``backend="csr"`` (default) freezes the graph once (lazily, or adopts a
    pre-frozen/snapshot-loaded *csr*) and builds candidate and adjacency
    bitsets from the frozen label/adjacency arrays — no per-node hashing.
    ``backend="dict"`` is the original dict-of-sets path, kept as the
    cross-validation reference; both produce identical bitsets because the
    frozen integer ids coincide with the indexer's insertion-order ids.

    A bare :class:`CSRGraph` may be passed as *graph* (no dict backend
    involved at all): the context then runs entirely over the frozen
    arrays — the entry point for snapshot consumers such as the engine's
    session cache, which matches patterns straight off a catalog-loaded
    snapshot.  Such a context has ``graph is None`` and cannot be
    ``invalidate``\\ d (snapshots are immutable; freeze a new one instead).

    Thread safety
    -------------
    All lazy cache builds run under an internal reentrant lock with a
    lock-free fast path for already-built entries, so one context can be
    shared by concurrent reader threads (the epoch snapshots of
    :mod:`repro.engine.epoch` rely on this): a cache entry is computed
    exactly once and never mutated after it is published.  :meth:`seal`
    additionally forbids :meth:`invalidate`, turning the context into a
    permanently read-only shared cache; :meth:`prepare` pre-builds the
    caches eagerly, so no query pays for a table it happens to use first.
    """

    def __init__(
        self,
        graph: "Union[DiGraph, CSRGraph]",
        csr: Optional[CSRGraph] = None,
        backend: str = "csr",
    ) -> None:
        if backend not in ("csr", "dict"):
            raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")
        if isinstance(graph, CSRGraph):
            if csr is not None and csr is not graph:
                raise ValueError("pass the snapshot once (as graph or csr, not both)")
            if backend != "csr":
                raise ValueError("a frozen snapshot requires backend='csr'")
            csr, graph = graph, None
        else:
            if csr is not None and backend != "csr":
                raise ValueError("a pre-frozen csr snapshot requires backend='csr'")
            if csr is not None and not _snapshot_matches(csr, graph):
                raise ValueError("csr snapshot does not match the graph")
        self.graph = graph
        self.backend = backend
        self.indexer = csr.indexer if csr is not None else NodeIndexer(graph.node_list())
        self._csr = csr
        self._adjacency: Optional[List[int]] = None
        self._bounded: Dict[int, List[int]] = {}
        self._star: Optional[List[int]] = None
        # Derived from the tables above: whoever edits or drops those must
        # drop these too (invalidate, IncrementalMatcher._refresh_after).
        self._pre: Dict[Tuple[Bound, str], int] = {}
        self._label_bits: Dict[str, int] = {}
        self._label_masks: Optional[Dict[str, int]] = None
        # Reentrant: bounded_reach(k) builds bounded_reach(k-1) while held.
        self._cache_lock = threading.RLock()
        self._sealed = False
        self._answer_memo: Optional[Dict[Any, Any]] = None

    # -- frozen snapshot --------------------------------------------------
    def frozen(self) -> CSRGraph:
        """The freeze-once CSR snapshot backing the fast paths (lazy)."""
        if self._csr is None:
            with self._cache_lock:
                if self._csr is None:
                    self._csr = CSRGraph.from_digraph(self.graph)
        return self._csr

    # -- candidates ------------------------------------------------------
    def label_candidates(self, label: str) -> int:
        """Bitset of data nodes carrying *label*."""
        if self.backend == "csr":
            # One cache only: a single pass over the frozen label-code array
            # builds every label's candidate bitset at once; _label_bits
            # stays the dict backend's per-label cache.
            masks = self._label_masks
            if masks is None:
                with self._cache_lock:
                    masks = self._label_masks
                    if masks is None:
                        csr = self.frozen()
                        by_code = [0] * len(csr.label_names)
                        for i, code in enumerate(csr.label_codes()):
                            by_code[code] |= 1 << i
                        masks = dict(zip(csr.label_names, by_code))
                        self._label_masks = masks
            return masks.get(label, 0)
        cached = self._label_bits.get(label)
        if cached is None:
            with self._cache_lock:
                cached = self._label_bits.get(label)
                if cached is None:
                    cached = self.indexer.bitset(self.graph.nodes_with_label(label))
                    self._label_bits[label] = cached
        return cached

    # -- reachability ------------------------------------------------------
    def adjacency_bitsets(self) -> List[int]:
        """``reach_1``: successor bitsets, indexed by dense node id."""
        if self._adjacency is None:
            with self._cache_lock:
                if self._adjacency is None:
                    self._adjacency = self._build_adjacency()
        return self._adjacency

    def _build_adjacency(self) -> List[int]:
        if self.backend == "csr":
            indptr, indices = self.frozen().fwd()
            bit = (1).__lshift__
            return [
                reduce(or_, map(bit, indices[indptr[i]:indptr[i + 1]]), 0)
                for i in range(len(indptr) - 1)
            ]
        bitset = self.indexer.bitset
        successors = self.graph.successors
        return [bitset(successors(v)) for v in self.indexer.node_order()]

    def bounded_reach(self, bound: int) -> List[int]:
        """``reach_bound``: nodes within 1..bound hops, as bitsets by id.

        ``reach_k(v) = reach_1(v) ∪ ⋃_{c ∈ succ(v)} reach_{k-1}(c)``,
        computed by ``bound - 1`` rounds of adjacency composition.
        """
        cached = self._bounded.get(bound)
        if cached is not None:
            return cached
        with self._cache_lock:
            cached = self._bounded.get(bound)
            if cached is None:
                cached = self._build_bounded(bound)
                self._bounded[bound] = cached
            return cached

    def _build_bounded(self, bound: int) -> List[int]:
        adj = self.adjacency_bitsets()
        if bound == 1:
            return adj  # one table, two names: row edits reach both
        row_of = self.bounded_reach(bound - 1).__getitem__
        if self.backend == "csr":
            indptr, indices = self.frozen().fwd()
            return [
                reduce(or_, map(row_of, indices[indptr[i]:indptr[i + 1]]), adj[i])
                for i in range(len(adj))
            ]
        indices_of = self.indexer.indices
        successors = self.graph.successors
        return [
            reduce(or_, map(row_of, indices_of(successors(v))), adj[i])
            for i, v in enumerate(self.indexer.node_order())
        ]

    def star_reach(self) -> List[int]:
        """``reach_*``: strict descendants (nonempty paths), via condensation."""
        if self._star is not None:
            return self._star
        with self._cache_lock:
            if self._star is None:
                self._star = self._build_star()
            return self._star

    def _build_star(self) -> List[int]:
        if self.backend == "csr":
            return self._star_reach_csr()
        return self._star_reach_dict()

    def _star_reach_dict(self) -> List[int]:
        """Reference implementation over the mutable dict backend."""
        cond = condensation(self.graph)
        full: Dict[int, int] = {
            s: self.indexer.bitset(members) for s, members in cond.members.items()
        }
        below: Dict[int, int] = {}
        for s in reversed(topological_order(cond.dag)):
            mask = 0
            for c in cond.dag.successors(s):
                mask |= full[c] | below[c]
            below[s] = mask
        star = [0] * len(self.indexer)
        for s, members in cond.members.items():
            mask = below[s]
            if s in cond.cyclic:
                mask |= full[s]
            for i in self.indexer.indices(members):
                star[i] = mask
        return star

    def _star_reach_csr(self) -> List[int]:
        """Closure over the frozen condensation, exploiting that component
        ids come out in reverse topological order (children before parents —
        no explicit sort)."""
        from repro.graph.kernels import csr_condensation

        csr = self.frozen()
        cond = csr_condensation(csr)
        comp_ptr, comp_nodes = cond.comp_ptr, cond.comp_nodes
        indptr, indices = cond.indptr, cond.indices
        cyclic = cond.cyclic
        bit = (1).__lshift__
        closed: List[int] = []  # members | everything below, per finished component
        star = [0] * csr.n
        for c in range(cond.ncomp):  # ascending id = children already final
            members = comp_nodes[comp_ptr[c]:comp_ptr[c + 1]]
            below = reduce(or_, map(closed.__getitem__, indices[indptr[c]:indptr[c + 1]]), 0)
            full = reduce(or_, map(bit, members), below)
            closed.append(full)
            mask = full if cyclic[c] else below
            for v in members:
                star[v] = mask
        return star

    def reach(self, bound: Bound) -> List[int]:
        return self.star_reach() if bound == STAR else self.bounded_reach(bound)

    def preimage(self, bound: Bound, label: str) -> int:
        """``pre[bound, label]``: nodes with a *label* node within *bound* hops.

        Bit ``i`` is set iff ``reach(bound)[i]`` meets
        ``label_candidates(label)`` — the survivors of any pattern edge
        ``(u, u', bound)`` with ``fv(u') = label`` while ``cand(u')`` is
        still the full label mask.  Built once per context and shared like
        the tables it is derived from.
        """
        key = (bound, label)
        cached = self._pre.get(key)
        if cached is None:
            with self._cache_lock:
                cached = self._pre.get(key)
                if cached is None:
                    cached = self._build_preimage(bound, label)
                    self._pre[key] = cached
        return cached

    def _build_preimage(self, bound: Bound, label: str) -> int:
        return mask_of_flags(map(self.label_candidates(label).__and__, self.reach(bound)))

    # -- sharing contract -------------------------------------------------
    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> "MatchContext":
        """Mark the context permanently read-only (no :meth:`invalidate`).

        Sealed contexts are the sharing contract of the epoch snapshots:
        caches may still build lazily (exactly once, under the internal
        lock) but the graph they describe can never be swapped out from
        under a concurrent reader.  Returns ``self`` for chaining.
        """
        self._sealed = True
        return self

    #: Soft cap on memoised answers per context (safety valve; a serving
    #: workload's hot-pattern pool is orders of magnitude smaller).
    MEMO_CAP = 4096

    def memo_compute(self, key: Any, compute: "Any") -> Any:
        """Compute-once answer memoisation with in-flight coalescing.

        Sealed contexts only (an immutable graph makes whole-answer
        caching always sound); unsealed contexts just call *compute*.
        Concurrent callers with the same *key* coalesce: one computes,
        the rest block on its completion instead of duplicating the work
        — the difference between N workers each evaluating a hot pattern
        and one evaluation serving all N.  The memoised object is the
        canonical copy; callers must not hand it out without copying.
        A failed computation is forgotten (the next caller retries).
        """
        if not self._sealed:
            return compute()
        with self._cache_lock:
            if self._answer_memo is None:
                self._answer_memo = {}
            memo = self._answer_memo
        event: Optional[threading.Event] = None
        waited = False
        while True:
            with self._cache_lock:
                entry = memo.get(key)
                if entry is None:
                    if len(memo) < self.MEMO_CAP:  # else: compute unmemoised
                        event = threading.Event()
                        memo[key] = ("pending", event)
                    break
                kind, payload = entry
                if kind == "done":
                    obs_inc("match_memo_lookups_total",
                            ("coalesced" if waited else "hit",))
                    return payload
                waiter = payload
            # Another thread is computing this key: block on it, then
            # re-read — done (return), vanished after a failure (retry),
            # or genuinely long-running (keep waiting).
            waited = True
            waiter.wait(timeout=300.0)
        obs_inc("match_memo_lookups_total", ("miss",))
        try:
            result = compute()
        except BaseException:
            if event is not None:
                with self._cache_lock:
                    if memo.get(key) == ("pending", event):
                        del memo[key]
                event.set()  # wake waiters; they will retry
            raise
        if event is not None:
            with self._cache_lock:
                if memo.get(key) == ("pending", event):
                    memo[key] = ("done", result)
            event.set()
        return result

    def prepare(self, bounds: Iterable[Bound] = ()) -> "MatchContext":
        """Eagerly build the caches (adjacency, *bounds*, label candidates).

        Pre-warming takes the table builds out of the first queries that
        would otherwise trigger them (a caller timing warm evaluation
        wants that).  Returns ``self`` for chaining.
        """
        with self._cache_lock:
            self.adjacency_bitsets()
            for bound in bounds:
                self.reach(bound)
            if self.backend == "csr":
                self.label_candidates("")  # builds every label's mask at once
            else:
                for label in self.graph.label_set():
                    self.label_candidates(label)
        return self

    def invalidate(self) -> None:
        """Drop caches after the underlying graph changed."""
        if self._sealed:
            raise ValueError(
                "this context is sealed (shared read-only across threads); "
                "build a new context for a changed graph"
            )
        if self.graph is None:
            raise ValueError(
                "a snapshot-backed context has no mutable graph to refresh; "
                "freeze a new snapshot and build a new context"
            )
        with self._cache_lock:
            self.indexer = NodeIndexer(self.graph.node_list())
            self._csr = None
            self._label_masks = None
            self._adjacency = None
            self._bounded.clear()
            self._star = None
            self._pre.clear()
            self._label_bits.clear()


def match_bitsets(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: MatchContext,
) -> Dict[Node, int]:
    """The refinement kernel: pattern node → candidate bitset of the maximum
    match, ``{}`` when there is none (module docstring, "Algorithm").

    :func:`match` before the ids are named — bit ``i`` stands for
    ``context.indexer.node(i)`` — for consumers that expand the ids
    themselves (``PatternCompression.answer`` maps block ids of ``Gb``
    straight to original nodes).
    """
    if graph is not context.graph and graph is not context._csr:
        raise ValueError("context was built for a different graph")
    labels = pattern.nodes
    full = {u: context.label_candidates(label) for u, label in labels.items()}
    if not all(full.values()):
        return {}
    cand = dict(full)
    edges_into: Dict[Node, List[Tuple[Node, Bound]]] = {u: [] for u in labels}
    for (u, child), bound in pattern.edges.items():
        # Round 0: the target still holds its whole label mask.
        cand[u] &= context.preimage(bound, labels[child])
        edges_into[child].append((u, bound))
    if not all(cand.values()):
        return {}

    # The worklist: targets whose entering edges may be unsettled (a dict as
    # a set with a deterministic pop order).
    pending = dict.fromkeys(u for u in labels if cand[u] != full[u])
    while pending:
        child = pending.popitem()[0]
        for u, bound in edges_into[child]:
            rows = context.reach(bound)
            target = cand[child]  # re-read: a self-loop shrinks it mid-loop
            mask = cand[u]
            dead = [i for i in iter_bits(mask) if not rows[i] & target]
            if dead:
                mask ^= bitset_of(dead)
                if not mask:
                    return {}
                cand[u] = mask
                pending[u] = None
    return cand


def match(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: Optional[MatchContext] = None,
) -> MatchResult:
    """The maximum match of *pattern* in *graph* (empty dict if none).

    Runs the worklist refinement described in the module docstring.
    The same function evaluates patterns on original and compressed graphs —
    exactly the "any algorithm runs on Gr as is" property the paper claims —
    and accepts either backend: a mutable :class:`DiGraph` or a frozen
    :class:`CSRGraph` snapshot (the match result always names original
    nodes; the snapshot's indexer owns the translation).
    """
    if pattern.order() == 0:
        return {}
    ctx = context if context is not None else MatchContext(graph)
    nodes = ctx.indexer.node_order()
    return {
        u: set(select(bits, nodes))
        for u, bits in match_bitsets(pattern, graph, ctx).items()
    }


def boolean_match(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: Optional[MatchContext] = None,
) -> bool:
    """Boolean pattern query: ``Qp ⊴ G``?"""
    return bool(match(pattern, graph, context))


def match_naive(pattern: GraphPattern, graph: DiGraph) -> MatchResult:
    """Reference implementation straight from the Section 2.1 definition.

    Candidate sets as Python sets; the bounded-path check is a depth-limited
    BFS per (data node, pattern edge) evaluation.  Quadratic and slow —
    tests only.
    """
    if pattern.order() == 0:
        return {}

    def reach_set(v: Node, bound: Bound) -> Set[Node]:
        if bound == STAR:
            out: Set[Node] = set()
            for c in graph.successors(v):
                out |= set(bfs_distances(graph, c))
            return out
        return bounded_reach_set(graph, v, bound)

    cand: Dict[Node, Set[Node]] = {}
    for u in pattern.nodes:
        cand[u] = set(graph.nodes_with_label(pattern.label(u)))
        if not cand[u]:
            return {}

    changed = True
    while changed:
        changed = False
        for (u, u_child), bound in pattern.edges.items():
            keep = {
                v for v in cand[u] if reach_set(v, bound) & cand[u_child]
            }
            if keep != cand[u]:
                if not keep:
                    return {}
                cand[u] = keep
                changed = True
    return cand


def bounded_reach_set(graph: DiGraph, v: Node, bound: int) -> Set[Node]:
    """Nodes reachable from *v* via nonempty paths of length <= *bound*.

    A plain BFS from *v* would mark *v* itself at distance 0 and never
    revisit it, silently missing cycle paths back to the start (e.g.
    ``v -> w -> v`` of length 2); a multi-source BFS from the successors
    with ``bound - 1`` remaining hops handles that correctly.
    """
    seen: Set[Node] = set(graph.successors(v))
    frontier = set(seen)
    for _ in range(bound - 1):
        if not frontier:
            break
        nxt: Set[Node] = set()
        for x in frontier:
            for y in graph.successors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    return seen


def match_relation(result: MatchResult) -> Set[tuple]:
    """Flatten a match result into the relation ``S = {(u, v)}`` of [9]."""
    return {(u, v) for u, vs in result.items() for v in vs}


def verify_match(
    pattern: GraphPattern, graph: DiGraph, result: MatchResult
) -> bool:
    """Check that *result* is a valid match relation (test helper).

    Verifies the three conditions of the Section 2.1 definition; does not
    check maximality.
    """
    if not result:
        return True
    if set(result) != set(pattern.nodes):
        return False

    def has_bounded_path(v: Node, bound: Bound, targets: Set[Node]) -> bool:
        if bound == STAR:
            seen: Set[Node] = set()
            stack: List[Node] = list(graph.successors(v))
            while stack:
                w = stack.pop()
                if w in targets:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.extend(graph.successors(w))
            return False
        return bool(bounded_reach_set(graph, v, bound) & targets)

    for u, matched in result.items():
        if not matched:
            return False
        for v in matched:
            if graph.label(v) != pattern.label(u):
                return False
            for u_child in pattern.successors(u):
                bound = pattern.bound(u, u_child)
                if not has_bounded_path(v, bound, result[u_child]):
                    return False
    return True
