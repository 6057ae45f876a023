"""``IncBMatch`` — incremental maintenance of bounded-simulation matches [9].

Used by the paper's Exp-3 (Fig. 12(h)) as the direct-on-``G`` competitor to
maintaining the compressed graph with ``incPCM`` and re-running ``Match`` on
``Gr``.

Maintenance strategy: the expensive part of ``Match`` is the per-bound
reachability bitsets, so those are maintained incrementally — an edge change
``(u, v)`` only invalidates ``reach_j`` for nodes within ``j-1`` *reverse*
hops of ``u`` (their bounded neighbourhood is the only thing that changed),
and the ``*`` closure only when the change is not transitively redundant.
Rows are rewritten in place (tables are lists indexed by dense id), and the
context's round-0 preimage masks, which are derived from those rows, are
dropped with every edit and rebuilt by the next ``Match``.
The candidate fixpoint is then re-run on the refreshed bitsets; it is linear
in the candidate sets and pattern size, and the unique-maximum-match
property (Lemma 1 of [9]) guarantees the result equals a from-scratch
``Match``.  Tests cross-validate exactly that.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Set, Tuple

from repro.graph.digraph import DiGraph
from repro.queries.matching import MatchContext, MatchResult, match
from repro.queries.pattern import STAR, GraphPattern

Node = Hashable

#: An edge update: ("+"/"-", source, target) — the paper's ΔG entries.
EdgeUpdate = Tuple[str, Node, Node]


class IncrementalMatcher:
    """Maintains ``Match(pattern, G)`` under batch edge updates.

    >>> # doctest-style sketch; see tests/test_incremental_match.py
    >>> # m = IncrementalMatcher(pattern, graph)
    >>> # m.apply([("+", 1, 2), ("-", 3, 4)]) == match(pattern, updated)
    """

    def __init__(
        self, pattern: GraphPattern, graph: DiGraph, copy: bool = True
    ) -> None:
        """Build the initial match state over *graph*.

        ``copy=True`` (default) deep-copies the graph, so the caller's
        object is never touched.  ``copy=False`` *adopts* the caller's
        graph instead — no duplicate adjacency in memory, which matters on
        large graphs (the engine's update path passes its own working graph
        here).  Aliasing contract: once adopted, the graph is owned by this
        matcher — every mutation must go through :meth:`apply`, and the
        caller may only *read* it (e.g. via :attr:`graph`).  Out-of-band
        edits silently desynchronise the cached reachability bitsets.
        """
        self._pattern = pattern
        self._graph = graph.copy() if copy else graph
        # The dict backend is the right context here: this is the *mutable*
        # path, and the csr backend would re-freeze the whole graph on every
        # star-closure rebuild after a non-redundant update.
        self._context = MatchContext(self._graph, backend="dict")
        self._bounds = [b for b in pattern.bounds_used() if b != STAR]
        self._uses_star = STAR in pattern.bounds_used()
        self._result: MatchResult = match(pattern, self._graph, self._context)
        #: Bitset-recompute counter; the benchmarks report it as the
        #: affected-area proxy.
        self.touched_nodes: int = 0

    @property
    def graph(self) -> DiGraph:
        """The maintained copy of the data graph."""
        return self._graph

    def current(self) -> MatchResult:
        return self._result

    def apply(self, updates: Iterable[EdgeUpdate]) -> MatchResult:
        """Apply ΔG and return the refreshed maximum match."""
        self.touched_nodes = 0
        needs_full_rebuild = False
        applied: List[EdgeUpdate] = []
        for op, u, v in updates:
            if op == "+":
                if u not in self._graph or v not in self._graph:
                    # New nodes shift the bitset indexing; rebuild caches.
                    needs_full_rebuild = True
                if self._graph.add_edge(u, v):
                    applied.append((op, u, v))
            elif op == "-":
                if self._graph.remove_edge(u, v):
                    applied.append((op, u, v))
            else:
                raise ValueError(f"unknown update op {op!r}")

        if needs_full_rebuild:
            self._context.invalidate()
        else:
            for op, u, v in applied:
                self._refresh_after(op, u, v)

        self._result = match(self._pattern, self._graph, self._context)
        return self._result

    # ------------------------------------------------------------------
    def _refresh_after(self, op: str, u: Node, v: Node) -> None:
        ctx = self._context
        indexer = ctx.indexer
        index = indexer.index
        successors = self._graph.successors

        # The preimage masks are derived from the rows edited below.
        ctx._pre.clear()

        # Adjacency (reach_1): only u's row changed.
        if ctx._adjacency is not None:
            ctx._adjacency[index(u)] = indexer.bitset(successors(u))
            self.touched_nodes += 1

        # Bounded levels: reach_j changed only for nodes within j-1 reverse
        # hops of u.  Refresh cached levels in ascending order so each level
        # reads consistent lower-level values.
        cached_levels = sorted(k for k in ctx._bounded if k > 1)
        if cached_levels:
            max_level = cached_levels[-1]
            balls = self._reverse_balls(u, max_level - 1)
            adj = ctx.adjacency_bitsets()
            for level in cached_levels:
                lower = ctx._bounded[level - 1] if level > 1 else adj
                table = ctx._bounded[level]
                for w in balls[level - 1]:
                    i = index(w)
                    mask = adj[i]
                    for c in successors(w):
                        mask |= lower[index(c)]
                    table[i] = mask
                    self.touched_nodes += 1

        # Star closure: skip the rebuild when the change is transitively
        # redundant (insertion of an already-implied edge); recompute
        # otherwise.  Deletions always rebuild — deciding redundancy exactly
        # would itself need the new closure.
        if ctx._star is not None and self._uses_star:
            if op == "+" and ctx._star[index(u)] >> index(v) & 1:
                return
            ctx._star = None
            ctx.star_reach()
            self.touched_nodes += self._graph.order()

    def _reverse_balls(self, center: Node, radius: int) -> List[Set[Node]]:
        """``balls[r]`` = nodes within ``r`` reverse hops of *center*.

        ``balls[0] = {center}``; cumulative (each ball contains the smaller
        ones).
        """
        balls: List[Set[Node]] = [{center}]
        frontier = {center}
        seen = {center}
        for _ in range(radius):
            nxt: Set[Node] = set()
            for w in frontier:
                for p in self._graph.predecessors(w):
                    if p not in seen:
                        seen.add(p)
                        nxt.add(p)
            balls.append(set(seen))
            frontier = nxt
        return balls
