"""Reachability preserving compression — ``compressR`` (Section 3).

Theorem 2 of the paper: there is a reachability preserving compression
``<R, F>`` with ``R`` in quadratic time and ``F`` in constant time, and no
post-processing ``P``.

Compression function ``R`` (algorithm ``compressR``, Fig. 5, plus the
Section 3.2 optimisations):

1. compute the condensation ``Gscc`` ("collapses each strongly connected
   component into a single node without self cycle");
2. group condensation nodes into ``Re``-classes
   (:mod:`repro.core.equivalence`);
3. quotient: one hypernode per class, an edge per pair of classes joined by
   an original edge;
4. drop redundant edges (lines 6–8 of ``compressR``: "if ... vS does not
   reach vS'") — since the quotient of distinct ``Re``-classes is a DAG
   (see below), this is exactly the unique transitive reduction, which makes
   ``Gr`` canonical.

*Why the quotient is a DAG.*  A quotient cycle would yield, inside some
class, members ``S ≠ S'`` with ``S ⇝ S'`` in the condensation (walk the cycle
and use that all members of a class share descendant sets).  Then
``S' ∈ desc(S) = desc(S')``, i.e. the condensation has a nonempty cycle —
impossible.

Query rewriting ``F`` maps ``QR(v, w)`` to ``QR(R(v), R(w))`` in O(1).  One
genuinely degenerate family needs the node-mapping index (which ``F`` is
already allowed to consult): if ``R(v) = R(w)`` the rewritten query is a
self-loop question that the quotient cannot answer, because a hypernode may
merge *mutually unreachable* nodes (e.g. sibling agents BSA1/BSA2 of
Example 1).  ``F`` resolves it exactly: ``v`` reaches ``w`` iff ``v == w`` or
``v`` and ``w`` share a *cyclic* SCC.  (Members of one class that lie in
different SCCs are provably mutually unreachable — ``u ⇝ v`` with equal
ancestor sets would put ``u`` in its own strict ancestor set.)  This closes
the gap the paper glosses over without giving up "any algorithm runs on
``Gr`` as is": all non-degenerate queries run unmodified on ``Gr``.

The artifact is arrays, as ``compressB``'s is (:mod:`repro.core.base`):
``Gr`` is a :class:`~repro.graph.csr.CSRGraph` over hypernodes ``0..k-1``
read straight off the kernel's reduced edges, and ``R`` and the SCC index
are int lists over ``G``'s dense ids.  A stock evaluator walks ``Gr``'s
frozen rows, and TOL labels are built over it as it is.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, ClassVar, Dict, Hashable, List, Optional, Tuple

from repro.core.base import QueryPreservingCompression, check_quotient_arrays, member_rows, quotient_graph
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DEFAULT_LABEL, DiGraph, NodeIndexer
from repro.graph.kernels import reachability_quotient
from repro.graph.scc import condensation
from repro.graph.transitive import dag_transitive_reduction
from repro.graph.traversal import bfs_reachable, bidirectional_reachable, path_exists
from repro.obs.metrics import inc as obs_inc
from repro.queries.reachability import EVALUATORS, ReachabilityQuery

Node = Hashable


class ReachabilityCompression(QueryPreservingCompression):
    """The artifact produced by :func:`compress_reachability`.

    Holds the compressed graph ``Gr`` (a :class:`CSRGraph` over the
    hypernodes), the node mapping ``R`` and the SCC index that powers the
    constant-time query rewriting ``F``.  ``class_of[i]`` and ``scc_of[i]``
    are the hypernode and the SCC id of ``G``'s node ``i`` in *indexer*'s
    order; ``member_rows`` is the inverse index (module docstring of
    :mod:`repro.core.base`).  ``compressR``'s hypernodes are ``0..k-1``;
    ``incRCM``'s keep their gapped, batch-stable class ids as ``Gr``'s
    nodes, reached through ``Gr``'s own indexer like any frozen graph's.
    """

    QUERY_CLASSES: ClassVar[Tuple[type, ...]] = (ReachabilityQuery,)

    def __init__(
        self,
        compressed: CSRGraph,
        class_of: List[int],
        indexer: NodeIndexer,
        member_rows: List[List[Node]],
        original_edges: int,
        scc_of: List[int],
        cyclic_scc: frozenset,
        scc_graph_size: Optional[int] = None,
    ) -> None:
        gr = compressed.materialise_rows()  # stock evaluators walk it node by node
        super().__init__(gr, class_of, indexer, member_rows, original_edges)
        self._scc_of = scc_of
        self._cyclic = cyclic_scc
        self._scc_graph_size = scc_graph_size

    # -- F: query rewriting ---------------------------------------------
    def rewrite(self, source: Node, target: Node) -> Tuple[str, Optional[Tuple[int, int]]]:
        """``F(QR(source, target))``.

        Returns ``("true", None)`` / ``("false", None)`` for the degenerate
        same-hypernode cases resolved by the node-mapping index, or
        ``("evaluate", (R(source), R(target)))`` for the rewritten query to
        run on ``Gr``.  Constant time.
        """
        if source == target:
            return ("true", None)
        i, j = self._indexer.index(source), self._indexer.index(target)
        cs, ct = self._block_of[i], self._block_of[j]
        if cs == ct:
            scc = self._scc_of[i]
            same_cyclic_scc = scc == self._scc_of[j] and scc in self._cyclic
            return ("true", None) if same_cyclic_scc else ("false", None)
        return ("evaluate", (cs, ct))

    def in_same_scc(self, u: Node, v: Node) -> bool:
        return self._scc_of[self._indexer.index(u)] == self._scc_of[self._indexer.index(v)]

    # -- persistence (repro.store catalog) -------------------------------
    def to_arrays(self, node_order: List[Node]) -> Dict[str, List[int]]:
        """Flatten the artifact into named integer arrays for the catalog.

        *node_order* must enumerate the original graph's nodes in insertion
        order (the frozen snapshot's indexer order); per-node maps are
        stored aligned to it so no node ids need encoding — the catalog's
        base snapshot already owns them.
        """
        indptr, targets = self._quotient.fwd()
        ids = self._indexer.indices(node_order)
        arrays = {
            "stats": [len(self._block_of), self._original_edges],
            "nclasses": [self._quotient.n],
            "class_of": list(map(self._block_of.__getitem__, ids)),
            "scc_of": list(map(self._scc_of.__getitem__, ids)),
            "cyclic_sccs": sorted(self._cyclic),
            "gr_indptr": list(indptr),
            "gr_targets": list(targets),
        }
        if self._scc_graph_size is not None:
            arrays["scc_graph_size"] = [self._scc_graph_size]
        return arrays

    @classmethod
    def from_arrays(cls, base: CSRGraph, arrays: Dict[str, List[int]]) -> "ReachabilityCompression":
        """Rehydrate an artifact persisted with :meth:`to_arrays`.

        *base* is ``G``'s frozen snapshot the arrays are aligned to: the
        artifact adopts its :class:`~repro.graph.digraph.NodeIndexer`, and
        the arrays themselves once they are validated.  Byte-identical to
        the cold run it was saved from: hypernode ids, member order (node
        insertion order), quotient edges and stats all survive the round
        trip — ``canonical_form()`` compares equal.

        Raises ``ValueError`` when the arrays do not fit *base* (a variant
        persisted for a different base graph) or are internally
        inconsistent; the catalog treats that as a corrupt variant and
        recomputes.
        """
        nclasses = arrays["nclasses"][0]
        class_of, sccs = arrays["class_of"], arrays["scc_of"]
        indptr, targets = arrays["gr_indptr"], arrays["gr_targets"]
        if len(sccs) != base.n:
            raise ValueError("persisted arrays do not match the base graph's node count")
        check_quotient_arrays(base.n, class_of, nclasses, indptr, targets)
        if sccs and (min(sccs) < 0 or max(sccs) >= base.n):
            # there are at most |V| SCCs; anything else is another graph's map
            raise ValueError("persisted SCC ids out of range")
        if not set(arrays["cyclic_sccs"]) <= set(sccs):
            # a cyclic SCC has members, so its id must appear in scc_of
            raise ValueError("persisted cyclic SCC ids not among the SCC ids")
        size = arrays.get("scc_graph_size")
        return cls(
            quotient_graph([DEFAULT_LABEL] * nclasses, indptr, targets),
            class_of,
            base.indexer,
            member_rows(base.node_order(), class_of, nclasses),
            arrays["stats"][1],
            sccs,
            frozenset(arrays["cyclic_sccs"]),
            size[0] if size else None,
        )

    def canonical_form(self) -> Tuple:
        """Fully-ordered rendering of the whole artifact, for equality tests.

        Two compressions of the same graph are byte-identical — same stats,
        same hypernode ids, same quotient edges, same member lists — iff
        their canonical forms compare equal.  This is the contract between
        the CSR kernel and the paper-literal :func:`compress_reachability_bfs`
        (and across hash seeds); ``tests/test_csr_kernels.py`` checks it on
        every pool graph.
        """
        gr = self._quotient
        stats = self.stats()
        hypernodes = sorted(gr.node_order())
        return (
            (
                stats.original_nodes,
                stats.original_edges,
                stats.compressed_nodes,
                stats.compressed_edges,
            ),
            self._scc_graph_size,
            tuple(hypernodes),
            tuple(sorted(gr.edge_list())),
            dict(zip(self._indexer.node_order(), self._block_of)),
            tuple((h, tuple(self.members(h))) for h in hypernodes),
        )

    # -- end-to-end evaluation ------------------------------------------
    def query(
        self,
        source: Node,
        target: Node,
        evaluator: Optional[Callable[[CSRGraph, int, int], bool]] = None,
    ) -> bool:
        """Answer ``QR(source, target)`` using only ``Gr`` and the index.

        *evaluator* is any off-the-shelf reachability algorithm with the
        signature ``(graph, s, t) -> bool`` — the whole point of the paper is
        that stock algorithms run on the compressed graph unchanged.  It
        runs over ``Gr``'s frozen rows, on the dense ids of the rewritten
        hypernodes (as :func:`~repro.queries.reachability
        .evaluate_reachability` does for any frozen graph).  Defaults to BFS.
        """
        verdict, rewritten = self.rewrite(source, target)
        if verdict == "true":
            return True
        if verdict == "false":
            return False
        assert rewritten is not None
        run = evaluator if evaluator is not None else path_exists
        gr = self._quotient
        return run(gr, gr.id_of(rewritten[0]), gr.id_of(rewritten[1]))

    def query_bibfs(self, source: Node, target: Node) -> bool:
        """Answer ``QR`` with bidirectional BFS on ``Gr`` (the paper's BIBFS)."""
        return self.query(source, target, evaluator=bidirectional_reachable)

    # -- answer-mapping protocol (router entry point) --------------------
    def reach_fn(self, tol: Any) -> Callable[[Node, Node], bool]:
        """``QR(source, target)`` as one closure: absent node → ``False``,
        the rewrite's same-hypernode cases, then one label intersection.

        *tol* is a :class:`~repro.index.tol.TOLIndex` over this ``Gr``,
        read structurally so :mod:`repro.core` stays import-free of the
        index layer.  :meth:`answer`, :meth:`answer_batch` and a serving
        epoch all run this closure.  A hypernode the labels do not index
        (a stale index) raises ``KeyError``: the router's cue to re-answer
        with BFS on ``Gr``.
        """
        index = self._indexer._index
        class_of, scc_of, cyclic = self._block_of, self._scc_of, self._cyclic
        comp, reach_comp = tol._scc_of, tol._reach_comp

        def reach(source: Node, target: Node) -> bool:
            i = index.get(source)
            if i is None:
                return False
            j = index.get(target)
            if j is None:
                return False
            if source == target:
                return True
            cs, ct = class_of[i], class_of[j]
            if cs == ct:
                scc = scc_of[i]
                return scc == scc_of[j] and scc in cyclic
            obs_inc("tol_lookups_total")
            a, b = comp[cs], comp[ct]
            return a == b or reach_comp(a, b)

        return reach

    @staticmethod
    def _tol_context(context: Any, algorithm: Optional[str]) -> Any:
        """The TOL index to answer with: *context* for the default route
        and an explicit ``algorithm="tol"``; ``None`` for a named stock
        evaluator (the bench forces ``algorithm="bfs"`` for exactly that
        comparison)."""
        if algorithm not in (None, "tol"):
            return None
        if algorithm == "tol" and context is None:
            raise ValueError("algorithm 'tol' requires a TOL index context")
        return context

    @staticmethod
    def _checked(query: Any) -> ReachabilityQuery:
        if not isinstance(query, ReachabilityQuery):
            raise TypeError(f"expected a ReachabilityQuery, got {type(query).__name__}")
        return query

    def answer(self, query: ReachabilityQuery, *, context: Any = None,
               algorithm: Optional[str] = None) -> bool:
        """Answer a first-class :class:`ReachabilityQuery` on ``Gr``.

        *algorithm* names a stock evaluator (``bfs`` default, ``bibfs``,
        ``dfs``) or ``"tol"``; *context*, when it carries a sealed
        :class:`~repro.index.tol.TOLIndex` over this ``Gr``, turns the
        default route into a label intersection instead of a traversal —
        byte-identical answers, per the TOL exactness contract.  Total
        over node arguments: a query naming a node the graph never held
        answers ``False``, the same convention as
        :func:`repro.queries.reachability.evaluate_reachability` — so
        routed answers equal direct ones even on degenerate workloads.
        """
        self._checked(query)
        if query.source not in self._indexer or query.target not in self._indexer:
            return False
        tol = self._tol_context(context, algorithm)
        if tol is not None:
            return self.reach_fn(tol)(query.source, query.target)
        name = algorithm if algorithm is not None else "bfs"
        try:
            evaluator = EVALUATORS[name]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {name!r}; expected one of {sorted(EVALUATORS)}"
            ) from None
        return self.query(query.source, query.target, evaluator=evaluator)

    def answer_batch(self, queries: List[ReachabilityQuery], *, context: Any = None,
                     algorithm: Optional[str] = None) -> List[bool]:
        """Answer a micro-batch of reachability queries, sharing traversals.

        Queries are grouped by their rewritten source hypernode ``R(v)``:
        a group of one runs the stock per-query evaluator (identical to
        :meth:`answer`); a larger group computes the source's descendant
        set on ``Gr`` **once** (:func:`~repro.graph.traversal
        .bfs_reachable`) and answers every target by membership.
        Reachability is evaluator-independent (every stock algorithm is
        exact), so sharing the traversal cannot change any answer — this
        is the serving front's main single-core throughput lever for
        workloads with hot source nodes.

        With a TOL context (the default route once the serving session
        has sealed one), the batch needs **no traversal sharing and no
        answer memo at all**: every query is one rewrite plus one label
        intersection, so the loop below is skipped and each element is
        answered independently — still element-wise identical to
        :meth:`answer`.
        """
        tol = self._tol_context(context, algorithm)
        if tol is not None:
            reach = self.reach_fn(tol)
            return [reach(q.source, q.target) for q in map(self._checked, queries)]
        name = algorithm if algorithm is not None else "bfs"
        validated = name == "bfs"
        answers: List[Optional[bool]] = [None] * len(queries)
        gr = self._quotient
        id_of = gr.id_of
        # Grouped by the dense id of R(v) in Gr, the ids the evaluators walk.
        by_source: Dict[int, List[Tuple[int, int]]] = {}
        for i, q in enumerate(map(self._checked, queries)):
            if q.source not in self._indexer or q.target not in self._indexer:
                # Mirrors answer(): the absent-node short circuit precedes
                # algorithm validation, element for element.
                answers[i] = False
                continue
            if not validated:
                if name not in EVALUATORS:
                    raise ValueError(
                        f"unknown algorithm {name!r}; expected one of "
                        f"{sorted(EVALUATORS)}"
                    )
                validated = True
            kind, rewritten = self.rewrite(q.source, q.target)
            if kind != "evaluate":
                answers[i] = kind == "true"
                continue
            assert rewritten is not None
            by_source.setdefault(id_of(rewritten[0]), []).append((i, id_of(rewritten[1])))
        for cs, entries in by_source.items():
            if len(entries) == 1:
                i, ct = entries[0]
                answers[i] = EVALUATORS[name](gr, cs, ct)
            else:
                reachable = bfs_reachable(gr, cs)
                for i, ct in entries:
                    answers[i] = ct in reachable
        return answers  # type: ignore[return-value]  # every slot is filled

    # -- metrics ----------------------------------------------------------
    @property
    def scc_graph_size(self) -> Optional[int]:
        """``|Gscc|`` of the original graph, Table 1's RCscc denominator."""
        return self._scc_graph_size

    def scc_ratio(self) -> Optional[float]:
        """Table 1's ``RCscc = |Gr| / |Gscc|``."""
        if not self._scc_graph_size:
            return None
        return self.stats().compressed_size / self._scc_graph_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReachabilityCompression({self.stats()})"


def compress_reachability(graph: DiGraph) -> ReachabilityCompression:
    """``compressR``: build the reachability preserving compression of *graph*.

    See the module docstring for the pipeline; the output ``Gr`` is the
    transitive reduction of the quotient of the condensation by ``Re``,
    with every hypernode labeled with the paper's fixed dummy label σ.

    Freezes *graph* into a :class:`~repro.graph.csr.CSRGraph` once and runs
    :func:`compress_reachability_csr`.  Hypernode ids are canonical —
    assigned in order of each class's first member in the graph's node
    insertion order — so the compressed structure, the node mapping and
    the stats are independent of hash seeds, and equal to the paper-literal
    :func:`compress_reachability_bfs`'s.
    """
    return compress_reachability_csr(CSRGraph.from_digraph(graph))


def compress_reachability_csr(csr: CSRGraph) -> ReachabilityCompression:
    """``compressR`` on an already-frozen graph, over the integer kernels.

    The entry point for snapshot consumers — the :mod:`repro.store` catalog
    loads a ``CSRGraph`` straight from disk and compresses it here; output
    is byte-identical to ``compress_reachability(thawed)``.
    """
    quotient = reachability_quotient(csr)
    k = quotient.nclasses
    # reduced_edges is sorted by (source, target): its targets are Gr's rows.
    degree = [0] * k
    for ci, _ in quotient.reduced_edges:
        degree[ci] += 1
    gr = quotient_graph(
        [DEFAULT_LABEL] * k,
        [0, *accumulate(degree)],
        [cj for _, cj in quotient.reduced_edges],
    )
    class_of = quotient.class_of_node
    cond = quotient.cond
    return ReachabilityCompression(
        gr,
        class_of,
        csr.indexer,
        member_rows(csr.node_order(), class_of, k),
        csr.m,
        cond.comp,
        frozenset(c for c in range(cond.ncomp) if cond.cyclic[c]),
        cond.graph_size(),
    )


def compress_reachability_bfs(graph: DiGraph) -> ReachabilityCompression:
    """``compressR`` exactly as printed in the paper's Fig. 5.

    Computes ``Re`` by per-node forward/backward BFS traversals —
    ``O(|V|(|V| + |E|))``, the complexity the paper claims and benchmarks.
    :func:`compress_reachability` computes the same (unique) compression
    with topologically ordered bitsets and is dramatically faster; the
    incremental-maintenance benchmarks (Figs. 12(e,f)) use this literal
    variant as their batch baseline to match the paper's experimental
    conditions, and report the optimized variant as an ablation.
    """
    cond = condensation(graph)
    trivial = {
        v for v in graph.nodes() if cond.scc_of[v] not in cond.cyclic
    }
    groups: Dict[Tuple, List[Node]] = {}
    for v in graph.nodes():
        desc = frozenset(bfs_reachable(graph, v)) - ({v} if v in trivial else frozenset())
        anc = frozenset(bfs_reachable(graph, v, reverse=True)) - (
            {v} if v in trivial else frozenset()
        )
        groups.setdefault((anc, desc), []).append(v)

    class_of: Dict[Node, int] = {}
    for cid, members in enumerate(groups.values()):
        for v in members:
            class_of[v] = cid

    quotient = DiGraph()
    for cid in range(len(groups)):
        quotient.add_node(cid, DEFAULT_LABEL)
    for u, w in graph.edges():
        cu, cw = class_of[u], class_of[w]
        if cu != cw:
            quotient.add_edge(cu, cw)

    nodes = graph.node_list()
    return ReachabilityCompression(
        CSRGraph.from_digraph(dag_transitive_reduction(quotient)),
        list(map(class_of.__getitem__, nodes)),
        NodeIndexer(nodes),
        list(groups.values()),  # each class's members in node order
        graph.size(),
        list(map(cond.scc_of.__getitem__, nodes)),
        frozenset(cond.cyclic),
        cond.graph_size(),
    )
