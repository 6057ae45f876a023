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
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, ClassVar, Dict, Hashable, List, Optional, Tuple

from repro.core.base import (
    CompressionStats,
    QueryPreservingCompression,
    decode_quotient_arrays,
    quotient_rows,
)
from repro.core.equivalence import canonical_classes
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DEFAULT_LABEL, DiGraph
from repro.graph.kernels import reachability_quotient
from repro.graph.scc import condensation
from repro.graph.transitive import dag_transitive_reduction
from repro.graph.traversal import bfs_reachable, bidirectional_reachable, path_exists
from repro.queries.reachability import EVALUATORS, ReachabilityQuery

Node = Hashable


class ReachabilityCompression(QueryPreservingCompression):
    """The artifact produced by :func:`compress_reachability`.

    Holds the compressed graph ``Gr``, the node mapping ``R`` and the SCC
    index that powers the constant-time query rewriting ``F``.
    """

    QUERY_CLASSES: ClassVar[Tuple[type, ...]] = (ReachabilityQuery,)

    def __init__(
        self,
        compressed: DiGraph,
        class_of: Dict[Node, int],
        class_members: Dict[int, List[Node]],
        scc_of: Dict[Node, int],
        cyclic_scc: frozenset,
        original_nodes: int,
        original_edges: int,
        scc_graph_size: Optional[int] = None,
    ) -> None:
        self._gr = compressed
        self._class_of = class_of
        self._members = class_members
        self._scc_of = scc_of
        self._cyclic = cyclic_scc
        self._original_nodes = original_nodes
        self._original_edges = original_edges
        self._scc_graph_size = scc_graph_size

    # -- QueryPreservingCompression interface ---------------------------
    @property
    def compressed(self) -> DiGraph:
        return self._gr

    def node_class(self, v: Node) -> int:
        return self._class_of[v]

    def members(self, hypernode: int) -> List[Node]:
        return list(self._members[hypernode])

    def stats(self) -> CompressionStats:
        return CompressionStats(
            original_nodes=self._original_nodes,
            original_edges=self._original_edges,
            compressed_nodes=self._gr.order(),
            compressed_edges=self._gr.size(),
        )

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
        cs, ct = self._class_of[source], self._class_of[target]
        if cs == ct:
            same_cyclic_scc = (
                self._scc_of[source] == self._scc_of[target]
                and self._scc_of[source] in self._cyclic
            )
            return ("true", None) if same_cyclic_scc else ("false", None)
        return ("evaluate", (cs, ct))

    def in_same_scc(self, u: Node, v: Node) -> bool:
        return self._scc_of[u] == self._scc_of[v]

    # -- persistence (repro.store catalog) -------------------------------
    def to_arrays(self, node_order: List[Node]) -> Dict[str, List[int]]:
        """Flatten the artifact into named integer arrays for the catalog.

        *node_order* must enumerate the original graph's nodes in insertion
        order (the frozen snapshot's indexer order); per-node maps are
        stored aligned to it so no node ids need encoding — the catalog's
        base snapshot already owns them.
        """
        indptr, targets = quotient_rows(self._gr)
        arrays = {
            "stats": [self._original_nodes, self._original_edges],
            "nclasses": [self._gr.order()],
            "class_of": list(map(self._class_of.__getitem__, node_order)),
            "scc_of": list(map(self._scc_of.__getitem__, node_order)),
            "cyclic_sccs": sorted(self._cyclic),
            "gr_indptr": indptr,
            "gr_targets": targets,
        }
        if self._scc_graph_size is not None:
            arrays["scc_graph_size"] = [self._scc_graph_size]
        return arrays

    @classmethod
    def from_arrays(
        cls, node_order: List[Node], arrays: Dict[str, List[int]]
    ) -> "ReachabilityCompression":
        """Rehydrate an artifact persisted with :meth:`to_arrays`.

        Byte-identical to the cold run it was saved from: hypernode ids,
        member order (node insertion order), quotient edges and stats all
        survive the round trip — ``canonical_form()`` compares equal.

        Raises ``ValueError`` when the arrays do not fit *node_order* (a
        variant persisted for a different base graph) or are internally
        inconsistent; the catalog treats that as a corrupt variant and
        recomputes.
        """
        if len(arrays["scc_of"]) != len(node_order):
            raise ValueError(
                "persisted arrays do not match the base graph's node count"
            )
        nclasses = arrays["nclasses"][0]
        class_of, class_members, rows = decode_quotient_arrays(
            node_order,
            arrays["class_of"],
            nclasses,
            arrays["gr_indptr"],
            arrays["gr_targets"],
        )
        sccs = arrays["scc_of"]
        if sccs and (min(sccs) < 0 or max(sccs) >= len(node_order)):
            # there are at most |V| SCCs; anything else is another graph's map
            raise ValueError("persisted SCC ids out of range")
        if not set(arrays["cyclic_sccs"]) <= set(sccs):
            # a cyclic SCC has members, so its id must appear in scc_of
            raise ValueError("persisted cyclic SCC ids not among the SCC ids")
        gr = DiGraph.from_rows(range(nclasses), repeat(DEFAULT_LABEL, nclasses), rows)
        scc_of = dict(zip(node_order, sccs))
        size = arrays.get("scc_graph_size")
        return cls(
            compressed=gr,
            class_of=class_of,
            class_members=class_members,
            scc_of=scc_of,
            cyclic_scc=frozenset(arrays["cyclic_sccs"]),
            original_nodes=arrays["stats"][0],
            original_edges=arrays["stats"][1],
            scc_graph_size=size[0] if size else None,
        )

    def canonical_form(self) -> Tuple:
        """Fully-ordered rendering of the whole artifact, for equality tests.

        Two compressions of the same graph are byte-identical — same stats,
        same hypernode ids, same quotient edges, same member lists — iff
        their canonical forms compare equal.  This is the contract between
        the ``csr`` and ``dict`` backends (and across hash seeds);
        ``tests/test_csr_kernels.py`` checks it on every pool graph.
        """
        gr = self._gr
        stats = self.stats()
        return (
            (
                stats.original_nodes,
                stats.original_edges,
                stats.compressed_nodes,
                stats.compressed_edges,
            ),
            self._scc_graph_size,
            tuple(sorted(gr.nodes())),
            tuple(sorted(gr.edges())),
            dict(self._class_of),
            tuple((h, tuple(self._members[h])) for h in sorted(gr.nodes())),
        )

    # -- end-to-end evaluation ------------------------------------------
    def query(
        self,
        source: Node,
        target: Node,
        evaluator: Optional[Callable[[DiGraph, int, int], bool]] = None,
    ) -> bool:
        """Answer ``QR(source, target)`` using only ``Gr`` and the index.

        *evaluator* is any off-the-shelf reachability algorithm with the
        signature ``(graph, s, t) -> bool`` — the whole point of the paper is
        that stock algorithms run on the compressed graph unchanged.
        Defaults to BFS.
        """
        verdict, rewritten = self.rewrite(source, target)
        if verdict == "true":
            return True
        if verdict == "false":
            return False
        assert rewritten is not None
        run = evaluator if evaluator is not None else path_exists
        return run(self._gr, rewritten[0], rewritten[1])

    def query_bibfs(self, source: Node, target: Node) -> bool:
        """Answer ``QR`` with bidirectional BFS on ``Gr`` (the paper's BIBFS)."""
        return self.query(source, target, evaluator=bidirectional_reachable)

    # -- answer-mapping protocol (router entry point) --------------------
    @staticmethod
    def _tol_context(context: Any, algorithm: Optional[str]) -> Any:
        """The TOL fast-path context behind *context*, if one is usable.

        The serving session's ``context_for("reachability")`` hands a
        :class:`~repro.index.tol.TOLIndex` built over this artifact's
        ``Gr`` — recognised structurally (anything exposing
        ``reachable(u, v)``), so :mod:`repro.core` stays import-free of
        the index layer.  Used for the default route and for an explicit
        ``algorithm="tol"``; any named stock evaluator bypasses it (the
        bench forces ``algorithm="bfs"`` for exactly that comparison).
        """
        if algorithm not in (None, "tol"):
            return None
        usable = context is not None and callable(getattr(context, "reachable", None))
        if algorithm == "tol" and not usable:
            raise ValueError("algorithm 'tol' requires a TOL index context")
        return context if usable else None

    def _answer_tol(self, query: ReachabilityQuery, tol: Any) -> bool:
        """One rewrite + one label intersection; no traversal of ``Gr``."""
        verdict, rewritten = self.rewrite(query.source, query.target)
        if verdict != "evaluate":
            return verdict == "true"
        assert rewritten is not None
        return bool(tol.reachable(rewritten[0], rewritten[1]))

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
        if not isinstance(query, ReachabilityQuery):
            raise TypeError(f"expected a ReachabilityQuery, got {type(query).__name__}")
        if query.source not in self._class_of or query.target not in self._class_of:
            return False
        tol = self._tol_context(context, algorithm)
        if tol is not None:
            return self._answer_tol(query, tol)
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
            tol_answers: List[bool] = []
            append = tol_answers.append
            class_of, rewrite, reachable = self._class_of, self.rewrite, tol.reachable
            for q in queries:
                if not isinstance(q, ReachabilityQuery):
                    raise TypeError(
                        f"expected a ReachabilityQuery, got {type(q).__name__}"
                    )
                source, target = q.source, q.target
                if source not in class_of or target not in class_of:
                    append(False)
                    continue
                verdict, rewritten = rewrite(source, target)
                if rewritten is None:
                    append(verdict == "true")
                else:
                    append(bool(reachable(rewritten[0], rewritten[1])))
            return tol_answers
        name = algorithm if algorithm is not None else "bfs"
        validated = name == "bfs"
        answers: List[Optional[bool]] = [None] * len(queries)
        by_source: Dict[int, List[Tuple[int, int]]] = {}
        for i, q in enumerate(queries):
            if not isinstance(q, ReachabilityQuery):
                raise TypeError(
                    f"expected a ReachabilityQuery, got {type(q).__name__}"
                )
            if q.source not in self._class_of or q.target not in self._class_of:
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
            by_source.setdefault(rewritten[0], []).append((i, rewritten[1]))
        for cs, entries in by_source.items():
            if len(entries) == 1:
                i, ct = entries[0]
                answers[i] = EVALUATORS[name](self._gr, cs, ct)
            else:
                reachable = bfs_reachable(self._gr, cs)
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


def compress_reachability(
    graph: DiGraph, backend: str = "csr"
) -> ReachabilityCompression:
    """``compressR``: build the reachability preserving compression of *graph*.

    See the module docstring for the pipeline; the output ``Gr`` is the
    transitive reduction of the quotient of the condensation by ``Re``,
    with every hypernode labeled with the paper's fixed dummy label σ.

    ``backend`` selects the implementation: ``"csr"`` (default) freezes the
    graph into :class:`~repro.graph.csr.CSRGraph` once and runs the integer
    kernels of :mod:`repro.graph.kernels`; ``"dict"`` runs the original
    dict-of-sets pipeline and serves as the cross-validation reference.
    Both produce *identical* output — hypernode ids are assigned
    canonically, in order of each class's first member in the graph's node
    insertion order, so the compressed structure, the node mapping and the
    stats are byte-for-byte the same (and independent of hash seeds).
    """
    if backend == "csr":
        return _compress_reachability_csr(graph)
    if backend == "dict":
        return _compress_reachability_dict(graph)
    raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")


def _compress_reachability_csr(graph: DiGraph) -> ReachabilityCompression:
    """``compressR`` over the frozen CSR backend (integer kernels)."""
    return compress_reachability_csr(CSRGraph.from_digraph(graph))


def compress_reachability_csr(csr: CSRGraph) -> ReachabilityCompression:
    """``compressR`` on an already-frozen graph (no dict backend involved).

    The entry point for snapshot consumers — the :mod:`repro.store` catalog
    loads a ``CSRGraph`` straight from disk and compresses it here; output
    is byte-identical to ``compress_reachability(thawed, backend="csr")``.
    """
    quotient = reachability_quotient(csr)

    gr = DiGraph()
    for cid in range(quotient.nclasses):
        gr.add_node(cid, DEFAULT_LABEL)
    for ci, cj in quotient.reduced_edges:
        gr.add_edge(ci, cj)

    node_of = csr.indexer.node
    class_of_node = quotient.class_of_node
    class_of: Dict[Node, int] = {}
    class_members: Dict[int, List[Node]] = {cid: [] for cid in range(quotient.nclasses)}
    for i in range(csr.n):
        v = node_of(i)
        cid = class_of_node[i]
        class_of[v] = cid
        class_members[cid].append(v)

    cond = quotient.cond
    comp = cond.comp
    scc_of = {node_of(i): comp[i] for i in range(csr.n)}
    cyclic = frozenset(c for c in range(cond.ncomp) if cond.cyclic[c])

    return ReachabilityCompression(
        compressed=gr,
        class_of=class_of,
        class_members=class_members,
        scc_of=scc_of,
        cyclic_scc=cyclic,
        original_nodes=csr.n,
        original_edges=csr.m,
        scc_graph_size=cond.graph_size(),
    )


def _compress_reachability_dict(graph: DiGraph) -> ReachabilityCompression:
    """``compressR`` over the mutable dict backend (reference path)."""
    cond = condensation(graph)
    class_of_scc, class_members = canonical_classes(cond, graph.node_list())

    quotient = DiGraph()
    for cid in class_members:
        quotient.add_node(cid, DEFAULT_LABEL)
    for i, j in cond.dag.edges():
        ci, cj = class_of_scc[i], class_of_scc[j]
        if ci != cj:
            quotient.add_edge(ci, cj)

    gr = dag_transitive_reduction(quotient)

    class_of: Dict[Node, int] = {}
    for v in graph.nodes():
        class_of[v] = class_of_scc[cond.scc_of[v]]

    return ReachabilityCompression(
        compressed=gr,
        class_of=class_of,
        class_members=class_members,
        scc_of=dict(cond.scc_of),
        cyclic_scc=frozenset(cond.cyclic),
        original_nodes=graph.order(),
        original_edges=graph.size(),
        scc_graph_size=cond.graph_size(),
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
    class_members: Dict[int, List[Node]] = {}
    for cid, members in enumerate(groups.values()):
        class_members[cid] = list(members)
        for v in members:
            class_of[v] = cid

    quotient = DiGraph()
    for cid in class_members:
        quotient.add_node(cid, DEFAULT_LABEL)
    for u, w in graph.edges():
        cu, cw = class_of[u], class_of[w]
        if cu != cw:
            quotient.add_edge(cu, cw)
    gr = dag_transitive_reduction(quotient)

    return ReachabilityCompression(
        compressed=gr,
        class_of=class_of,
        class_members=class_members,
        scc_of=dict(cond.scc_of),
        cyclic_scc=frozenset(cond.cyclic),
        original_nodes=graph.order(),
        original_edges=graph.size(),
        scc_graph_size=cond.graph_size(),
    )


