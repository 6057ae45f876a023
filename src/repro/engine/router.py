"""Query router: each query class runs on the representation preserving it.

The paper builds one compressed graph *per query class* — ``Gr``
(``compressR``) answers reachability, ``Gb`` (``compressB``) answers
(bounded-simulation) pattern queries — and proves any stock algorithm runs
on the right one unchanged.  The router encodes exactly that dispatch: a
first-class query object (:class:`~repro.queries.reachability
.ReachabilityQuery` or :class:`~repro.queries.pattern.GraphPattern`) is
matched against the ``QUERY_CLASSES`` each artifact declares
(the answer-mapping protocol of :class:`repro.core.base
.QueryPreservingCompression`), and the artifact's ``answer`` runs the full
``P(F(q)(R(G)))`` pipeline — so every routed answer is already mapped back
to original nodes.

An explicit ``on="original"`` escape hatch evaluates on ``G`` itself
(the baseline every benchmark compares against, and the right place for ad
hoc query classes no representation preserves); ``on`` also accepts a
representation key (``"reachability"``/``"pattern"``, or the paper
spellings ``"Gr"``/``"Gb"``) to force one — forcing a representation that
does not preserve the query class is a ``TypeError``, not a wrong answer.

``on="auto"`` routes by the query's type: each query class is preserved by
exactly one representation, so a ``type → key`` table built from the
declared ``QUERY_CLASSES`` answers it, with an ``isinstance`` scan only for
subclasses.  When the caller passes a
:class:`~repro.engine.counters.RouterStats`, every dispatch records the
routed key and its latency there.
:meth:`QueryRouter.dispatch_batch` is the micro-batching entry point: a
mixed batch is partitioned per representation and each same-class group is
answered through the artifact's ``answer_batch`` (shared traversals,
deduplicated patterns) while keeping strict positional answer equality
with one-by-one dispatch.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.base import QueryPreservingCompression
from repro.core.pattern import PatternCompression
from repro.core.reachability import ReachabilityCompression
from repro.engine.counters import RouterStats
from repro.faults.breaker import CircuitBreaker
from repro.index.tol import TOLError
from repro.obs.metrics import inc as obs_inc
from repro.obs.trace import trace_span

#: The escape-hatch target: evaluate on the original graph.
ORIGINAL = "original"

#: The routable representations, in dispatch order: key -> artifact class.
#: The router reads each class's ``QUERY_CLASSES`` — new representations
#: plug in by declaring theirs.
REPRESENTATIONS: Tuple[Tuple[str, Type[QueryPreservingCompression]], ...] = (
    ("reachability", ReachabilityCompression),
    ("pattern", PatternCompression),
)

#: Paper spellings accepted for ``on=``.
ALIASES = {"Gr": "reachability", "Gb": "pattern", "G": ORIGINAL}


class RepresentationUnavailable(RuntimeError):
    """A representation cannot serve this epoch (build failed or timed out).

    Raised by an epoch's ``artifact(key)`` when the compressed
    representation is degraded; the router catches it and falls back to
    direct evaluation on ``G`` — same answer, slower route.  ``key`` names
    the degraded representation, ``reason`` why.
    """

    def __init__(self, key: str, reason: str) -> None:
        super().__init__(f"representation {key!r} unavailable: {reason}")
        self.key = key
        self.reason = reason


class QueryRouter:
    """Routes first-class query objects to their preserving representation."""

    def __init__(
        self,
        representations: Tuple[
            Tuple[str, Type[QueryPreservingCompression]], ...
        ] = REPRESENTATIONS,
        tol_breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._table: List[Tuple[str, Type[QueryPreservingCompression]]] = list(
            representations
        )
        self._classes: Dict[str, Type[QueryPreservingCompression]] = dict(self._table)
        self._keys = set(self._classes)
        #: Exact query type -> key; the first declaring representation wins,
        #: as it would in the probing scan.
        self._by_type: Dict[type, str] = {}
        for key, cls in self._table:
            for query_class in cls.QUERY_CLASSES:
                self._by_type.setdefault(query_class, key)
        #: Guards the ``ReachabilityQuery → TOL`` fast path: repeated label
        #: failures open the breaker and dispatch skips straight to BFS on
        #: ``Gr`` (no per-query build attempts) until the cooldown closes
        #: it again.  The fallback is one rung *above* direct-on-``G`` —
        #: ``Gr`` itself stays routable throughout.
        self._tol_breaker = (
            tol_breaker if tol_breaker is not None
            else CircuitBreaker(threshold=3, cooldown_s=5.0)
        )

    # ------------------------------------------------------------------
    def _answer_reachability(
        self,
        artifact: QueryPreservingCompression,
        queries: List[Any],
        epoch: Any,
        algorithm: Optional[str],
        span: Any,
    ) -> List[Any]:
        """Answer a reachability group, TOL-first with a BFS-on-``Gr`` net.

        The epoch's ``context_for("reachability")`` supplies the sealed
        :class:`~repro.index.tol.TOLIndex` (or ``None`` when its build
        degraded); a lookup failure (:class:`~repro.index.tol.TOLError`,
        or a ``KeyError`` from the compiled reach path — a stale index
        racing a publication) records a breaker failure and re-answers the
        whole group with the stock evaluator on ``Gr`` — the route
        changes, the answers cannot.
        """
        context = None
        if algorithm in (None, "tol"):
            if self._tol_breaker.allow("tol"):
                context = epoch.context_for("reachability")
            else:
                obs_inc("tol_fallbacks_total", ("breaker",))
        if context is not None:
            try:
                answers = artifact.answer_batch(
                    queries, context=context, algorithm=algorithm
                )
                self._tol_breaker.record_success("tol")
                return answers
            except (TOLError, KeyError):
                self._tol_breaker.record_failure("tol")
                obs_inc("tol_fallbacks_total", ("error",))
                span.set(tol_fallback=True)
        fallback = None if algorithm == "tol" else algorithm
        return artifact.answer_batch(queries, context=None, algorithm=fallback)

    def compiled_reach(self, epoch: Any) -> Optional[Callable[[Any, Any], bool]]:
        """*epoch*'s compiled reach path, when the label route may skip
        this router: ``None`` while the TOL breaker is not healthy (open,
        probing, or holding a failure that a success would reset) or the
        epoch has no closure to offer (labels or ``Gr`` degraded)."""
        return epoch.reach_fn() if self._tol_breaker.healthy("tol") else None

    # ------------------------------------------------------------------
    def route(self, query: Any, on: str = "auto") -> str:
        """The representation key *query* should run on.

        ``on="auto"`` picks the representation whose artifact class
        ``preserves`` the query — by exact type, else the first whose
        ``isinstance`` test passes; anything else is validated and
        returned (``original`` included).  Raises ``TypeError`` for a
        query no representation preserves, ``ValueError`` for an unknown
        ``on``.
        """
        on = ALIASES.get(on, on)
        if on != "auto":
            if on == ORIGINAL:
                return ORIGINAL
            if on not in self._keys:
                known = sorted(self._keys | {ORIGINAL, "auto"})
                raise ValueError(f"unknown routing target {on!r}; expected one of {known}")
            cls = self._classes[on]
            if not cls.preserves(query):
                raise TypeError(
                    f"representation {on!r} does not preserve "
                    f"{type(query).__name__} queries"
                )
            return on
        exact = self._by_type.get(type(query))
        if exact is not None:
            return exact
        for key, cls in self._table:
            if cls.preserves(query):
                return key
        raise TypeError(
            f"no representation preserves {type(query).__name__} queries; "
            f"pass a ReachabilityQuery or GraphPattern, or route on='original'"
        )

    def dispatch(
        self,
        query: Any,
        epoch: Any,
        on: str = "auto",
        algorithm: Optional[str] = None,
        stats: Optional[RouterStats] = None,
    ) -> Any:
        """Route *query* and answer it through *epoch*'s artifacts.

        *epoch* is an :class:`repro.engine.epoch.Epoch` (a published one,
        or a :class:`~repro.engine.session.GraphEngine`'s view), or
        anything exposing ``artifact(key)``, ``context_for(key)`` and
        ``evaluate_original(query, algorithm)``.  Compressed routes call
        the artifact's ``answer`` — hypernode results come back already
        expanded to original nodes.  When *stats* is given the routed key
        and latency are recorded there.

        A batch of one through :meth:`dispatch_batch`: the same spans,
        stats, fallbacks and amortisation paths (notably the
        sealed-context answer memo of epoch serving).
        """
        return self.dispatch_batch(
            [query], epoch, on=on, algorithm=algorithm, stats=stats
        )[0]

    def dispatch_batch(
        self,
        queries: Sequence[Any],
        epoch: Any,
        on: str = "auto",
        algorithm: Optional[str] = None,
        stats: Optional[RouterStats] = None,
    ) -> List[Any]:
        """Route and answer a mixed batch, sharing work per representation.

        Queries are routed individually, grouped by routed key with their
        positions, and each group runs through the artifact's
        ``answer_batch`` (``evaluate_original`` stays per-query — the
        escape hatch makes no batching promises).  Answers come back in
        input order and are element-wise identical to dispatching each
        query alone; per-group latencies land in *stats* with the group
        size, so hit counts still count queries.
        """
        groups: Dict[str, List[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault(self.route(q, on), []).append(i)
        answers: List[Any] = [None] * len(queries)
        version = getattr(epoch, "version", None)
        for key, positions in groups.items():
            start = time.perf_counter() if stats is not None else 0.0
            with trace_span("engine.dispatch", key=key, queries=len(positions),
                            version=version) as span:
                if key == ORIGINAL:
                    for i in positions:
                        answers[i] = epoch.evaluate_original(
                            queries[i], algorithm=algorithm
                        )
                else:
                    try:
                        artifact = epoch.artifact(key)
                    except RepresentationUnavailable:
                        # Degrade the whole group to direct-on-G; answers are
                        # unchanged by the preservation theorem.
                        span.set(fallback=True, key=ORIGINAL)
                        if stats is not None:
                            stats.record_fallback(key, queries=len(positions))
                        for i in positions:
                            answers[i] = epoch.evaluate_original(
                                queries[i], algorithm=None
                            )
                        if stats is not None:
                            stats.record(ORIGINAL, time.perf_counter() - start,
                                         queries=len(positions))
                        continue
                    group = [queries[i] for i in positions]
                    if key == "reachability":
                        group_answers = self._answer_reachability(
                            artifact, group, epoch, algorithm, span
                        )
                    else:
                        group_answers = artifact.answer_batch(
                            group,
                            context=epoch.context_for(key),
                            algorithm=algorithm,
                        )
                    for i, answer in zip(positions, group_answers):
                        answers[i] = answer
            if stats is not None:
                stats.record(key, time.perf_counter() - start,
                             queries=len(positions))
        return answers
