"""Per-query tracing: spans from route to answer-map, exported as JSONL.

A *trace* is one service query (or batch); a *span* is one timed step
inside it — routing, an artifact build or catalog hit, the dispatch, the
answer-map back to original nodes.  Spans carry a trace id, their parent
span id, and free-form attributes (epoch version, chosen representation,
batch size), so a slow query can be decomposed layer by layer.

Like :mod:`repro.obs.metrics`, nothing is recorded unless a
:class:`Tracer` is installed (:func:`install_tracer`): every entry point
starts with a module-global ``is None`` check, so the production hot path
pays a single comparison per potential span.

Propagation:

* **Same thread** — :func:`trace_span` is a context manager that pushes
  its span onto a thread-local stack; nested spans parent automatically.
* **Executor threads / retroactive timing** — the submitting thread
  captures :func:`current_context`, ships it with the task, and the
  worker either wraps its work in :func:`attach` (so ambient spans nest
  under the caller's trace) or calls :func:`record_span` after the fact
  with explicit start/end ``perf_counter`` readings (queue waits are only
  known once the task is picked up).

Export: :meth:`Tracer.drain` hands back finished spans as dicts (the
JSONL schema, one object per line via :func:`write_jsonl`);
:meth:`Tracer.slow_queries` filters root spans over a threshold into the
slow-query log embedded in stress/chaos reports.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

#: (trace_id, span_id) — everything a remote/deferred span needs to nest.
TraceContext = Tuple[str, str]

_ids = itertools.count(1)
_ids_lock = threading.Lock()


def _next_id() -> str:
    with _ids_lock:
        n = next(_ids)
    return f"{os.getpid():x}.{n:x}"


#: Every live tracer, so forked children can re-arm inherited locks.
_ALL_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _rearm_after_fork() -> None:  # pragma: no cover - fork plumbing
    # A forked child shares the parent's counter state; its pid prefix
    # already disambiguates, but re-arming the locks avoids inheriting a
    # lock held mid-acquire at fork time.  Ambient name stacks belong to
    # parent threads that do not exist in the child — drop them so the
    # profiler never attributes child samples to a dead thread's spans.
    global _ids_lock
    _ids_lock = threading.Lock()
    for tracer in list(_ALL_TRACERS):
        tracer._lock = threading.Lock()
        tracer._name_stacks = {}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_after_fork)


class Span:
    """One timed step.  ``start``/``end`` are ``perf_counter`` readings;
    ``wall`` anchors the trace to epoch time for log correlation."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "wall", "attrs")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, start: float, wall: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.wall = wall
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": round(self.duration_s * 1e3, 4),
            "wall": self.wall,
            "attrs": self.attrs,
        }


class _Ambient(threading.local):
    def __init__(self) -> None:
        self.stack: List[TraceContext] = []
        #: Span names parallel to ``stack`` (``None`` for adopted contexts
        #: pushed by :func:`attach`, whose span name lives elsewhere).
        self.names: List[Optional[str]] = []


#: Default hard cap on retained finished spans per tracer.  A long-lived
#: server cannot grow without bound; overflow drops (counted) rather than
#: evicting — the head of a window is what a drained exporter expects.
DEFAULT_MAX_SPANS = 20_000


class Tracer:
    """Collects finished spans; thread-safe.

    Retention is bounded: at most *max_spans* finished spans are held
    between :meth:`drain` calls; spans past the cap are dropped and
    counted (:attr:`dropped_spans`, plus the ``trace_spans_dropped_total``
    metric when a registry is installed), so a long-lived server's tracer
    cannot grow without limit.  The slow-query log is a view over the
    same buffer, so the cap bounds it too.
    """

    def __init__(self, slow_threshold_s: float = 0.05,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._ambient = _Ambient()
        self.slow_threshold_s = slow_threshold_s
        self.max_spans = max_spans
        self._dropped = 0
        #: thread ident -> that thread's live ambient *names* list (the
        #: same object the thread mutates).  Registered on a thread's
        #: first push, dropped when its stack empties, and read by the
        #: sampling profiler to attribute stack samples to engine phases.
        #: Plain dict ops under the GIL; sampled reads tolerate staleness.
        self._name_stacks: Dict[int, List[Optional[str]]] = {}
        _ALL_TRACERS.add(self)

    # -- ambient context (thread-local) ----------------------------------
    def current_context(self) -> Optional[TraceContext]:
        stack = self._ambient.stack
        return stack[-1] if stack else None

    def _push(self, ctx: TraceContext, name: Optional[str] = None) -> None:
        ambient = self._ambient
        if not ambient.stack:
            self._name_stacks[threading.get_ident()] = ambient.names
        ambient.stack.append(ctx)
        ambient.names.append(name)

    def _pop(self) -> None:
        ambient = self._ambient
        ambient.stack.pop()
        ambient.names.pop()
        if not ambient.stack:
            self._name_stacks.pop(threading.get_ident(), None)

    def span_name_stacks(self) -> Dict[int, Tuple[str, ...]]:
        """Per-thread ambient span-name stacks, outermost first.

        The profiler's attribution source: a snapshot of which named
        spans each traced thread is currently inside.  Unnamed entries
        (adopted contexts) are skipped; threads with no open span are
        omitted.  Racy by design — sampling tolerates a one-frame skew.
        """
        out: Dict[int, Tuple[str, ...]] = {}
        for ident in list(self._name_stacks.keys()):
            names = self._name_stacks.get(ident)
            if not names:
                continue
            stack = tuple(n for n in list(names) if n is not None)
            if stack:
                out[ident] = stack
        return out

    # -- span lifecycle --------------------------------------------------
    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   attrs: Optional[Dict[str, Any]] = None) -> Span:
        if parent is None:
            parent = self.current_context()
        if parent is None:
            trace_id, parent_id = _next_id(), None
        else:
            trace_id, parent_id = parent
        return Span(trace_id, _next_id(), parent_id, name,
                    time.perf_counter(), time.time(), attrs)

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        span.end = end if end is not None else time.perf_counter()
        record = span.to_dict()
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(record)
                return
            self._dropped += 1  # retention cap: drop, and count it
        from repro.obs.metrics import inc as _obs_inc
        _obs_inc("trace_spans_dropped_total")

    @property
    def dropped_spans(self) -> int:
        """Finished spans dropped at the retention cap since construction
        (or the last :meth:`clear`)."""
        return self._dropped

    def record_span(self, name: str, start: float, end: float,
                    parent: Optional[TraceContext] = None,
                    attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record a span retroactively from explicit ``perf_counter``
        readings (queue waits)."""
        span = self.start_span(name, parent, attrs)
        # Re-anchor: the span actually began (now - start) seconds ago.
        span.wall -= time.perf_counter() - start
        span.start = start
        self.finish(span, end)
        return span

    # -- collection ------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Dict[str, Any]]:
        with self._lock:
            out, self._spans = self._spans, []
            return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    # -- slow-query log --------------------------------------------------
    def slow_queries(self, threshold_s: Optional[float] = None,
                     limit: int = 50) -> List[Dict[str, Any]]:
        """Root spans over the threshold, slowest first, with their
        child spans inlined — the slow-query log keyed by trace id."""
        if threshold_s is None:
            threshold_s = self.slow_threshold_s
        spans = self.spans()
        by_trace: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        out: List[Dict[str, Any]] = []
        for span in spans:
            if span["parent_id"] is not None:
                continue
            duration = (span["end"] or span["start"]) - span["start"]
            if duration < threshold_s:
                continue
            children = [
                {"name": s["name"], "duration_ms": s["duration_ms"],
                 "attrs": s["attrs"]}
                for s in by_trace[span["trace_id"]]
                if s["span_id"] != span["span_id"]
            ]
            out.append({
                "trace_id": span["trace_id"],
                "name": span["name"],
                "duration_ms": round(duration * 1e3, 4),
                "wall": span["wall"],
                "attrs": span["attrs"],
                "spans": children,
            })
        out.sort(key=lambda e: -e["duration_ms"])
        return out[:limit]


# ----------------------------------------------------------------------
# Global installation — mirror of metrics._REGISTRY / faults._PLAN.
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    _TRACER = tracer
    return tracer


def uninstall_tracer() -> None:
    global _TRACER
    _TRACER = None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


class _TracerInstalled:
    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer if tracer is not None else Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        global _TRACER
        self._previous = _TRACER
        _TRACER = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: Any) -> None:
        global _TRACER
        _TRACER = self._previous


def tracing(tracer: Optional[Tracer] = None) -> _TracerInstalled:
    """Context-manager install (tests, CLI runs)."""
    return _TracerInstalled(tracer)


class _NoopSpan:
    """Returned by :func:`trace_span` when tracing is off; also usable as
    a span stand-in (``set`` swallows attributes)."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context-manager wrapper: starts on ``__enter__`` (pushing ambient
    context), finishes and records on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span")

    def __init__(self, tracer: Tracer, name: str,
                 parent: Optional[TraceContext],
                 attrs: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Optional[Span] = None

    def set(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.attrs.update(attrs)
        elif self._attrs is not None:
            self._attrs.update(attrs)
        else:
            self._attrs = dict(attrs)

    def __enter__(self) -> "_LiveSpan":
        span = self._tracer.start_span(self._name, self._parent, self._attrs)
        self._span = span
        self._tracer._push((span.trace_id, span.span_id), self._name)
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        self._tracer._pop()
        span = self._span
        assert span is not None
        if exc_type is not None:
            span.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        self._tracer.finish(span)


def trace_span(name: str, parent: Optional[TraceContext] = None,
               **attrs: Any) -> Union[_LiveSpan, _NoopSpan]:
    """``with trace_span("engine.dispatch", key="pattern"): ...`` —
    one ``is None`` check and no allocation when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return _LiveSpan(tracer, name, parent, dict(attrs) if attrs else None)


def record_span(name: str, start: float, end: float,
                parent: Optional[TraceContext] = None,
                **attrs: Any) -> None:
    """Retroactive span from explicit ``perf_counter`` readings (no-op
    when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.record_span(name, start, end, parent,
                           dict(attrs) if attrs else None)


def current_context() -> Optional[TraceContext]:
    """The ambient (thread-local) trace context, for shipping across a
    queue/pipe to wherever the work actually runs."""
    tracer = _TRACER
    return tracer.current_context() if tracer is not None else None


class _Attached:
    __slots__ = ("_ctx", "_tracer")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx
        self._tracer: Optional[Tracer] = None

    def __enter__(self) -> "_Attached":
        tracer = _TRACER
        if tracer is not None and self._ctx is not None:
            self._tracer = tracer
            tracer._push(self._ctx)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._tracer is not None:
            self._tracer._pop()
            self._tracer = None


def attach(ctx: Optional[TraceContext]) -> _Attached:
    """Adopt a shipped trace context as this thread's ambient parent for
    the duration of the block.  ``attach(None)`` is a no-op block."""
    return _Attached(ctx)


def tracing_on() -> bool:
    return _TRACER is not None


def write_jsonl(spans: Iterable[Dict[str, Any]],
                out: Union[str, "os.PathLike[str]", IO[str]]) -> int:
    """Write spans one-JSON-object-per-line; returns the span count."""
    if hasattr(out, "write"):
        fh: IO[str] = out  # type: ignore[assignment]
        n = 0
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
            n += 1
        return n
    with open(out, "w") as handle:  # type: ignore[arg-type]
        return write_jsonl(spans, handle)
