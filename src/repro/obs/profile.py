"""Span-attributed cross-thread sampling profiler.

A wall-clock ticker thread snapshots every live thread's Python stack
(``sys._current_frames``) at a fixed interval and folds the frames into
counted stacks.  What makes the output *operational* rather than raw is
attribution: each sample is prefixed with the sampled thread's ambient
:func:`repro.obs.trace.trace_span` name stack (``span:service.query``,
``span:engine.dispatch``, ``span:epoch.build`` …), so flamegraphs read in
engine phases — freeze/compress/route/dispatch — instead of anonymous
interpreter frames.  With no tracer installed the profiler still works;
samples simply carry frames only.

Design constraints, in order:

* **On-demand** — nothing runs until :meth:`SamplingProfiler.start` (the
  ``/profile`` endpoint runs one bounded window per request).  A stopped
  profiler costs nothing.
* **Bounded** — at most ``max_stacks`` *distinct* stacks are retained;
  further novel stacks are dropped and counted (``dropped_stacks``), so
  a pathological workload cannot grow the sample table without limit.
* **Fork-aware** — ticker threads do not survive ``fork``; an
  ``os.register_at_fork`` handler re-arms the child's lock and marks the
  profiler stopped, so a child forked mid-profile inherits a consistent
  (idle) profiler instead of a phantom "running" one.
* **Low overhead** — one ``sys._current_frames()`` call per tick plus a
  bounded frame walk per thread (``tests/test_obs_serve.py`` checks that
  a sampling window captures span-attributed cross-thread stacks).

Output formats: :meth:`SamplingProfiler.to_folded` emits collapsed-stack
lines (``a;b;c 42``) that flamegraph tooling consumes directly;
:meth:`SamplingProfiler.to_dict` is the JSON shape the HTTP endpoint
returns.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import inc as obs_inc
from repro.obs.trace import Tracer, current_tracer

#: Every live profiler, so forked children can disarm inherited state.
_ALL_PROFILERS: "weakref.WeakSet[SamplingProfiler]" = weakref.WeakSet()


def _disarm_after_fork() -> None:  # pragma: no cover - fork plumbing
    # The ticker thread does not exist in the child; re-arm the lock and
    # mark the profiler stopped so child-side start()/stop() stay sane.
    for profiler in list(_ALL_PROFILERS):
        profiler._lock = threading.Lock()
        profiler._thread = None
        profiler._stop_evt = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disarm_after_fork)


def _frame_label(frame: Any) -> str:
    """``module:function`` for one frame (basename fallback for scripts)."""
    module = frame.f_globals.get("__name__")
    if not module:
        module = os.path.basename(frame.f_code.co_filename)
    return f"{module}:{frame.f_code.co_name}"


class SamplingProfiler:
    """Periodic cross-thread stack sampler with span attribution.

    Parameters
    ----------
    interval_s:
        Tick period.  5 ms default: ~200 samples/s across all threads,
        fine-grained enough for serving phases, cheap enough to leave on
        during a live window.
    tracer:
        The :class:`~repro.obs.trace.Tracer` whose ambient span-name
        stacks attribute samples.  ``None`` (default) resolves the
        installed process tracer at each tick, so a profiler constructed
        before ``install_tracer`` still attributes.
    max_stacks:
        Hard cap on *distinct* retained stacks; novel stacks past the cap
        are dropped and counted.  Existing stacks keep counting.
    max_depth:
        Frames retained per sample, innermost-out.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        *,
        tracer: Optional[Tracer] = None,
        max_stacks: int = 10_000,
        max_depth: int = 64,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_stacks < 1 or max_depth < 1:
            raise ValueError("max_stacks and max_depth must be >= 1")
        self.interval_s = interval_s
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self._tracer = tracer
        self._lock = threading.Lock()
        self._samples: Dict[Tuple[str, ...], int] = {}
        self._sample_count = 0
        self._dropped = 0
        self._thread: Optional[threading.Thread] = None
        self._stop_evt: Optional[threading.Event] = None
        self._ticks = 0
        _ALL_PROFILERS.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def sample_count(self) -> int:
        """Stack samples recorded so far (one per thread per tick)."""
        return self._sample_count

    @property
    def dropped_stacks(self) -> int:
        """Samples dropped because the distinct-stack table was full."""
        return self._dropped

    @property
    def ticks(self) -> int:
        """Sampling rounds completed (each covers every live thread)."""
        return self._ticks

    def start(self) -> None:
        """Start the ticker thread (idempotent while running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            stop_evt = threading.Event()
            thread = threading.Thread(
                target=self._run, args=(stop_evt,),
                name="repro-obs-profiler", daemon=True,
            )
            self._stop_evt = stop_evt
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop the ticker and join it (no-op when not running)."""
        with self._lock:
            thread, stop_evt = self._thread, self._stop_evt
            self._thread = None
            self._stop_evt = None
        if thread is None or stop_evt is None:
            return
        stop_evt.set()
        if thread.is_alive():
            thread.join(timeout=5.0)

    def run_for(self, seconds: float) -> "SamplingProfiler":
        """Profile for *seconds* of wall clock, blocking; returns self."""
        self.start()
        try:
            time.sleep(max(seconds, 0.0))
        finally:
            self.stop()
        return self

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()
            self._sample_count = 0
            self._dropped = 0
            self._ticks = 0

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _run(self, stop_evt: threading.Event) -> None:
        own_ident = threading.get_ident()
        while not stop_evt.wait(self.interval_s):
            self._tick(own_ident)

    def _tick(self, own_ident: int) -> None:
        tracer = self._tracer if self._tracer is not None else current_tracer()
        name_stacks: Dict[int, Tuple[str, ...]] = (
            tracer.span_name_stacks() if tracer is not None else {}
        )
        frames = sys._current_frames()
        try:
            n_new = 0
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack: List[str] = []
                depth = 0
                f: Optional[Any] = frame
                while f is not None and depth < self.max_depth:
                    stack.append(_frame_label(f))
                    f = f.f_back
                    depth += 1
                stack.reverse()  # root-first, the folded-stack convention
                spans = name_stacks.get(ident, ())
                key = tuple(f"span:{name}" for name in spans) + tuple(stack)
                with self._lock:
                    count = self._samples.get(key)
                    if count is not None:
                        self._samples[key] = count + 1
                    elif len(self._samples) < self.max_stacks:
                        self._samples[key] = 1
                    else:
                        self._dropped += 1
                        continue
                    self._sample_count += 1
                    n_new += 1
            with self._lock:
                self._ticks += 1
            if n_new:
                obs_inc("profile_samples_total", n=n_new)
        finally:
            del frames  # frame objects pin locals; drop the references now

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def samples(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot of the counted stacks (root-first tuples -> count)."""
        with self._lock:
            return dict(self._samples)

    def to_folded(self) -> str:
        """Collapsed-stack text: ``frame;frame;... count`` per line,
        highest count first — feed straight into flamegraph tooling.
        Semicolons inside frame labels are replaced so the separator
        stays unambiguous."""
        entries = sorted(
            self.samples().items(), key=lambda kv: (-kv[1], kv[0])
        )
        lines = [
            ";".join(part.replace(";", ",") for part in stack) + f" {count}"
            for stack, count in entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON shape served by ``/profile?format=json``."""
        entries = sorted(
            self.samples().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return {
            "interval_s": self.interval_s,
            "ticks": self._ticks,
            "samples": self._sample_count,
            "distinct_stacks": len(entries),
            "dropped_stacks": self._dropped,
            "stacks": [
                {"stack": list(stack), "count": count}
                for stack, count in entries
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SamplingProfiler(interval_s={self.interval_s}, "
            f"samples={self._sample_count}, running={self.running})"
        )
