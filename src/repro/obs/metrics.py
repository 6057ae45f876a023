"""Process-wide metrics: labeled counters, gauges and latency histograms.

The serving stack compiles :func:`inc` / :func:`observe` / :func:`set_gauge`
calls at its measurement points (catalog reads, artifact builds, dispatch,
queue depths).  In production nothing is installed and each point costs one
module-global ``is None`` check — the same compile-away discipline as
:func:`repro.faults.plan.fault_point`.  Installing a
:class:`MetricsRegistry` (:func:`install_registry`) turns every point live:
counters and gauges become labeled time series, latencies aggregate into
fixed-bucket histograms with p50/p95/p99 estimation, and the whole registry
renders as Prometheus text exposition (:meth:`MetricsRegistry.render`,
served by ``python -m repro.service metrics``).

Three metric kinds, all thread-safe under one registry lock:

* :class:`Counter` — monotone labeled totals (``inc``);
* :class:`Gauge` — last-write-wins labeled levels (``set``);
* :class:`Histogram` — fixed-bucket latency/size distributions
  (``observe``), with ``sum``/``count``/``max`` per series and
  interpolated percentile estimation (:meth:`Histogram.percentile`).

Registries serialise to plain JSON-able state (:meth:`MetricsRegistry
.to_state`), the export format of the stress and chaos reports.

Metric names used by the serving stack are registered in :data:`SCHEMA`
(type, help text, label names, buckets), so one-line instrumentation
points need only the name; see ``src/repro/obs/README.md`` for the full
catalogue.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

Labels = Tuple[str, ...]

#: Default latency buckets (seconds).  Upper bounds; +Inf is implicit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Buckets for small-count distributions (batch sizes, queue depths).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Every live registry, so forked children can re-arm inherited locks
#: (a lock held by a parent thread at fork time would never unlock).
_ALL_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _rearm_registry_locks() -> None:  # pragma: no cover - fork plumbing
    for registry in list(_ALL_REGISTRIES):
        registry._rearm_locks()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_registry_locks)


class _Metric:
    """Shared plumbing: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Labels,
                 lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock

    def _check(self, labels: Labels) -> Labels:
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {labels!r}"
            )
        return labels


class Counter(_Metric):
    """A monotone labeled total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Labels,
                 lock: threading.Lock) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._values: Dict[Labels, float] = {}

    def inc(self, n: float = 1, labels: Labels = ()) -> None:
        labels = self._check(labels)
        with self._lock:
            self._values[labels] = self._values.get(labels, 0) + n

    def value(self, labels: Labels = ()) -> float:
        with self._lock:
            return self._values.get(labels, 0)

    def values(self) -> Dict[Labels, float]:
        with self._lock:
            return dict(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Metric):
    """A labeled level: last write wins."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Labels,
                 lock: threading.Lock) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._values: Dict[Labels, float] = {}

    def set(self, value: float, labels: Labels = ()) -> None:
        labels = self._check(labels)
        with self._lock:
            self._values[labels] = value

    def value(self, labels: Labels = ()) -> float:
        with self._lock:
            return self._values.get(labels, 0)

    def values(self) -> Dict[Labels, float]:
        with self._lock:
            return dict(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()


class _Series:
    """One histogram cell: bucket counts + sum/count/max."""

    __slots__ = ("buckets", "sum", "count", "max")

    def __init__(self, n_buckets: int) -> None:
        self.buckets = [0] * (n_buckets + 1)  # +1: the +Inf overflow bucket
        self.sum = 0.0
        self.count = 0
        self.max = 0.0


class Histogram(_Metric):
    """A fixed-bucket distribution with interpolated percentile estimates.

    Buckets are cumulative-friendly upper bounds; an observation lands in
    the first bucket whose bound is >= the value (``bisect_left``), or the
    implicit +Inf overflow bucket.  :meth:`percentile` walks the
    cumulative counts and interpolates linearly inside the target bucket —
    accuracy is bounded by bucket width, which the tests compare against a
    sorted-sample reference.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str, labelnames: Labels,
                 lock: threading.Lock,
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._series: Dict[Labels, _Series] = {}

    def observe(self, value: float, labels: Labels = ()) -> None:
        labels = self._check(labels)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                series = self._series[labels] = _Series(len(self.bounds))
            series.buckets[idx] += 1
            series.sum += value
            series.count += 1
            if value > series.max:
                series.max = value

    # -- read path -------------------------------------------------------
    def count(self, labels: Labels = ()) -> int:
        with self._lock:
            series = self._series.get(labels)
            return series.count if series is not None else 0

    def sum(self, labels: Labels = ()) -> float:
        with self._lock:
            series = self._series.get(labels)
            return series.sum if series is not None else 0.0

    def max(self, labels: Labels = ()) -> float:
        with self._lock:
            series = self._series.get(labels)
            return series.max if series is not None else 0.0

    def labelsets(self) -> List[Labels]:
        with self._lock:
            return sorted(self._series)

    def percentile(self, q: float, labels: Labels = ()) -> float:
        """Estimated *q*-quantile (``0 < q <= 1``) for one series.

        Linear interpolation inside the bucket holding the target rank;
        the overflow bucket interpolates toward the observed maximum.
        Returns 0.0 for an empty series.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            series = self._series.get(labels)
            if series is None or series.count == 0:
                return 0.0
            buckets = list(series.buckets)
            total = series.count
            observed_max = series.max
        rank = q * total
        cumulative = 0.0
        for i, n in enumerate(buckets):
            if n == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else max(observed_max, lo)
            if cumulative + n >= rank:
                frac = (rank - cumulative) / n
                return min(lo + (hi - lo) * frac, observed_max)
            cumulative += n
        return observed_max  # pragma: no cover - rank <= total always lands

    def clear(self) -> None:
        with self._lock:
            self._series.clear()


#: Declarative schema for the serving stack's metric names: the one-line
#: instrumentation helpers (:func:`inc` & co.) resolve name -> (kind,
#: help, labelnames, buckets) here, so call sites stay a single line and
#: exposition always has HELP/TYPE text.
SCHEMA: Dict[str, Tuple[str, str, Labels, Optional[Tuple[float, ...]]]] = {
    # store/catalog
    "catalog_base_loads_total": (
        "counter",
        "Base snapshot loads by source (memo|disk|mmap|mmap-memo).",
        ("source",), None),
    "catalog_variant_requests_total": (
        "counter", "Compressed-variant requests by kind and result (warm|cold).",
        ("kind", "result"), None),
    "catalog_variant_build_seconds": (
        "histogram", "Cold-miss variant compute time.", ("kind",), LATENCY_BUCKETS),
    "catalog_quarantines_total": (
        "counter", "Corrupt files moved to quarantine.", (), None),
    "catalog_lock_wait_seconds": (
        "histogram", "Writer-lock acquisition wait.", (), LATENCY_BUCKETS),
    # engine/epoch
    "epoch_builds_total": (
        "counter", "Lazy artifact builds by representation.", ("representation",), None),
    "epoch_build_seconds": (
        "histogram", "Lazy artifact build duration by representation.",
        ("representation",), LATENCY_BUCKETS),
    "epoch_degraded_total": (
        "counter", "Builds degraded to direct-on-G by representation.",
        ("representation",), None),
    # engine/router (RouterStats is a view over these four)
    "router_queries_total": (
        "counter", "Queries answered by routed class.", ("class",), None),
    "router_dispatches_total": (
        "counter", "Dispatch calls by routed class (a batch is one dispatch).",
        ("class",), None),
    "router_dispatch_seconds": (
        "histogram", "Dispatch latency by routed class.", ("class",), LATENCY_BUCKETS),
    "router_fallbacks_total": (
        "counter", "Queries degraded away from a class to direct-on-G.",
        ("class",), None),
    # queries/matching — the per-epoch coalescing answer memo
    "match_memo_lookups_total": (
        "counter", "Coalescing answer-memo lookups by result (hit|miss|coalesced).",
        ("result",), None),
    "match_rows_scanned_total": (
        "counter", "Data-graph rows the match kernel tested (added once per match call).",
        (), None),
    # service front
    "service_publications_total": ("counter", "Epoch publications.", (), None),
    "service_publish_seconds": (
        "histogram", "apply/refreeze latency: accept batch to published epoch.",
        (), LATENCY_BUCKETS),
    "service_rollbacks_total": (
        "counter", "Transactional apply/refreeze rollbacks.", (), None),
    # service executor
    "executor_queue_depth": (
        "gauge", "Queued tasks awaiting a worker.", (), None),
    "executor_queue_wait_seconds": (
        "histogram", "Submit-to-dispatch queue wait per task.", (), LATENCY_BUCKETS),
    "executor_dispatch_seconds": (
        "histogram", "One micro-batch dispatch attempt.", (), LATENCY_BUCKETS),
    "executor_batch_queries": (
        "histogram", "Queries folded into one dispatched micro-batch.",
        (), SIZE_BUCKETS),
    "executor_retries_total": ("counter", "Dispatch attempts retried.", (), None),
    "executor_timeouts_total": ("counter", "Dispatch attempts timed out.", (), None),
    # index/tol — the reachability label index over Gr
    "tol_build_seconds": (
        "histogram", "TOL label construction time (full builds).", (), LATENCY_BUCKETS),
    "tol_lookups_total": (
        "counter", "Reachability lookups answered from TOL labels.", (), None),
    "tol_repairs_total": (
        "counter", "Edge inserts repaired in place by label patching.", (), None),
    "tol_rebuilds_total": (
        "counter", "Full label rebuilds forced by unrepairable deltas.", (), None),
    "tol_fallbacks_total": (
        "counter",
        "Reachability served without TOL by reason (build|breaker|error).",
        ("reason",), None),
    # faults
    "breaker_transitions_total": (
        "counter", "Circuit-breaker state transitions.", ("key", "to"), None),
    # obs itself — the tracer's retention cap and the live-ops surface
    "trace_spans_dropped_total": (
        "counter",
        "Finished spans dropped because the tracer's retention cap was full.",
        (), None),
    "obs_http_requests_total": (
        "counter", "Introspection-endpoint requests by path and status.",
        ("endpoint", "status"), None),
}


class MetricsRegistry:
    """A named family of counters/gauges/histograms with one shared lock.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent;
    re-registering a name with a different kind or label set is a
    ``ValueError`` (two writers disagreeing about a series is a bug, not a
    race to tolerate).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reg_lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        _ALL_REGISTRIES.add(self)

    def _rearm_locks(self) -> None:
        # After fork: the child must not inherit a lock some parent
        # thread held at fork time (see counters._rearm_bump_lock).
        self._lock = threading.Lock()
        self._reg_lock = threading.Lock()
        for metric in self._metrics.values():
            metric._lock = self._lock

    # -- registration ----------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help_text: str,
                       labelnames: Labels,
                       buckets: Optional[Sequence[float]] = None) -> _Metric:
        with self._reg_lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls) or metric.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind} with labels {metric.labelnames}"
                    )
                return metric
            if cls is Histogram:
                metric = Histogram(name, help_text, labelnames, self._lock,
                                   buckets if buckets is not None else LATENCY_BUCKETS)
            elif cls is Counter:
                metric = Counter(name, help_text, labelnames, self._lock)
            else:
                metric = Gauge(name, help_text, labelnames, self._lock)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Labels = ()) -> Counter:
        metric = self._get_or_create(Counter, name, help_text, labelnames)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "",
              labelnames: Labels = ()) -> Gauge:
        metric = self._get_or_create(Gauge, name, help_text, labelnames)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "", labelnames: Labels = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help_text, labelnames, buckets)
        assert isinstance(metric, Histogram)
        return metric

    def from_schema(self, name: str) -> _Metric:
        """Get-or-create a metric declared in :data:`SCHEMA` by name."""
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        try:
            kind, help_text, labelnames, buckets = SCHEMA[name]
        except KeyError:
            raise ValueError(
                f"metric {name!r} is neither registered nor in the schema"
            ) from None
        cls = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]
        return self._get_or_create(cls, name, help_text, labelnames, buckets)

    # -- one-line instrumentation entry points ---------------------------
    def inc_named(self, name: str, labels: Labels = (), n: float = 1) -> None:
        metric = self.from_schema(name)
        assert isinstance(metric, Counter)
        metric.inc(n, labels)

    def observe_named(self, name: str, value: float, labels: Labels = ()) -> None:
        metric = self.from_schema(name)
        assert isinstance(metric, Histogram)
        metric.observe(value, labels)

    def set_named(self, name: str, value: float, labels: Labels = ()) -> None:
        metric = self.from_schema(name)
        assert isinstance(metric, Gauge)
        metric.set(value, labels)

    def metrics(self) -> List[_Metric]:
        with self._reg_lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[_Metric]:
        with self._reg_lock:
            return self._metrics.get(name)

    # -- snapshot --------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of every series (the export format)."""
        state: Dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, (Counter, Gauge)):
                series: Any = [
                    [list(labels), value]
                    for labels, value in sorted(metric.values().items())
                ]
            else:
                assert isinstance(metric, Histogram)
                with self._lock:
                    series = [
                        [list(labels),
                         {"buckets": list(s.buckets), "sum": s.sum,
                          "count": s.count, "max": s.max}]
                        for labels, s in sorted(metric._series.items())
                    ]
            state[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "buckets": list(metric.bounds) if isinstance(metric, Histogram) else None,
                "series": series,
            }
        return state

    # -- exposition ------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition of every series.

        Conformance notes (pinned by the golden-file test): HELP precedes
        TYPE for every family, label values escape ``\\``/``"``/newlines,
        histogram buckets are cumulative with an explicit ``+Inf`` equal
        to ``_count``, and every histogram series carries ``_sum`` and
        ``_count``.
        """
        lines: List[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for labels, value in sorted(metric.values().items()):
                    lines.append(
                        f"{metric.name}{_label_str(metric.labelnames, labels)}"
                        f" {_fmt(value)}"
                    )
            else:
                assert isinstance(metric, Histogram)
                for labels in metric.labelsets():
                    with self._lock:
                        series = metric._series[labels]
                        buckets = list(series.buckets)
                        total, sum_v = series.count, series.sum
                    cumulative = 0
                    for i, bound in enumerate(metric.bounds):
                        cumulative += buckets[i]
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_label_str(metric.labelnames + ('le',), labels + (_fmt(bound),))}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_label_str(metric.labelnames + ('le',), labels + ('+Inf',))}"
                        f" {total}"
                    )
                    base = _label_str(metric.labelnames, labels)
                    lines.append(f"{metric.name}_sum{base} {_fmt(sum_v)}")
                    lines.append(f"{metric.name}_count{base} {total}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    """HELP-line escaping per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Label-value escaping: backslash, double quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(names: Labels, values: Labels) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


# ----------------------------------------------------------------------
# Global installation — one registry at a time, read lock-free on the
# hot path (mirrors repro.faults.plan).
# ----------------------------------------------------------------------
_REGISTRY: Optional[MetricsRegistry] = None


def install_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install *registry* (a fresh one if omitted) as the process registry."""
    global _REGISTRY
    if registry is None:
        registry = MetricsRegistry()
    _REGISTRY = registry
    return registry


def uninstall_registry() -> None:
    global _REGISTRY
    _REGISTRY = None


def current_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY


class _Installed:
    """Context manager form of install/uninstall (tests, CLI runs)."""

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _REGISTRY
        self._previous = _REGISTRY
        _REGISTRY = self._registry
        return self._registry

    def __exit__(self, *exc_info: Any) -> None:
        global _REGISTRY
        _REGISTRY = self._previous


def installed(registry: Optional[MetricsRegistry] = None) -> _Installed:
    return _Installed(registry)


def inc(name: str, labels: Labels = (), n: float = 1) -> None:
    """Bump a schema counter.  No-op (one ``is None`` check) when no
    registry is installed."""
    registry = _REGISTRY
    if registry is not None:
        registry.inc_named(name, labels, n)


def observe(name: str, value: float, labels: Labels = ()) -> None:
    """Record one observation into a schema histogram (no-op uninstalled)."""
    registry = _REGISTRY
    if registry is not None:
        registry.observe_named(name, value, labels)


def set_gauge(name: str, value: float, labels: Labels = ()) -> None:
    """Set a schema gauge level (no-op uninstalled)."""
    registry = _REGISTRY
    if registry is not None:
        registry.set_named(name, value, labels)


def metrics_on() -> bool:
    """True when a process registry is installed (for guarding costly
    measurement code, e.g. a ``perf_counter`` pair worth skipping)."""
    return _REGISTRY is not None


def _iter_series(state: Dict[str, Any]) -> Iterator[Tuple[str, Tuple[str, ...], Any]]:
    """Flat iteration over a :meth:`MetricsRegistry.to_state` snapshot."""
    for name, entry in state.items():
        for raw_labels, value in entry["series"]:
            yield name, tuple(raw_labels), value
