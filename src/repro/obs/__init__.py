"""repro.obs — process-wide observability for the serving stack.

Two compile-away facilities, both off (one ``is None`` check per call
site) until explicitly installed:

* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with
  p50/p95/p99 estimation and Prometheus text exposition;
* :mod:`repro.obs.trace` — per-query spans (route → build → dispatch →
  answer-map) exported as JSON-lines, with a slow-query log.

Two live-ops facilities build on them:

* :mod:`repro.obs.profile` — an on-demand cross-thread sampling profiler
  whose samples are attributed to the ambient span stack;
* :mod:`repro.obs.serve` — a stdlib-only HTTP introspection server
  (``/metrics``, ``/health``, ``/epochs``, ``/slow``, ``/traces``,
  ``/profile``) mountable by a service or harness.

See ``src/repro/obs/README.md`` for the metric catalogue, span schema,
exposition format and endpoint catalogue.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    inc,
    install_registry,
    installed,
    metrics_on,
    observe,
    set_gauge,
    uninstall_registry,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.serve import METRICS_CONTENT_TYPE, ObsHTTPServer
from repro.obs.trace import (
    DEFAULT_MAX_SPANS,
    Span,
    Tracer,
    attach,
    current_context,
    current_tracer,
    install_tracer,
    record_span,
    trace_span,
    tracing,
    tracing_on,
    uninstall_tracer,
    write_jsonl,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "LATENCY_BUCKETS",
    "METRICS_CONTENT_TYPE",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsHTTPServer",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "attach",
    "current_context",
    "current_registry",
    "current_tracer",
    "inc",
    "install_registry",
    "install_tracer",
    "installed",
    "metrics_on",
    "observe",
    "record_span",
    "set_gauge",
    "trace_span",
    "tracing",
    "tracing_on",
    "uninstall_registry",
    "uninstall_tracer",
    "write_jsonl",
]
