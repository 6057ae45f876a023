"""Tests for :mod:`repro.obs` — metrics, tracing, and their integration.

Four contracts:

* **Metric correctness** — counters/gauges/histograms total exactly under
  concurrent writers; percentile estimates land in the same bucket as a
  sorted-sample reference.
* **Compile-away** — with nothing installed every instrumentation point
  is a no-op, and answers with obs fully live are byte-identical to
  answers with obs off.
* **Propagation** — a trace context captured at submit reaches executor
  workers (retroactive queue-wait/dispatch spans on the caller's trace).
* **Exposition** — Prometheus text renders cumulative buckets, stress
  reports embed the registry snapshot, and the ``metrics`` CLI exposes
  non-zero series after a stress round.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_left

import pytest

from repro.engine.counters import RouterStats
from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.datasets.patterns import random_pattern
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    current_registry,
    inc,
    installed,
    metrics_on,
    observe,
    set_gauge,
)
from repro.obs.trace import (
    Tracer,
    current_context,
    trace_span,
    tracing,
    tracing_on,
    write_jsonl,
)
from repro.queries.reachability import ReachabilityQuery
from repro.service import EngineService, QueryExecutor, freeze_answer, run_stress

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _mixed_graph(seed: int, n: int = 60, m: int = 170) -> DiGraph:
    g = gnm_random_graph(n, m, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=seed + 1)
    return g


def _workload(graph: DiGraph, seed: int, n_reach: int = 20,
              n_patterns: int = 3) -> list:
    rng = random.Random(seed)
    nodes = graph.node_list()
    queries = [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(n_reach)
    ]
    for i in range(n_patterns):
        queries.append(random_pattern(graph, 3, 3, max_bound=2,
                                      star_prob=0.25, seed=seed + 31 + i))
    return queries


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("kind",))
        c.inc(1, ("a",))
        c.inc(2.5, ("a",))
        c.inc(1, ("b",))
        assert c.value(("a",)) == 3.5
        assert c.values() == {("a",): 3.5, ("b",): 1}
        g = reg.gauge("g", "help")
        g.set(7)
        g.set(3)
        assert g.value() == 3

    def test_label_arity_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "", ("kind",))
        with pytest.raises(ValueError):
            c.inc(1, ())
        with pytest.raises(ValueError):
            reg.counter("c_total", "", ("other",))  # label mismatch
        with pytest.raises(ValueError):
            reg.gauge("c_total")  # kind mismatch

    def test_from_schema_unknown_name(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.from_schema("no_such_metric")

    def test_histogram_observe_and_render(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", (), buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(5.56)
        assert h.max() == 5.0
        text = reg.render()
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.01"} 2' in text
        assert 'lat_seconds_bucket{le="0.1"} 3' in text
        assert 'lat_seconds_bucket{le="1"} 4' in text
        assert 'lat_seconds_bucket{le="+Inf"} 5' in text
        assert "lat_seconds_count 5" in text

    def test_concurrent_writers_total_exactly(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "", ("t",))
        h = reg.histogram("obs_seconds", "", ())
        per_thread, threads_n = 2000, 8

        def work(i: int) -> None:
            for j in range(per_thread):
                c.inc(1, (str(i % 2),))
                h.observe((j % 7) * 0.001)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = per_thread * threads_n
        assert sum(c.values().values()) == total
        assert h.count() == total
        expected_sum = sum((j % 7) * 0.001 for j in range(per_thread)) * threads_n
        assert h.sum() == pytest.approx(expected_sum, rel=1e-9)

    def test_percentile_matches_sorted_reference_bucket(self):
        rng = random.Random(5)
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", ())
        # Skewed like real latencies: most fast, a long tail.
        samples = [rng.random() ** 3 * 2.0 for _ in range(5000)]
        for s in samples:
            h.observe(s)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            true = ordered[math.ceil(q * len(ordered)) - 1]
            est = h.percentile(q)
            idx = bisect_left(LATENCY_BUCKETS, true)
            lo = LATENCY_BUCKETS[idx - 1] if idx > 0 else 0.0
            hi = (LATENCY_BUCKETS[idx] if idx < len(LATENCY_BUCKETS)
                  else max(samples))
            assert lo <= est <= hi, (q, true, est)
            assert est <= h.max()

    def test_percentile_empty_and_invalid_q(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", ())
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_compile_away_when_uninstalled(self):
        assert current_registry() is None
        assert not metrics_on()
        # All no-ops, no exceptions, nothing created anywhere.
        inc("router_queries_total", ("reachability",))
        observe("router_dispatch_seconds", 0.1, ("reachability",))
        set_gauge("executor_queue_depth", 3)
        with installed() as reg:
            assert metrics_on() and current_registry() is reg
            inc("router_queries_total", ("reachability",))
            assert reg.get("router_queries_total").value(("reachability",)) == 1
        assert current_registry() is None


# ----------------------------------------------------------------------
# RouterStats as a registry view
# ----------------------------------------------------------------------

class TestRouterStats:
    def test_binds_to_installed_registry(self):
        with installed() as reg:
            stats = RouterStats()
            assert stats.registry is reg
            stats.record("reachability", 0.002, queries=3)
            stats.record("pattern", 0.004)
            stats.record_fallback("pattern", queries=2)
            assert reg.get("router_queries_total").value(("reachability",)) == 3
            assert reg.get("router_dispatches_total").value(("pattern",)) == 1
        assert stats.hits("reachability") == 3
        assert stats.total_queries() == 4
        assert stats.fallbacks("pattern") == 2

    def test_private_registry_when_none_installed(self):
        stats = RouterStats()
        assert current_registry() is None
        stats.record("reachability", 0.001)
        snap = stats.snapshot()
        assert snap["reachability"]["hits"] == 1
        assert snap["reachability"]["mean_ms"] == pytest.approx(1.0)

    def test_snapshot_and_percentiles(self):
        stats = RouterStats()
        for _ in range(10):
            stats.record("reachability", 0.001, queries=2)
        stats.record("pattern", 0.01)
        stats.record_fallback("pattern")
        snap = stats.snapshot()
        assert snap["reachability"]["hits"] == 20
        assert snap["pattern"]["fallbacks"] == 1
        pct = stats.percentiles()
        assert pct["reachability"]["count"] == 10
        assert 0 < pct["reachability"]["p50_ms"] <= pct["reachability"]["p99_ms"]
        stats.clear()
        assert stats.total_queries() == 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class TestTracing:
    def test_noop_when_uninstalled(self):
        assert not tracing_on()
        assert current_context() is None
        with trace_span("anything", attr=1) as span:
            span.set(more=2)  # swallowed, no tracer

    def test_nesting_and_attrs(self):
        with tracing() as tracer:
            with trace_span("root", a=1) as root:
                root.set(b=2)
                with trace_span("child"):
                    pass
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["child", "root"]
        child, root = spans
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]
        assert root["parent_id"] is None
        assert root["attrs"] == {"a": 1, "b": 2}
        assert root["duration_ms"] >= child["duration_ms"] >= 0

    def test_error_marked(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with trace_span("boom"):
                    raise RuntimeError("x")
        (span,) = tracer.spans()
        assert span["attrs"]["error"] == "RuntimeError"

    def test_record_span_reanchors_wall(self):
        with tracing() as tracer:
            start = time.perf_counter() - 0.5
            tracer.record_span("late", start, start + 0.25)
        (span,) = tracer.spans()
        assert span["duration_ms"] == pytest.approx(250.0, abs=1.0)
        # wall is re-anchored ~0.5s into the past.
        assert time.time() - span["wall"] == pytest.approx(0.5, abs=0.2)

    def test_slow_queries_and_jsonl(self, tmp_path):
        with tracing(Tracer(slow_threshold_s=0.0)) as tracer:
            with trace_span("query", version=3):
                with trace_span("dispatch"):
                    pass
        slow = tracer.slow_queries()
        assert len(slow) == 1
        assert slow[0]["name"] == "query"
        assert slow[0]["attrs"] == {"version": 3}
        assert [c["name"] for c in slow[0]["spans"]] == ["dispatch"]
        out = tmp_path / "trace.jsonl"
        n = write_jsonl(tracer.spans(), out)
        lines = out.read_text().splitlines()
        assert n == len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == \
            {"query", "dispatch"}


# ----------------------------------------------------------------------
# Integration: the serving stack under obs
# ----------------------------------------------------------------------

class TestServingIntegration:
    def test_metrics_off_answers_byte_identical(self):
        g = _mixed_graph(7)
        queries = _workload(g, 7)
        service = EngineService(g.copy())
        bare = [freeze_answer(service.query(q)) for q in queries]
        service.close()
        with installed(), tracing():
            service = EngineService(g.copy())
            live = [freeze_answer(service.query(q)) for q in queries]
            service.close()
        assert bare == live

    def test_service_query_populates_registry(self):
        g = _mixed_graph(3)
        with installed() as reg:
            service = EngineService(g)
            for q in _workload(g, 3):
                service.query(q)
            service.close()
        assert sum(reg.get("router_queries_total").values().values()) == 23
        assert reg.get("epoch_builds_total").value(("reachability",)) >= 1
        assert reg.get("router_dispatch_seconds").count(("reachability",)) > 0
        assert reg.get("service_publications_total") is None  # no applies

    def test_traced_query_span_coverage(self):
        g = _mixed_graph(9)
        pattern = _workload(g, 9, n_reach=0, n_patterns=1)[0]
        service = EngineService(g)
        with tracing() as tracer:
            t0 = time.perf_counter()
            service.query(pattern)  # cold: builds land inside the span
            wall = time.perf_counter() - t0
        service.close()
        roots = [s for s in tracer.spans()
                 if s["parent_id"] is None and s["name"] == "service.query"]
        assert len(roots) == 1
        covered = roots[0]["end"] - roots[0]["start"]
        assert covered >= 0.9 * wall

    def test_thread_executor_trace_propagation(self):
        g = _mixed_graph(5)
        queries = _workload(g, 5, n_reach=8, n_patterns=0)
        with installed() as reg, tracing() as tracer:
            service = EngineService(g)
            ex = QueryExecutor(service, 2, mode="thread", max_batch=4)
            try:
                with trace_span("client") as _root:
                    futures = [ex.submit(q) for q in queries]
                    for fut in futures:
                        fut.result(timeout=60.0)
            finally:
                ex.shutdown(wait=True)
                service.close()
        spans = tracer.spans()
        client = next(s for s in spans if s["name"] == "client")
        by_name: dict = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        # Retroactive spans land on the submitting trace...
        for name in ("executor.queue_wait", "executor.dispatch"):
            assert by_name[name], name
            assert all(s["trace_id"] == client["trace_id"]
                       for s in by_name[name]), name
        # ...and ambient attach nests the engine's own spans under it too.
        assert all(s["trace_id"] == client["trace_id"]
                   for s in by_name["engine.dispatch"])
        # Queue-wait + dispatch metrics flowed into the same registry.
        assert reg.get("executor_queue_wait_seconds").count() == len(queries)
        assert reg.get("executor_batch_queries").count() > 0

    def test_executor_run_percentiles_ordered_per_class(self):
        g = _mixed_graph(13)
        with installed():
            service = EngineService(g)
            # max_batch=1: one router_dispatch_seconds sample per query.
            with QueryExecutor(service, 2, mode="thread", max_batch=1) as ex:
                ex.map(_workload(g, 13))
            pct = service.stats.percentiles()
            service.close()
        assert set(pct) == {"reachability", "pattern"}
        for entry in pct.values():
            assert entry["count"] > 0
            assert 0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]

    def test_stress_report_embeds_obs_snapshot(self):
        g = _mixed_graph(13)
        report = run_stress(g, readers=2, writer_batches=2, batch_size=4,
                            queries_per_reader=5, seed=3)
        assert "obs" not in report
        with installed(), tracing():
            report = run_stress(g, readers=2, writer_batches=2, batch_size=4,
                                queries_per_reader=5, seed=3)
        assert report["mismatches"] == 0 and report["errors"] == []
        obs = report["obs"]
        assert obs["metrics"]["router_queries_total"]["series"]
        assert obs["metrics"]["service_publications_total"]["series"]
        assert obs["spans_recorded"] > 0

    def test_metrics_cli_smoke(self, tmp_path):
        trace_out = tmp_path / "trace.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "metrics", "--quick",
             "--nodes", "40", "--edges", "110", "--workers", "2",
             "--trace-out", str(trace_out)],
            capture_output=True, text=True, env=env, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert "# TYPE router_queries_total counter" in proc.stdout
        assert "router_dispatch_seconds_bucket" in proc.stdout
        assert "executor_batch_queries" in proc.stdout
        assert "catalog_base_loads_total" in proc.stdout
        assert "epoch_builds_total" in proc.stdout
        assert "service_publications_total" in proc.stdout
        assert "stress: queries=" in proc.stderr
        spans = [json.loads(line)
                 for line in trace_out.read_text().splitlines()]
        assert spans and {"trace_id", "span_id", "name", "duration_ms"} <= \
            set(spans[0])


# ----------------------------------------------------------------------
# Prometheus text-exposition conformance (golden file)
# ----------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "metrics_exposition.txt")


def _conformance_registry() -> MetricsRegistry:
    """The deterministic registry the golden file was rendered from —
    exercises label escaping, multi-family ordering and histograms."""
    reg = MetricsRegistry()
    c = reg.counter("demo_requests_total", "Requests by endpoint and status.",
                    ("endpoint", "status"))
    c.inc(3, ("/metrics", "200"))
    c.inc(1, ("/health", "503"))
    c.inc(1, ('/tricky"quote', "200"))
    c.inc(2, ("/back\\slash\nnewline", "200"))
    g = reg.gauge("demo_queue_depth", "Queued tasks awaiting a worker.")
    g.set(4)
    h = reg.histogram("demo_latency_seconds",
                      "Request latency.\nSecond help line with a \\ backslash.",
                      ("endpoint",), buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v, ("/metrics",))
    h.observe(0.25, ("/health",))
    return reg


class TestExpositionConformance:
    def test_render_matches_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = fh.read()
        assert _conformance_registry().render() == golden

    def test_help_precedes_type_per_family(self):
        lines = _conformance_registry().render().splitlines()
        seen_help: set = set()
        for line in lines:
            if line.startswith("# HELP "):
                seen_help.add(line.split()[2])
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert name in seen_help, f"TYPE before HELP for {name}"

    def test_label_escaping(self):
        text = _conformance_registry().render()
        # Backslash, double-quote and newline all escape; the raw
        # (unescaped) values never appear in the exposition.
        assert 'endpoint="/back\\\\slash\\nnewline"' in text
        assert 'endpoint="/tricky\\"quote"' in text
        assert "/back\\slash\nnewline" not in text
        assert '/tricky"quote' not in text
        # HELP text escapes newlines too — every line is one sample/comment.
        assert "# HELP demo_latency_seconds Request latency.\\nSecond" in text
        for line in text.splitlines():
            assert line.startswith(("# HELP ", "# TYPE ", "demo_"))

    def test_histogram_invariants(self):
        text = _conformance_registry().render()
        # Cumulative buckets: each le bound's count is monotone, +Inf
        # equals _count, and _sum/_count are present per series.
        for series, count, total in (("/metrics", 5, 5.605), ("/health", 1, 0.25)):
            cumulative = []
            for line in text.splitlines():
                if line.startswith("demo_latency_seconds_bucket") \
                        and f'endpoint="{series}"' in line:
                    cumulative.append(int(line.rsplit(" ", 1)[1]))
            assert cumulative == sorted(cumulative)
            assert cumulative[-1] == count  # the +Inf bucket
            assert f'demo_latency_seconds_count{{endpoint="{series}"}} ' \
                   f"{count}" in text
            assert f'demo_latency_seconds_sum{{endpoint="{series}"}} ' \
                   f"{total}" in text

    def test_schema_metrics_render_parseable(self):
        # Every schema metric renders with HELP+TYPE and scrape-parseable
        # sample lines (name{labels} value).
        from repro.obs.metrics import SCHEMA

        reg = MetricsRegistry()
        for name in SCHEMA:
            reg.from_schema(name)
        text = reg.render()
        for name in SCHEMA:
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text


# ----------------------------------------------------------------------
# Tracer retention bounds (live-ops: a long-lived server must not grow)
# ----------------------------------------------------------------------

class TestTracerBounds:
    def test_retention_cap_and_drop_counter(self):
        with installed() as reg:
            tracer = Tracer(max_spans=5)
            with tracing(tracer):
                for i in range(8):
                    with trace_span(f"s{i}"):
                        pass
            assert len(tracer.spans()) == 5
            assert tracer.dropped_spans == 3
            assert reg.get("trace_spans_dropped_total").value() == 3
            # The slow-query log is a view over the same bounded buffer.
            assert len(tracer.slow_queries(threshold_s=0.0)) <= 5

    def test_drain_frees_room_and_clear_resets(self):
        tracer = Tracer(max_spans=2)
        with tracing(tracer):
            for _ in range(3):
                with trace_span("x"):
                    pass
        assert tracer.dropped_spans == 1
        tracer.drain()
        with tracing(tracer):
            with trace_span("y"):
                pass
        assert [s["name"] for s in tracer.spans()] == ["y"]
        tracer.clear()
        assert tracer.dropped_spans == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_attached_context_is_unnamed(self):
        from repro.obs.trace import attach

        tracer = Tracer()
        with tracing(tracer):
            with trace_span("root"):
                ctx = current_context()
        with tracing(tracer):
            assert current_context() is None
            with attach(ctx):
                # The adopted context is ambient, and spans nest under it.
                assert current_context() == ctx
                with trace_span("named"):
                    inner = current_context()
                assert current_context() == ctx
            assert current_context() is None
        # Adopting a context records no span of its own.
        assert [s["name"] for s in tracer.spans()] == ["root", "named"]
        named = tracer.spans()[1]
        assert (named["trace_id"], named["parent_id"]) == ctx
        assert inner == (named["trace_id"], named["span_id"])
