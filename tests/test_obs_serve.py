"""Tests for :mod:`repro.obs.serve` — the live-ops HTTP surface.

Three contracts:

* **Endpoints** — every route answers with the documented status codes
  and content types; ``/metrics`` renders scrape-parseable Prometheus
  text; ``/traces`` is JSONL; unknown paths 404.
* **Health semantics** — ``/health`` is 503 only when no service is
  mounted or the service is closed; a degraded epoch build or an open
  breaker circuit flips ``status`` to ``"degraded"`` while staying 200
  (still serving, exactly, on a slower route), and a fresh epoch
  recovers to ``"ok"``.
* **Lifecycle** — ``EngineService(obs_http=...)`` starts the server on
  construction and stops it on ``close()``; start/stop are idempotent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.faults import FaultPlan, FaultRule
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.obs.metrics import installed
from repro.obs.serve import METRICS_CONTENT_TYPE, ObsHTTPServer
from repro.obs.trace import Tracer
from repro.queries.reachability import ReachabilityQuery
from repro.service import EngineService

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _small_graph(seed: int = 7):
    g = gnm_random_graph(40, 110, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [3, 2], parents_per_group=2, seed=seed + 1)
    return g


def _get(url: str, timeout: float = 10.0):
    """``(status, headers, body)`` — HTTP errors return, not raise."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode("utf-8")


# ----------------------------------------------------------------------
# Endpoint routing and content types
# ----------------------------------------------------------------------

class TestEndpoints:
    def test_index_lists_endpoints(self):
        with ObsHTTPServer() as server:
            status, _, body = _get(server.url + "/")
            assert status == 200
            payload = json.loads(body)
            assert "/metrics" in payload["endpoints"]
            assert payload["service_mounted"] is False

    def test_metrics_scrape_parseable(self):
        with installed() as reg:
            reg.from_schema("router_queries_total")
            reg.inc_named("router_queries_total", ("reachability",), 3)
            with ObsHTTPServer() as server:
                status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        for line in body.splitlines():
            assert line.startswith("#") or " " in line
        assert 'router_queries_total{class="reachability"} 3' in body

    def test_metrics_counts_its_own_requests(self):
        with installed() as reg:
            with ObsHTTPServer() as server:
                _get(server.url + "/metrics")
                _get(server.url + "/metrics")
                _, _, body = _get(server.url + "/metrics")
        counter = reg.get("obs_http_requests_total")
        assert counter.value(("/metrics", "200")) == 3
        assert 'obs_http_requests_total{endpoint="/metrics",status="200"}' \
            in body

    def test_metrics_503_without_registry(self):
        with ObsHTTPServer() as server:
            status, _, _ = _get(server.url + "/metrics")
            assert status == 503

    def test_traces_jsonl_and_slow_log(self):
        tracer = Tracer()
        tracer.record_span("fast", 0.0, 0.001)
        tracer.record_span("slowq", 10.0, 10.2)
        with ObsHTTPServer(tracer=tracer) as server:
            status, headers, body = _get(server.url + "/traces?limit=10")
            assert status == 200
            assert headers["Content-Type"] == "application/x-ndjson"
            spans = [json.loads(line) for line in body.splitlines()]
            assert {s["name"] for s in spans} == {"fast", "slowq"}

            status, _, body = _get(server.url + "/slow?threshold_ms=100")
            assert status == 200
            slow = json.loads(body)
            assert [e["name"] for e in slow["slow_queries"]] == ["slowq"]
            assert slow["threshold_ms"] == 100
            assert slow["dropped_spans"] == 0

    def test_traces_and_slow_503_without_tracer(self):
        with ObsHTTPServer() as server:
            assert _get(server.url + "/traces")[0] == 503
            assert _get(server.url + "/slow")[0] == 503

    def test_unknown_endpoint_404(self):
        with ObsHTTPServer() as server:
            status, _, body = _get(server.url + "/nope")
            assert status == 404
            assert "unknown endpoint" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# Health semantics: degraded flip under injected faults, recovery
# ----------------------------------------------------------------------

class _StubBreaker:
    def __init__(self, states):
        self._states = states

    def snapshot(self):
        return {
            key: {"state": state, "failures": 0, "trips": 0}
            for key, state in self._states.items()
        }


class _StubExecutor:
    def __init__(self, states):
        self.breaker = _StubBreaker(states)


class TestHealth:
    def test_no_service_503(self):
        server = ObsHTTPServer()
        status, payload = server.health_payload()
        assert status == 503 and payload["status"] == "no-service"
        assert server.ready_payload()[0] == 503
        assert server.epochs_payload()[0] == 503

    def test_ok_then_closed(self):
        service = EngineService(_small_graph())
        server = ObsHTTPServer(service=service)
        try:
            status, payload = server.health_payload()
            assert status == 200 and payload["status"] == "ok"
            assert payload["version"] == 0 and payload["degraded"] == {}
            assert server.ready_payload() == (
                200, {"ready": True, "version": 0}
            )
        finally:
            service.close()
        status, payload = server.health_payload()
        assert status == 503 and payload["status"] == "closed"

    def test_degraded_flip_under_epoch_build_fault_and_recovery(self):
        graph = _small_graph()
        nodes = graph.node_list()
        service = EngineService(graph)
        server = ObsHTTPServer(service=service)
        query = ReachabilityQuery(nodes[0], nodes[-1])
        try:
            plan = FaultPlan(
                [FaultRule(point="epoch.build.*", kind="error", times=None)]
            )
            with plan.installed():
                # The build fails, the epoch marks the representation
                # degraded, and the query still answers via fallback.
                service.query(query)
            assert plan.fired("error") >= 1
            status, payload = server.health_payload()
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["degraded"]  # per-representation reasons
            # The next epoch (no fault installed) builds clean: recovered.
            service.refreeze()
            service.query(query)
            status, payload = server.health_payload()
            assert status == 200
            assert payload["status"] == "ok" and payload["degraded"] == {}
        finally:
            service.close()

    def test_open_breaker_flips_degraded(self):
        service = EngineService(_small_graph())
        server = ObsHTTPServer(service=service)
        try:
            server.attach_executor(
                _StubExecutor({"pattern": "open", "reach": "closed"})
            )
            status, payload = server.health_payload()
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["breaker_open"] == ["pattern"]
            server.attach_executor(None)
            assert server.health_payload()[1]["status"] == "ok"
        finally:
            service.close()

    def test_epochs_payload_tracks_publications(self):
        service = EngineService(_small_graph())
        server = ObsHTTPServer(service=service)
        try:
            status, payload = server.epochs_payload()
            assert status == 200 and payload["version"] == 0
            assert payload["published"] == 1
            service.refreeze()
            status, payload = server.epochs_payload()
            assert payload["version"] == 1 and payload["published"] == 2
            assert isinstance(payload["counters"], dict)
        finally:
            service.close()


# ----------------------------------------------------------------------
# Lifecycle: EngineService mounts and stops the server; idempotency
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_engine_service_manages_server(self):
        server = ObsHTTPServer()
        service = EngineService(_small_graph(), obs_http=server)
        assert server.running and server.service is service
        assert service.obs_http is server
        status, _, body = _get(server.url + "/health")
        assert status == 200 and json.loads(body)["status"] == "ok"
        service.close()
        assert not server.running
        service.close()  # close is idempotent; the server stays down
        assert not server.running

    def test_start_stop_idempotent(self):
        server = ObsHTTPServer()
        addr = server.start()
        assert server.start() == addr  # second start: same binding
        server.stop()
        server.stop()
        assert not server.running

    def test_health_catalog_lock_absent_without_catalog(self):
        service = EngineService(_small_graph())
        server = ObsHTTPServer(service=service)
        try:
            _, payload = server.health_payload()
            assert payload["catalog_lock"] is None
        finally:
            service.close()


# ----------------------------------------------------------------------
# serve-obs CLI: end-to-end smoke over a real subprocess
# ----------------------------------------------------------------------

class TestServeObsCLI:
    def test_serve_obs_smoke(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve-obs",
             "--port", "0", "--nodes", "40", "--edges", "100",
             "--workers", "1", "--duration", "120",
             "--traffic-interval-s", "0.005"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True, cwd=str(tmp_path),
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("obs endpoints on http://"), line
            url = line.split()[-1]
            # Give the self-traffic loop a beat so series are non-zero.
            time.sleep(1.0)
            status, headers, body = _get(url + "/metrics", timeout=30.0)
            assert status == 200
            assert headers["Content-Type"] == METRICS_CONTENT_TYPE
            assert "router_queries_total" in body
            status, _, body = _get(url + "/health", timeout=30.0)
            assert status == 200
            health = json.loads(body)
            assert health["status"] in ("ok", "degraded")
            assert isinstance(health["version"], int)
            status, _, body = _get(url + "/epochs", timeout=30.0)
            assert status == 200 and json.loads(body)["published"] >= 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=30)
