"""Live-ops HTTP surface: metrics, health, epochs, traces.

Everything :mod:`repro.obs` measures in-process becomes reachable over
plain HTTP — stdlib only (``http.server``), so the serving stack gains an
operations surface without gaining a dependency.  One
:class:`ObsHTTPServer` mounts next to an
:class:`~repro.service.front.EngineService` (which lifecycle-manages it
via ``EngineService(obs_http=...)``) or standalone next to the stress /
chaos harnesses (``python -m repro.service serve-obs``, ``--obs-port`` on
the ``chaos``/``metrics`` subcommands).

Endpoint catalogue (all ``GET``; see ``src/repro/obs/README.md``):

========================  ====================================================
``/metrics``              Prometheus text exposition of the registry
``/health``               liveness + degradation: epoch version, per-
                          representation degraded state, breaker states,
                          catalog writer-lock status
``/ready``                readiness probe (200 once a service is mounted
                          and not closed)
``/epochs``               publications: the current epoch's describe,
                          published count, lifecycle counters
``/slow``                 the tracer's slow-query log
                          (``?threshold_ms=&limit=``)
``/traces``               recent finished spans as JSONL (``?limit=``)
========================  ====================================================

Security: the server binds ``127.0.0.1`` by default and performs no
authentication — it is an introspection sidecar for operators on the
host, not a public API.  Bind a routable address only behind a reverse
proxy that adds auth.

The registry/tracer default to the *installed* process instances at each
request, so a server started before ``install_registry`` serves whatever
is live when scraped.  Handlers are read-only.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.metrics import inc as obs_inc
from repro.obs.trace import Tracer, current_tracer

#: Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObsHTTPServer:
    """The introspection server: bind, start, serve, stop.

    Parameters
    ----------
    host, port:
        Bind address.  ``127.0.0.1`` default (see the security note);
        ``port=0`` lets the OS pick — read :attr:`address` after
        :meth:`start`.
    registry, tracer:
        Explicit obs instances to serve.  ``None`` (default) resolves the
        installed process registry/tracer per request.
    service:
        An :class:`~repro.service.front.EngineService` to introspect for
        ``/health``, ``/ready`` and ``/epochs``.  Optional — without one
        those endpoints answer 503 and the metrics/trace side still
        works (the chaos CLI mounts exactly that way).
    executor:
        A :class:`~repro.service.executor.QueryExecutor` whose circuit
        breaker feeds ``/health`` (attachable later via
        :meth:`attach_executor`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        service: Optional[Any] = None,
        executor: Optional[Any] = None,
        traces_limit: int = 1000,
    ) -> None:
        self.host = host
        self.port = port
        self._registry = registry
        self._tracer = tracer
        self.service = service
        self.executor = executor
        self.traces_limit = traces_limit
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns ``(host, port)``."""
        if self._httpd is not None:
            return self.address
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        # The handler reaches back through the server instance.
        httpd.obs = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-http", daemon=True,
        )
        self._thread = thread
        thread.start()
        return self.address

    def stop(self) -> None:
        """Shut the listener down and join the serving thread (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd = None
        self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after :meth:`start`)."""
        return (self.host, self.port)

    @property
    def url(self) -> str:
        host = self.host if ":" not in self.host else f"[{self.host}]"
        return f"http://{host}:{self.port}"

    def attach_executor(self, executor: Optional[Any]) -> None:
        """Attach (or detach with ``None``) the executor whose breaker
        feeds ``/health``."""
        self.executor = executor

    def __enter__(self) -> "ObsHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Endpoint payloads (handler-facing; also unit-testable directly)
    # ------------------------------------------------------------------
    def registry(self) -> Optional[MetricsRegistry]:
        return self._registry if self._registry is not None else current_registry()

    def tracer(self) -> Optional[Tracer]:
        return self._tracer if self._tracer is not None else current_tracer()

    def health_payload(self) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, body)`` for ``/health``.

        ``degraded`` means *still serving, exactly, on a slower route*:
        any representation the current epoch marked degraded, or any
        breaker circuit not closed.  A closed (or absent) service is not
        serving at all — 503.
        """
        service = self.service
        if service is None:
            return 503, {"status": "no-service",
                         "detail": "no EngineService mounted on this endpoint"}
        described = service.describe()
        if described.get("closed"):
            return 503, {"status": "closed", "version": described.get("version")}
        epoch = described.get("epoch", {})
        degraded: Dict[str, str] = dict(epoch.get("degraded", {}))
        breaker: Dict[str, Any] = {}
        executor = self.executor
        if executor is not None and getattr(executor, "breaker", None) is not None:
            breaker = executor.breaker.snapshot()
        breaker_open = sorted(
            key for key, entry in breaker.items()
            if entry.get("state") != "closed"
        )
        catalog_lock = None
        lock_status = getattr(service, "catalog_lock_status", None)
        if callable(lock_status):
            catalog_lock = lock_status()
        status = "degraded" if (degraded or breaker_open) else "ok"
        return 200, {
            "status": status,
            "version": described.get("version"),
            "degraded": degraded,
            "breaker": breaker,
            "breaker_open": breaker_open,
            "catalog_lock": catalog_lock,
            "classes": described.get("stats", {}),
        }

    def ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        service = self.service
        if service is None:
            return 503, {"ready": False, "detail": "no EngineService mounted"}
        described = service.describe()
        if described.get("closed"):
            return 503, {"ready": False, "detail": "service closed"}
        return 200, {"ready": True, "version": described.get("version")}

    def epochs_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Publication accounting: the current epoch and how many came before."""
        service = self.service
        if service is None:
            return 503, {"detail": "no EngineService mounted"}
        described = service.describe()
        if described.get("closed"):
            return 503, {"detail": "service closed", "version": described.get("version")}
        counters = {
            k: v for k, v in described.items()
            if isinstance(v, int) and k != "version"
        }
        return 200, {
            "version": described.get("version"),
            "published": int(described.get("version", 0)) + 1,
            "current": described.get("epoch"),
            "counters": counters,
        }

    def slow_payload(self, threshold_ms: Optional[float],
                     limit: int) -> Tuple[int, Dict[str, Any]]:
        tracer = self.tracer()
        if tracer is None:
            return 503, {"detail": "no tracer installed"}
        threshold_s = threshold_ms / 1e3 if threshold_ms is not None else None
        entries = tracer.slow_queries(threshold_s, limit=limit)
        return 200, {
            "threshold_ms": (
                threshold_ms if threshold_ms is not None
                else tracer.slow_threshold_s * 1e3
            ),
            "dropped_spans": tracer.dropped_spans,
            "slow_queries": entries,
        }

    def traces_body(self, limit: int) -> Optional[str]:
        """The last *limit* finished spans as JSONL (None: no tracer)."""
        tracer = self.tracer()
        if tracer is None:
            return None
        spans = tracer.spans()
        if limit >= 0:
            spans = spans[-limit:]
        return "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans)


class _Handler(BaseHTTPRequestHandler):
    """Routes one GET to the payload builders above.  Read-only."""

    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; ops endpoints get
    # scraped every few seconds — keep quiet, metrics count the traffic.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def obs(self) -> ObsHTTPServer:
        return self.server.obs  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        params = parse_qs(split.query)
        endpoint = split.path.rstrip("/") or "/"
        try:
            status = self._route(endpoint, params)
        except BrokenPipeError:  # pragma: no cover - client went away
            return
        except Exception as exc:  # noqa: BLE001 - surface, don't kill the server
            status = self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        obs_inc("obs_http_requests_total", (endpoint, str(status)))

    def _route(self, endpoint: str, params: Dict[str, List[str]]) -> int:
        obs = self.obs
        if endpoint == "/":
            return self._send_json(200, {
                "endpoints": ["/metrics", "/health", "/ready", "/epochs",
                              "/slow", "/traces"],
                "service_mounted": obs.service is not None,
            })
        if endpoint == "/metrics":
            registry = obs.registry()
            if registry is None:
                return self._send_json(503, {"detail": "no registry installed"})
            return self._send_text(200, registry.render(), METRICS_CONTENT_TYPE)
        if endpoint == "/health":
            return self._send_json(*obs.health_payload())
        if endpoint == "/ready":
            return self._send_json(*obs.ready_payload())
        if endpoint == "/epochs":
            return self._send_json(*obs.epochs_payload())
        if endpoint == "/slow":
            threshold = self._float_param(params, "threshold_ms")
            limit = int(self._float_param(params, "limit", 50.0) or 50)
            return self._send_json(*obs.slow_payload(threshold, limit))
        if endpoint == "/traces":
            limit = int(
                self._float_param(params, "limit", float(obs.traces_limit))
                or obs.traces_limit
            )
            body = obs.traces_body(limit)
            if body is None:
                return self._send_json(503, {"detail": "no tracer installed"})
            return self._send_text(200, body, "application/x-ndjson")
        return self._send_json(404, {"error": f"unknown endpoint {endpoint!r}"})

    # -- response helpers ------------------------------------------------
    def _float_param(self, params: Dict[str, List[str]], name: str,
                     default: Optional[float] = None) -> Optional[float]:
        values = params.get(name)
        if not values:
            return default
        try:
            return float(values[-1])
        except ValueError:
            return default

    def _send_text(self, status: int, body: str, content_type: str) -> int:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        return status

    def _send_json(self, status: int, payload: Dict[str, Any]) -> int:
        return self._send_text(
            status, json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "application/json",
        )
