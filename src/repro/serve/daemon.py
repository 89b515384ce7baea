"""The network-facing scheduler daemon: HTTP/JSON over SchedulingService.

A long-running, stdlib-only (:mod:`http.server`) process boundary around
:class:`~repro.serve.service.SchedulingService`: wire clients speak the
versioned JSON protocol of :mod:`repro.serve.protocol`, and every
request routes through the same ``submit(Request) -> Response`` core a
library caller uses — so daemon results are bit-identical to in-process
ones, request dedup included.

Endpoints
---------
``POST /v1/schedule``  one request body -> one response body (a missed
                       deadline is HTTP 504, ``request_timeout``).
``POST /v1/batch``     ``{"v": 1, "requests": [...]}`` -> ``{"responses":
                       [...]}``; submitted together (full thread-pool
                       concurrency + dedup), per-item timeouts reported
                       per item, never failing the batch.
``POST /v1/compare``   like batch, but each request becomes an
                       (ArrayFlex, conventional) pair -> ``{"pairs":
                       [[flex, conv], ...]}``.
``GET /metrics``       request/outcome/rejection counters, per-backend
                       latency histograms, the service's dedup counters,
                       the in-flight depth, the uptime and (with a rate
                       limit) the limiter's bucket count, read from one
                       metrics registry: ``{"v": 1, "metrics": {family:
                       [samples]}}``, or with ``Accept: text/plain`` the
                       same families as Prometheus text exposition.
``GET /healthz``       liveness: status (``ok``/``draining``), uptime,
                       in-flight depth.

What a daemon needs that a library doesn't
------------------------------------------
*Typed refusals*: input that can never succeed — malformed JSON, an
unknown workload name, a non-finite number (``json`` accepts
``Infinity`` and ``NaN``), a layer whose cycle count does not fit int64
— is HTTP 400 ``invalid_request``, never a 500.  *Backpressure*: at
most ``max_inflight`` requests are admitted at once
(:class:`~repro.serve.middleware.AdmissionGate`); beyond that the daemon
sheds load with HTTP 429 + ``Retry-After`` instead of queueing without
bound.  A request's body is read and decoded before it takes a rate-limit
token or an admission slot, under a per-connection read deadline, so a
client that stalls mid-body holds neither and is simply disconnected.
*Rate limits*: an optional per-client token bucket
(:class:`~repro.serve.middleware.TokenBucket`, keyed by ``X-Client-Id``
or peer host) refuses over-rate clients with HTTP 503 + the exact
refill time.  *Graceful drain*: SIGTERM/SIGINT (or
:meth:`SchedulerDaemon.request_drain`) stops accepting work, finishes
everything in flight, closes the service (idempotent ``close()``), then
lets the process exit 0.

>>> daemon = SchedulerDaemon(port=0)          # ephemeral port
>>> thread = daemon.start()
>>> client = DaemonClient(port=daemon.address[1])
>>> client.healthz()["status"]
'ok'
>>> daemon.drain()
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
import uuid
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.logs import bind_request_id, configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.serve.errors import (
    AdmissionRejected,
    InvalidRequest,
    RateLimited,
    RequestTimeout,
    ServeError,
)
from repro.serve.middleware import AdmissionGate, DaemonMetrics, TokenBucket
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Request,
    request_from_wire,
    request_to_wire,
    response_to_wire,
)
from repro.serve.service import SchedulingService

__all__ = ["DaemonClient", "SchedulerDaemon"]

#: Largest accepted POST body; a daemon must bound what it buffers.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted batch/compare fan-out per HTTP request.
MAX_BATCH_REQUESTS = 4096

#: Seconds a connection may stall on a read (request line, headers, body,
#: or the next request of a keep-alive connection) before it is closed.
READ_TIMEOUT_S = 2.0

#: Seconds a drain waits for in-flight requests before it closes the
#: service anyway, so a stuck backend cannot keep SIGTERM from exiting.
DRAIN_TIMEOUT_S = 30.0

_POST_ROUTES = ("/v1/schedule", "/v1/batch", "/v1/compare")

#: Structured access log (opt-in: silent unless a handler is configured
#: at DEBUG, e.g. via ``--log-level debug`` or ``REPRO_LOG_LEVEL``).
_ACCESS_LOG = logging.getLogger("repro.serve.access")


class SchedulerDaemon:
    """One scheduling service behind a threaded HTTP/JSON front door.

    ``service`` defaults to a fresh :class:`SchedulingService` built
    from ``backend``/``max_workers``; pass an existing service instead of
    them to share it (the daemon then also owns closing it on drain).
    ``max_inflight`` bounds the admission queue, ``rate_limit``/
    ``rate_burst`` configure the per-client token bucket (``None``
    disables it), and ``default_timeout`` is the per-request deadline
    applied when a wire request carries none (``None``: wait forever).
    Arguments that would be ignored — ``backend`` or ``max_workers`` next
    to a ready service, a burst without a rate — raise
    :class:`~repro.serve.errors.InvalidRequest` before any thread pool is
    built.
    """

    def __init__(
        self,
        service: SchedulingService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8537,
        backend=None,
        max_workers: int | None = None,
        max_inflight: int = 64,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        default_timeout: float | None = None,
    ) -> None:
        if service is not None and (backend is not None or max_workers is not None):
            raise InvalidRequest(
                "pass either a ready service or backend/max_workers arguments, not both"
            )
        self.gate = AdmissionGate(max_inflight)
        self.limiter = TokenBucket(rate_limit, rate_burst)
        if service is None:
            service = SchedulingService(backend=backend, max_workers=max_workers)
        self.service = service
        self.metrics = DaemonMetrics()
        #: The registry behind ``/metrics``: the daemon's own middleware
        #: counters plus the service's — one merged read, no component
        #: knowing about any other.
        self.registry = MetricsRegistry()
        self.registry.attach(self.metrics.registry)
        self.registry.attach(self.service.registry)
        level = os.environ.get("REPRO_LOG_LEVEL")
        if level:
            configure_logging(level=level, json_lines=True)
        self.default_timeout = default_timeout
        self._started = time.monotonic()
        self._draining = threading.Event()
        self._drained = threading.Event()
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        self._server = ThreadingHTTPServer((host, port), handler)
        # Handler threads must not block interpreter exit; the drain
        # barrier (gate.wait_idle) is what guarantees in-flight requests
        # finish before the service closes.
        self._server.daemon_threads = True

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Serve until drained; returns after the drain completes.

        The calling thread runs the accept loop (the CLI's main thread;
        tests use :meth:`start` for a background thread).  When
        :meth:`request_drain` fires — directly or via a signal — the
        loop exits, the listening socket closes, in-flight requests
        finish behind the admission gate, and the service closes.
        """
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._finish_drain()

    def start(self) -> threading.Thread:
        """Serve on a background thread (returns it); for tests/embedding."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-daemon", daemon=True
        )
        thread.start()
        return thread

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._handle_signal)

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover - signal path
        self.request_drain()

    def request_drain(self) -> None:
        """Begin a graceful drain; idempotent and signal-handler safe.

        Only sets a flag and spawns the shutdown thread —
        ``server.shutdown()`` blocks until the accept loop notices, so it
        must never run on the thread (or the interrupted main-thread
        frame) that is *inside* ``serve_forever``.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        threading.Thread(
            target=self._server.shutdown, name="repro-daemon-shutdown", daemon=True
        ).start()

    def _finish_drain(self) -> None:
        self._draining.set()
        self._server.server_close()
        # In-flight requests complete behind the gate; a stuck backend is
        # bounded by DRAIN_TIMEOUT_S so SIGTERM always terminates.
        self.gate.wait_idle(timeout=DRAIN_TIMEOUT_S)
        self.service.close()
        self._drained.set()

    def drain(self, timeout: float | None = None) -> bool:
        """Request a drain and block until it completes (or ``timeout``)."""
        self.request_drain()
        return self._drained.wait(
            timeout=timeout if timeout is not None else DRAIN_TIMEOUT_S + 5.0
        )

    # ------------------------------------------------------------------ #
    # Introspection payloads
    # ------------------------------------------------------------------ #
    def healthz_payload(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "status": "draining" if self.draining else "ok",
            "backend": getattr(self.service.backend, "name", "unknown"),
            "uptime_s": round(self.uptime_s(), 3),
            "inflight": self.gate.depth,
            "max_inflight": self.gate.limit,
        }

    def metrics_payload(self) -> dict:
        """``/metrics`` as JSON: ``{"v": 1, "metrics": {family: [samples]}}``."""
        self._set_live_gauges()
        return {"v": PROTOCOL_VERSION, "metrics": self.registry.to_json()}

    def prometheus_payload(self) -> str:
        """``/metrics`` as Prometheus text exposition (served on
        ``Accept: text/plain``): the same families as the JSON form."""
        self._set_live_gauges()
        return self.registry.to_prometheus()

    def _set_live_gauges(self) -> None:
        self.registry.gauge("daemon_inflight").set(self.gate.depth)
        self.registry.gauge("daemon_uptime_seconds").set(round(self.uptime_s(), 3))
        if self.limiter.enabled:
            self.registry.gauge("daemon_rate_limit_clients").set(self.limiter.clients())


# ---------------------------------------------------------------------- #
# HTTP plumbing
# ---------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests through the daemon's middleware and service."""

    daemon: SchedulerDaemon  # bound by SchedulerDaemon via a subclass
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: TCP_NODELAY: otherwise Nagle holds the last segment of a reply
    #: larger than one segment until the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Read deadline (``StreamRequestHandler`` sets it on the socket); a
    #: timed-out read closes the connection without a reply.
    timeout = READ_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        """Structured access log (DEBUG on ``repro.serve.access``).

        Fires from the stdlib's ``log_request`` when a response status
        goes out; silent (one level check) unless logging was configured
        at DEBUG, so the production default still writes nothing.
        """
        if not _ACCESS_LOG.isEnabledFor(logging.DEBUG):
            return
        started = getattr(self, "_started", None)
        _ACCESS_LOG.debug(
            format % args if args else format,
            extra={
                "method": getattr(self, "command", None),
                "path": getattr(self, "path", None),
                "status": getattr(self, "_status", None),
                "duration_ms": (
                    round(1e3 * (time.perf_counter() - started), 3)
                    if started is not None
                    else None
                ),
            },
        )

    def _begin_request(self) -> str:
        """Assign the request's correlation ID and start its clock."""
        self._started = time.perf_counter()
        rid = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        self._request_id = rid
        return rid

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        with bind_request_id(self._begin_request()):
            if self.path == "/healthz":
                self._send_json(200, self.daemon.healthz_payload())
            elif self.path == "/metrics":
                accept = self.headers.get("Accept", "")
                if "text/plain" in accept:
                    self._send_text(200, self.daemon.prometheus_payload())
                else:
                    self._send_json(200, self.daemon.metrics_payload())
            else:
                self._send_error_body(
                    404, "not_found", f"no such endpoint: {self.path}"
                )

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        rid = self._begin_request()
        endpoint = self.path
        if endpoint not in _POST_ROUTES:
            with bind_request_id(rid):
                self._send_error_body(404, "not_found", f"no such endpoint: {endpoint}")
            return
        daemon = self.daemon
        client = self.headers.get("X-Client-Id") or self.client_address[0]
        started = self._started
        # The request ID doubles as the trace ID, so every span a request
        # opens — here or on a service thread — and every log record it
        # emits carry the same correlation ID.
        with bind_request_id(rid), get_tracer().span(
            "daemon.request", trace_id=rid, endpoint=endpoint, client=client
        ) as span:
            try:
                payload = self._read_json()
                if daemon.draining:
                    raise AdmissionRejected("daemon is draining", retry_after_s=None)
                daemon.limiter.admit(client)
                with daemon.gate.admit():
                    if endpoint == "/v1/schedule":
                        body, outcome = self._handle_schedule(payload)
                    elif endpoint == "/v1/batch":
                        body, outcome = self._handle_batch(payload)
                    else:
                        body, outcome = self._handle_compare(payload)
                latency_ms = 1e3 * (time.perf_counter() - started)
                daemon.metrics.observe(
                    endpoint,
                    outcome,
                    getattr(daemon.service.backend, "name", "unknown"),
                    latency_ms,
                )
                span.set(outcome=outcome)
                if outcome == "timeout" and endpoint == "/v1/schedule":
                    # The single-request endpoint surfaces its deadline as a
                    # typed 504; batch/compare report per item instead.
                    raise RequestTimeout(
                        f"request missed its deadline after {latency_ms / 1e3:.3f}s"
                    )
                self._send_json(200, body)
            except ServeError as exc:
                daemon.metrics.reject(endpoint, exc.code)
                span.set(outcome=exc.code)
                self._send_serve_error(exc)
            except TimeoutError:
                # A stalled read: the stdlib handler drops the connection.
                span.set(outcome="read_timeout")
                raise
            except Exception as exc:  # pragma: no cover - defensive catch-all
                daemon.metrics.reject(endpoint, "internal_error")
                span.set(outcome="internal_error")
                self._send_error_body(
                    500, "internal_error", f"{type(exc).__name__}: {exc}"
                )

    # ------------------------------------------------------------------ #
    def _handle_schedule(self, payload: object) -> tuple[dict, str]:
        request = request_from_wire(payload)
        response = self.daemon.service.submit(
            request, timeout=self.daemon.default_timeout
        )
        return response_to_wire(response), response.status

    def _requests_from_batch(self, payload: object, endpoint: str) -> list[Request]:
        if not isinstance(payload, dict):
            raise InvalidRequest(f"{endpoint} body must be a JSON object")
        version = payload.get("v")
        if version != PROTOCOL_VERSION:
            raise InvalidRequest(
                f"unsupported protocol version {version!r} "
                f"(this server speaks v{PROTOCOL_VERSION})"
            )
        unknown = set(payload) - {"v", "requests"}
        if unknown:
            raise InvalidRequest(f"unknown {endpoint} fields: {sorted(unknown)}")
        items = payload.get("requests")
        if not isinstance(items, list) or not items:
            raise InvalidRequest(f"{endpoint} needs a non-empty 'requests' list")
        if len(items) > MAX_BATCH_REQUESTS:
            raise InvalidRequest(
                f"{endpoint} accepts at most {MAX_BATCH_REQUESTS} requests per call"
            )
        return [request_from_wire(item) for item in items]

    def _handle_batch(self, payload: object) -> tuple[dict, str]:
        requests = self._requests_from_batch(payload, "/v1/batch")
        responses = self.daemon.service.submit_many(
            requests, timeout=self.daemon.default_timeout
        )
        outcome = "ok" if all(r.ok for r in responses) else "timeout"
        return (
            {
                "v": PROTOCOL_VERSION,
                "count": len(responses),
                "responses": [response_to_wire(response) for response in responses],
            },
            outcome,
        )

    def _handle_compare(self, payload: object) -> tuple[dict, str]:
        requests = self._requests_from_batch(payload, "/v1/compare")
        for index, request in enumerate(requests):
            if request.conventional:
                raise InvalidRequest(
                    f"compare request {index} must not set 'conventional': "
                    "the endpoint schedules both sides itself"
                )
        responses = self.daemon.service.submit_many(
            (pair for request in requests for pair in request.paired()),
            timeout=self.daemon.default_timeout,
        )
        outcome = "ok" if all(r.ok for r in responses) else "timeout"
        pairs = [
            [response_to_wire(responses[2 * i]), response_to_wire(responses[2 * i + 1])]
            for i in range(len(requests))
        ]
        return {"v": PROTOCOL_VERSION, "count": len(pairs), "pairs": pairs}, outcome

    # ------------------------------------------------------------------ #
    def _read_json(self) -> object:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise InvalidRequest("POST requires a Content-Length header")
        try:
            length = int(length_header)
        except ValueError:
            raise InvalidRequest("Content-Length must be an integer") from None
        if length <= 0:
            raise InvalidRequest("POST requires a non-empty JSON body")
        if length > MAX_BODY_BYTES:
            raise InvalidRequest(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidRequest(f"request body is not valid JSON: {exc}") from exc

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json", headers
        )

    def _send_text(self, status: int, text: str) -> None:
        self._send_body(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Status line, headers and body in one write (what end_headers()
        # would flush, plus the body): on a keep-alive connection a
        # separate body write waits for the client's delayed ACK.
        head = getattr(self, "_headers_buffer", [])  # none on HTTP/0.9
        if head:
            head.append(b"\r\n")
        self.wfile.write(b"".join(head) + body)
        self._headers_buffer = []

    def _send_serve_error(self, exc: ServeError) -> None:
        headers = {}
        if exc.retry_after_s is not None:
            headers["Retry-After"] = f"{max(exc.retry_after_s, 0.01):g}"
        body = {
            "v": PROTOCOL_VERSION,
            "error": {"code": exc.code, "message": str(exc)},
        }
        if exc.retry_after_s is not None:
            body["retry_after_s"] = exc.retry_after_s
        self._send_json(exc.http_status, body, headers)

    def _send_error_body(self, status: int, code: str, message: str) -> None:
        self._send_json(
            status,
            {"v": PROTOCOL_VERSION, "error": {"code": code, "message": message}},
        )


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
#: Wire error code -> typed exception, for re-raising on the client side.
_ERROR_CLASSES: dict[str, type[ServeError]] = {
    cls.code: cls
    for cls in (InvalidRequest, AdmissionRejected, RateLimited, RequestTimeout)
}


class DaemonClient:
    """Minimal stdlib HTTP client of the daemon (used by the CLI and tests).

    Raises the same typed :class:`~repro.serve.errors.ServeError`
    subclasses the daemon mapped onto the wire, so a CLI (or test) client
    sees ``AdmissionRejected`` where an in-process caller would — one
    error surface on both sides of the socket.  One connection per call:
    boring, thread-safe, and immune to half-closed keep-alive sockets.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8537,
        timeout: float = 120.0,
        client_id: str | None = None,
        request_id: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        #: Sent as ``X-Request-Id`` on every call when set; the daemon
        #: otherwise assigns one.  Either way the ID the daemon used
        #: comes back in :attr:`last_request_id` after each call.
        self.request_id = request_id
        self.last_request_id: str | None = None

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    def schedule(self, request: Request | dict) -> dict:
        """POST one request; the decoded response body (or a typed raise)."""
        payload = request_to_wire(request) if isinstance(request, Request) else request
        return self._call("POST", "/v1/schedule", payload)

    def batch(self, requests: list[Request | dict]) -> dict:
        return self._call("POST", "/v1/batch", self._fanout_payload(requests))

    def compare(self, requests: list[Request | dict]) -> dict:
        return self._call("POST", "/v1/compare", self._fanout_payload(requests))

    @staticmethod
    def _fanout_payload(requests: list[Request | dict]) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "requests": [
                request_to_wire(request) if isinstance(request, Request) else request
                for request in requests
            ],
        }

    # ------------------------------------------------------------------ #
    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"}
            if self.client_id:
                headers["X-Client-Id"] = self.client_id
            if self.request_id:
                headers["X-Request-Id"] = self.request_id
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            connection.request(method, path, body=body, headers=headers)
            http_response = connection.getresponse()
            self.last_request_id = http_response.getheader("X-Request-Id")
            raw = http_response.read()
            try:
                decoded = json.loads(raw) if raw else {}
            except json.JSONDecodeError as exc:
                raise ServeError(
                    f"daemon returned non-JSON body (HTTP {http_response.status})"
                ) from exc
            if http_response.status >= 400:
                error = decoded.get("error", {}) if isinstance(decoded, dict) else {}
                code = error.get("code", "serve_error")
                message = error.get("message", f"HTTP {http_response.status}")
                retry_after = (
                    decoded.get("retry_after_s") if isinstance(decoded, dict) else None
                )
                exc_class = _ERROR_CLASSES.get(code, ServeError)
                raise exc_class(message, retry_after_s=retry_after)
            return decoded
        finally:
            connection.close()
