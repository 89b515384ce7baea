"""Cross-layer tests of the observability pillars.

Exercises what the unit tests cannot: span context shipped across the
design-space explorer's *process* pool and re-parented on return,
the daemon's X-Request-Id round trip (response header, trace identity,
JSON log records), the >= 3-level span hierarchy one HTTP schedule call
produces, and the ``/metrics`` endpoint reading everything from the one
unified registry — same counter values through the legacy JSON shape and
the Prometheus text exposition.
"""

import io
import json
import logging
import time
from http.client import HTTPConnection

import pytest

from repro.core.design_space import DesignPoint, DesignSpaceExplorer
from repro.obs.logs import configure_logging
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.serve import DaemonClient, SchedulerDaemon, SchedulingService
from repro.serve.protocol import request_from_wire

GEMMS = [[64, 576, 3136, "conv_a"]]
WIRE_CONFIG = {"rows": 128, "cols": 128, "depths": [1, 2, 4]}


def wire_request(**overrides):
    payload = {"v": 1, "model": GEMMS, "config": dict(WIRE_CONFIG)}
    payload.update(overrides)
    return payload


@pytest.fixture()
def tracer():
    """A fresh enabled tracer installed as the process global."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@pytest.fixture()
def log_stream():
    """JSON-lines logging at DEBUG into a buffer (restored afterwards)."""
    stream = io.StringIO()
    logger = configure_logging(level="DEBUG", json_lines=True, stream=stream)
    try:
        yield stream
    finally:
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True


@pytest.fixture()
def daemon():
    daemon = SchedulerDaemon(port=0, max_inflight=32)
    daemon.start()
    try:
        yield daemon
    finally:
        assert daemon.drain(timeout=30)


def _span_depth(span, by_id):
    depth = 1
    while span.parent_id is not None and span.parent_id in by_id:
        span = by_id[span.parent_id]
        depth += 1
    return depth


def _wait_for_span(tracer, trace_id, name="daemon.request", timeout=5.0):
    """Poll until the handler thread has recorded ``name`` for ``trace_id``.

    The daemon sends the response body from inside the ``daemon.request``
    span, so a client can return before the server thread exits the span's
    ``with`` block and records it.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = [s for s in tracer.spans() if s.trace_id == trace_id]
        if any(s.name == name for s in spans):
            return spans
        time.sleep(0.005)
    raise AssertionError(f"span {name!r} for trace {trace_id!r} never recorded")


# ---------------------------------------------------------------------- #
# Span propagation across the explorer's process pool and the service's
# thread pool
# ---------------------------------------------------------------------- #
def test_parallel_explore_spans_reparent_under_the_sweep(tracer):
    points = [
        DesignPoint(rows=size, cols=size, supported_depths=(1, 2, 4))
        for size in (32, 64, 128)
    ]
    traced = DesignSpaceExplorer(["mobilenet_v1"], max_workers=2).explore(points)
    set_tracer(Tracer(enabled=False))
    try:
        untraced = DesignSpaceExplorer(["mobilenet_v1"], max_workers=2).explore(points)
    finally:
        set_tracer(tracer)
    assert traced == untraced

    spans = tracer.spans()
    [sweep] = [span for span in spans if span.name == "explorer.explore"]
    suites = [span for span in spans if span.name == "backend.suite_totals"]
    assert len(suites) == len(points)
    assert all(span.pid != sweep.pid for span in suites), "scored in pool workers"
    assert {span.parent_id for span in suites} == {sweep.span_id}
    assert {span.trace_id for span in suites} == {sweep.trace_id}


def test_thread_pool_spans_nest_under_the_request(tracer):
    with SchedulingService(max_workers=2) as service:
        with tracer.span("daemon.request", trace_id="req-thread"):
            assert service.submit(request_from_wire(wire_request())).ok
    spans = [span for span in tracer.spans() if span.trace_id == "req-thread"]
    by_id = {span.span_id: span for span in spans}
    assert max(_span_depth(span, by_id) for span in spans) >= 3


# ---------------------------------------------------------------------- #
# X-Request-Id through the HTTP daemon
# ---------------------------------------------------------------------- #
def test_request_id_round_trip_into_logs_and_spans(tracer, log_stream, daemon):
    client = DaemonClient(port=daemon.address[1], request_id="req-e2e-77")
    assert client.schedule(wire_request())["status"] == "ok"
    assert client.last_request_id == "req-e2e-77"

    # The request ID is the trace identity of every span the call opened.
    spans = _wait_for_span(tracer, "req-e2e-77")
    names = {span.name for span in spans}
    assert "daemon.request" in names and "backend.schedule_model" in names
    by_id = {span.span_id: span for span in spans}
    assert max(_span_depth(span, by_id) for span in spans) >= 3

    # ... and the correlation ID of the structured access-log records.
    records = [json.loads(line) for line in log_stream.getvalue().splitlines()]
    access = [r for r in records if r["logger"] == "repro.serve.access"]
    assert access, "DEBUG logging must produce access-log records"
    (record,) = [r for r in access if r.get("path") == "/v1/schedule"]
    assert record["request_id"] == "req-e2e-77"
    assert record["method"] == "POST"
    assert record["status"] == 200
    assert record["duration_ms"] > 0


def test_daemon_assigns_request_id_when_absent(daemon):
    client = DaemonClient(port=daemon.address[1])
    client.healthz()
    first = client.last_request_id
    client.healthz()
    assert first and client.last_request_id and first != client.last_request_id


def test_chrome_export_of_a_daemon_request(tracer, daemon, tmp_path):
    client = DaemonClient(port=daemon.address[1], request_id="req-chrome")
    assert client.schedule(wire_request())["status"] == "ok"
    _wait_for_span(tracer, "req-chrome")
    path = tmp_path / "trace.json"
    count = tracer.export_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert count == len(events) >= 3
    request_events = [
        e for e in events if e["args"].get("trace_id") == "req-chrome"
    ]
    parents = {e["args"].get("parent_id") for e in request_events}
    ids = {e["args"]["span_id"] for e in request_events}
    assert (parents - {None}) <= ids, "exported hierarchy must be self-contained"


# ---------------------------------------------------------------------- #
# /metrics: one registry behind both representations
# ---------------------------------------------------------------------- #
def test_metrics_json_and_prometheus_read_the_same_registry():
    daemon = SchedulerDaemon(port=0, max_inflight=32)
    daemon.start()
    try:
        client = DaemonClient(port=daemon.address[1])
        assert client.schedule(wire_request())["status"] == "ok"
        assert client.schedule(wire_request())["status"] == "ok"

        payload = client.metrics()
        # Legacy JSON fields, rebuilt from the unified registry.
        assert payload["daemon"]["requests"] == {"/v1/schedule": 2}
        assert payload["daemon"]["outcomes"] == {"/v1/schedule:ok": 2}
        assert payload["service"]["requests"] == 2
        assert payload["service"]["deduplicated"] == 1
        histogram = payload["daemon"]["latency_ms_by_backend"]["batched"]
        assert histogram["count"] == 2
        assert histogram["buckets_le_ms"]["+Inf"] == 2

        # The same numbers through the registry's own reads...
        (requests_ctr,) = daemon.registry.family("daemon_requests_total")
        assert requests_ctr.value == 2
        (service_ctr,) = daemon.registry.family("service_requests_total")
        assert service_ctr.value == 2
        (dedup_ctr,) = daemon.registry.family("service_deduplicated_total")
        assert dedup_ctr.value == 1
        (misses_ctr,) = daemon.registry.family("backend_cache_misses_total")
        assert misses_ctr.value == payload["service"]["misses"]

        # ... and through the Prometheus text exposition.
        connection = HTTPConnection(*daemon.address)
        connection.request("GET", "/metrics", headers={"Accept": "text/plain"})
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        text = response.read().decode()
        connection.close()
        assert 'daemon_requests_total{endpoint="/v1/schedule"} 2' in text
        assert "service_requests_total 2" in text
        assert "service_deduplicated_total 1" in text
        assert 'daemon_latency_ms_count{backend="batched"} 2' in text
        assert 'backend_cache_misses_total{backend="batched"}' in text

        # Content negotiation: the default stays JSON.
        assert client.metrics()["v"] == payload["v"]
    finally:
        assert daemon.drain(timeout=30)
