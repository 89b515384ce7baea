"""Unit tests of the observability layer (`repro.obs`).

Covers the three pillars in isolation: hierarchical spans and their
Chrome-trace export, the get-or-create metrics registry and its
Prometheus text exposition, and the JSON-lines logging configuration
with request-ID correlation.  Cross-layer behaviour (spans through the
daemon and process pools, /metrics bit-identity) lives in
``test_obs_integration.py``.
"""

import io
import json
import logging
import pickle

import pytest

from repro.obs.logs import (
    JsonFormatter,
    bind_request_id,
    configure_logging,
    current_request_id,
)
from repro.obs.metrics import DEFAULT_BUCKETS_MS, MetricsRegistry
from repro.obs.trace import (
    SpanContext,
    Tracer,
    call_with_context,
    get_tracer,
    set_tracer,
)


@pytest.fixture()
def tracer():
    """A fresh enabled tracer installed as the process global."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", answer=42) as span:
            span.set(more=True)
            assert span.context() is None
        assert tracer.spans() == []
        assert tracer.current_context() is None

    def test_disabled_span_is_shared(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")  # no per-call allocation

    def test_nesting_links_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert outer.duration_us >= inner.duration_us >= 1

    def test_siblings_share_parent_not_each_other(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id
        assert second.parent_id != first.span_id

    def test_trace_id_argument_pins_a_new_trace(self, tracer):
        with tracer.span("request", trace_id="req-1") as request:
            with tracer.span("child") as child:
                pass
        assert request.trace_id == "req-1"
        assert request.parent_id is None  # ambient trace (none) did not match
        assert child.trace_id == "req-1"
        assert child.parent_id == request.span_id

    def test_exception_marks_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attributes["error"] == "ValueError"

    def test_attributes_and_set(self, tracer):
        with tracer.span("work", layers=3) as span:
            span.set(outcome="ok")
        assert span.attributes == {"layers": 3, "outcome": "ok"}

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for index in range(4):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_drain_empties_the_buffer(self, tracer):
        with tracer.span("work"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.spans() == []

    def test_chrome_trace_export(self, tracer, tmp_path):
        with tracer.span("outer"):
            with tracer.span("inner", tile=7):
                pass
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(path) == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert inner["args"]["tile"] == 7
        assert inner["dur"] >= 1 and inner["ts"] > 0

    def test_call_with_context_reparents_worker_spans(self, tracer):
        def work():
            with get_tracer().span("worker.step"):
                pass
            return "done"

        with tracer.span("request", trace_id="req-7") as request:
            context = tracer.current_context()
            assert context == SpanContext("req-7", request.span_id)
            result, spans = call_with_context(context, work)
        assert result == "done"
        (worker_span,) = spans
        assert worker_span.trace_id == "req-7"
        assert worker_span.parent_id == context.span_id
        # The worker's local tracer must not have leaked into the global.
        assert get_tracer() is tracer

    def test_call_with_context_ids_do_not_collide(self, tracer):
        def work():
            with get_tracer().span("worker.step"):
                pass

        with tracer.span("request") as request:
            _, spans = call_with_context(request.context(), work)
        tracer.extend(spans)
        ids = [span.span_id for span in tracer.spans()]
        assert len(ids) == len(set(ids))

    def test_span_is_picklable(self, tracer):
        with tracer.span("work", layers=2) as span:
            pass
        clone = pickle.loads(pickle.dumps(span))
        assert clone.name == "work" and clone.attributes == {"layers": 2}


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", endpoint="/a")
        counter.inc()
        counter.inc(2)
        assert registry.counter("requests_total", endpoint="/a") is counter
        assert counter.value == 3

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", backend="batched")
        b = registry.counter("hits", backend="sampled")
        a.inc()
        assert b.value == 0
        assert len(registry.family("hits")) == 2

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.set(4)
        gauge.add(-1)
        assert gauge.value == 3

    def test_histogram_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 5000):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5055.5)
        assert histogram.cumulative() == {1: 1, 10: 2, 100: 3, "+Inf": 4}

    def test_histogram_default_buckets(self):
        registry = MetricsRegistry()
        assert registry.histogram("latency_ms").buckets == DEFAULT_BUCKETS_MS

    def test_attach_merges_reads_not_writes(self):
        root, child = MetricsRegistry(), MetricsRegistry()
        root.attach(child)
        child.counter("store_merges_total").inc(5)
        (merges,) = root.family("store_merges_total")
        assert merges.value == 5
        assert root.counter("store_merges_total") is not merges  # own namespace

    def test_to_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", endpoint="/v1/schedule").inc(7)
        registry.histogram("latency_ms", buckets=(1, 10)).observe(3.0)
        text = registry.to_prometheus()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{endpoint="/v1/schedule"} 7' in text
        assert '# TYPE latency_ms histogram' in text
        assert 'latency_ms_bucket{le="1"} 0' in text
        assert 'latency_ms_bucket{le="10"} 1' in text
        assert 'latency_ms_bucket{le="+Inf"} 1' in text
        assert 'latency_ms_sum 3' in text
        assert 'latency_ms_count 1' in text

    def test_to_json_groups_families_like_prometheus(self):
        root, child = MetricsRegistry(), MetricsRegistry()
        root.attach(child)
        root.counter("requests_total", endpoint="/v1/schedule").inc(7)
        child.counter("requests_total", endpoint="/v1/batch").inc(2)
        root.gauge("inflight").set(3)
        root.histogram("latency_ms", buckets=(1, 10)).observe(3.0)
        families = root.to_json()
        assert families == {
            "inflight": [{"labels": {}, "value": 3}],
            "latency_ms": [
                {"labels": {}, "buckets": {"1": 0, "10": 1, "+Inf": 1}, "sum": 3.0, "count": 1}
            ],
            "requests_total": [
                {"labels": {"endpoint": "/v1/schedule"}, "value": 7},
                {"labels": {"endpoint": "/v1/batch"}, "value": 2},
            ],
        }
        assert list(families) == [
            line.split()[2] for line in root.to_prometheus().splitlines() if line.startswith("# TYPE")
        ]
        json.dumps(families)  # JSON-ready as it stands


# ---------------------------------------------------------------------- #
# Logging
# ---------------------------------------------------------------------- #
@pytest.fixture()
def repro_logger():
    """Configured 'repro' logger writing JSON lines to a buffer."""
    stream = io.StringIO()
    logger = configure_logging(level="DEBUG", json_lines=True, stream=stream)
    try:
        yield logger, stream
    finally:
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True


class TestLogs:
    def test_json_lines_carry_request_id(self, repro_logger):
        logger, stream = repro_logger
        with bind_request_id("req-42"):
            assert current_request_id() == "req-42"
            logging.getLogger("repro.test").info("hello", extra={"layers": 3})
        assert current_request_id() is None
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["message"] == "hello"
        assert record["request_id"] == "req-42"
        assert record["layers"] == 3
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"

    def test_configure_logging_is_idempotent(self, repro_logger):
        logger, _ = repro_logger
        configure_logging(level="DEBUG", json_lines=True, stream=io.StringIO())
        configure_logging(json_lines=False, stream=io.StringIO())
        assert len(logger.handlers) == 1

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_non_serialisable_extra_falls_back_to_repr(self):
        formatter = JsonFormatter()
        record = logging.LogRecord("repro.x", logging.INFO, "f.py", 1, "msg", (), None)
        record.payload = object()
        parsed = json.loads(formatter.format(record))  # fallback: repr everything
        assert "object object" in parsed["payload"]
