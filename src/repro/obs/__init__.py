"""The observability layer: tracing, metrics, and structured logging.

Three pillars, all stdlib-only, threaded through every layer of the
stack (daemon → service → backends → engine):

* :mod:`repro.obs.trace` — hierarchical spans with a no-op fast path,
  propagated across thread and process pools, exported as Chrome
  trace-event JSON (Perfetto-viewable; ``python -m repro trace``);
* :mod:`repro.obs.metrics` — one :class:`MetricsRegistry` of counters,
  gauges and log-bucketed histograms that every component's counters
  live on, merged by the daemon into a single ``/metrics`` read (JSON
  or Prometheus text);
* :mod:`repro.obs.logs` — JSON-lines structured logging with
  per-request correlation IDs (``X-Request-Id``).

See ``docs/observability.md`` for the span model and naming rules.
"""

from repro.obs.logs import (
    JsonFormatter,
    RequestIdFilter,
    bind_request_id,
    configure_logging,
    current_request_id,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    call_with_context,
    configure_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    # tracing
    "Span",
    "SpanContext",
    "Tracer",
    "call_with_context",
    "configure_tracing",
    "get_tracer",
    "set_tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # logging
    "JsonFormatter",
    "RequestIdFilter",
    "bind_request_id",
    "configure_logging",
    "current_request_id",
]
