"""Daemon middleware: the things a network service needs that a library
doesn't.

Three small, independently testable pieces sit between the HTTP layer
and :class:`~repro.serve.service.SchedulingService`:

* :class:`AdmissionGate` — a bounded admission queue.  At most ``limit``
  requests may be *in flight* (admitted and not yet answered) at once;
  request ``limit + 1`` is shed immediately with
  :class:`~repro.serve.errors.AdmissionRejected` (HTTP 429 +
  ``Retry-After``) instead of queueing without bound.  Shedding beats
  queueing under saturation: a client that waits 30 s for a 200 has
  usually given up anyway, while an instant 429 lets it back off and
  retry into capacity.
* :class:`TokenBucket` — per-client rate limiting.  Each client id (the
  ``X-Client-Id`` header, falling back to the peer address) owns a
  bucket of ``burst`` tokens refilled at ``rate`` tokens/second; a
  request with an empty bucket is refused with
  :class:`~repro.serve.errors.RateLimited` carrying the *exact* seconds
  until a whole token exists again.
* :class:`DaemonMetrics` — the ``/metrics`` counters: per-endpoint
  request/outcome counts, rejection counts, and per-backend latency
  histograms over log-spaced buckets (fixed bucket edges keep the
  histogram mergeable across scrapes — no quantile state to decay).
  They are :class:`repro.obs.MetricsRegistry` instruments, so the daemon
  merges them with the service's through one registry.

Everything takes an injectable clock so the tests never sleep to move
time forward.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable

from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry
from repro.serve.errors import AdmissionRejected, InvalidRequest, RateLimited

__all__ = [
    "AdmissionGate",
    "DaemonMetrics",
    "TokenBucket",
]

#: Bucket count below which :class:`TokenBucket` runs no sweep.
_SWEEP_MIN = 256


class AdmissionGate:
    """Bounded admission queue with queue-depth backpressure.

    ``enter()`` admits or raises :class:`AdmissionRejected`; ``leave()``
    releases the slot (use :meth:`admit` as a context manager so a
    handler that raises still releases).  ``retry_after_s`` is the hint
    attached to rejections — an estimate of when a slot will free up, not
    a promise.
    """

    def __init__(self, limit: int, retry_after_s: float = 1.0) -> None:
        if limit < 1:
            raise InvalidRequest("admission limit must be at least 1")
        self.limit = limit
        self.retry_after_s = retry_after_s
        self._depth = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    @property
    def depth(self) -> int:
        """Requests currently admitted and not yet answered."""
        with self._lock:
            return self._depth

    def enter(self) -> None:
        with self._lock:
            if self._depth >= self.limit:
                raise AdmissionRejected(
                    f"admission queue is full ({self._depth}/{self.limit} in flight)",
                    retry_after_s=self.retry_after_s,
                )
            self._depth += 1

    def leave(self) -> None:
        with self._lock:
            self._depth = max(0, self._depth - 1)
            if self._depth == 0:
                self._idle.notify_all()

    def admit(self) -> "_Admission":
        """Context manager: ``enter()`` on entry, ``leave()`` on exit."""
        return _Admission(self)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is in flight (the drain barrier)."""
        with self._lock:
            return self._idle.wait_for(lambda: self._depth == 0, timeout=timeout)


class _Admission:
    def __init__(self, gate: AdmissionGate) -> None:
        self._gate = gate

    def __enter__(self) -> AdmissionGate:
        self._gate.enter()
        return self._gate

    def __exit__(self, *exc_info: object) -> None:
        self._gate.leave()


class TokenBucket:
    """Per-client token buckets: ``rate`` tokens/second, ``burst`` deep.

    A disabled limiter (``rate=None``) admits everything — the daemon
    default, so a single-user deployment needs no configuration.  Client
    ids are whatever the caller keys on (the daemon uses the
    ``X-Client-Id`` header, falling back to the peer host).  Buckets are
    created full, so a new client can burst immediately — and a bucket
    that has refilled to ``burst`` is the same as none.  Such buckets are
    dropped in a sweep that runs once the bucket count passes twice what
    the last sweep kept (and :data:`_SWEEP_MIN`).  A stream of distinct
    ids then costs amortised O(1) per request, and the limiter holds about
    twice the buckets partly spent at the last sweep, not one per id ever
    seen.
    """

    def __init__(
        self,
        rate: float | None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # Written so that NaN fails too: a NaN or infinite bucket admits everything.
        if rate is not None and not 0 < rate < math.inf:
            raise InvalidRequest("rate limit must be finite and positive (or None to disable)")
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate is not None else 0.0)
        if rate is not None and not 1 <= self.burst < math.inf:
            raise InvalidRequest("rate-limit burst must be finite and allow at least one request")
        self._clock = clock
        self._lock = threading.Lock()
        #: client id -> (tokens, last refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}
        #: Bucket count at which the next sweep of refilled buckets runs.
        self._sweep_at = _SWEEP_MIN

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def admit(self, client: str) -> None:
        """Spend one token of ``client``'s bucket or raise :class:`RateLimited`."""
        if self.rate is None:
            return
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - stamp) * self.rate)
            if tokens < 1.0:
                self._buckets[client] = (tokens, now)
                raise RateLimited(
                    f"client {client!r} exceeded {self.rate:g} requests/s "
                    f"(burst {self.burst:g})",
                    retry_after_s=math.ceil(100 * (1.0 - tokens) / self.rate) / 100,
                )
            self._buckets[client] = (tokens - 1.0, now)
            if len(self._buckets) > self._sweep_at:
                self._sweep_locked(now)

    def _sweep_locked(self, now: float) -> None:
        """Drop every bucket that has refilled to ``burst`` by ``now``."""
        self._buckets = {
            client: (tokens, stamp)
            for client, (tokens, stamp) in self._buckets.items()
            if tokens + (now - stamp) * self.rate < self.burst
        }
        self._sweep_at = max(_SWEEP_MIN, 2 * len(self._buckets))

    def clients(self) -> int:
        """Buckets held: every client whose bucket is partly spent, plus
        refilled ones the next sweep drops."""
        with self._lock:
            return len(self._buckets)


def _histogram_snapshot(histogram: Histogram) -> dict:
    """The daemon's historical histogram read shape, from an instrument."""
    cumulative = {
        ("+Inf" if edge == "+Inf" else f"{edge:g}"): count
        for edge, count in histogram.cumulative().items()
    }
    total = histogram.count
    sum_ms = histogram.sum
    return {
        "count": total,
        "sum_ms": round(sum_ms, 4),
        "mean_ms": round(sum_ms / total, 4) if total else 0.0,
        "buckets_le_ms": cumulative,
    }


class DaemonMetrics:
    """The /metrics counters: requests, rejections, latency histograms.

    ``observe(endpoint, outcome, backend, latency_ms)`` records one
    answered request; rejections (shed before any backend work) are
    recorded by ``reject(endpoint, code)``.  ``snapshot()`` returns one
    JSON-ready dict; the daemon merges it with the service's serving and
    decision-cache counters.

    Every count lives on :attr:`registry` (one
    :class:`repro.obs.MetricsRegistry`, injectable so the daemon can
    attach it to its root): ``daemon_requests_total{endpoint}``,
    ``daemon_outcomes_total{endpoint,outcome}``,
    ``daemon_rejections_total{endpoint,code}`` and the per-backend
    ``daemon_latency_ms{backend}`` histograms.  ``snapshot()`` rebuilds
    the historical JSON shape from those instruments, bit-identically.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def observe(
        self, endpoint: str, outcome: str, backend: str, latency_ms: float
    ) -> None:
        self.registry.counter("daemon_requests_total", endpoint=endpoint).inc()
        self.registry.counter(
            "daemon_outcomes_total", endpoint=endpoint, outcome=outcome
        ).inc()
        self.registry.histogram(
            "daemon_latency_ms", buckets=DEFAULT_BUCKETS_MS, backend=backend
        ).observe(latency_ms)

    def reject(self, endpoint: str, code: str) -> None:
        self.registry.counter(
            "daemon_rejections_total", endpoint=endpoint, code=code
        ).inc()

    def snapshot(self) -> dict:
        requests = {
            inst.labels["endpoint"]: inst.value
            for inst in self.registry.family("daemon_requests_total")
        }
        outcomes = {
            f"{inst.labels['endpoint']}:{inst.labels['outcome']}": inst.value
            for inst in self.registry.family("daemon_outcomes_total")
        }
        rejections = {
            f"{inst.labels['endpoint']}:{inst.labels['code']}": inst.value
            for inst in self.registry.family("daemon_rejections_total")
        }
        histograms = {
            inst.labels["backend"]: _histogram_snapshot(inst)
            for inst in self.registry.family("daemon_latency_ms")
        }
        return {
            "requests": dict(sorted(requests.items())),
            "outcomes": dict(sorted(outcomes.items())),
            "rejections": dict(sorted(rejections.items())),
            "latency_ms_by_backend": dict(sorted(histograms.items())),
        }
