"""Hierarchical tracing with a no-op fast path and Chrome-trace export.

One process-local :class:`Tracer` owns every span of a process.  Spans
are context-managed and nest through a :mod:`contextvars` variable, so
the hierarchy follows the logical flow of a request — including across
the thread pool of :class:`~repro.serve.service.SchedulingService`
(``contextvars`` propagate automatically through
``contextvars.copy_context``) and across the process pool of
:class:`~repro.core.design_space.DesignSpaceExplorer`, where a
picklable :class:`SpanContext` ships with the task and the worker's
spans come back in the result for re-parenting (see
:func:`call_with_context`).

The disabled path is the default and must cost (almost) nothing: every
instrumentation site calls ``tracer.span(...)`` which, when disabled,
returns one shared pre-built null span whose ``__enter__``/``__exit__``
do nothing and whose attribute hooks are no-ops.  The overhead budget is
pinned by ``benchmarks/test_bench_obs.py``.

Export is Chrome trace-event JSON (the ``traceEvents`` array of ``"X"``
complete events), directly loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "call_with_context",
    "configure_tracing",
    "get_tracer",
    "set_tracer",
]

#: The ambient span of the current logical context: ``(trace_id,
#: span_id)`` of the innermost open span, or ``None`` at top level.
#: A ``ContextVar`` (not a thread-local) so thread-pool tasks submitted
#: through ``contextvars.copy_context`` inherit their submitter's span.
_CURRENT: ContextVar[tuple[str, int] | None] = ContextVar("repro_obs_span", default=None)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span, for cross-process propagation.

    Ship one of these with a process-pool task; the worker opens its
    spans under it (see :func:`call_with_context`) and the returned
    spans slot under the submitting span when merged back.
    """

    trace_id: str
    span_id: int


@dataclass
class Span:
    """One finished-or-open span.  Plain data; picklable by design."""

    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start_us: int
    duration_us: int = 0
    pid: int = 0
    tid: int = 0
    attributes: dict = field(default_factory=dict)

    def set(self, **attributes) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def context(self) -> SpanContext:
        """This span's picklable identity (for process-pool tasks)."""
        return SpanContext(self.trace_id, self.span_id)


class _ActiveSpan:
    """Context manager recording one span on a tracer."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._token = _CURRENT.set((self._span.trace_id, self._span.span_id))
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._t0
        self._span.duration_us = max(int(elapsed * 1e6), 1)
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
        self._tracer._record(self._span)


class _NullSpan:
    """The disabled path: one shared span-shaped object that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, **attributes) -> "_NullSpan":
        return self

    def context(self) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Process-local span recorder with a no-op fast path when disabled.

    ``span()`` is the single instrumentation entry point; finished spans
    accumulate until :meth:`drain` or an export.  The tracer never grows
    without bound: ``max_spans`` caps the buffer (oldest kept — the
    request that enabled tracing usually wants its *own* head, and a cap
    hit is recorded in :attr:`dropped`).
    """

    def __init__(self, enabled: bool = False, max_spans: int = 100_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        # Span ids count up from a random 30-bit prefix, so the ids of
        # spans recorded by a pool worker's local tracer cannot collide
        # with the submitting process's when merged via :meth:`extend`.
        self._ids = itertools.count((uuid.uuid4().int & ((1 << 30) - 1)) << 32)

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def span(self, name: str, trace_id: str | None = None, **attributes):
        """Open a span under the ambient parent (context-managed).

        Disabled tracers return a shared no-op span — the fast path is
        one attribute check and no allocation.  ``trace_id`` pins a new
        trace identity (the daemon passes the request ID); otherwise the
        span joins the ambient trace or starts a fresh one.
        """
        if not self.enabled:
            return _NULL
        ambient = _CURRENT.get()
        if trace_id is None:
            if ambient is not None:
                trace_id, parent_id = ambient
            else:
                trace_id, parent_id = _new_trace_id(), None
        else:
            parent_id = ambient[1] if ambient is not None and ambient[0] == trace_id else None
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start_us=time.time_ns() // 1_000,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attributes=dict(attributes),
        )
        return _ActiveSpan(self, span)

    def current_context(self) -> SpanContext | None:
        """The ambient span's picklable identity (None when outside/off)."""
        if not self.enabled:
            return None
        ambient = _CURRENT.get()
        if ambient is None:
            return None
        return SpanContext(*ambient)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def extend(self, spans: list[Span]) -> None:
        """Adopt spans recorded elsewhere (a process-pool worker)."""
        if not spans:
            return
        with self._lock:
            room = self.max_spans - len(self._spans)
            if room < len(spans):
                self.dropped += len(spans) - max(room, 0)
                spans = spans[: max(room, 0)]
            self._spans.extend(spans)

    # -------------------------------------------------------------- #
    # Reading / export
    # -------------------------------------------------------------- #
    def spans(self) -> list[Span]:
        """A snapshot of the recorded spans (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return every recorded span."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def clear(self) -> None:
        with self._lock:
            self._spans = []
            self.dropped = 0

    def chrome_trace(self, spans: list[Span] | None = None) -> dict:
        """The spans as a Chrome trace-event JSON object (Perfetto-viewable)."""
        events = []
        for span in self.spans() if spans is None else spans:
            args = dict(span.attributes)
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path, spans: list[Span] | None = None) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the event count."""
        payload = self.chrome_trace(spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])


def call_with_context(context: SpanContext | None, fn, /, *args, **kwargs):
    """Run ``fn`` in a process-pool worker under a shipped span context.

    Installs a fresh *enabled* tracer as the worker-global tracer for
    the duration of the call (pool workers execute tasks serially, so
    the swap cannot interleave), seeds the ambient span from
    ``context``, and returns ``(result, spans)`` — the submitting side
    re-parents the spans via :meth:`Tracer.extend`.
    """
    local = Tracer(enabled=True)
    previous = set_tracer(local)
    token = _CURRENT.set((context.trace_id, context.span_id) if context else None)
    try:
        result = fn(*args, **kwargs)
    finally:
        _CURRENT.reset(token)
        set_tracer(previous)
    return result, local.drain()


# ------------------------------------------------------------------ #
# The process-global tracer
# ------------------------------------------------------------------ #
_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0", "false"))


def get_tracer() -> Tracer:
    """The process-global tracer every instrumentation site records to."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def configure_tracing(enabled: bool = True, max_spans: int = 100_000) -> Tracer:
    """Enable (or disable) tracing on the process-global tracer."""
    _TRACER.enabled = enabled
    _TRACER.max_spans = max_spans
    return _TRACER
