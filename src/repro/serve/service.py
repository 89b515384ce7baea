"""Batch-serving front-end over the execution backends.

:class:`SchedulingService` is the building block for serving scheduling
decisions at scale: it accepts a *stream* of typed
:class:`~repro.serve.protocol.Request` objects, deduplicates them,
batches them through one shared
:class:`~repro.backends.batched.BatchedCachedBackend` and returns typed
:class:`~repro.serve.protocol.Response` objects (or raw
:class:`concurrent.futures.Future` handles via :meth:`submit_future`,
for callers that overlap their own work with collection).

The public API is **one core**: :meth:`SchedulingService.submit` takes a
:class:`Request` and returns a :class:`Response`; everything else —
:meth:`submit_many`, :meth:`compare`, the HTTP daemon
(:mod:`repro.serve.daemon`) and the CLI ``batch`` command — is a thin
adapter over it, so library callers, the CLI and wire clients all speak
the same typed surface.  A request that can never succeed (an unknown
workload name, a layer the engine cannot count in int64) raises
:class:`~repro.serve.errors.InvalidRequest`.

Identical requests (same workload, same configuration identity per
:meth:`ArrayFlexConfig.cache_key`, which folds in the configured
:mod:`repro.core.activity` model — the same workload priced under
``constant`` and ``utilization`` activity is two distinct computations,
never one shared future) are submitted once and share one future, across
``submit`` calls.  Within one request the backend solves each distinct
GEMM shape once (CNN suites repeat shapes heavily).

The service keeps nothing on disk: recomputing a decision is cheaper
than loading it.  A caller may still hand it a backend that carries a
:class:`~repro.backends.store.DecisionStore`; :meth:`close` then flushes
that store's buffered rows.

Execution fans out over a thread pool that shares one backend; the
NumPy solves and schedule construction run concurrently.
``max_workers`` is auto-sized from :func:`os.cpu_count`.  Large
design-space sweeps fan out over
:class:`~repro.core.design_space.DesignSpaceExplorer`'s own process pool
instead.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Iterable
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from threading import Event, RLock

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer

from repro.backends import ExecutionBackend, ModelTotals, create_backend
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import ModelSchedule, WorkloadArgument
from repro.nn.gemm_mapping import GemmShape
from repro.serve.errors import InvalidRequest
from repro.serve.protocol import Request, Response, coerce_request


#: Bound on the dedup map: completed futures (and their results) beyond
#: this many are dropped oldest-first, so a long-lived service over a
#: stream of distinct requests cannot grow without limit.  An evicted
#: entry only costs a duplicate recomputation on re-encounter.
DEDUP_SIZE = 4096


def default_max_workers() -> int:
    """Thread-count default, auto-sized from the machine's CPU count.

    Threads mostly overlap object construction and (NumPy) solves; the
    stdlib's own heuristic works well here.
    """
    return min(32, (os.cpu_count() or 1) + 4)


def _compute_totals(
    backend: ExecutionBackend,
    gemms: list[GemmShape],
    name: str,
    config: ArrayFlexConfig,
    conventional: bool,
) -> ModelTotals:
    return backend.schedule_model_totals(
        gemms, config, model_name=name, conventional=conventional
    )


class SchedulingService:
    """Deduplicating, batching, response-returning scheduling front-end."""

    def __init__(
        self,
        backend: ExecutionBackend | str | None = None,
        max_workers: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidRequest("max_workers must be at least 1")
        self.backend = create_backend(backend, default="batched")
        self.max_workers = max_workers or default_max_workers()
        # Re-entrant: a future that completes instantly runs its
        # done-callback inline on the submitting thread, inside submit()'s
        # critical section.
        self._lock = RLock()
        self._futures: dict[tuple, Future[ModelSchedule | ModelTotals]] = {}
        #: Issued-handle counts per live future (by id), so a timed-out
        #: waiter never cancels a computation other callers still await.
        #: Entries are dropped by the future's done-callback.
        self._waiters: dict[int, int] = {}
        #: The serving counters; the daemon attaches this registry to its
        #: own, making ``/metrics`` a single merged read.
        self.registry = MetricsRegistry()
        self._ctr_requests = self.registry.counter("service_requests_total")
        self._ctr_submitted = self.registry.counter("service_submitted_total")
        self._ctr_deduplicated = self.registry.counter("service_deduplicated_total")
        self._ctr_timed_out = self.registry.counter("service_timed_out_total")
        #: Set by the first :meth:`close`; makes closing idempotent and
        #: safe from a signal handler (an Event is set without taking any
        #: lock another thread might hold across the interrupted frame).
        self._closed = Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------ #
    # The serving API: one submit(Request) -> Response core
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Request | tuple[WorkloadArgument, ArrayFlexConfig],
        timeout: float | None = None,
    ) -> Response:
        """Schedule one request and block for its typed :class:`Response`.

        The single public core every other entry point adapts over.
        Duplicate requests (across any entry point of this service) share
        one underlying computation.  ``timeout`` (seconds) bounds the
        wait; the request's own ``timeout`` field takes precedence.  A
        missed deadline comes back as a ``status="timeout"`` response —
        call :meth:`Response.unwrap` to raise it as a typed
        :class:`~repro.serve.errors.RequestTimeout` instead.
        """
        return self.submit_many([request], timeout=timeout)[0]

    def submit_many(
        self,
        requests: Iterable[Request | tuple[WorkloadArgument, ArrayFlexConfig]],
        timeout: float | None = None,
    ) -> list[Response]:
        """Submit a stream of requests and block for all responses (in order).

        Every request is submitted before any result is awaited, so a
        batch runs with full thread-pool concurrency regardless of
        collection order.  ``timeout`` bounds the wait per request; a
        request's own ``timeout`` field takes precedence over this
        call-level default.  Requests that miss their deadline come back
        as ``status="timeout"`` responses — the batch never hangs on one
        stuck computation — and their dedup entry is dropped so a retry
        resubmits instead of re-awaiting the stale future.
        """
        requests = [coerce_request(request) for request in requests]
        keyed = [self._submit_keyed(request) for request in requests]
        return [
            self._collect(request, key, future, timeout, deduplicated)
            for request, (key, future, deduplicated) in zip(requests, keyed)
        ]

    def submit_future(
        self, request: Request | tuple[WorkloadArgument, ArrayFlexConfig]
    ) -> Future[ModelSchedule | ModelTotals]:
        """Submit one request without blocking; the raw shared future.

        For callers that overlap their own work with collection.
        Deduplicated requests return the *same* future object.  The
        future resolves to the bare result (not a :class:`Response`);
        deadline bookkeeping (dedup-entry cleanup, timeout accounting) is
        the blocking API's job — ``future.result(timeout=...)`` here is
        plain :mod:`concurrent.futures` behaviour.
        """
        return self._submit_keyed(coerce_request(request))[1]

    def compare(
        self,
        workloads: Iterable[tuple[WorkloadArgument, ArrayFlexConfig]],
        totals_only: bool = False,
        timeout: float | None = None,
    ) -> list[tuple[Response, Response]]:
        """(ArrayFlex, conventional) response pairs, one per workload.

        The comparison front-ends (CLI ``batch``, size sweeps) all need
        both runs of every workload; this
        encodes the submit/pair bookkeeping once so no caller hand-walks
        an interleaved response list.  ``timeout`` bounds the wait per
        request (see :meth:`submit_many`); a timed-out side of a pair is
        a ``status="timeout"`` response.
        """
        workloads = list(workloads)
        responses = self.submit_many(
            (
                request
                for model, config in workloads
                for request in Request(
                    model=model, config=config, totals_only=totals_only
                ).paired()
            ),
            timeout=timeout,
        )
        return [
            (responses[2 * i], responses[2 * i + 1]) for i in range(len(workloads))
        ]

    # ------------------------------------------------------------------ #
    # Submission / collection internals
    # ------------------------------------------------------------------ #
    def _submit_keyed(
        self, request: Request
    ) -> tuple[tuple, Future[ModelSchedule | ModelTotals], bool]:
        """Submit one request; its dedup key, shared future and dedup flag."""
        try:
            gemms, name = request.resolve()
        except ValueError as exc:  # e.g. an unknown workload name
            raise InvalidRequest(str(exc)) from exc
        dims = tuple((g.m, g.n, g.t) for g in gemms)
        key = (
            name,
            dims,
            request.conventional,
            request.totals_only,
            request.config.cache_key(),
        )
        with self._lock:
            self._ctr_requests.inc()
            future = self._futures.get(key)
            if future is not None:
                self._ctr_deduplicated.inc()
                if not future.done():
                    # Completed futures need no waiter bookkeeping (their
                    # done-callback already dropped it, and cancel() is a
                    # no-op) — re-inserting would leak an orphan entry.
                    self._waiters[id(future)] = self._waiters.get(id(future), 1) + 1
                return key, future, True
            self._ctr_submitted.inc()
            if request.totals_only:
                future = self._submit_traced(
                    _compute_totals, self.backend, gemms, name, request.config,
                    request.conventional,
                )
            else:
                scheduler = (
                    self.backend.schedule_model_conventional
                    if request.conventional
                    else self.backend.schedule_model
                )
                future = self._submit_traced(
                    scheduler, gemms, request.config, model_name=name
                )
            self._futures[key] = future
            # Registered before the done-callback: an already-completed
            # future runs the callback inline right here, and it must find
            # (and drop) this entry rather than leave an orphan behind.
            self._waiters[id(future)] = 1
            future.add_done_callback(
                lambda done, key=key: self._forget_failed(key, done)
            )
            if len(self._futures) > DEDUP_SIZE:
                self._evict_completed_locked()
            return key, future, False

    def _submit_traced(self, fn, /, *args, **kwargs) -> Future:
        """Submit to the thread pool, carrying the caller's span context.

        With tracing enabled the task runs inside a copy of the
        submitting context, so spans the worker thread opens nest under
        the submitting request's span (the daemon's ``daemon.request``).
        Disabled tracing takes the bare-submit fast path.
        """
        if get_tracer().enabled:
            context = contextvars.copy_context()
            return self._pool.submit(context.run, fn, *args, **kwargs)
        return self._pool.submit(fn, *args, **kwargs)

    def _forget_failed(self, key: tuple, future: Future) -> None:
        """Drop a failed/cancelled future from the dedup map.

        A transient error (disk full during a store flush) must not poison
        its request key for the service's lifetime — the next identical
        request recomputes instead of re-raising the stale exception.
        """
        try:
            failed = future.cancelled() or future.exception() is not None
        except BaseException:  # pragma: no cover - defensive
            failed = True
        with self._lock:
            # The future is done: cancel() is a no-op from here on, so its
            # waiter count is dead weight (and id() values may be reused).
            self._waiters.pop(id(future), None)
            if failed and self._futures.get(key) is future:
                del self._futures[key]

    def _evict_completed_locked(self) -> None:
        """Drop oldest *completed* futures until the dedup map fits.

        Pending futures are kept regardless: evicting them would submit
        genuinely duplicate in-flight work, which is the one thing the
        dedup map exists to prevent.
        """
        for key in list(self._futures):
            if len(self._futures) <= DEDUP_SIZE:
                break
            if self._futures[key].done():
                del self._futures[key]

    def _collect(
        self,
        request: Request,
        key: tuple,
        future: Future[ModelSchedule | ModelTotals],
        default_timeout: float | None,
        deduplicated: bool,
    ) -> Response:
        """One response, bounded by the request's deadline when it has one."""
        timeout = request.timeout if request.timeout is not None else default_timeout
        try:
            with get_tracer().span(
                "service.wait", model=key[0], deduplicated=deduplicated
            ):
                if timeout is None:
                    result = future.result()
                else:
                    result = future.result(timeout=timeout)
        except ValueError as exc:
            # A layer the engine refuses (e.g. a cycle count past int64):
            # the request, not the service, is at fault.
            raise InvalidRequest(str(exc)) from exc
        except (FutureTimeoutError, CancelledError) as exc:
            # Queued-but-not-started work is cancelled outright — but only
            # when this waiter holds the future's sole issued handle, so a
            # deadline never destroys a computation a deduplicated caller
            # still awaits; running or shared work is merely abandoned by
            # this waiter.  Either way the key is forgotten so the next
            # identical request recomputes.
            with self._lock:
                if isinstance(exc, CancelledError):
                    cancelled = True
                else:
                    handle = id(future)
                    sole_waiter = self._waiters.get(handle, 1) <= 1
                    cancelled = future.cancel() if sole_waiter else False
                    if not cancelled and self._waiters.get(handle, 0) > 1:
                        # This waiter walks away; a later sole survivor's
                        # deadline may still cancel the queued work.
                        self._waiters[handle] -= 1
                self._ctr_timed_out.inc()
                if self._futures.get(key) is future:
                    del self._futures[key]
            return Response(
                status="timeout",
                # The resolved name is the dedup key's first component; a
                # failure path must not re-lower the whole workload.
                model_name=key[0],
                conventional=request.conventional,
                totals_only=request.totals_only,
                timeout_s=timeout if timeout is not None else 0.0,
                cancelled=cancelled,
                deduplicated=deduplicated,
            )
        return Response(
            status="ok",
            model_name=key[0],
            conventional=request.conventional,
            totals_only=request.totals_only,
            result=result,
            deduplicated=deduplicated,
        )

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """The thread count and the serving counters; touches no disk."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "requests": self._ctr_requests.value,
                "submitted": self._ctr_submitted.value,
                "deduplicated": self._ctr_deduplicated.value,
                "timed_out": self._ctr_timed_out.value,
            }

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        return self._closed.is_set()

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Shut the thread pool down (idempotent; signal-handler safe).

        Only the first call does anything — the daemon's graceful drain
        may race a ``with``-block exit or a second signal, and a double
        close must be a no-op, not an error.  The closed flag is a bare
        :class:`threading.Event` set before any other work, so calling
        this from a signal handler never blocks on a lock the interrupted
        frame might hold.

        After timeouts, pass ``wait=False, cancel_futures=True``:
        ``wait=True`` (the context-manager default) would block on the
        very computations a deadline just abandoned.  Note that a
        *running* thread-pool task cannot be interrupted — Python still
        joins non-daemon workers at interpreter exit — so a truly
        unbounded computation delays process exit either way; queued
        work, however, is cancelled outright.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
        # A caller-provided backend may carry a decision store: a closed
        # service leaves everything it derived on disk for the next process.
        self.backend.flush_store()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
