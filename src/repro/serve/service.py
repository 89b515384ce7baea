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
(:mod:`repro.serve.daemon`), the CLI ``batch`` command, and the four
deprecated pre-protocol aliases (``schedule_many``/``schedule_all``/
``schedule_suite``/``compare_many``) — is a thin adapter over it, so
library callers, the CLI and wire clients all speak the same typed
surface.

Three layers of work elimination stack up:

* **request dedup** — identical requests (same workload, same
  configuration identity per :meth:`ArrayFlexConfig.cache_key`, which
  folds in the configured :mod:`repro.core.activity` model — the same
  workload priced under ``constant`` and ``utilization`` activity is two
  distinct computations, never one shared future) are submitted once and
  share one future, across ``submit`` calls;
* **decision cache** — distinct requests still share per-layer mode
  decisions through the backend's LRU (CNN suites repeat GEMM shapes
  heavily);
* **disk persistence** — with a ``cache_dir`` the LRU is spilled to a
  :class:`~repro.backends.store.DecisionStore`, so a new process starts
  warm.

Execution fans out over a thread pool (default: cheap, shares one warm
backend; the backend's cache bookkeeping is lock-serialised but the NumPy
solve and schedule construction run concurrently) or a process pool
(``executor="process"``: true parallelism for very large sweeps; workers
share warmth through the disk store).  ``max_workers`` is auto-sized from
:func:`os.cpu_count`.
"""

from __future__ import annotations

import contextvars
import os
import warnings
from collections.abc import Iterable
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from threading import Event, RLock

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, call_with_context, get_tracer

from repro.backends import (
    BatchedCachedBackend,
    ExecutionBackend,
    ExecutionBackendProtocol,
    ModelTotals,
    attach_store,
    create_backend,
    model_totals,
)
from repro.core.config import ArrayFlexConfig
from repro.core.scheduler import ModelSchedule, WorkloadArgument
from repro.nn.gemm_mapping import GemmShape
from repro.serve.errors import InvalidRequest
from repro.serve.protocol import (
    Request,
    Response,
    coerce_request,
    suite_requests,
)

#: Executor kinds accepted by :class:`SchedulingService`.
EXECUTORS = ("thread", "process")

#: Deprecated name of :class:`repro.serve.protocol.Request`, kept for one
#: release so pre-daemon call sites keep importing; constructing one IS
#: constructing a protocol Request (same class, keyword-only fields).
ScheduleRequest = Request


def default_max_workers(executor: str = "thread") -> int:
    """Worker-count default, auto-sized from the machine's CPU count."""
    cpus = os.cpu_count() or 1
    if executor == "process":
        return max(1, cpus)
    # Threads mostly overlap object construction and (NumPy) solves; the
    # stdlib's own heuristic works well here.
    return min(32, cpus + 4)


@dataclass(frozen=True)
class TimedOutRequest:
    """Legacy result marker for a request whose future missed its deadline.

    Returned (in place of a schedule / totals object) by the deprecated
    blocking collection helpers (``schedule_all``/``compare_many``); the
    protocol-typed API reports the same situation as a
    ``status="timeout"`` :class:`~repro.serve.protocol.Response`.
    ``cancelled`` records whether the underlying computation was still
    queued and could be cancelled outright; when False it kept running in
    the background and only this *wait* was abandoned.
    """

    model_name: str
    conventional: bool
    totals_only: bool
    timeout_s: float
    cancelled: bool


#: Per-worker backend for process-pool execution, installed by the pool
#: initializer so each worker schedules on its own warm(ing) backend.
_WORKER_BACKEND: ExecutionBackend | ExecutionBackendProtocol | None = None


def _init_worker(backend: ExecutionBackend | ExecutionBackendProtocol) -> None:
    global _WORKER_BACKEND
    _WORKER_BACKEND = backend


def _compute_totals(
    backend: ExecutionBackend | ExecutionBackendProtocol,
    gemms: tuple[GemmShape, ...] | list[GemmShape],
    name: str,
    config: ArrayFlexConfig,
    conventional: bool,
) -> ModelTotals:
    return model_totals(
        backend, list(gemms), config, conventional=conventional, model_name=name
    )


def _worker_schedule(
    gemms: tuple[GemmShape, ...],
    name: str,
    config: ArrayFlexConfig,
    conventional: bool,
    totals_only: bool,
) -> ModelSchedule | ModelTotals:
    assert _WORKER_BACKEND is not None, "process-pool initializer did not run"
    if totals_only:
        return _compute_totals(_WORKER_BACKEND, gemms, name, config, conventional)
    scheduler = (
        _WORKER_BACKEND.schedule_model_conventional
        if conventional
        else _WORKER_BACKEND.schedule_model
    )
    return scheduler(list(gemms), config, model_name=name)


@dataclass
class ServiceStats:
    """Serving counters (dedup effectiveness and submission volume).

    Kept as the read *shape* of the service's counters; since the
    unified observability layer the live counts are
    ``service_*_total`` instruments on the service's
    :class:`~repro.obs.MetricsRegistry` and this dataclass is what
    :meth:`SchedulingService.stats` folds them back into.
    """

    requests: int = 0
    submitted: int = 0
    deduplicated: int = 0
    timed_out: int = 0


class _SpanRelayFuture(Future):
    """A future that unwraps a worker's ``(result, spans)`` pair.

    Process-pool tasks submitted under an enabled tracer run through
    :func:`repro.obs.call_with_context` and resolve to their result
    *plus* the spans the worker recorded.  This wrapper is what callers
    (and the dedup map) hold instead: on inner completion it merges the
    spans into the submitting process's tracer and completes itself with
    the bare result, so every consumer — ``result()``, done-callbacks,
    ``Response`` construction — sees exactly what an untraced future
    would have carried.

    Only the relay callback ever transitions this future's state
    (``cancel()`` merely forwards to the inner pool future), so the
    inner future's single done-callback fire is the single source of
    truth and no state race exists.
    """

    def __init__(self, inner: Future, tracer: Tracer) -> None:
        super().__init__()
        self._inner = inner
        self._tracer = tracer
        inner.add_done_callback(self._relay)

    def cancel(self) -> bool:
        return self._inner.cancel()

    def _relay(self, inner: Future) -> None:
        if inner.cancelled():
            super().cancel()
            self.set_running_or_notify_cancel()
            return
        exc = inner.exception()
        if exc is not None:
            self.set_exception(exc)
            return
        result, spans = inner.result()
        self._tracer.extend(spans)
        self.set_result(result)


#: Aliases whose one-shot deprecation warning already fired (one warning
#: per alias per process: loud enough to be seen, quiet enough that a
#: sweep calling an alias ten thousand times stays readable).
_WARNED_ALIASES: set[str] = set()


def _warn_deprecated_alias(old: str, new: str) -> None:
    if old in _WARNED_ALIASES:
        return
    _WARNED_ALIASES.add(old)
    warnings.warn(
        f"SchedulingService.{old}() is a deprecated alias and will be removed "
        f"in the next release; use {new} (see docs/serve-api-migration.md)",
        DeprecationWarning,
        stacklevel=3,
    )


class SchedulingService:
    """Deduplicating, batching, response-returning scheduling front-end."""

    def __init__(
        self,
        backend: ExecutionBackend | ExecutionBackendProtocol | str | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        executor: str = "thread",
        max_workers: int | None = None,
        cache_size: int = 65536,
        dedup_size: int = 4096,
    ) -> None:
        if executor not in EXECUTORS:
            raise InvalidRequest(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise InvalidRequest("max_workers must be at least 1")
        if dedup_size < 1:
            raise InvalidRequest("dedup_size must be at least 1")
        if backend is None:
            backend = BatchedCachedBackend(cache_size=cache_size)
        self.backend = attach_store(create_backend(backend, default="batched"), cache_dir)
        self.executor_kind = executor
        self.max_workers = max_workers or default_max_workers(executor)
        #: Bound on the dedup map: completed futures (and their results)
        #: beyond this are dropped oldest-first, so a long-lived service
        #: over a stream of distinct requests cannot grow without limit.
        #: Evicted entries only cost a duplicate recomputation on
        #: re-encounter — the backend's decision cache still absorbs it.
        self.dedup_size = dedup_size
        # Re-entrant: a future that completes instantly runs its
        # done-callback inline on the submitting thread, inside submit()'s
        # critical section.
        self._lock = RLock()
        self._futures: dict[tuple, Future[ModelSchedule | ModelTotals]] = {}
        #: Issued-handle counts per live future (by id), so a timed-out
        #: waiter never cancels a computation other callers still await.
        #: Entries are dropped by the future's done-callback.
        self._waiters: dict[int, int] = {}
        #: One registry carrying the serving counters, with the backend's
        #: and store's own registries attached — the daemon attaches this
        #: in turn, making ``/metrics`` a single merged read.
        self.registry = MetricsRegistry()
        self._ctr_requests = self.registry.counter("service_requests_total")
        self._ctr_submitted = self.registry.counter("service_submitted_total")
        self._ctr_deduplicated = self.registry.counter("service_deduplicated_total")
        self._ctr_timed_out = self.registry.counter("service_timed_out_total")
        backend_registry = getattr(self.backend, "metrics", None)
        if isinstance(backend_registry, MetricsRegistry):
            self.registry.attach(backend_registry)
        backend_store = getattr(self.backend, "store", None)
        store_registry = getattr(backend_store, "metrics", None)
        if isinstance(store_registry, MetricsRegistry):
            self.registry.attach(store_registry)
        #: Set by the first :meth:`close`; makes closing idempotent and
        #: safe from a signal handler (an Event is set without taking any
        #: lock another thread might hold across the interrupted frame).
        self._closed = Event()
        if executor == "process":
            self._pool: ThreadPoolExecutor | ProcessPoolExecutor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(self.backend,),
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-serve",
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
        batch runs with full executor concurrency regardless of
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
    # Deprecated pre-protocol aliases (one release of grace)
    # ------------------------------------------------------------------ #
    def schedule_many(
        self,
        requests: Iterable[Request | tuple[WorkloadArgument, ArrayFlexConfig]],
    ) -> list[Future[ModelSchedule | ModelTotals]]:
        """Deprecated: use :meth:`submit_future` (or :meth:`submit_many`).

        One future per request, in order; duplicates share one future.
        """
        _warn_deprecated_alias("schedule_many", "submit_future()/submit_many()")
        return [self.submit_future(request) for request in requests]

    def schedule_all(
        self,
        requests: Iterable[Request | tuple[WorkloadArgument, ArrayFlexConfig]],
        timeout: float | None = None,
    ) -> list[ModelSchedule | ModelTotals | TimedOutRequest]:
        """Deprecated: use :meth:`submit_many`.

        Same blocking semantics, but bare results with
        :class:`TimedOutRequest` markers instead of typed responses.
        """
        _warn_deprecated_alias("schedule_all", "submit_many()")
        return [
            self._legacy_result(response)
            for response in self.submit_many(requests, timeout=timeout)
        ]

    def schedule_suite(
        self,
        suite: str,
        config: ArrayFlexConfig,
        batch: int = 1,
        conventional: bool = False,
        totals_only: bool = False,
    ) -> list[Future[ModelSchedule | ModelTotals]]:
        """Deprecated: use :func:`~repro.serve.protocol.suite_requests`
        with :meth:`submit_many` (or :meth:`submit_future`)."""
        _warn_deprecated_alias(
            "schedule_suite", "suite_requests() + submit_many()"
        )
        return [
            self.submit_future(request)
            for request in suite_requests(
                suite,
                config,
                batch=batch,
                conventional=conventional,
                totals_only=totals_only,
            )
        ]

    def compare_many(
        self,
        workloads: Iterable[tuple[WorkloadArgument, ArrayFlexConfig]],
        totals_only: bool = False,
        timeout: float | None = None,
    ) -> list[
        tuple[
            ModelSchedule | ModelTotals | TimedOutRequest,
            ModelSchedule | ModelTotals | TimedOutRequest,
        ]
    ]:
        """Deprecated: use :meth:`compare` (typed response pairs)."""
        _warn_deprecated_alias("compare_many", "compare()")
        return [
            (self._legacy_result(arrayflex), self._legacy_result(conventional))
            for arrayflex, conventional in self.compare(
                workloads, totals_only=totals_only, timeout=timeout
            )
        ]

    @staticmethod
    def _legacy_result(
        response: Response,
    ) -> ModelSchedule | ModelTotals | TimedOutRequest:
        """A typed response as the pre-protocol result-or-marker shape."""
        if response.status == "timeout":
            return TimedOutRequest(
                model_name=response.model_name,
                conventional=response.conventional,
                totals_only=response.totals_only,
                timeout_s=response.timeout_s if response.timeout_s is not None else 0.0,
                cancelled=response.cancelled,
            )
        assert response.result is not None
        return response.result

    # ------------------------------------------------------------------ #
    # Submission / collection internals
    # ------------------------------------------------------------------ #
    def _submit_keyed(
        self, request: Request
    ) -> tuple[tuple, Future[ModelSchedule | ModelTotals], bool]:
        """Submit one request; its dedup key, shared future and dedup flag."""
        gemms, name = request.resolve()
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
            if self.executor_kind == "process":
                future = self._submit_process(
                    tuple(gemms), name, request.config,
                    request.conventional, request.totals_only,
                )
            elif request.totals_only:
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
            if len(self._futures) > self.dedup_size:
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

    def _submit_process(
        self,
        gemms: tuple[GemmShape, ...],
        name: str,
        config: ArrayFlexConfig,
        conventional: bool,
        totals_only: bool,
    ) -> Future:
        """Submit to the process pool, shipping the span context along.

        Context variables don't cross processes, so with tracing enabled
        the task wraps in :func:`repro.obs.call_with_context`: the
        picklable span context travels with the arguments, the worker
        records its spans on a local tracer, and the returned
        ``(result, spans)`` pair comes back through a
        :class:`_SpanRelayFuture` that re-parents the spans here and
        resolves to the bare result.
        """
        tracer = get_tracer()
        args = (gemms, name, config, conventional, totals_only)
        if tracer.enabled:
            inner = self._pool.submit(
                call_with_context, tracer.current_context(), _worker_schedule, *args
            )
            return _SpanRelayFuture(inner, tracer)
        return self._pool.submit(_worker_schedule, *args)

    def _forget_failed(self, key: tuple, future: Future) -> None:
        """Drop a failed/cancelled future from the dedup map.

        A transient error (disk full during a store flush, a killed pool
        worker) must not poison its request key for the service's
        lifetime — the next identical request recomputes instead of
        re-raising the stale exception.
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
            if len(self._futures) <= self.dedup_size:
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
    def stats(self) -> dict[str, int | str]:
        """Serving and (thread-mode) backend cache counters."""
        with self._lock:
            counters: dict[str, int | str] = {
                "executor": self.executor_kind,
                "max_workers": self.max_workers,
                "requests": self._ctr_requests.value,
                "submitted": self._ctr_submitted.value,
                "deduplicated": self._ctr_deduplicated.value,
                "timed_out": self._ctr_timed_out.value,
            }
        cache_info = getattr(self.backend, "cache_info", None)
        if cache_info is not None and self.executor_kind == "thread":
            # Process workers hold their own backend copies; the parent's
            # counters would be misleading there.
            counters.update(cache_info())
        store = getattr(self.backend, "store", None)
        if store is not None:
            # The disk store is shared across executors of any kind (one
            # directory, atomic merge-on-write), so its counters are
            # meaningful even in process mode.  ``disk_``-prefixed to keep
            # them apart from cache_info()'s in-memory ``store_hits``.
            counters.update(
                {f"disk_{key}": value for key, value in store.stats().items()}
            )
        return counters

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        return self._closed.is_set()

    def close(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Shut the executor down (idempotent; signal-handler safe).

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
        flush = getattr(self.backend, "flush_store", None)
        if flush is not None:
            # Drain buffered decision-store rows: a closed service leaves
            # everything it derived on disk for the next process.
            flush()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(
        request: Request | tuple[WorkloadArgument, ArrayFlexConfig],
    ) -> Request:
        """Deprecated internal shim; see :func:`protocol.coerce_request`."""
        return coerce_request(request)
