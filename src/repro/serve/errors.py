"""Typed error hierarchy of the serving layer.

Every failure the serving stack can hand a caller — whether that caller
is an in-process library user, the CLI, or an HTTP client of the daemon
— is a :class:`ServeError` subclass carrying three stable identities:

* ``code`` — a machine-readable snake_case string, the *wire* identity
  (the daemon puts it in every JSON error body, so clients never parse
  prose);
* ``http_status`` — the HTTP status the daemon maps the error to;
* ``exit_code`` — the process exit code the CLI maps the error to.

The mapping, in one place so the CLI, the daemon, and the tests can
never disagree:

===================  ====  =================  =========
error                HTTP  code               CLI exit
===================  ====  =================  =========
InvalidRequest        400  invalid_request        2
AdmissionRejected     429  admission_rejected     3
RateLimited           503  rate_limited           4
RequestTimeout        504  request_timeout        5
===================  ====  =================  =========

:class:`AdmissionRejected` is queue-depth backpressure: the daemon's
bounded admission queue is full, and *every* client should slow down —
HTTP 429 with a ``Retry-After`` hint.  :class:`RateLimited` is the
per-client token bucket: the daemon is healthy but declines further work
from *this* client until its bucket refills — HTTP 503 with the exact
``Retry-After`` the bucket computed.  The two are deliberately distinct
statuses (and exit codes): a load balancer spreads 429s by adding
capacity, but a 503-throttled client must fix its own request rate.

:class:`InvalidRequest` subclasses :class:`ValueError` so historical
``except ValueError`` call sites (and tests) around the serving layer
keep working; the service raises it for every malformed request or
construction argument where it previously raised a bare ``ValueError``.
"""

from __future__ import annotations

__all__ = [
    "AdmissionRejected",
    "InvalidRequest",
    "RateLimited",
    "RequestTimeout",
    "ServeError",
]


class ServeError(Exception):
    """Base of every serving-layer failure.

    ``retry_after_s`` is the server's hint (seconds) for when a retry
    might succeed; ``None`` means retrying is pointless (or immediate).
    """

    #: Machine-readable wire identity (JSON ``error.code``).
    code: str = "serve_error"
    #: HTTP status the daemon responds with.
    http_status: int = 500
    #: Process exit code the CLI returns.
    exit_code: int = 1

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class InvalidRequest(ServeError, ValueError):
    """A request (or service/daemon argument) that can never succeed.

    Malformed JSON, an unknown workload name, an illegal configuration,
    a layer whose cycle count does not fit int64 — retrying without
    changing the request is pointless.  Subclasses :class:`ValueError`
    for compatibility with the pre-daemon serving API, which raised bare
    ``ValueError`` here.
    """

    code = "invalid_request"
    http_status = 400
    exit_code = 2


class AdmissionRejected(ServeError):
    """Queue-depth backpressure: the bounded admission queue is full.

    The daemon sheds load instead of queueing without bound — HTTP 429
    plus a ``Retry-After`` estimate, so a well-behaved client backs off
    rather than piling on.
    """

    code = "admission_rejected"
    http_status = 429
    exit_code = 3

    def __init__(
        self,
        message: str = "admission queue is full",
        retry_after_s: float | None = 1.0,
    ) -> None:
        super().__init__(message, retry_after_s=retry_after_s)


class RateLimited(ServeError):
    """Per-client token-bucket limit: *this* client must slow down.

    ``retry_after_s`` is exact — the seconds until the client's bucket
    holds a whole token again.
    """

    code = "rate_limited"
    http_status = 503
    exit_code = 4

    def __init__(
        self,
        message: str = "per-client rate limit exceeded",
        retry_after_s: float | None = 1.0,
    ) -> None:
        super().__init__(message, retry_after_s=retry_after_s)


class RequestTimeout(ServeError):
    """A request's result deadline expired before the computation did.

    Raised by :meth:`Response.unwrap` (and mapped to HTTP 504 by the
    daemon) when a request carried a ``timeout`` and missed it.  The
    computation may still complete in the background; an immediate retry
    of the same request recomputes (the service drops the timed-out
    dedup entry) rather than re-awaiting a stale future.
    """

    code = "request_timeout"
    http_status = 504
    exit_code = 5
