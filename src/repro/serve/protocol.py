"""The versioned request/response protocol of the serving layer.

One typed surface for every way of reaching the scheduler: library
callers construct :class:`Request` objects and hand them to
:meth:`~repro.serve.service.SchedulingService.submit`, the CLI builds
the same objects from flags, and the HTTP daemon decodes them from JSON
with :func:`request_from_wire` — so a wire client, a script, and the
``batch`` subcommand can never disagree about what a scheduling request
*is*.  :class:`Response` is the single result shape on the way back
(result, or a timeout marker, with the request's identity attached).

All constructors are keyword-only: the protocol is versioned
(``PROTOCOL_VERSION``, the ``"v"`` field of every wire body), and
keyword-only fields can be added without silently re-meaning positional
call sites.

Wire format (JSON), version 1::

    request  = {"v": 1, "model": "resnet34" | [[m, n, t], ...],
                "config": {"rows": 128, "cols": 128,
                           "depths": [1, 2, 4],
                           "activity_model": "constant"},
                "conventional": false, "totals_only": false,
                "model_name": null | "label",
                "timeout": null | seconds}
    response = {"v": 1, "status": "ok" | "timeout",
                "model_name": ..., "conventional": ...,
                "totals_only": ..., "result": {...} | null,
                "timeout_s": ..., "cancelled": ...}

``model`` is deliberately *narrower* on the wire than in process: a
registry name or an explicit GEMM list — arbitrary workload objects
don't cross a process boundary.  Result payloads carry the aggregate
figures (``time_ns``/``energy_nj`` serialize through JSON bit-exactly,
so a wire client sees the same floats a library caller does); schedule
results add cycle counts, the depth histogram and activity aggregates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.backends import ModelTotals
from repro.core.config import ArrayFlexConfig
from repro.core.metrics import ModelSchedule, WorkloadArgument, resolve_workload
from repro.nn.gemm_mapping import GemmShape
from repro.serve.errors import InvalidRequest, RequestTimeout

__all__ = [
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "config_from_wire",
    "config_to_wire",
    "request_from_wire",
    "request_to_wire",
    "response_to_wire",
    "result_to_wire",
    "suite_requests",
]

#: Version stamp of the wire protocol (the ``"v"`` field of every JSON
#: request and response body).  Bumped on any incompatible change to the
#: shapes documented above.
PROTOCOL_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class Request:
    """One unit of serving work: schedule ``model`` on ``config``.

    ``model`` accepts everything :func:`~repro.core.metrics.
    resolve_workload` does: a CNN layer table, any
    :class:`~repro.workloads.base.Workload` object (transformer traces,
    batch-scaled workloads), a :mod:`repro.workloads` registry name
    (``"bert_base"``, ``"resnet34@bs8"``) or an explicit GEMM list.  On
    the wire only the last two travel (see :func:`request_to_wire`).

    ``conventional`` selects the fixed-pipeline baseline schedule instead
    of the per-layer optimised ArrayFlex one (a comparison front-end
    submits both and pairs the responses).  ``totals_only`` asks for a
    :class:`~repro.backends.ModelTotals` instead of a full per-layer
    :class:`~repro.core.metrics.ModelSchedule` — same numbers, but
    sweep-style aggregators skip materialising hundreds of layer objects
    they would immediately collapse to two floats.

    ``timeout`` bounds, in seconds, how long :meth:`SchedulingService.
    submit` (and the blocking collection helpers) waits for this
    request's result: a finite number in ``(0, threading.TIMEOUT_MAX]``.
    Expiry yields a ``status="timeout"``
    :class:`Response` instead of hanging the caller.  It is *not* part of
    the request's dedup identity — the same workload with a different
    deadline is still the same computation.  The configured activity
    model, by contrast, *is* part of the identity (via
    ``config.cache_key()``): schedules priced under different activity
    models are different numbers.
    """

    model: WorkloadArgument | tuple[GemmShape, ...]
    config: ArrayFlexConfig
    conventional: bool = False
    totals_only: bool = False
    model_name: str | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails too; past TIMEOUT_MAX a wait overflows.
        if self.timeout is not None and not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise InvalidRequest(
                f"timeout must be a positive number of seconds up to "
                f"{threading.TIMEOUT_MAX:g} (or None for no deadline), got {self.timeout}"
            )
        if not isinstance(self.config, ArrayFlexConfig):
            raise InvalidRequest(
                f"config must be an ArrayFlexConfig, got {type(self.config).__name__}"
            )

    def resolve(self) -> tuple[list[GemmShape], str]:
        """Normalise ``model`` into ``(gemms, name)`` (see resolve_workload)."""
        model = self.model
        if isinstance(model, tuple):
            model = list(model)
        return resolve_workload(model, self.model_name)

    def paired(self) -> tuple["Request", "Request"]:
        """This request as an (ArrayFlex, conventional) comparison pair."""
        return (
            replace(self, conventional=False),
            replace(self, conventional=True),
        )


@dataclass(frozen=True, kw_only=True)
class Response:
    """The result of one :class:`Request`, with its identity attached.

    ``status`` is ``"ok"`` (``result`` holds the schedule or totals) or
    ``"timeout"`` (the request's deadline expired; ``timeout_s`` records
    the deadline, ``cancelled`` whether the underlying computation was
    still queued and was cancelled outright — ``False`` means it kept
    running in the background and only the wait was abandoned).

    ``deduplicated`` records whether this request shared an in-flight or
    memoised computation instead of submitting a new one — serving
    telemetry, deliberately excluded from equality (``compare=False``):
    two responses carrying the same result are the same answer no matter
    which cache produced them.
    """

    status: str
    model_name: str
    conventional: bool = False
    totals_only: bool = False
    result: ModelSchedule | ModelTotals | None = None
    timeout_s: float | None = None
    cancelled: bool = False
    deduplicated: bool = field(default=False, compare=False)

    #: Statuses a response can carry.
    STATUSES = ("ok", "timeout")

    def __post_init__(self) -> None:
        if self.status not in self.STATUSES:
            raise InvalidRequest(
                f"response status must be one of {self.STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> ModelSchedule | ModelTotals:
        """The result, or a typed :class:`RequestTimeout` on expiry."""
        if self.status == "timeout":
            raise RequestTimeout(
                f"request {self.model_name!r} missed its {self.timeout_s}s deadline"
                + (" (cancelled)" if self.cancelled else " (still running)")
            )
        assert self.result is not None
        return self.result


# ---------------------------------------------------------------------- #
# Wire codecs
# ---------------------------------------------------------------------- #
def config_to_wire(config: ArrayFlexConfig) -> dict:
    """The wire shape of one accelerator configuration."""
    return {
        "rows": config.rows,
        "cols": config.cols,
        "depths": sorted(config.supported_depths),
        "activity_model": getattr(config.activity_model, "name", "constant"),
    }


def config_from_wire(payload: object) -> ArrayFlexConfig:
    """Decode a configuration dict; every malformation is an InvalidRequest."""
    if not isinstance(payload, dict):
        raise InvalidRequest("config must be an object with rows/cols fields")
    unknown = set(payload) - {"rows", "cols", "depths", "activity_model"}
    if unknown:
        raise InvalidRequest(f"unknown config fields: {sorted(unknown)}")
    try:
        return ArrayFlexConfig(
            rows=int(payload.get("rows", 128)),
            cols=int(payload.get("cols", 128)),
            supported_depths=tuple(
                int(depth) for depth in payload.get("depths", (1, 2, 4))
            ),
            activity_model=payload.get("activity_model", "constant"),
        )
    # OverflowError: int() of an infinite float (JSON's Infinity).
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidRequest(f"invalid config: {exc}") from exc


def _model_from_wire(payload: object) -> str | tuple[GemmShape, ...]:
    if isinstance(payload, str):
        if not payload:
            raise InvalidRequest("model name must be non-empty")
        return payload
    if isinstance(payload, list) and payload:
        # This loop runs once per layer of every explicit-GEMM request, so
        # it indexes and constructs positionally (m, n, t, name).
        gemms = []
        for index, item in enumerate(payload):
            if not isinstance(item, (list, tuple)) or len(item) not in (3, 4):
                raise InvalidRequest(
                    f"model entry {index} must be [m, n, t] or [m, n, t, name]"
                )
            try:
                m, n, t = int(item[0]), int(item[1]), int(item[2])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidRequest(
                    f"model entry {index} has non-integer dimensions"
                ) from exc
            name = str(item[3]) if len(item) == 4 else f"gemm{index}"
            try:
                gemms.append(GemmShape(m, n, t, name))
            except ValueError as exc:
                raise InvalidRequest(f"model entry {index}: {exc}") from exc
        return tuple(gemms)
    raise InvalidRequest(
        "model must be a registry workload name or a non-empty list of "
        "[m, n, t] GEMM shapes"
    )


#: Fields a wire request may carry (anything else is an error, so typos
#: like "converntional" fail loudly instead of silently defaulting).
_REQUEST_FIELDS = {
    "v",
    "model",
    "config",
    "conventional",
    "totals_only",
    "model_name",
    "timeout",
}


def request_from_wire(payload: object) -> Request:
    """Decode one JSON request body into a typed :class:`Request`."""
    if not isinstance(payload, dict):
        raise InvalidRequest("request body must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise InvalidRequest(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION}; send \"v\": {PROTOCOL_VERSION})"
        )
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise InvalidRequest(f"unknown request fields: {sorted(unknown)}")
    if "model" not in payload:
        raise InvalidRequest("request is missing the 'model' field")
    timeout = payload.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise InvalidRequest("timeout must be a number of seconds or null")
    for flag in ("conventional", "totals_only"):
        if not isinstance(payload.get(flag, False), bool):
            raise InvalidRequest(f"{flag} must be a boolean")
    model_name = payload.get("model_name")
    if model_name is not None and not isinstance(model_name, str):
        raise InvalidRequest("model_name must be a string or null")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except OverflowError:  # an integer too large for a float
            raise InvalidRequest("timeout is out of range") from None
    return Request(
        model=_model_from_wire(payload["model"]),
        config=config_from_wire(payload.get("config", {})),
        conventional=payload.get("conventional", False),
        totals_only=payload.get("totals_only", False),
        model_name=model_name,
        timeout=timeout,
    )


def request_to_wire(request: Request) -> dict:
    """Encode a :class:`Request` for transmission.

    Only registry names and explicit GEMM lists travel — an in-process
    workload *object* has no wire identity, and sending one is a caller
    bug surfaced as :class:`InvalidRequest` (resolve it to a registry
    name, or lower it to its GEMM list, first).
    """
    model = request.model
    if isinstance(model, str):
        wire_model: object = model
    elif isinstance(model, (tuple, list)) and all(
        isinstance(gemm, GemmShape) for gemm in model
    ):
        wire_model = [[gemm.m, gemm.n, gemm.t, gemm.name] for gemm in model]
    else:
        raise InvalidRequest(
            f"model of type {type(model).__name__} cannot travel on the wire: "
            "use a repro.workloads registry name or an explicit GEMM list"
        )
    payload: dict = {
        "v": PROTOCOL_VERSION,
        "model": wire_model,
        "config": config_to_wire(request.config),
    }
    if request.conventional:
        payload["conventional"] = True
    if request.totals_only:
        payload["totals_only"] = True
    if request.model_name is not None:
        payload["model_name"] = request.model_name
    if request.timeout is not None:
        payload["timeout"] = request.timeout
    return payload


def result_to_wire(result: ModelSchedule | ModelTotals) -> dict:
    """The JSON shape of one scheduling result.

    The aggregate figures (``time_ns``, ``energy_nj``, and everything
    derived from them) are the same Python floats a library caller gets
    — JSON round-trips them bit-exactly — so wire parity with direct
    :class:`SchedulingService` calls is exact, not approximate.
    """
    if isinstance(result, ModelTotals):
        return {"kind": "totals", **_totals_to_wire(result)}
    # Each layer sum once: the same sums, so the same floats, as the
    # schedule's own properties.
    totals = ModelTotals(time_ns=result.total_time_ns, energy_nj=result.total_energy_nj)
    return {
        "kind": "schedule",
        "model_name": result.model_name,
        "accelerator": result.accelerator,
        "rows": result.rows,
        "cols": result.cols,
        "layers": len(result.layers),
        "total_cycles": result.total_cycles,
        **_totals_to_wire(totals),
        "depth_histogram": {
            str(depth): count for depth, count in sorted(result.depth_histogram().items())
        },
        "average_utilization": result.average_utilization(totals.time_ns),
        "average_activity": result.average_activity(totals.time_ns),
    }


def _totals_to_wire(totals: ModelTotals) -> dict:
    return {
        "time_ns": totals.time_ns,
        "energy_nj": totals.energy_nj,
        "average_power_mw": totals.average_power_mw,
        "energy_delay_product": totals.energy_delay_product,
    }


def response_to_wire(response: Response) -> dict:
    """Encode one :class:`Response` as a JSON body."""
    return {
        "v": PROTOCOL_VERSION,
        "status": response.status,
        "model_name": response.model_name,
        "conventional": response.conventional,
        "totals_only": response.totals_only,
        "result": result_to_wire(response.result) if response.result is not None else None,
        "timeout_s": response.timeout_s,
        "cancelled": response.cancelled,
        "deduplicated": response.deduplicated,
    }


# ---------------------------------------------------------------------- #
# Request-building sugar
# ---------------------------------------------------------------------- #
def suite_requests(
    suite: str,
    config: ArrayFlexConfig,
    *,
    batch: int = 1,
    conventional: bool = False,
    totals_only: bool = False,
    timeout: float | None = None,
) -> list[Request]:
    """One :class:`Request` per workload of a registry suite, in suite order."""
    from repro.workloads import get_suite

    return [
        Request(
            model=workload,
            config=config,
            conventional=conventional,
            totals_only=totals_only,
            timeout=timeout,
        )
        for workload in get_suite(suite, batch=batch)
    ]


def coerce_request(
    request: Request | tuple[WorkloadArgument, ArrayFlexConfig],
) -> Request:
    """Accept ``(model, config)`` shorthand everywhere a Request is taken."""
    if isinstance(request, Request):
        return request
    if isinstance(request, tuple) and len(request) == 2:
        model, config = request
        return Request(model=model, config=config)
    raise InvalidRequest(
        "requests must be Request objects or (model, config) tuples, "
        f"got {type(request).__name__}"
    )
