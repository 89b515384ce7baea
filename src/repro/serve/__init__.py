"""The serving layer: one typed request/response API, in process or over HTTP.

The public surface is deliberately small and versioned:

* :class:`~repro.serve.protocol.Request` /
  :class:`~repro.serve.protocol.Response` — the keyword-only protocol
  dataclasses every entry point speaks (``PROTOCOL_VERSION`` stamps the
  wire form);
* :class:`~repro.serve.service.SchedulingService` — the in-process
  server over one thread pool; ``submit(Request) -> Response`` is the
  single core, with ``submit_many``/``submit_future``/``compare`` as
  thin adapters, and a request that can never succeed raises
  :class:`~repro.serve.errors.InvalidRequest`;
* :class:`~repro.serve.daemon.SchedulerDaemon` /
  :class:`~repro.serve.daemon.DaemonClient` — the same service behind a
  stdlib HTTP/JSON front door (``python -m repro serve``);
* the :mod:`~repro.serve.errors` hierarchy — every failure carries a
  wire ``code``, an HTTP status, and a CLI exit code.

>>> from repro.serve import Request, SchedulingService
>>> from repro.core.config import ArrayFlexConfig
>>> from repro.nn.models import resnet34
>>> with SchedulingService() as service:
...     response = service.submit(
...         Request(model=resnet34(), config=ArrayFlexConfig.paper_128x128())
...     )
>>> response.unwrap().model_name
'ResNet-34'
"""

from repro.serve.daemon import DaemonClient, SchedulerDaemon
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
    Response,
    coerce_request,
    request_from_wire,
    request_to_wire,
    response_to_wire,
    suite_requests,
)
from repro.serve.service import SchedulingService, default_max_workers

__all__ = [
    # protocol
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "coerce_request",
    "request_from_wire",
    "request_to_wire",
    "response_to_wire",
    "suite_requests",
    # service
    "SchedulingService",
    "default_max_workers",
    # daemon
    "DaemonClient",
    "SchedulerDaemon",
    # middleware
    "AdmissionGate",
    "DaemonMetrics",
    "TokenBucket",
    # errors
    "ServeError",
    "InvalidRequest",
    "AdmissionRejected",
    "RateLimited",
    "RequestTimeout",
]
