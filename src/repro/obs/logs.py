"""Structured (JSON-lines) logging with per-request correlation IDs.

The third observability pillar: every log record under the ``repro``
logger can carry the request ID of the daemon request being served.  The
ID lives in a :mod:`contextvars` variable — :func:`bind_request_id` is a
context manager the daemon wraps around request handling, and
:class:`RequestIdFilter` stamps the ambient value onto every record that
passes through, whatever the formatter.

:func:`configure_logging` is the one place handlers are created.  It is
idempotent (re-running reconfigures the same handler instead of stacking
duplicates) and scoped to the ``repro`` logger — library users who
configure logging themselves are never touched.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import time
from contextvars import ContextVar

__all__ = [
    "JsonFormatter",
    "RequestIdFilter",
    "bind_request_id",
    "configure_logging",
    "current_request_id",
]

_REQUEST_ID: ContextVar[str | None] = ContextVar("repro_request_id", default=None)

#: Marker attribute of the handler :func:`configure_logging` owns, so
#: reconfiguration replaces it instead of stacking a duplicate.
_HANDLER_MARK = "_repro_obs_handler"


def current_request_id() -> str | None:
    """The ambient request ID (None outside a daemon request)."""
    return _REQUEST_ID.get()


@contextlib.contextmanager
def bind_request_id(request_id: str):
    """Bind the ambient request ID for the duration of the block."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


class RequestIdFilter(logging.Filter):
    """Stamps the ambient request ID onto every record (or None)."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "request_id"):
            record.request_id = _REQUEST_ID.get()
        return True


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, message, request_id.

    Extra attributes attached via ``logger.debug(..., extra={...})`` are
    merged in (non-serialisable values fall back to ``repr``), so the
    daemon's access log carries method/path/status/duration as fields.
    """

    _RESERVED = frozenset(
        logging.LogRecord("", 0, "", 0, "", (), None).__dict__
    ) | {"request_id", "message", "asctime", "taskName"}

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(time.time(), 6) if record.created is None else round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        request_id = getattr(record, "request_id", None) or _REQUEST_ID.get()
        if request_id is not None:
            payload["request_id"] = request_id
        for key, value in record.__dict__.items():
            if key in self._RESERVED or key.startswith("_"):
                continue
            payload[key] = value
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        try:
            return json.dumps(payload)
        except (TypeError, ValueError):
            safe = {key: repr(value) for key, value in payload.items()}
            return json.dumps(safe)


def configure_logging(
    level: int | str | None = None,
    json_lines: bool = False,
    stream=None,
) -> logging.Logger:
    """Configure the root ``repro`` logger exactly once (idempotent).

    ``level`` accepts a logging constant or name (default ``WARNING``
    on first call; subsequent calls without a level keep the current
    one).  ``json_lines`` selects the :class:`JsonFormatter`; the plain
    format still carries the request ID when one is bound.
    """
    logger = logging.getLogger("repro")
    if level is not None:
        if isinstance(level, str):
            name, level = level, logging.getLevelName(level.upper())
            if not isinstance(level, int):
                raise ValueError(f"unknown log level: {name!r}")
        logger.setLevel(level)
    elif logger.level == logging.NOTSET:
        logger.setLevel(logging.WARNING)

    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    setattr(handler, _HANDLER_MARK, True)
    if json_lines:
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s [%(request_id)s] %(message)s")
        )
    handler.addFilter(RequestIdFilter())

    for existing in list(logger.handlers):
        if getattr(existing, _HANDLER_MARK, False):
            logger.removeHandler(existing)
            existing.close()
    logger.addHandler(handler)
    logger.propagate = False
    return logger
