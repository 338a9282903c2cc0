"""Structured JSON-lines logging: the observability layer.

Every long-running surface of the package (the HTTP service and its
job worker, the result store) emits its diagnostics
through this module instead of ad-hoc ``print(..., file=sys.stderr)``:
one JSON object per line, machine-parseable, with a stable field
layout::

    {"ts": 1754600000.123, "level": "info", "component": "service",
     "event": "request_completed", "request_id": "req-a1b2c3d4",
     "method": "GET", "path": "/healthz", "status": 200}

Fields
------
``ts``
    Unix timestamp (float seconds).
``level``
    One of ``debug``/``info``/``warning``/``error``.
``component``
    The subsystem that emitted the line (``service``, ``jobs``,
    ``store``, ...).
``event``
    A stable machine-readable event name (snake_case); free-form prose
    goes in an optional ``message`` field so grepping for either works.
``request_id`` / anything else
    Bound ambient context (see :func:`log_context`) plus the keyword
    fields of the individual call.

Context propagation uses :mod:`contextvars`, so a request id bound
by a request's handler reaches every call it makes without threading
it through call signatures; each connection thread and the job worker
bind their own context.

The default sink is *the current* ``sys.stderr`` (resolved per write,
so test harnesses that swap stderr capture the lines); `configure`
redirects globally, and each logger line is written and flushed under a
lock so concurrent emitters never interleave partial lines.
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TextIO

__all__ = [
    "LEVELS",
    "StructuredLogger",
    "configure",
    "context_fields",
    "get_logger",
    "log_context",
]

#: Level name -> numeric severity (mirrors the stdlib's spacing).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Ambient fields merged into every record emitted in this context.
_CONTEXT: contextvars.ContextVar[Optional[Dict[str, Any]]] = contextvars.ContextVar(
    "repro_log_context", default=None
)

_LOCK = threading.Lock()
_STREAM: Optional[TextIO] = None  # None = the current sys.stderr
_THRESHOLD = LEVELS["info"]
_LOGGERS: Dict[str, "StructuredLogger"] = {}


def configure(
    stream: Optional[TextIO] = None, level: str = "info"
) -> None:
    """Set the global sink and minimum level for all structured loggers.

    ``stream=None`` (the default) writes to whatever ``sys.stderr`` is
    at emit time.  ``level`` names the minimum severity that is
    written; anything below it is dropped.
    """
    global _STREAM, _THRESHOLD
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; known: {sorted(LEVELS)}")
    with _LOCK:
        _STREAM = stream
        _THRESHOLD = LEVELS[level]


def context_fields() -> Dict[str, Any]:
    """The ambient context fields bound in the current context (a copy)."""
    current = _CONTEXT.get()
    return dict(current) if current else {}


@contextmanager
def log_context(**fields: Any) -> Iterator[None]:
    """Bind fields (e.g. ``request_id``) into every record in scope.

    Nested contexts merge; inner bindings shadow outer ones for the
    duration of the ``with`` block only.
    """
    merged = context_fields()
    merged.update(fields)
    token = _CONTEXT.set(merged)
    try:
        yield
    finally:
        _CONTEXT.reset(token)


class StructuredLogger:
    """A named emitter of JSON-line records (see module docstring)."""

    def __init__(self, component: str):
        self.component = component

    def log(
        self,
        level: str,
        event: str,
        message: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Emit one record; non-JSON field values degrade to ``str``."""
        if LEVELS.get(level, LEVELS["info"]) < _THRESHOLD:
            return
        record: Dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(context_fields())
        record.update(fields)
        if message is not None:
            record["message"] = message
        line = json.dumps(record, default=str)
        with _LOCK:
            stream = _STREAM if _STREAM is not None else sys.stderr
            stream.write(line + "\n")
            try:
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed/capture stream must not kill the emitter

    def debug(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        """Emit a DEBUG record."""
        self.log("debug", event, message, **fields)

    def info(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        """Emit an INFO record."""
        self.log("info", event, message, **fields)

    def warning(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        """Emit a WARNING record."""
        self.log("warning", event, message, **fields)

    def error(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        """Emit an ERROR record."""
        self.log("error", event, message, **fields)


def get_logger(component: str) -> StructuredLogger:
    """The (cached) structured logger for a component name."""
    logger = _LOGGERS.get(component)
    if logger is None:
        logger = _LOGGERS.setdefault(component, StructuredLogger(component))
    return logger
