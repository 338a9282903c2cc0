"""The one user-error hierarchy.

A :class:`ReproError` is an input the program cannot act on — a file
that is not a result store, an unknown aggregation axis, an
unreachable service — and its message is written for the user.  Two
places turn one into output: ``repro.cli.main`` prints
``repro <command>: <message>`` and exits with the error's
``exit_status`` (2, a usage error, when it has none), and the service's
request wrapper answers with the error's ``status`` (400 when it has
none).
Anything else that escapes is a bug and keeps its traceback (or 500).
"""

from __future__ import annotations

__all__ = ["ReproError", "UsageError"]


class ReproError(Exception):
    """An input the program cannot act on; the message is for the user."""


class UsageError(ReproError, ValueError):
    """A bad value or file handed to the program (still a ``ValueError``)."""
