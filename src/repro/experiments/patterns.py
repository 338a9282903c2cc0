"""Deprecated shim: the pattern tables moved.

Tables I and II (turning probabilities and per-side arrival rates)
now live in :mod:`repro.scenarios.patterns`, next to the rest of the
scenario library.  Importing this module emits a
:class:`DeprecationWarning`; it goes with :mod:`repro.experiments.scenario`.
"""

from __future__ import annotations

import warnings

from repro.scenarios.patterns import (  # noqa: F401  (re-exports)
    MIXED_SEGMENT_DURATION,
    PATTERN_NAMES,
    PATTERNS,
    TURNING,
    arrival_schedule,
    interarrival_times,
    pattern_description,
)

warnings.warn(
    "repro.experiments.patterns is deprecated and will be removed in "
    "repro 1.2 (no earlier than 2026-12-01); import from "
    "repro.scenarios.patterns instead",
    DeprecationWarning,
    stacklevel=2,
)

__all__ = [
    "TURNING",
    "PATTERNS",
    "PATTERN_NAMES",
    "MIXED_SEGMENT_DURATION",
    "interarrival_times",
    "arrival_schedule",
    "pattern_description",
]
