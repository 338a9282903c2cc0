"""The paper's primary contribution.

* :mod:`repro.core.pressure` — the pressure mapping and link/phase gain
  metrics of Sec. III-A (Eqs. 4-12).
* :mod:`repro.core.util_bp` — the utilization-aware adaptive
  back-pressure controller, a line-by-line implementation of
  Algorithm 1.
* :mod:`repro.core.config` — the controller's tunable parameters with
  the paper's evaluation defaults.
* :mod:`repro.core.engine` — the :class:`SimulationEngine` protocol
  every plant implements, and the one table naming the engines.
"""

from repro.core.config import UtilBpConfig
from repro.core.engine import ENGINE_NAMES, SimulationEngine, build_engine
from repro.core.pressure import (
    link_gain,
    link_gain_original,
    max_link_gain,
    phase_gain,
    pressure,
)
from repro.core.util_bp import UtilBpController

__all__ = [
    "UtilBpConfig",
    "SimulationEngine",
    "ENGINE_NAMES",
    "build_engine",
    "pressure",
    "link_gain",
    "link_gain_original",
    "phase_gain",
    "max_link_gain",
    "UtilBpController",
]
