"""Microscopic traffic simulator — the SUMO substitute.

The paper evaluates in SUMO [7]; this package provides the equivalent
microscopic substrate built from scratch:

* :mod:`repro.micro.krauss` — the Krauss car-following model (SUMO's
  default), with safe-speed computation and stochastic driver
  imperfection;
* :mod:`repro.micro.vehicle` / :mod:`repro.micro.lane` — continuous-
  space vehicles on per-movement dedicated turning lanes;
* :mod:`repro.micro.detectors` — lane-area queue detectors and the
  spillback sensor feeding the controllers' ``Q(k)``;
* :mod:`repro.micro.simulator` — signal heads, amber (transition)
  phases, junction transfer with downstream-capacity blocking, Poisson
  insertion, and the engine protocol shared with :mod:`repro.meso`.

The engine table of :mod:`repro.core.engine` names it ``"micro"``.
"""

from repro.micro.params import KraussParams, MicroParams
from repro.micro.simulator import MicroSimulator

__all__ = ["KraussParams", "MicroParams", "MicroSimulator"]
