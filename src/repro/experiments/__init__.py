"""Evaluation scenarios and the drivers that regenerate the paper's
tables and figures.

* :mod:`repro.scenarios` — the scenario builder and workload catalog;
  :mod:`repro.scenarios.patterns` holds Tables I and II.
* :mod:`repro.experiments.runner` — the closed control loop.
* :mod:`repro.experiments.table3` — Table III (CAP-BP best period vs
  UTIL-BP over all patterns).
* :mod:`repro.experiments.fig2` — Fig. 2 (queuing time vs control
  period, mixed pattern).
* :mod:`repro.experiments.fig34` — Figs. 3-4 (phase traces at the
  top-right intersection, Pattern I).
* :mod:`repro.experiments.fig5` — Fig. 5 (queue trace at the east
  incoming road of the top-right intersection).
* :mod:`repro.experiments.ablations` — design-choice ablations.
* :mod:`repro.experiments.stability` — demand-scale stability sweep
  (Sec. IV-Q1).

Each table/figure driver is declared once, as an
:class:`~repro.results.experiment.ExperimentDefinition` (a spec
builder, an aggregation recipe, a renderer and every parameter's
default) registered under its name.  ``run_<driver>(pool=None,
**params)`` forwards to :func:`repro.results.experiment.run_experiment`
on that definition, so every driver executes through the shared pool +
result store and gains resume and cross-driver cell sharing.  The
``repro <driver>`` commands run the same definitions; each flag's
destination is the parameter it sets (``--scale`` ->
``duration_scale``, ``--segment`` -> ``segment_duration``).
"""

from repro.experiments.runner import (
    RunConfig,
    RunResult,
    run_scenario,
    run_scenario_batch,
)
from repro.scenarios.core import DEFAULT_DURATIONS, Scenario, build_scenario
from repro.scenarios.patterns import (
    MIXED_SEGMENT_DURATION,
    PATTERN_NAMES,
    PATTERNS,
    TURNING,
    arrival_schedule,
    interarrival_times,
    pattern_description,
)

__all__ = [
    "TURNING",
    "PATTERNS",
    "PATTERN_NAMES",
    "MIXED_SEGMENT_DURATION",
    "arrival_schedule",
    "interarrival_times",
    "pattern_description",
    "Scenario",
    "build_scenario",
    "DEFAULT_DURATIONS",
    "RunConfig",
    "RunResult",
    "run_scenario",
    "run_scenario_batch",
]
