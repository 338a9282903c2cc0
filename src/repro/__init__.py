"""Reproduction of *CPS-oriented Modeling and Control of Traffic
Signals Using Adaptive Back Pressure* (Chang et al., DATE 2020).

The package is organized bottom-up:

* :mod:`repro.util` — RNG streams, ASCII reports, validation.
* :mod:`repro.model` — the queuing-network model of Sec. II (roads,
  movements, phases, intersections, arrivals, networks).
* :mod:`repro.core` — the paper's contribution: pressure/gain metrics
  (Sec. III-A) and the UTIL-BP adaptive controller (Algorithm 1).
* :mod:`repro.control` — baseline controllers: fixed-time, original
  back-pressure [3], capacity-aware back-pressure [4] (CAP-BP).
* :mod:`repro.meso` — discrete-time store-and-forward network
  simulator (the Sec. II model animated directly).
* :mod:`repro.micro` — microscopic traffic simulator (Krauss
  car-following; the SUMO substitute).
* :mod:`repro.traci` — TraCI-style control facade over the
  microscopic simulator.
* :mod:`repro.metrics` — waiting times, queue/phase traces, summaries.
* :mod:`repro.results` — the results subsystem: the SQLite-backed
  :class:`~repro.results.store.ResultStore` (resumable sweeps), shared
  group-by aggregation with delay-mode safety, and the declarative
  :class:`~repro.results.experiment.ExperimentDefinition` and the one
  table naming every experiment.
* :mod:`repro.analysis` — regime-shift analytics over stored results:
  CUSUM changepoint detection with permutation calibration and
  per-cell stability verdicts (``stable`` / ``breakdown@t*``).
* :mod:`repro.experiments` — the 3x3 evaluation scenarios and the
  drivers regenerating every table and figure of the paper, each one
  an experiment definition.

Quickstart
----------
>>> from repro.api import RunConfig, build_scenario, run_scenario
>>> scenario = build_scenario("I", seed=1)
>>> config = RunConfig(controller="util-bp", duration=300)
>>> result = run_scenario(scenario, config=config)
>>> result.average_queuing_time  # doctest: +SKIP
42.0

(:mod:`repro.api` is the versioned public façade — the only supported
import surface for downstream code.  ``import repro`` itself loads no
subpackage and no NumPy: it carries this map and ``__version__``.)
"""

__version__ = "0.3.0"
