"""Engine x scenario matrix: the mesoscopic backends across the catalog.

One pytest-benchmark case per (catalog entry, mesoscopic engine): warm
the network up, then measure closed-loop mini-slots per second under
UTIL-BP.  Comparing the engine columns of the printed matrix shows
where each backend pays off (``meso-counts`` everywhere over ``meso``,
increasingly so on larger grids; ``meso-events`` pulls further ahead
the lighter the load, since its calendar skips idle slots entirely;
each engine runs the loop ``run_scenario`` runs for it: ``meso-counts``
the per-intersection controllers on its observations, ``meso`` and
``meso-events`` the B=1 batched UTIL-BP kernel on their array façades,
and ``meso-vec`` a batch of one under the same kernel,
so this matrix shows its single-seed cost; its win, batching many seeds
per step, is measured by ``bench_batch_scaling.py``) and doubles as a
drift alarm:
if an engine change erodes a ratio, this benchmark shows *which*
workload shape lost it, while ``scripts/bench_ci.py`` gates the
headline numbers in CI.

The micro engine is deliberately excluded — it is 1-2 orders slower;
``scripts/bench_ci.py`` measures it in its ``micro/steady-3x3`` row.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_matrix.py \
        --benchmark-only --benchmark-group-by=param:name -q
"""

import numpy as np
import pytest

from repro.control.factory import build_batch_controller
from repro.core.engine import build_batch_engine, build_engine, has_batch_engine
from repro.experiments.runner import serial_decider
from repro.scenarios import build_named_scenario, scenario_names

#: Mini-slots simulated before measuring, so queues are populated and
#: the steady-state step cost (not the empty-network cost) is timed.
WARMUP_STEPS = 90

ENGINES = ("meso", "meso-counts", "meso-events", "meso-vec")


def _closed_loop(scenario, engine):
    """A util-bp closed loop: ``(one_mini_slot, sim)``.

    Batch engines run a batch of one under the batched kernel; a built
    serial engine runs the runner's own loop (``serial_decider``).
    """
    if has_batch_engine(engine):
        sim = build_batch_engine([scenario], engine)
        kernel = build_batch_controller("util-bp", scenario.network, 1)

        def one_mini_slot():
            sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))

        return one_mini_slot, sim

    sim = build_engine(scenario, engine)
    decide = serial_decider(sim, engine, scenario.network, "util-bp")

    def one_mini_slot():
        sim.step(1.0, decide())

    return one_mini_slot, sim


@pytest.fixture(
    scope="module",
    params=[
        (name, engine)
        for name in scenario_names()
        for engine in ENGINES
    ],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def warm_cell(request):
    name, engine = request.param
    one_mini_slot, _ = _closed_loop(build_named_scenario(name, seed=1), engine)
    for _ in range(WARMUP_STEPS):
        one_mini_slot()
    return name, engine, one_mini_slot


def test_engine_matrix_step_rate(benchmark, warm_cell):
    name, engine, one_mini_slot = warm_cell
    benchmark(one_mini_slot)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        steps_per_second = 1.0 / benchmark.stats.stats.mean
        print(f"\n{name}: {steps_per_second:,.0f} steps/s ({engine})")


def test_matrix_cells_agree_on_dynamics():
    """The matrix compares cost, so all cells must do the same work:
    spot-check that the warm cells produced identical trajectories
    (full equivalence lives in tests/test_engine_parity.py)."""
    runs = {}
    for engine in ENGINES:
        scenario = build_named_scenario("steady-3x3", seed=1)
        one_mini_slot, sim = _closed_loop(scenario, engine)
        for _ in range(WARMUP_STEPS):
            one_mini_slot()
        runs[engine] = (
            int(np.sum(sim.vehicles_in_network())),
            int(np.sum(sim.backlog_size())),
        )
    assert (
        runs["meso"]
        == runs["meso-counts"]
        == runs["meso-events"]
        == runs["meso-vec"]
    )
