"""Steps/second comparison across the scenario catalog.

One pytest-benchmark case per registered catalog entry: build the
scenario, warm the network up, then measure closed-loop mini-slots per
second under UTIL-BP on the mesoscopic engine.  The printed table is
the catalog's relative cost profile — bigger grids and heavier loads
should cost proportionally, and a new scenario family that is
accidentally quadratic shows up immediately.
"""

import pytest

from repro.control.factory import make_network_controller
from repro.core.engine import build_engine
from repro.scenarios import build_named_scenario, scenario_names

#: Mini-slots simulated before measuring, so queues are populated and
#: the steady-state step cost (not the empty-network cost) is timed.
WARMUP_STEPS = 90


@pytest.fixture(scope="module", params=scenario_names())
def warm_scenario(request):
    scenario = build_named_scenario(request.param, seed=1)
    sim = build_engine(scenario, "meso")
    controller = make_network_controller("util-bp", scenario.network)
    for _ in range(WARMUP_STEPS):
        sim.step(1.0, controller.decide(sim.observations()))
    return request.param, sim, controller


def test_scenario_step_rate(benchmark, warm_scenario):
    name, sim, controller = warm_scenario

    def one_mini_slot():
        sim.step(1.0, controller.decide(sim.observations()))

    benchmark(one_mini_slot)
    steps_per_second = 1.0 / benchmark.stats.stats.mean
    print(f"\n{name}: {steps_per_second:,.0f} steps/s (meso)")
