"""Performance benchmarks of the simulation engines and the controller.

These are classical pytest-benchmark microbenchmarks (multiple rounds):
steps/second of each engine on the paper's 3x3 network and the decision
cost of the UTIL-BP controller.
"""

import pytest

from repro.control.factory import make_network_controller
from repro.core.util_bp import UtilBpController
from repro.core.engine import build_engine
from repro.scenarios.core import build_scenario


@pytest.fixture(scope="module")
def warm_meso():
    scenario = build_scenario("I", seed=1)
    sim = build_engine(scenario, "meso")
    controller = make_network_controller("util-bp", scenario.network)
    for _ in range(120):  # warm up: populate the network
        sim.step(1.0, controller.decide(sim.observations()))
    return sim, controller


@pytest.fixture(scope="module")
def warm_micro():
    scenario = build_scenario("I", seed=1)
    sim = build_engine(scenario, "micro")
    controller = make_network_controller("util-bp", scenario.network)
    for _ in range(120):
        sim.step(1.0, controller.decide(sim.observations()))
    return sim, controller


def test_meso_step_rate(benchmark, warm_meso):
    sim, controller = warm_meso

    def one_mini_slot():
        sim.step(1.0, controller.decide(sim.observations()))

    benchmark(one_mini_slot)


def test_micro_step_rate(benchmark, warm_micro):
    sim, controller = warm_micro

    def one_mini_slot():
        sim.step(1.0, controller.decide(sim.observations()))

    benchmark(one_mini_slot)


def test_util_bp_decision_rate(benchmark, warm_meso):
    sim, _ = warm_meso
    scenario_obs = sim.observations()["J11"]
    controller = UtilBpController(sim.network.intersections["J11"])

    def decide():
        controller.decide(scenario_obs)

    benchmark(decide)


def test_observation_build_rate(benchmark, warm_meso):
    sim, _ = warm_meso
    benchmark(sim.observations)
