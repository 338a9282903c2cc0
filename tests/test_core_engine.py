"""Engine-contract conformance suite (repro.core.engine).

One parametrized set of checks run against every serial
backend (the protocol surface, observation shape, finalize idempotence)
and the same book-keeping checks against a batch engine at B=1 (plus
the alignment of its controller arrays).  Determinism under a fixed
seed is checked for every engine name through ``run_scenario``.  A new
engine passes this suite or it is not an engine.
"""

import re

import numpy as np
import pytest

from repro.core.engine import (
    ENGINE_NAMES,
    ENGINE_TABLE,
    BatchEngine,
    SimulationEngine,
    build_batch_engine,
    build_engine,
    has_batch_engine,
)
from repro.experiments.runner import run_scenario
from repro.scenarios.core import build_scenario
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.traci import TraciSession

#: Serial engines: driven through observations() and step(dt, mapping).
ENGINES = ("meso", "meso-counts", "meso-events", "micro")

#: Batch engines: driven through controller_arrays() and a kernel.
BATCH = ("meso-vec",)

#: Short horizons keep the micro engine affordable in CI.
HORIZON = {
    "meso": 90.0,
    "meso-counts": 90.0,
    "meso-events": 90.0,
    "meso-vec": 90.0,
    "micro": 30.0,
}


def _make(engine: str):
    return build_engine(build_scenario("I", seed=7), engine)


def _drive(sim, steps: int, phase: int = 1) -> None:
    decisions = {node_id: phase for node_id in sim.network.intersections}
    for _ in range(steps):
        sim.step(1.0, decisions)


class TestRegistry:
    def test_builtin_names_exposed(self):
        assert ENGINE_NAMES == (
            "meso",
            "meso-counts",
            "meso-events",
            "meso-vec",
            "micro",
        )

    def test_every_table_entry_resolves(self):
        """Each engine's class or batch builder imports, and the engine
        and experiment tables name exactly what the program offers."""
        import pkgutil

        from repro.results.experiment import (
            EXPERIMENT_TABLE,
            ExperimentDefinition,
            experiment_names,
        )

        assert tuple(sorted(ENGINE_TABLE)) == ENGINE_NAMES
        for name, (target, batch) in ENGINE_TABLE.items():
            resolved = pkgutil.resolve_name(target)
            assert callable(resolved), name
            assert has_batch_engine(name) == batch
            assert isinstance(resolved, type) != batch, name
        assert tuple(sorted(EXPERIMENT_TABLE)) == experiment_names()
        for name, target in EXPERIMENT_TABLE.items():
            definition = pkgutil.resolve_name(target)
            assert isinstance(definition, ExperimentDefinition), name
            assert definition.name == name

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_engine(build_scenario("I"), "warp-drive")

    def test_engine_with_controller_arrays_is_kernel_driven(
        self, monkeypatch
    ):
        """The built engine, not its name, picks the loop."""
        import repro.experiments.runner as runner

        assert [e for e in ENGINES if hasattr(_make(e), "controller_arrays")] == [
            "meso",
            "meso-events",
            "micro",
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("serial controllers built for an array engine")

        expected = run_scenario(
            build_scenario("I", seed=7), engine="meso-events", duration=60.0
        )
        # meso-counts is decided by the serial controllers; a meso-events
        # engine built under its name must be decided by the kernel.
        monkeypatch.setattr(
            runner,
            "build_engine",
            lambda scenario, engine: build_engine(scenario, "meso-events"),
        )
        monkeypatch.setattr(runner, "make_network_controller", forbidden)
        result = run_scenario(
            build_scenario("I", seed=7), engine="meso-counts", duration=60.0
        )
        assert result.summary == expected.summary


class TestBatchRegistry:
    def test_batch_engine_registered(self):
        from repro.core.engine import (
            BatchEngine,
            build_batch_engine,
            has_batch_engine,
        )

        assert has_batch_engine("meso-vec")
        assert not has_batch_engine("meso")
        assert not has_batch_engine("warp-drive")
        assert "meso-vec" in ENGINE_NAMES
        scenarios = [build_scenario("I", seed=s) for s in (1, 2, 3)]
        sim = build_batch_engine(scenarios, "meso-vec")
        assert isinstance(sim, BatchEngine)
        assert sim.batch_size == 3
        assert sim.seeds == (1, 2, 3)

    def test_unknown_batch_engine_raises(self):
        from repro.core.engine import build_batch_engine

        with pytest.raises(ValueError, match="unknown batch engine"):
            build_batch_engine([build_scenario("I")], "meso")

    def test_empty_batch_rejected(self):
        from repro.core.engine import build_batch_engine

        with pytest.raises(ValueError, match="at least one"):
            build_batch_engine([], "meso-vec")

    @pytest.mark.parametrize("engine", BATCH)
    def test_batch_engine_is_not_a_serial_engine(self, engine):
        """One line pointing at the batch entry points, not a traceback."""
        scenario = build_scenario("I", seed=7)
        with pytest.raises(ValueError, match="is a batch engine") as build:
            build_engine(scenario, engine)
        with pytest.raises(ValueError, match="is a batch engine") as traci:
            TraciSession(scenario, engine=engine)
        assert "\n" not in str(build.value)
        assert str(traci.value) == str(build.value)


@pytest.mark.parametrize("engine", ENGINES + BATCH)
def test_determinism_under_fixed_seed(engine):
    results = [
        run_scenario(
            build_scenario("I", seed=11),
            controller="util-bp",
            duration=HORIZON[engine],
            engine=engine,
            record_phases=("J00",),
            record_queues=(("J00", "IN:N@J00"),),
        )
        for _ in range(2)
    ]
    assert results[0].summary == results[1].summary
    assert results[0].phase_traces == results[1].phase_traces
    assert results[0].queue_traces == results[1].queue_traces
    assert results[0].utilization == results[1].utilization
    assert results[0].vehicles_in_network == results[1].vehicles_in_network


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_demand_on_non_entry_road_rejected(engine):
    """Each engine's constructor refuses demand on a non-entry road."""
    scenario = build_scenario("I", seed=1)
    network = scenario.network
    inner = sorted(set(network.roads) - set(network.entry_roads()))[0]
    # Swap in a new map: the Scenario's own check ran at construction.
    scenario.demand = {
        **scenario.demand, inner: next(iter(scenario.demand.values()))
    }
    message = f"demand declared on non-entry roads: {[inner]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        if engine in BATCH:
            build_batch_engine([scenario], engine)
        else:
            build_engine(scenario, engine)


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineContract:
    def test_satisfies_protocol(self, engine):
        sim = _make(engine)
        assert isinstance(sim, SimulationEngine)
        assert sim.time == 0.0
        assert sim.vehicles_in_network() == 0
        assert sim.backlog_size() == 0

    def test_observation_shape(self, engine):
        sim = _make(engine)
        _drive(sim, 5)
        observations = sim.observations()
        network = sim.network
        assert set(observations) == set(network.intersections)
        for node_id, observation in observations.items():
            intersection = network.intersections[node_id]
            assert observation.time == sim.time
            assert set(observation.movement_queues) == set(
                intersection.movements
            )
            assert set(observation.out_queues) == set(intersection.out_roads)
            assert all(q >= 0 for q in observation.movement_queues.values())

    def test_finalize_idempotent(self, engine):
        sim = _make(engine)
        _drive(sim, int(HORIZON[engine]))
        sim.finalize()
        first = sim.collector.summary(HORIZON[engine])
        sim.finalize()  # must be a no-op
        assert sim.collector.summary(HORIZON[engine]) == first

    def test_step_after_finalize_rejected(self, engine):
        sim = _make(engine)
        _drive(sim, 3)
        sim.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            sim.step(1.0, {})

    def test_amber_serves_nothing(self, engine):
        sim = _make(engine)
        decisions = {
            node_id: TRANSITION_PHASE_INDEX
            for node_id in sim.network.intersections
        }
        for _ in range(20):
            sim.step(1.0, decisions)
        assert sim.collector.vehicles_left == 0
        assert all(
            tracker.green_time == 0.0 for tracker in sim.utilization.values()
        )


def _make_batch(engine: str):
    return build_batch_engine([build_scenario("I", seed=7)], engine)


def _drive_batch(sim, steps: int, phase: int = 1) -> None:
    decisions = np.full((1, len(sim.movement_layout[0])), phase)
    for _ in range(steps):
        sim.step(1.0, decisions)


@pytest.mark.parametrize("engine", BATCH)
class TestBatchEngineContract:
    """The serial contract's book-keeping checks on a batch of one."""

    def test_satisfies_protocol(self, engine):
        sim = _make_batch(engine)
        assert isinstance(sim, BatchEngine)
        assert sim.batch_size == 1
        assert sim.time == 0.0
        assert list(sim.vehicles_in_network()) == [0]
        assert list(sim.backlog_size()) == [0]

    def test_controller_arrays_match_movement_layout(self, engine):
        sim = _make_batch(engine)
        _drive_batch(sim, 5)
        node_ids, movement_keys = sim.movement_layout
        assert node_ids == tuple(build_scenario("I").network.intersections)
        arrays = sim.controller_arrays()
        assert arrays.time == sim.time
        assert arrays.queues.shape == (1, len(movement_keys))
        assert arrays.out_queues.shape == (1, len(movement_keys))
        assert (arrays.queues >= 0).all()

    def test_finalize_idempotent(self, engine):
        sim = _make_batch(engine)
        _drive_batch(sim, int(HORIZON[engine]))
        sim.finalize()
        first = sim.summaries(HORIZON[engine])
        sim.finalize()  # must be a no-op
        assert sim.summaries(HORIZON[engine]) == first

    def test_step_after_finalize_rejected(self, engine):
        sim = _make_batch(engine)
        _drive_batch(sim, 3)
        sim.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            _drive_batch(sim, 1)

    def test_amber_serves_nothing(self, engine):
        sim = _make_batch(engine)
        _drive_batch(sim, 20, phase=TRANSITION_PHASE_INDEX)
        assert sim.summaries()[0].vehicles_left == 0
        assert all(
            tracker.green_time == 0.0
            for tracker in sim.utilization_of(0).values()
        )
