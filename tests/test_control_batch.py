"""Decision-level contract of the batched controllers.

:mod:`repro.control.batch` promises that ``decide_batch`` is
decision-for-decision identical to the serial controller of the same
name and parameters — same comparisons, same float evaluation order,
same tie-breaks.  This suite pins that contract directly at the
controller layer:

* lockstep parity — a B=1 meso-vec engine is stepped for hundreds of
  mini-slots while a serial controller (fed ``QueueObservation`` maps)
  and the batched controller (fed the engine's arrays) must emit the
  same phase for every node at every step, for every controller name,
  including on a network whose intersections have different phase
  counts;
* batch-width independence of the *decisions* themselves (not just of
  the end-of-run books, which the engine parity suite covers);
* one kernel per controller name, the protocol, ``reset``, and the
  constructor/shape validation;
* the runner's wiring: an engine whose array layout disagrees with the
  kernel's is rejected before the first step;
* the meso-events façade: its B=1 ``controller_arrays()`` equal the
  arrays assembled from its own ``observations()`` at every slot,
  under every out-queue sensing mode, and on every slot read after
  several unread ones (the stop-line row is refreshed only for the
  nodes the steps touched), on the event loop and on the per-slot
  fallback alike.
"""

import numpy as np
import pytest

from repro.control.batch import (
    BatchCapBpController,
    BatchFixedTimeController,
    BatchNetworkController,
    BatchOriginalBpController,
    BatchUtilBpController,
)
from repro.control.factory import (
    CONTROLLER_NAMES,
    build_batch_controller,
    make_network_controller,
)
from repro.core.engine import build_batch_engine
from repro.meso.events import EventCountsSimulator
from repro.meso.vectorized import BatchCountsSimulator
from repro.model.grid import build_grid_network
from repro.scenarios import build_named_scenario
from tests.conftest import MIXED_PHASES, build_parity_scenario

#: (controller name, parameters) pairs: every controller name.
CONTROLLERS = (
    ("util-bp", {}),
    ("cap-bp", {"period": 16.0}),
    ("original-bp", {"period": 16.0}),
    ("fixed-time", {"period": 16.0}),
)

#: Congested and direction-skewed shapes: the beta (spillback) and
#: alpha (empty movement) branches both fire within the horizon.  The
#: mixed-phase variant has 4-, 3- and 2-phase intersections.
SCENARIOS = ("surge-4x4", "asymmetric-3x3", "surge-4x4" + MIXED_PHASES)

STEPS = 250


def _as_map(array, node_ids, b=0):
    return {node: int(array[b, i]) for i, node in enumerate(node_ids)}


class TestLockstepParity:
    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    def test_batched_equals_serial_every_step(
        self, scenario_name, controller, params
    ):
        """One engine, two controllers: identical decisions, every slot."""
        scenario = build_parity_scenario(scenario_name, seed=7)
        sim = build_batch_engine([scenario], "meso-vec")
        serial = make_network_controller(
            controller, scenario.network, **params
        )
        batched = build_batch_controller(
            controller, scenario.network, 1, **params
        )
        node_ids = batched.node_ids
        for step in range(STEPS):
            serial_decisions = serial.decide(sim.observations()[0])
            array = batched.decide_batch(sim.controller_arrays())
            assert _as_map(array, node_ids) == serial_decisions, (
                scenario_name,
                controller,
                step,
            )
            sim.step(1.0, array)


class TestDecisionBatchIndependence:
    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    @pytest.mark.parametrize(
        "scenario_name", ("surge-4x4", "surge-4x4" + MIXED_PHASES)
    )
    def test_first_column_matches_b1(self, scenario_name, controller, params):
        """Replication 0 decides identically whether B is 1 or 4."""
        seeds = (7, 8, 9, 10)
        scenarios = [
            build_parity_scenario(scenario_name, seed=s) for s in seeds
        ]
        wide = build_batch_engine(scenarios, "meso-vec")
        narrow = build_batch_engine(scenarios[:1], "meso-vec")
        network = scenarios[0].network
        ctrl_wide = build_batch_controller(
            controller, network, len(seeds), **params
        )
        ctrl_narrow = build_batch_controller(controller, network, 1, **params)
        for step in range(150):
            a_wide = ctrl_wide.decide_batch(wide.controller_arrays())
            a_narrow = ctrl_narrow.decide_batch(narrow.controller_arrays())
            assert (a_wide[0] == a_narrow[0]).all(), (controller, step)
            wide.step(1.0, a_wide)
            narrow.step(1.0, a_narrow)


class TestControllerPlumbing:
    def test_every_controller_name_has_a_kernel(self):
        network = build_grid_network(2, 2)
        params = dict(CONTROLLERS)
        for name in CONTROLLER_NAMES:
            kernel = build_batch_controller(name, network, 2, **params[name])
            assert isinstance(kernel, BatchNetworkController), name
            assert kernel.batch_size == 2

    def test_unknown_name_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError, match="unknown controller"):
            build_batch_controller("no-such-controller", network, 1)

    def test_protocol_conformance(self):
        network = build_grid_network(2, 2)
        for cls, kwargs in (
            (BatchUtilBpController, {}),
            (BatchCapBpController, {"period": 16.0}),
            (BatchOriginalBpController, {"period": 16.0}),
            (BatchFixedTimeController, {"period": 16.0}),
        ):
            controller = cls(network, 3, **kwargs)
            assert isinstance(controller, BatchNetworkController)
            assert controller.batch_size == 3
            assert len(controller.node_ids) == 4

    def test_reset_restores_initial_decisions(self):
        scenario = build_named_scenario("steady-3x3", seed=5)
        controller = build_batch_controller("util-bp", scenario.network, 1)

        def first_decisions():
            sim = build_batch_engine(
                [build_named_scenario("steady-3x3", seed=5)], "meso-vec"
            )
            trace = []
            for _ in range(60):
                array = controller.decide_batch(sim.controller_arrays())
                trace.append(array.copy())
                sim.step(1.0, array)
            return trace

        before = first_decisions()
        controller.reset()
        after = first_decisions()
        assert all((a == b).all() for a, b in zip(before, after))

    def test_shape_mismatch_rejected(self):
        scenario = build_named_scenario("steady-3x3", seed=5)
        controller = build_batch_controller("util-bp", scenario.network, 4)
        sim = build_batch_engine(
            [build_named_scenario("steady-3x3", seed=5)], "meso-vec"
        )
        with pytest.raises(ValueError, match="does not match"):
            controller.decide_batch(sim.controller_arrays())

    def test_invalid_batch_size_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError, match="batch_size"):
            BatchUtilBpController(network, 0)

    def test_unknown_util_bp_parameter_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(TypeError, match="unknown util-bp"):
            build_batch_controller("util-bp", network, 1, period=16.0)

    def test_fixed_slot_requires_period(self):
        network = build_grid_network(1, 1)
        with pytest.raises(TypeError, match="period"):
            build_batch_controller("cap-bp", network, 1)


class TestRunnerIntegration:
    def test_layout_mismatch_rejected_before_stepping(self, monkeypatch):
        """Misaligned engine arrays must fail loudly, not decide wrongly."""
        from repro.experiments.runner import run_scenario_batch

        def never_step(self, dt, phases):
            raise AssertionError("stepped despite a layout mismatch")

        monkeypatch.setattr(
            BatchCountsSimulator,
            "movement_layout",
            property(lambda self: ((), ())),
        )
        monkeypatch.setattr(BatchCountsSimulator, "step", never_step)
        with pytest.raises(ValueError, match="layout does not match"):
            run_scenario_batch(
                [build_named_scenario("steady-3x3", seed=5)],
                controller="util-bp",
                duration=60.0,
            )


def _arrays_from_observations(observations, movement_keys):
    """The ``(1, n_movements)`` arrays a B=1 kernel reads, from ``Q(k)``."""
    node_of = {
        key: node_id
        for node_id, obs in observations.items()
        for key in obs.movement_queues
    }
    queues = [
        observations[node_of[key]].movement_queues[key]
        for key in movement_keys
    ]
    out_queues = [
        observations[node_of[key]].out_queues[key[1]]
        for key in movement_keys
    ]
    return np.array([queues]), np.array([out_queues])


class TestEventsControllerArrays:
    """meso-events' array façade reports exactly its own ``Q(k)``."""

    @staticmethod
    def _build(scenario_name, out_queue_mode, controller, params):
        # Short roads: spillback, halting and occupancy all read
        # non-zero out-queues within the horizon.
        scenario = build_parity_scenario(scenario_name, seed=7, capacity=12)
        sim = EventCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seed=scenario.seed,
            out_queue_mode=out_queue_mode,
        )
        kernel = build_batch_controller(
            controller, scenario.network, 1, **params
        )
        return sim, kernel

    @pytest.mark.parametrize(
        "out_queue_mode", EventCountsSimulator.OUT_QUEUE_MODES
    )
    @pytest.mark.parametrize(
        "controller,params",
        (("util-bp", {}), ("fixed-time", {"period": 16.0})),
        ids=("util-bp", "fixed-time"),
    )
    @pytest.mark.parametrize(
        "scenario_name", ("surge-4x4", "surge-4x4" + MIXED_PHASES)
    )
    def test_arrays_equal_observations_every_slot(
        self, scenario_name, controller, params, out_queue_mode
    ):
        sim, kernel = self._build(
            scenario_name, out_queue_mode, controller, params
        )
        assert sim.movement_layout == (kernel.node_ids, kernel.movement_keys)
        movement_keys = kernel.movement_keys
        sensed = congested = 0
        for step in range(STEPS):
            arrays = sim.controller_arrays()
            queues, out_queues = _arrays_from_observations(
                sim.observations(), movement_keys
            )
            assert arrays.time == sim.time
            assert arrays.queues.shape == arrays.out_queues.shape == (
                1,
                len(movement_keys),
            )
            assert (arrays.queues == queues).all(), step
            assert (arrays.out_queues == out_queues).all(), step
            sensed += int(arrays.queues.sum() > sum(
                sim.movement_queue(*key) for key in movement_keys
            ))
            congested += int(arrays.out_queues.any())
            row = kernel.decide_batch(arrays)[0]
            sim.step(1.0, dict(zip(kernel.node_ids, row.tolist())))
        # Both the sensing horizon and the out-queue sensor were exercised.
        assert sensed and congested

    @pytest.mark.parametrize(
        "mini_slot,read_every",
        ((1.0, 7), (0.3, 1), (0.3, 7)),
        ids=("event-loop-every-7", "fallback-every-1", "fallback-every-7"),
    )
    @pytest.mark.parametrize(
        "scenario_name", ("surge-4x4", "surge-4x4" + MIXED_PHASES)
    )
    def test_reads_after_unread_steps_equal_observations(
        self, scenario_name, mini_slot, read_every
    ):
        """The incremental stop-line row catches up over unread steps.

        Fixed-time never reads the façade, so the steps between two
        reads accumulate promotions and service the next read must
        fold in.  A non-dyadic mini-slot (0.3 s) runs the per-slot
        fallback, which may touch every node.
        """
        sim, kernel = self._build(
            scenario_name, "spillback", "fixed-time", {"period": 16.0}
        )
        movement_keys = kernel.movement_keys
        reads = 0
        for step in range(STEPS):
            if step % read_every == 0:
                arrays = sim.controller_arrays()
                queues, out_queues = _arrays_from_observations(
                    sim.observations(), movement_keys
                )
                assert (arrays.queues == queues).all(), step
                assert (arrays.out_queues == out_queues).all(), step
                reads += int(queues.any())
            row = kernel.decide_batch(sim.controller_arrays())[0]
            sim.step(mini_slot, dict(zip(kernel.node_ids, row.tolist())))
        assert sim._per_slot_fallback == (mini_slot == 0.3)
        assert reads
