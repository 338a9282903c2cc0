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
* the util-bp kernel's re-decided cells: on synthetic streams where
  random cells hold their inputs for several slots, decisions equal the
  serial controllers' and the scalar reference's, ``cells_decided``
  matches the rule (first call, changed queues or out-queues, changed
  running phase, amber) and the serial controllers' summed count,
  with amber timers expiring and phases starting while inputs hold,
  ``reset()`` mid-stream, every parameter branch, in-place buffers and
  B=4 and 16; a light-load run re-decides under 20 % of the cells and
  recomputes Eq. 8 for under 2 % of the column-slots, and one whole run
  re-decides as many cells under meso-counts' serial controllers as
  under meso-events' B=1 kernel;
* the util-bp kernel's kept Eq. 8 row: after every call it equals a
  fresh dense ``link_gain_array`` of that call's inputs, bit for bit, on
  the held-input streams and on a congested meso-vec run whose
  out-queues move between the shared zero array and fresh arrays;
* B>1 lockstep on congested plants: B=3 and B=16 kernels on meso-vec
  decide every replication like a B=1 kernel fed that replication's
  rows, on every slot of the short-road steady-3x3 and surge-4x4;
* the meso-events façade: its B=1 ``controller_arrays()`` equal the
  arrays assembled from ``meso-counts``' dict sensor run on its state
  (``CountsSimulator.observations(sim)``) at every slot, and on every
  slot read after several unread ones (the stop-line row is refreshed
  only for the nodes the steps touched), on the event loop and on the
  per-slot fallback alike; its ``observations()``, the dict view of
  those arrays, equals that sensor too;
* the meso (both lane policies) and micro façades: their arrays equal
  an independent dict sensor at every slot and after runs of unread
  slots, on patterns I-IV and on short roads, with a full out-road and
  an approaching vehicle sensed on some slot.  For meso that is its
  own ``observations()``; micro's ``observations()`` is the view of its
  arrays, so its reference is built here from each lane's
  ``detector_count`` and each out-road's ``_sensed_out_queue``, and
  micro's ``observations()`` must equal it as well.
"""

import dataclasses
import gc
import weakref

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
from repro.core.config import UtilBpConfig
from repro.core.engine import build_batch_engine
from repro.core.pressure import link_gain_array
from repro.experiments import runner
from repro.meso.counts import CountsSimulator
from repro.meso.events import EventCountsSimulator
from repro.meso.simulator import MesoSimulator
from repro.meso.vectorized import BatchCountsSimulator
from repro.micro.simulator import MicroSimulator
from repro.model.grid import build_grid_network
from repro.model.queues import QueueObservation
from repro.scenarios import build_named_scenario
from repro.scenarios.core import build_scenario
from repro.scenarios.patterns import PATTERN_NAMES
from tests.conftest import MIXED_PHASES, ReferenceUtilBp, build_parity_scenario

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


class TestCongestedBatchLockstep:
    """Every replication of a wide kernel decides as a B=1 kernel does.

    Short roads (``capacity=12``) keep the spillback sensor and amber
    busy.  Each B=1 kernel reads its replication's rows of the wide
    engine's arrays, so both see the same inputs on every slot.
    """

    @pytest.mark.parametrize("batch_size", (3, 16))
    @pytest.mark.parametrize("scenario_name", ("steady-3x3", "surge-4x4"))
    def test_every_replication_decides_as_b1(self, scenario_name, batch_size):
        scenarios = [
            build_parity_scenario(scenario_name, seed=s, capacity=12)
            for s in range(1, batch_size + 1)
        ]
        sim = build_batch_engine(scenarios, "meso-vec")
        network = scenarios[0].network
        wide = build_batch_controller("util-bp", network, batch_size)
        narrow = [
            build_batch_controller("util-bp", network, 1)
            for _ in range(batch_size)
        ]
        full = 0
        for step in range(300):
            arrays = sim.controller_arrays()
            decision = wide.decide_batch(arrays)
            queues, out_queues = arrays.queues, arrays.out_queues
            for b, kernel in enumerate(narrow):
                row = kernel.decide_batch(
                    _Frame(
                        arrays.time, queues[b:b + 1], out_queues[b:b + 1]
                    )
                )
                assert (row[0] == decision[b]).all(), (scenario_name, b, step)
            full += int(out_queues.any())
            sim.step(1.0, decision)
        assert full > 0
        assert wide.cells_decided == sum(k.cells_decided for k in narrow)


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


class _Unread:
    """Controller arrays whose ``Q(k)`` must not be read."""

    def __init__(self, time, shape):
        self.time = time
        self.shape = shape

    @property
    def queues(self):
        raise AssertionError("queues read before the earliest wake")

    @property
    def out_queues(self):
        raise AssertionError("out_queues read before the earliest wake")


class TestFixedSlotWake:
    """A fixed-slot kernel acts only when some cell's timer comes due."""

    @pytest.mark.parametrize(
        "name,params", CONTROLLERS[1:], ids=[c for c, _ in CONTROLLERS[1:]]
    )
    def test_call_before_earliest_wake_returns_held_decisions(
        self, name, params
    ):
        scenarios = [build_named_scenario("surge-4x4", seed=s) for s in (1, 2, 3)]
        sim = build_batch_engine(scenarios, "meso-vec")
        kernel = build_batch_controller(name, sim.network, 3, **params)
        # A twin fed the real arrays on every call decides the reference.
        twin = build_batch_controller(name, sim.network, 3, **params)
        selects = []
        real_select = kernel._select

        def counted(arrays, b, n, running):
            selects.append(arrays.time)
            # Only cells whose slot ended are scored.
            assert (kernel._wake[b, n] <= arrays.time).all()
            assert (kernel._pending[b, n] < 0).all()
            return real_select(arrays, b, n, running)

        kernel._select = counted
        held_calls = 0
        for _ in range(STEPS):
            arrays = sim.controller_arrays()
            expected = twin.decide_batch(arrays)
            if arrays.time < kernel._next_wake:
                held = kernel._current
                before = len(selects)
                decision = kernel.decide_batch(_Unread(arrays.time, arrays.shape))
                assert decision is held
                assert len(selects) == before
                held_calls += 1
            else:
                decision = kernel.decide_batch(arrays)
            np.testing.assert_array_equal(decision, expected)
            assert kernel._next_wake == kernel._wake.min()
            sim.step(1.0, decision)
        assert 0 < held_calls < STEPS
        assert selects


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
    def _build(scenario_name, controller, params):
        # Short roads: the spillback sensor reads non-zero out-queues
        # within the horizon.
        scenario = build_parity_scenario(scenario_name, seed=7, capacity=12)
        sim = EventCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seed=scenario.seed,
        )
        kernel = build_batch_controller(
            controller, scenario.network, 1, **params
        )
        return sim, kernel

    @pytest.mark.parametrize(
        "controller,params",
        (("util-bp", {}), ("fixed-time", {"period": 16.0})),
        ids=("util-bp", "fixed-time"),
    )
    @pytest.mark.parametrize(
        "scenario_name", ("surge-4x4", "surge-4x4" + MIXED_PHASES)
    )
    def test_arrays_equal_observations_every_slot(
        self, scenario_name, controller, params
    ):
        sim, kernel = self._build(scenario_name, controller, params)
        assert sim.movement_layout == (kernel.node_ids, kernel.movement_keys)
        movement_keys = kernel.movement_keys
        sensed = congested = 0
        for step in range(STEPS):
            arrays = sim.controller_arrays()
            reference = CountsSimulator.observations(sim)
            queues, out_queues = _arrays_from_observations(
                reference, movement_keys
            )
            assert sim.observations() == reference, step
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
            scenario_name, "fixed-time", {"period": 16.0}
        )
        movement_keys = kernel.movement_keys
        reads = 0
        for step in range(STEPS):
            if step % read_every == 0:
                arrays = sim.controller_arrays()
                queues, out_queues = _arrays_from_observations(
                    CountsSimulator.observations(sim), movement_keys
                )
                assert (arrays.queues == queues).all(), step
                assert (arrays.out_queues == out_queues).all(), step
                reads += int(queues.any())
            row = kernel.decide_batch(sim.controller_arrays())[0]
            sim.step(mini_slot, dict(zip(kernel.node_ids, row.tolist())))
        assert sim._per_slot_fallback == (mini_slot == 0.3)
        assert reads


def _meso(lane_policy):
    def build(scenario):
        return MesoSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seed=scenario.seed,
            lane_policy=lane_policy,
        )

    return build


def _micro(scenario):
    return MicroSimulator(
        network=scenario.network,
        demand=scenario.demand,
        turning=scenario.turning,
        seed=scenario.seed,
    )


def _micro_detectors(sim):
    """micro's ``Q(k)`` read lane by lane, apart from its array sensor."""
    p = sim.params
    return {
        node_id: QueueObservation(
            time=sim.time,
            movement_queues={
                (in_road, out_road): sim._lanes[in_road][out_road].detector_count(
                    p.detector_range, p.halting_speed
                )
                for in_road, out_road in intersection.movements
            },
            out_queues={
                road_id: sim._sensed_out_queue(road_id)
                for road_id in intersection.out_roads
            },
        )
        for node_id, intersection in sim.network.intersections.items()
    }


#: The per-vehicle engines with an array façade, by lane policy.
PER_VEHICLE_ENGINES = {
    "meso": _meso("dedicated"),
    "meso-mixed-lanes": _meso("mixed"),
    "micro": _micro,
}

#: The paper's patterns, then steady-3x3 with room for 12 vehicles per
#: road (meso's out-roads fill up and its spillback sensor reads them)
#: and the same on 60 m roads (micro ignores the capacity, its lanes
#: hold what their length holds, so only short roads back up to the
#: junction mouth within the run).
PER_VEHICLE_PLANTS = (
    ("I", {}),
    ("II", {}),
    ("III", {}),
    ("IV", {}),
    ("steady-3x3", {"capacity": 12}),
    ("steady-3x3", {"capacity": 12, "road_length": 60.0}),
)

PER_VEHICLE_STEPS = 200


def _per_vehicle_plant(name, overrides):
    if name in PATTERN_NAMES:
        return build_scenario(name, seed=7, **overrides)
    return build_named_scenario(name, seed=7, **overrides)


class TestPerVehicleControllerArrays:
    """meso's and micro's array façades report exactly their own ``Q(k)``."""

    @pytest.mark.parametrize(
        "controller,params,read_every",
        (("util-bp", {}, 1), ("fixed-time", {"period": 16.0}, 7)),
        ids=("util-bp-every-slot", "fixed-time-every-7"),
    )
    @pytest.mark.parametrize("engine", sorted(PER_VEHICLE_ENGINES))
    def test_arrays_equal_observations(
        self, engine, controller, params, read_every
    ):
        """Every read equals an independent ``Q(k)`` packed into the layout.

        The reference is meso's own ``observations()`` and, for micro,
        :func:`_micro_detectors`, which micro's ``observations()`` must
        equal too.  Fixed-time never reads the façade, so the reads
        every 7th slot follow runs of unread steps.  Over the drawn
        slots some read must see a full out-road and some a vehicle that
        is not yet standing in a stop-line queue (meso: in transit
        within the sensing horizon; micro: moving inside the detector
        area).
        """
        full = approaching = 0
        for name, overrides in PER_VEHICLE_PLANTS:
            scenario = _per_vehicle_plant(name, overrides)
            sim = PER_VEHICLE_ENGINES[engine](scenario)
            kernel = build_batch_controller(
                controller, scenario.network, 1, **params
            )
            assert sim.movement_layout == (
                kernel.node_ids,
                kernel.movement_keys,
            )
            movement_keys = kernel.movement_keys
            in_roads = {in_road for in_road, _ in movement_keys}
            for step in range(PER_VEHICLE_STEPS):
                arrays = sim.controller_arrays()
                if step % read_every == 0:
                    if engine == "micro":
                        reference = _micro_detectors(sim)
                        assert sim.observations() == reference, (name, step)
                    else:
                        reference = sim.observations()
                    queues, out_queues = _arrays_from_observations(
                        reference, movement_keys
                    )
                    assert arrays.time == sim.time
                    assert (arrays.queues == queues).all(), (name, step)
                    assert (arrays.out_queues == out_queues).all(), (
                        name,
                        step,
                    )
                    assert not arrays.queues.flags.writeable
                    assert not arrays.out_queues.flags.writeable
                    full += int(arrays.out_queues.any())
                    approaching += int(
                        arrays.queues.sum()
                        > sum(sim.incoming_queue_total(r) for r in in_roads)
                    )
                row = kernel.decide_batch(arrays)[0]
                sim.step(1.0, dict(zip(kernel.node_ids, row.tolist())))
        assert full and approaching


class _Frame:
    """A plain controller-array view: what a kernel reads, nothing more."""

    def __init__(self, time, queues, out_queues):
        self.time = time
        self.shape = queues.shape
        self.queues = queues
        self.out_queues = out_queues


class _HeldStream:
    """Synthetic ``Q(k)`` streams where random cells hold their inputs.

    Per (replication, node) cell, a fresh draw of the node's movement
    queues is held for 1-6 slots, and so, on its own clock, is a fresh
    draw of its out-road queues: subsets of cells keep identical inputs
    for several slots while others change (sometimes only their
    out-queues), independently per replication.  Queues are often zero
    (the alpha branch) and out-roads are sometimes full (the beta
    branch).
    """

    def __init__(self, network, batch_size, seed):
        self.rng = np.random.default_rng(seed)
        self.batch_size = batch_size
        self.intersections = list(network.intersections.values())
        self.capacity = {r: road.capacity for r, road in network.roads.items()}
        self.columns = []
        self.out_roads = []
        column = 0
        for inter in self.intersections:
            keys = list(inter.movements)
            self.columns.append(range(column, column + len(keys)))
            self.out_roads.append([out for _, out in keys])
            column += len(keys)
        self.n_movements = column
        #: Slots left to hold, per cell: movement queues, out-roads.
        self.hold = np.zeros((2, batch_size, len(self.intersections)), int)
        self.queues = np.zeros((batch_size, column), np.int64)
        self.out_queues = np.zeros((batch_size, column), np.int64)
        self.road_queues = [dict() for _ in range(batch_size)]

    def advance(self):
        """Draw the next slot: redraw every cell whose hold ran out."""
        rng = self.rng
        held = self.hold > 0
        self.hold -= 1
        for b in range(self.batch_size):
            for n, inter in enumerate(self.intersections):
                if not held[0, b, n]:
                    self.hold[0, b, n] = rng.integers(0, 6)
                    for col in self.columns[n]:
                        self.queues[b, col] = (
                            0 if rng.random() < 0.4
                            else int(rng.integers(1, 9))
                        )
                if not held[1, b, n]:
                    self.hold[1, b, n] = rng.integers(0, 6)
                    for road in inter.out_roads:
                        cap = self.capacity[road]
                        self.road_queues[b][road] = (
                            cap if rng.random() < 0.15
                            else int(rng.integers(0, cap // 2))
                        )
                    for col, out in zip(self.columns[n], self.out_roads[n]):
                        self.out_queues[b, col] = self.road_queues[b][out]

    def observations(self, b, time):
        """Replication ``b``'s current inputs as serial ``Q(k)`` maps."""
        out = {}
        for n, inter in enumerate(self.intersections):
            out[inter.node_id] = QueueObservation(
                time,
                {
                    key: int(self.queues[b, col])
                    for key, col in zip(inter.movements, self.columns[n])
                },
                {road: self.road_queues[b][road] for road in inter.out_roads},
            )
        return out


def _assert_gains_row_fresh(kernel, frame):
    """The kernel's kept Eq. 8 row is a dense evaluation of ``frame``.

    Compared bit for bit: a column the kernel failed to recompute, or
    recomputed in another float order, shows here even where the
    decision happens to come out the same.
    """
    layout = kernel._layout
    fresh = link_gain_array(
        frame.queues,
        frame.out_queues,
        layout.m_out_cap,
        layout.m_w_star,
        layout.m_rate,
        kernel.config.alpha,
        kernel.config.beta,
    )
    # Compared as bit patterns, so -0.0 / 0.0 or a NaN would differ too.
    np.testing.assert_array_equal(
        kernel._gains.view(np.int64), fresh.view(np.int64)
    )


def _snapshot_frame(stream, time):
    queues = stream.queues.copy()
    out_queues = stream.out_queues.copy()
    queues.flags.writeable = False
    out_queues.flags.writeable = False
    return _Frame(time, queues, out_queues)


def _drive_held_stream(
    batch_size, params, slots=160, seed=11, reset_at=None, in_place=False
):
    """Batch kernel vs serial controllers on one held-input stream.

    Asserts identical decisions at every slot, and that the kernel
    re-decided exactly the cells its rule names: after a first call
    (all cells), those whose node inputs changed, whose running phase
    differs from the previous call's, or which run amber; and that its
    kept Eq. 8 row equals a fresh dense evaluation after every call.
    The serial controllers skip by the same rule, so the oracle stays
    independent of it: every serial decision is also checked against
    ``ReferenceUtilBp``, which decides from scratch on every call, and
    the serial controllers' summed ``cells_decided`` must equal the
    kernel's after every call.  Returns event counts showing which
    situations the stream produced.

    ``in_place`` feeds one pair of writable arrays, rewritten in place
    every slot, instead of fresh read-only snapshots: the kernel must
    not keep a view of what a later slot overwrites.
    """
    scenario = build_parity_scenario("surge-4x4" + MIXED_PHASES, seed=seed)
    network = scenario.network
    kernel = build_batch_controller("util-bp", network, batch_size, **params)
    serial = [
        make_network_controller("util-bp", network, **params)
        for _ in range(batch_size)
    ]
    config = UtilBpConfig(**params)
    references = [
        {
            node: ReferenceUtilBp(inter, config)
            for node, inter in network.intersections.items()
        }
        for _ in range(batch_size)
    ]
    stream = _HeldStream(network, batch_size, seed)
    node_ids = kernel.node_ids
    shape = (batch_size, len(node_ids))
    running = np.zeros(shape, int)  # the phase each cell runs now
    last_running = None  # ... and ran at the previous call
    buffers = (stream.queues.copy(), stream.out_queues.copy())
    events = dict(
        expired_while_held=0, switched_then_held=0, alpha=0, beta=0,
        skipped=0,
    )
    for k in range(slots):
        if k == reset_at:
            kernel.reset()
            for controller in serial:
                controller.reset()
            for reference in references:
                for controller in reference.values():
                    controller.reset()
            running = np.zeros(shape, int)
            last_running = None
        before = (stream.queues.copy(), stream.out_queues.copy())
        stream.advance()
        # A cell holds when its node's inputs equal the previous slot's
        # (a redraw may repeat them).
        held = np.array([
            [
                (before[0][b, cols] == stream.queues[b, cols]).all()
                and (before[1][b, cols] == stream.out_queues[b, cols]).all()
                for cols in stream.columns
            ]
            for b in range(batch_size)
        ])
        time = float(k)
        if in_place:
            np.copyto(buffers[0], stream.queues)
            np.copyto(buffers[1], stream.out_queues)
            frame = _Frame(time, *buffers)
        else:
            frame = _snapshot_frame(stream, time)
        decided_before = kernel.cells_decided
        decision = kernel.decide_batch(frame)
        _assert_gains_row_fresh(kernel, frame)
        for b in range(batch_size):
            observations = stream.observations(b, time)
            expected = serial[b].decide(observations)
            assert _as_map(decision, node_ids, b) == expected, (k, b)
            assert expected == {
                node: references[b][node].decide(obs)
                for node, obs in observations.items()
            }, (k, b)
        assert kernel.cells_decided == sum(
            controller.cells_decided
            for network_controller in serial
            for controller in network_controller.controllers.values()
        ), k
        if last_running is None:
            redo = np.ones(shape, bool)
        else:
            redo = ~held | (running != last_running) | (running == 0)
        assert kernel.cells_decided - decided_before == redo.sum(), k
        events["skipped"] += int((~redo).sum())
        events["expired_while_held"] += int(
            (held & (running == 0) & (decision != 0)).sum()
        )
        if last_running is not None:
            events["switched_then_held"] += int(
                (held & (last_running == 0) & (running != 0)).sum()
            )
        events["alpha"] += int((stream.queues == 0).sum())
        events["beta"] += int(
            (stream.out_queues >= _capacities(stream, kernel)).sum()
        )
        last_running, running = running, decision
    return kernel, events


def _capacities(stream, kernel):
    return np.array(
        [stream.capacity[out] for _, out in kernel.movement_keys]
    )


class TestReDecidedCells:
    """The kernel re-decides only cells whose inputs changed, exactly.

    Synthetic held-input streams drive the batch kernel and the serial
    controllers side by side; every decision must agree, and the
    kernel's ``cells_decided`` counter must match the re-decision rule.
    """

    @pytest.mark.parametrize("batch_size", (1, 4, 16))
    def test_held_inputs_decide_as_serial(self, batch_size):
        _, events = _drive_held_stream(batch_size, {})
        # The stream produced every situation the rule must handle.
        assert events["expired_while_held"] > 0
        assert events["switched_then_held"] > 0
        assert events["skipped"] > 0
        assert events["alpha"] > 0 and events["beta"] > 0

    @pytest.mark.parametrize(
        "params",
        (
            {"keep_margin": 2.0},
            {"keep_margin": 0.5, "transition_duration": 2.0},
            # The reverse of the paper's ordering: beta above alpha.
            {"alpha": -3.0, "beta": -0.5},
        ),
        ids=("keep-margin", "short-amber", "beta-above-alpha"),
    )
    def test_parameters(self, params):
        _drive_held_stream(4, params, slots=100)

    def test_reset_mid_stream(self):
        kernel, _ = _drive_held_stream(4, {}, reset_at=70)
        assert kernel.cells_offered == 4 * len(kernel.node_ids) * (160 - 70)

    def test_in_place_buffers(self):
        """Writable inputs rewritten in place must not alias the memo."""
        _drive_held_stream(4, {}, in_place=True)

    def test_reset_releases_the_kept_arrays(self):
        network = build_parity_scenario("surge-4x4", seed=3).network
        kernel = build_batch_controller("util-bp", network, 2)
        stream = _HeldStream(network, 2, seed=3)
        stream.advance()
        frame = _snapshot_frame(stream, 0.0)
        kernel.decide_batch(frame)
        kept = weakref.ref(frame.queues)
        del frame
        gc.collect()
        assert kept() is not None  # the memo holds the last snapshot
        kernel.reset()
        gc.collect()
        assert kept() is None
        assert kernel.cells_offered == kernel.cells_decided == 0

    def test_gains_row_on_a_congested_batch(self):
        """meso-vec B=3 on short roads: the kept row stays a fresh Eq. 8.

        While no road is full the engine hands out one shared zero
        ``out_queues`` array, call after call (the kernel skips the
        comparison), and a fresh array once a road is full: the kernel
        must recompute the out-queue columns on every such change.
        """
        scenarios = [
            build_parity_scenario("steady-3x3", seed=s, capacity=12)
            for s in (1, 2, 3)
        ]
        sim = build_batch_engine(scenarios, "meso-vec")
        kernel = build_batch_controller("util-bp", scenarios[0].network, 3)
        kinds = []
        last = None
        for _ in range(300):
            arrays = sim.controller_arrays()
            decision = kernel.decide_batch(arrays)
            _assert_gains_row_fresh(kernel, arrays)
            out_queues = arrays.out_queues
            if out_queues is last:
                kinds.append("same")
            else:
                kinds.append("full" if out_queues.any() else "zero")
            last = out_queues
            sim.step(1.0, decision)
        # The spillback sensor fired, the out-queues went back to zero
        # afterwards, and the shared zero array repeated across calls.
        assert "same" in kinds
        assert ("full", "zero") in set(zip(kinds, kinds[1:]))

    def test_node_without_movements_rejected(self):
        network = build_grid_network(2, 2)
        node_id, inter = next(iter(network.intersections.items()))
        bare = dataclasses.replace(inter, movements={}, phases=())
        network = dataclasses.replace(
            network, intersections={**network.intersections, node_id: bare}
        )
        with pytest.raises(ValueError, match="no movements"):
            BatchUtilBpController(network, 1)


@pytest.fixture
def built_controllers(monkeypatch):
    """Every controller ``run_scenario`` builds, in build order."""
    built = []

    def capture(factory):
        def build(*args, **kwargs):
            built.append(factory(*args, **kwargs))
            return built[-1]
        return build

    for name in ("make_network_controller", "build_batch_controller"):
        monkeypatch.setattr(runner, name, capture(getattr(runner, name)))
    return built



class TestReDecidedCounters:
    def test_steady_light_load_skips_most_cells(self):
        """steady-10x10 at load 0.1, B=16: under 20 % re-decided.

        The first call re-decides every cell; afterwards only cells
        whose inputs or running phase changed, or which show amber.
        A lost skip shows here, not only as a slower benchmark.
        """
        scenarios = [
            build_named_scenario("steady-10x10", seed=1 + b, load=0.1)
            for b in range(16)
        ]
        sim = build_batch_engine(scenarios, "meso-vec")
        kernel = build_batch_controller("util-bp", scenarios[0].network, 16)
        cells = 16 * len(kernel.node_ids)
        decision = kernel.decide_batch(sim.controller_arrays())
        assert kernel.cells_offered == kernel.cells_decided == cells
        sim.step(1.0, decision)
        for _ in range(239):
            sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))
        assert kernel.cells_offered == 240 * cells
        assert kernel.cells_decided < 0.2 * kernel.cells_offered
        # Eq. 8 is recomputed only for the columns whose inputs changed.
        columns = 16 * len(kernel.movement_keys)
        assert columns <= kernel.columns_updated < 0.02 * 240 * columns
        kernel.reset()
        assert kernel.columns_updated == 0

    @pytest.mark.parametrize(
        "workload,duration",
        [("steady-10x10@0.1", 240.0), ("steady-10x10@1.0", 240.0)]
        + [(pattern, 1200.0) for pattern in ("I", "II", "III", "IV")],
    )
    def test_serial_and_kernel_redecide_the_same_cells(
        self, built_controllers, workload, duration
    ):
        """One run: meso-counts' serial controllers and meso-events' B=1
        kernel re-decide the same intersection-slots, in sum."""
        name, _, load = workload.partition("@")
        if load:
            scenario = build_named_scenario(name, seed=1, load=float(load))
        else:
            scenario = build_scenario(name, seed=1)
        results = [
            runner.run_scenario(
                scenario, controller="util-bp", engine=engine, duration=duration
            ).to_dict()
            for engine in ("meso-counts", "meso-events")
        ]
        assert results[0] == results[1]
        serial, kernel = built_controllers
        assert isinstance(kernel, BatchUtilBpController)
        for counter in ("cells_offered", "cells_decided"):
            assert getattr(kernel, counter) == sum(
                getattr(controller, counter)
                for controller in serial.controllers.values()
            ), counter
        offered = len(scenario.network.intersections) * int(duration)
        assert kernel.cells_offered == offered
        assert 0 < kernel.cells_decided < offered
