"""The controller-array façade contract: sensed on first read, once.

:class:`~repro.core.engine.BatchControlArrays` knows its ``time`` and
``shape`` at once; ``queues`` and ``out_queues`` are sensed by the
engine's ``sense_arrays()`` on first read, cached, and valid until the
engine's next ``step()``.  This suite pins:

* how often each kernel makes the engines sense over a whole run,
  through the runner's own loops (meso-events, meso-vec at B=1 and
  B=4): util-bp once per slot, fixed-time never, cap-bp and
  original-bp exactly on the slots where some cell's slot expired;
* one sensing per façade, however often it is read;
* the stale-read guard: a façade read after the engine stepped raises
  ``RuntimeError``, and arrays read before the step never change;
* read-only snapshots: writing to a slot's arrays raises;
* meso-vec's kept in-transit count equals a from-scratch walk at every
  read: under util-bp and after unread slots, with a travel time within
  the sensing horizon and with no horizon, at B=1 and B=4;
* the dict view ``observations()`` of ``micro``, ``meso-events`` and
  ``meso-vec`` reads (``FacadeTables.observations``): one map per row,
  every intersection's movements and out-roads in declaration order,
  plain ``int`` readings, exit roads at 0, and a ``ValueError`` naming
  a non-exit out-road that no movement column reads.
"""

import dataclasses

import numpy as np
import pytest

from repro.control.batch import _BatchFixedSlotController
from repro.control.factory import build_batch_controller
from repro.core.engine import FacadeTables, build_batch_engine, build_engine
from repro.experiments.runner import run_scenario, run_scenario_batch
from repro.meso.events import EventCountsSimulator
from repro.meso.vectorized import BatchCountsSimulator
from repro.model.grid import build_grid_network
from repro.model.network import BOUNDARY
from repro.model.phases import Phase
from repro.model.plant import PlantConstants
from repro.scenarios import build_named_scenario

SLOTS = 240

#: (label, sensing engine class, batch width or None for run_scenario).
LOOPS = (
    ("meso-events", EventCountsSimulator, None),
    ("meso-vec-b1", BatchCountsSimulator, 1),
    ("meso-vec-b4", BatchCountsSimulator, 4),
)

FIXED_SLOT = (("cap-bp", {"period": 16.0}), ("original-bp", {"period": 16.0}))


def _run(width, controller, params):
    """One 240-slot run on surge-4x4 through the runner's own loop."""
    knobs = dict(
        controller=controller, controller_params=params, duration=SLOTS
    )
    if width is None:
        scenario = build_named_scenario("surge-4x4", seed=3)
        run_scenario(scenario, engine="meso-events", **knobs)
    else:
        scenarios = [
            build_named_scenario("surge-4x4", seed=3 + b) for b in range(width)
        ]
        run_scenario_batch(scenarios, engine="meso-vec", **knobs)


def _count_sensing(monkeypatch, owner):
    """Record the engine time of every ``sense_arrays`` call."""
    times = []
    real = owner.sense_arrays

    def counted(self):
        times.append(self.time)
        return real(self)

    monkeypatch.setattr(owner, "sense_arrays", counted)
    return times


def _record_expiries(monkeypatch):
    """Record the slots on which some cell's fixed slot expired.

    Read from the kernel's own state before each decision: a cell with
    no parked selection wakes at its slot end, and re-selects once that
    has passed.
    """
    times = []
    real = _BatchFixedSlotController.decide_batch

    def recorded(self, arrays):
        expired = (self._pending < 0) & (arrays.time >= self._wake)
        if expired.any():
            times.append(arrays.time)
        return real(self, arrays)

    monkeypatch.setattr(_BatchFixedSlotController, "decide_batch", recorded)
    return times


@pytest.mark.parametrize(
    "owner,width", [loop[1:] for loop in LOOPS], ids=[loop[0] for loop in LOOPS]
)
class TestSensingCounts:
    def test_util_bp_senses_once_per_slot(self, monkeypatch, owner, width):
        reads = _count_sensing(monkeypatch, owner)
        _run(width, "util-bp", None)
        assert reads == [float(k) for k in range(SLOTS)]

    def test_fixed_time_never_senses(self, monkeypatch, owner, width):
        reads = _count_sensing(monkeypatch, owner)
        _run(width, "fixed-time", {"period": 16.0})
        assert reads == []

    @pytest.mark.parametrize(
        "controller,params", FIXED_SLOT, ids=[c for c, _ in FIXED_SLOT]
    )
    def test_fixed_slot_senses_only_when_a_slot_expired(
        self, monkeypatch, owner, width, controller, params
    ):
        reads = _count_sensing(monkeypatch, owner)
        expiries = _record_expiries(monkeypatch)
        _run(width, controller, params)
        assert reads == expiries
        assert 0 < len(reads) < SLOTS


@pytest.fixture(params=("meso-events", "meso-vec"))
def sim(request):
    """A fresh meso-events engine or a fresh B=1 meso-vec batch."""
    scenario = build_named_scenario("surge-4x4", seed=3)
    if request.param == "meso-events":
        return build_engine(scenario, "meso-events")
    return build_batch_engine([scenario], "meso-vec")


def _advance(sim, kernel):
    """Decide on the façade and step one mini-slot."""
    decisions = kernel.decide_batch(sim.controller_arrays())
    if isinstance(sim, EventCountsSimulator):
        decisions = dict(zip(kernel.node_ids, decisions[0].tolist()))
    sim.step(1.0, decisions)


class TestFacade:
    def test_time_and_shape_without_sensing(self, monkeypatch, sim):
        def never(self):
            raise AssertionError("sensed without a read")

        monkeypatch.setattr(type(sim), "sense_arrays", never)
        arrays = sim.controller_arrays()
        assert arrays.time == sim.time
        assert arrays.shape == (1, len(sim.movement_layout[1]))
        kernel = build_batch_controller(
            "fixed-time", sim.network, 1, period=16.0
        )
        for _ in range(30):
            _advance(sim, kernel)

    def test_one_sensing_per_facade(self, monkeypatch, sim):
        reads = _count_sensing(monkeypatch, type(sim))
        kernel = build_batch_controller("util-bp", sim.network, 1)
        for _ in range(40):
            _advance(sim, kernel)
        arrays = sim.controller_arrays()
        first = arrays.queues
        assert arrays.queues is first
        assert arrays.out_queues is arrays.out_queues
        assert first.shape == arrays.shape
        assert len(reads) == 41

    def test_read_after_step_raises(self, sim):
        kernel = build_batch_controller("util-bp", sim.network, 1)
        for _ in range(40):
            _advance(sim, kernel)
        unread = sim.controller_arrays()
        read = sim.controller_arrays()
        queues, out_queues = read.queues, read.out_queues
        before = queues.copy(), out_queues.copy()
        _advance(sim, kernel)
        for arrays in (unread, read):
            with pytest.raises(RuntimeError, match="stepped"):
                arrays.queues
            with pytest.raises(RuntimeError, match="stepped"):
                arrays.out_queues
        # Arrays handed out before the step are the engine's no more.
        for _ in range(40):
            _advance(sim, kernel)
        assert np.array_equal(queues, before[0])
        assert np.array_equal(out_queues, before[1])

    def test_arrays_are_read_only_snapshots(self, sim):
        """Writing to a slot's arrays raises; later steps leave them be.

        The util-bp kernel keeps the previous call's arrays to find the
        cells whose inputs changed, so they must never change.
        """
        kernel = build_batch_controller("util-bp", sim.network, 1)
        kept = []
        for _ in range(60):
            arrays = sim.controller_arrays()
            for array in (arrays.queues, arrays.out_queues):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1
            kept.append(
                (arrays.queues, arrays.queues.copy(),
                 arrays.out_queues, arrays.out_queues.copy())
            )
            _advance(sim, kernel)
        for queues, queues_then, out_queues, out_queues_then in kept:
            assert np.array_equal(queues, queues_then)
            assert np.array_equal(out_queues, out_queues_then)


def _reference_sense(sim):
    """meso-vec's ``(queues, out_queues)`` from scratch.

    The walk over every sensed transit FIFO that ``sense_arrays`` made
    on each read before it kept a count: the oracle the incremental
    count must equal.
    """
    deadline = sim.time + sim._sensing_horizon
    queues = sim._queue_len.copy()
    R = len(sim._road_ids)
    for b, ri in np.argwhere(sim._head_ready <= deadline).tolist():
        gids, road_id = sim._promote_plan[ri]
        for ready, units in sim._transit[b * R + ri]:
            if ready > deadline:
                break
            for unit in units:
                queues[b, gids[unit[road_id]]] += 1
    occ = sim._occ
    road_out = np.where(occ >= sim._caps[None, :], occ, 0)
    return queues, road_out[:, sim._out_idx]


#: Plant variants of the sensing oracle: the default horizon, a travel
#: time within the horizon (cohorts count at their push) and no horizon.
SENSING = (
    ("default", {}),
    ("travel-within-horizon", {"travel_time": 1.0, "sensing_horizon": 3.0}),
    ("no-horizon", {"sensing_horizon": 0.0}),
)


def _sensing_batch(width, plant):
    # Short roads: the spillback sensor reads non-zero out-queues
    # within the run.
    scenario = build_named_scenario("surge-4x4", seed=3, capacity=12)
    return BatchCountsSimulator(
        network=scenario.network,
        demand=scenario.demand,
        turning=scenario.turning,
        seeds=tuple(3 + b for b in range(width)),
        plant=PlantConstants(**plant),
    )


class TestIncrementalSensing:
    """meso-vec's kept in-transit count equals the from-scratch walk."""

    @pytest.mark.parametrize(
        "plant", [p for _, p in SENSING], ids=[name for name, _ in SENSING]
    )
    @pytest.mark.parametrize("width", (1, 4))
    def test_util_bp_run(self, width, plant):
        sim = _sensing_batch(width, plant)
        kernel = build_batch_controller("util-bp", sim.network, width)
        in_transit = spilled = 0
        for step in range(SLOTS):
            arrays = sim.controller_arrays()
            queues, out_queues = _reference_sense(sim)
            assert np.array_equal(arrays.queues, queues), step
            assert np.array_equal(arrays.out_queues, out_queues), step
            in_transit += int((queues != sim._queue_len).any())
            spilled += int(out_queues.any())
            sim.step(1.0, kernel.decide_batch(arrays))
        # The horizon augmented the stop-line queues on most slots, and
        # the spillback sensor fired.
        assert in_transit > SLOTS // 2
        assert spilled

    @pytest.mark.parametrize(
        "plant", [p for _, p in SENSING], ids=[name for name, _ in SENSING]
    )
    @pytest.mark.parametrize("read_every", (3, 7))
    def test_reads_after_unread_slots(self, plant, read_every):
        """Cohorts promoted between two reads never enter the count."""
        sim = _sensing_batch(4, plant)
        kernel = build_batch_controller("fixed-time", sim.network, 4, period=16.0)
        for step in range(SLOTS):
            if step % read_every == 0:
                arrays = sim.controller_arrays()
                queues, out_queues = _reference_sense(sim)
                assert np.array_equal(arrays.queues, queues), step
                assert np.array_equal(arrays.out_queues, out_queues), step
            sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))

    def test_nothing_kept_before_the_first_read(self):
        sim = _sensing_batch(4, {})
        kernel = build_batch_controller("fixed-time", sim.network, 4, period=16.0)
        for _ in range(50):
            sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))
        assert sim._sensed is None
        arrays = sim.controller_arrays()
        assert np.array_equal(arrays.queues, _reference_sense(sim)[0])


def _without_movements_onto(network, node_id, road_id):
    """``network`` with no movement of ``node_id`` onto ``road_id``."""
    node = network.intersections[node_id]
    phases = [
        Phase(phase.index, kept)
        for phase in node.phases
        if (kept := tuple(m for m in phase.movements if m.out_road != road_id))
    ]
    variant = dataclasses.replace(
        node,
        movements={
            key: movement
            for key, movement in node.movements.items()
            if movement.out_road != road_id
        },
        phases=phases,
    )
    return dataclasses.replace(
        network, intersections={**network.intersections, node_id: variant}
    )


class TestObservationView:
    """``FacadeTables.observations``: the dict view of a sensed pair."""

    def test_rows_become_per_intersection_maps(self):
        network = build_grid_network(2, 2)
        tables = FacadeTables.of(network)
        width = tables.n_movements
        queues = np.arange(3 * width, dtype=np.int64).reshape(3, width)
        out_queues = np.full((3, width), 7, dtype=np.int64)
        views = tables.observations(12.5, queues, out_queues)
        assert len(views) == 3
        for b, view in enumerate(views):
            assert list(view) == list(network.intersections)
            column = 0
            for node_id, intersection in network.intersections.items():
                obs = view[node_id]
                assert obs.time == 12.5
                assert list(obs.movement_queues) == list(intersection.movements)
                for key in intersection.movements:
                    assert obs.movement_queues[key] == queues[b, column]
                    assert type(obs.movement_queues[key]) is int
                    column += 1
                assert list(obs.out_queues) == list(intersection.out_roads)
                for road_id, reading in obs.out_queues.items():
                    exit_road = network.road_destination[road_id] == BOUNDARY
                    assert reading == (0 if exit_road else 7), road_id

    def test_out_road_without_a_column_is_refused(self):
        network = build_grid_network(1, 2)
        road_id = next(
            road
            for road in network.intersections["J00"].out_roads
            if network.road_destination[road] == "J01"
        )
        tables = FacadeTables(_without_movements_onto(network, "J00", road_id))
        zeros = np.zeros((1, tables.n_movements), dtype=np.int64)
        with pytest.raises(ValueError, match=repr(road_id)):
            tables.observations(0.0, zeros, zeros)
