"""Equivalence suite: ``meso-counts`` against the reference ``meso``,
and ``meso-vec`` / ``meso-events`` against ``meso-counts``.

The counts-based engine claims *step-for-step identical* Eq.-2
dynamics under a shared seed, not statistical similarity.  This suite
drives both engines in lockstep over steady/tidal/surge catalog
scenarios and asserts, at every mini-slot:

* identical queue observations (per-movement queues, outgoing queues,
  capacities) — the controller-visible state ``Q(k)``;
* identical occupancy introspection (vehicles in network, backlog,
  per-road stop-line totals);

and, at the end of the run:

* identical utilization books per intersection;
* identical entered/left counts and total queuing time (the counts
  engine's waiting-time integral must equal the per-vehicle sum);
* a flagged aggregate summary (``delay_mode``) whose exact fields
  match the reference.

Both closed-loop (util-bp, each engine fed its own observations) and
open-loop (fixed phase schedule) drives are covered: closed-loop
proves the engines are interchangeable inside the real control loop,
open-loop proves the parity does not depend on the controller masking
differences.

The ``meso-events`` calendar-queue engine claims the same bit-exact
trajectory as ``meso-counts`` under a shared seed — the event loop only
reschedules *when* work happens, never *what* happens — so it runs the
identical closed- and open-loop lockstep matrices.

The ``meso-vec`` batch engine extends the chain: at ``B=1`` it must be
*exactly* equal to ``meso-counts`` under the same seed (same lockstep
checks, on the batch's per-replication ``observations()`` view), and
every replication's results must be independent of the batch size —
together those two pin each replication of any batch to the serial
trajectory of its seed.  The batched controller kernels are pinned the
same way, and so is the runner: ``run_scenario`` on ``meso-vec`` is a
batch of one and must equal the ``meso-counts`` run.  ``run_scenario``
on ``meso-events`` runs a B=1 kernel on the engine's own array façade
and must equal the ``meso-counts`` run too, which stays on the serial
``observations()`` / ``NetworkController`` loop.  ``run_scenario`` on
``meso`` and ``micro`` runs the B=1 kernel on their façades as well and
must equal the same engine driven by hand through the serial loop.
"""

import numpy as np
import pytest

from repro.control.factory import (
    build_batch_controller,
    make_network_controller,
)
from repro.core.engine import build_batch_engine, build_engine
from repro.model.plant import PlantConstants
from repro.scenarios import build_named_scenario
from tests.conftest import MIXED_PHASES, build_parity_scenario

#: The catalog entries the parity claim is asserted on (the demand
#: shapes differ: constant, piecewise tidal swap, load spike).
SCENARIOS = ("steady-3x3", "tidal-3x3", "surge-4x4")

STEPS = 300

#: Short roads: under util-bp the catalog scenarios back up to junction
#: mouths, so the spillback sensor reads non-zero out-queues (at the
#: catalog capacity it reads 0 on every slot of the lockstep).
CONGESTED = {"capacity": 12}


class _FirstReplication:
    """A B=1 meso-vec batch seen through the serial calls of the lockstep."""

    def __init__(self, scenario):
        self.batch = build_batch_engine([scenario], "meso-vec")
        self.network = scenario.network

    def observations(self):
        return self.batch.observations()[0]

    def vehicles_in_network(self):
        return int(self.batch.vehicles_in_network()[0])

    def backlog_size(self):
        return int(self.batch.backlog_size()[0])

    def incoming_queue_total(self, road_id):
        return int(self.batch.incoming_queue_total(road_id)[0])

    def step(self, dt, phases):
        self.batch.step(dt, [phases])

    def finalize(self):
        self.batch.finalize()


def _build(name, engine, **overrides):
    scenario = build_named_scenario(name, seed=11, **overrides)
    if engine == "meso-vec":
        return _FirstReplication(scenario)
    return build_engine(scenario, engine)


def _lockstep(
    name,
    decide_a,
    decide_b,
    steps=STEPS,
    engines=("meso", "meso-counts"),
    **overrides,
):
    """Drive two engines in lockstep; assert per-step equivalence."""
    reference = _build(name, engines[0], **overrides)
    counts = _build(name, engines[1], **overrides)
    roads = list(reference.network.roads)
    for step in range(steps):
        obs_ref = reference.observations()
        obs_cnt = counts.observations()
        assert set(obs_ref) == set(obs_cnt)
        for node_id in obs_ref:
            a, b = obs_ref[node_id], obs_cnt[node_id]
            assert a.movement_queues == b.movement_queues, (name, step, node_id)
            assert a.out_queues == b.out_queues, (name, step, node_id)
        assert reference.vehicles_in_network() == counts.vehicles_in_network()
        assert reference.backlog_size() == counts.backlog_size()
        if step % 25 == 0:  # spot-check the per-road introspection
            for road in roads:
                assert reference.incoming_queue_total(
                    road
                ) == counts.incoming_queue_total(road), (name, step, road)
        phases_ref = decide_a(obs_ref, step)
        phases_cnt = decide_b(obs_cnt, step)
        assert phases_ref == phases_cnt, (name, step)
        reference.step(1.0, phases_ref)
        counts.step(1.0, phases_cnt)
    reference.finalize()
    counts.finalize()
    return reference, counts


def _closed_loop_util_bp(name, engines, **overrides):
    """Lockstep under util-bp, each engine fed its own observations.

    Returns both engines and the number of slots on which some
    out-queue read non-zero.
    """
    network = build_named_scenario(name, seed=11, **overrides).network
    controllers = [
        make_network_controller("util-bp", network) for _ in range(2)
    ]
    spilled = []

    def decide_a(obs, step):
        if any(any(o.out_queues.values()) for o in obs.values()):
            spilled.append(step)
        return controllers[0].decide(obs)

    a, b = _lockstep(
        name,
        decide_a,
        lambda obs, step: controllers[1].decide(obs),
        engines=engines,
        **overrides,
    )
    return a, b, len(spilled)


def _open_loop_fixed_phases(name, engines, **overrides):
    """Lockstep under one fixed phase schedule for every node.

    Returns both engines and the number of slots on which some
    out-queue read non-zero.
    """
    network = build_named_scenario(name, seed=11, **overrides).network
    nodes = list(network.intersections)
    spilled = []

    def fixed(obs, step):
        # 12 s green dwells cycling all four phases, with an amber
        # step at every switch (phase 0), like a real signal plan.
        slot, offset = divmod(step, 13)
        phase = 0 if offset == 12 else 1 + slot % 4
        return {node: phase for node in nodes}

    def fixed_a(obs, step):
        if any(any(o.out_queues.values()) for o in obs.values()):
            spilled.append(step)
        return fixed(obs, step)

    a, b = _lockstep(name, fixed_a, fixed, engines=engines, **overrides)
    return a, b, len(spilled)


def _assert_books_match(reference, counts, horizon=float(STEPS)):
    ref_util = {n: t.to_dict() for n, t in reference.utilization.items()}
    cnt_util = {n: t.to_dict() for n, t in counts.utilization.items()}
    assert ref_util == cnt_util
    ref = reference.collector.summary(horizon)
    cnt = counts.collector.summary(horizon)
    assert ref.delay_mode == "per-vehicle"
    assert cnt.delay_mode == "aggregate"
    assert cnt.vehicles_entered == ref.vehicles_entered
    assert cnt.vehicles_left == ref.vehicles_left
    # The waiting-count integral equals the per-vehicle waiting sum
    # exactly — joins and services land on mini-slot boundaries.
    assert cnt.total_queuing_time == ref.total_queuing_time
    assert cnt.average_queuing_time == pytest.approx(ref.average_queuing_time)
    assert cnt.throughput_per_hour == pytest.approx(ref.throughput_per_hour)


@pytest.mark.parametrize("name", SCENARIOS)
class TestTrajectoryParity:
    ENGINES = ("meso", "meso-counts")

    def test_closed_loop_util_bp(self, name):
        reference, counts, _ = _closed_loop_util_bp(name, self.ENGINES)
        _assert_books_match(reference, counts)

    def test_closed_loop_util_bp_congested(self, name):
        reference, counts, spilled = _closed_loop_util_bp(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        _assert_books_match(reference, counts)

    def test_open_loop_fixed_phases(self, name):
        reference, counts, _ = _open_loop_fixed_phases(name, self.ENGINES)
        _assert_books_match(reference, counts)

    def test_open_loop_fixed_phases_congested(self, name):
        reference, counts, spilled = _open_loop_fixed_phases(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        _assert_books_match(reference, counts)


@pytest.mark.parametrize("name", SCENARIOS)
class TestEventsTrajectoryParity:
    """``meso-events`` against ``meso-counts``: exact, per step.

    Both engines keep aggregate books, so beyond the lockstep state
    checks the whole final summary must be bit-for-bit equal — and so
    must the banked service credits, which the event engine defers and
    replays lazily (finalize settles them).
    """

    ENGINES = ("meso-counts", "meso-events")

    def _assert_aggregate_books_match(self, counts, events):
        horizon = float(STEPS)
        cnt_util = {n: t.to_dict() for n, t in counts.utilization.items()}
        evt_util = {n: t.to_dict() for n, t in events.utilization.items()}
        assert cnt_util == evt_util
        cnt = counts.collector.summary(horizon)
        evt = events.collector.summary(horizon)
        assert cnt.delay_mode == evt.delay_mode == "aggregate"
        assert cnt == evt
        assert counts._credit == events._credit

    def test_closed_loop_util_bp(self, name):
        counts, events, _ = _closed_loop_util_bp(name, self.ENGINES)
        self._assert_aggregate_books_match(counts, events)

    def test_closed_loop_util_bp_congested(self, name):
        counts, events, spilled = _closed_loop_util_bp(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        self._assert_aggregate_books_match(counts, events)

    def test_open_loop_fixed_phases(self, name):
        counts, events, _ = _open_loop_fixed_phases(name, self.ENGINES)
        self._assert_aggregate_books_match(counts, events)

    def test_open_loop_fixed_phases_congested(self, name):
        counts, events, spilled = _open_loop_fixed_phases(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        self._assert_aggregate_books_match(counts, events)


@pytest.mark.parametrize("name", SCENARIOS)
class TestVectorizedTrajectoryParity:
    """``meso-vec`` at B=1 against ``meso-counts``: exact, per step."""

    ENGINES = ("meso-counts", "meso-vec")

    def _assert_aggregate_books_match(self, counts, vectorized):
        horizon = float(STEPS)
        batch = vectorized.batch
        cnt_util = {n: t.to_dict() for n, t in counts.utilization.items()}
        vec_util = {n: t.to_dict() for n, t in batch.utilization_of(0).items()}
        assert cnt_util == vec_util
        # Both report aggregate books, so the whole summary — travel
        # time estimate included — must be bit-for-bit equal.
        cnt = counts.collector.summary(horizon)
        vec = batch.collector.summary_of(0, horizon)
        assert cnt.delay_mode == vec.delay_mode == "aggregate"
        assert cnt == vec

    def test_closed_loop_util_bp(self, name):
        counts, vectorized, _ = _closed_loop_util_bp(name, self.ENGINES)
        self._assert_aggregate_books_match(counts, vectorized)

    def test_closed_loop_util_bp_congested(self, name):
        counts, vectorized, spilled = _closed_loop_util_bp(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        self._assert_aggregate_books_match(counts, vectorized)

    def test_open_loop_fixed_phases(self, name):
        counts, vectorized, _ = _open_loop_fixed_phases(name, self.ENGINES)
        self._assert_aggregate_books_match(counts, vectorized)

    def test_open_loop_fixed_phases_congested(self, name):
        counts, vectorized, spilled = _open_loop_fixed_phases(
            name, self.ENGINES, **CONGESTED
        )
        assert spilled
        self._assert_aggregate_books_match(counts, vectorized)


class TestBatchIndependence:
    """Replication results must not depend on the batch size."""

    STEPS = 200
    # Load spike; at default road capacities no downstream space binds,
    # so the staged serve path is pinned by TestEveryBatchMember instead.
    NAME = "surge-4x4"

    def _run(self, seeds):
        scenarios = [build_named_scenario(self.NAME, seed=s) for s in seeds]
        sim = build_batch_engine(scenarios, "meso-vec")
        controllers = [
            make_network_controller("util-bp", scenarios[0].network)
            for _ in seeds
        ]
        for _ in range(self.STEPS):
            observations = sim.observations()
            sim.step(
                1.0,
                [
                    controller.decide(obs)
                    for controller, obs in zip(controllers, observations)
                ],
            )
        sim.finalize()
        return {
            seed: (
                sim.collector.summary_of(b, float(self.STEPS)),
                {n: t.to_dict() for n, t in sim.utilization_of(b).items()},
            )
            for b, seed in enumerate(seeds)
        }

    def test_b16_b4_b1_agree(self):
        seeds = tuple(range(21, 37))
        b16 = self._run(seeds)
        b4 = self._run(seeds[:4])
        b1 = self._run(seeds[:1])
        for seed in seeds[:4]:
            assert b16[seed] == b4[seed], seed
        assert b16[seeds[0]] == b1[seeds[0]]

    def test_batch_replication_equals_serial_counts_engine(self):
        """Any batch member equals the serial meso-counts run of its seed."""
        seeds = (21, 22, 23, 24)
        batch = self._run(seeds)
        scenario = build_named_scenario(self.NAME, seed=22)
        sim = build_engine(scenario, "meso-counts")
        controller = make_network_controller("util-bp", scenario.network)
        for _ in range(self.STEPS):
            sim.step(1.0, controller.decide(sim.observations()))
        sim.finalize()
        summary, util = batch[22]
        assert summary == sim.collector.summary(float(self.STEPS))
        assert util == {n: t.to_dict() for n, t in sim.utilization.items()}


class TestEveryBatchMember:
    """Every member of a batch equals the serial run of its seed.

    The batch keeps one FIFO store per kind keyed by flat (replication,
    column) index, so a wrong key stride would let replications read or
    write each other's vehicles; comparing all members, not a prefix,
    is what catches it.  The serve pass touches only live cells and a
    phase switch re-arms only the switched cells, so the cases also
    vary what those skips rely on: start-up windows, the credit bank,
    switches into amber.  Each closed-loop case asserts the serve path
    it is there for (the engine's serve counters): util-bp on a surge
    grid with short roads spills back and takes the staged path, light
    fixed-time and light util-bp serve on the fast path.
    """

    SEEDS = tuple(range(61, 77))
    CASES = (
        ("surge-4x4", {"capacity": 10}, "util-bp", {}, 200, "staged_slots"),
        (
            "steady-5x5",
            {"load": 0.2},
            "fixed-time",
            {"period": 20.0},
            240,
            "fast_slots",
        ),
        # Many cells switch, each on its own slot, and sit in start-up
        # windows while their neighbours serve.
        ("steady-10x10", {"load": 0.1}, "util-bp", {}, 120, "fast_slots"),
    )

    @staticmethod
    def _assert_members_equal_serial(batch, scenarios, steps, serial_run):
        """``serial_run(scenario)`` is the finalized serial engine."""
        horizon = float(steps)
        for b, scenario in enumerate(scenarios):
            serial = serial_run(scenario)
            assert batch.collector.summary_of(b, horizon) == (
                serial.collector.summary(horizon)
            ), scenario.seed
            assert {
                n: t.to_dict() for n, t in batch.utilization_of(b).items()
            } == {
                n: t.to_dict() for n, t in serial.utilization.items()
            }, scenario.seed

    @staticmethod
    def _closed_loop(batch, scenarios, steps, controller="util-bp", params=None,
                     **plant):
        """Step ``batch`` under a batch kernel; return the serial runner."""
        from repro.meso.counts import CountsSimulator

        params = params or {}
        kernel = build_batch_controller(
            controller, scenarios[0].network, len(scenarios), **params
        )
        for _ in range(steps):
            batch.step(1.0, kernel.decide_batch(batch.controller_arrays()))
        batch.finalize()

        def serial_run(scenario):
            serial = CountsSimulator(
                network=scenario.network,
                demand=scenario.demand,
                turning=scenario.turning,
                seed=scenario.seed,
                plant=PlantConstants(**plant),
            )
            serial_controller = make_network_controller(
                controller, scenario.network, **params
            )
            for _ in range(steps):
                serial.step(1.0, serial_controller.decide(serial.observations()))
            serial.finalize()
            return serial

        return serial_run

    @pytest.mark.parametrize(
        "name,overrides,controller,params,steps,counter",
        CASES,
        ids=[f"{case[0]}-{case[2]}" for case in CASES],
    )
    def test_every_member_equals_serial_counts_run(
        self, name, overrides, controller, params, steps, counter
    ):
        scenarios = [
            build_named_scenario(name, seed=s, **overrides) for s in self.SEEDS
        ]
        batch = build_batch_engine(scenarios, "meso-vec")
        serial_run = self._closed_loop(
            batch, scenarios, steps, controller, params
        )
        assert getattr(batch, counter) > 0, counter
        self._assert_members_equal_serial(batch, scenarios, steps, serial_run)

    @pytest.mark.parametrize(
        "plant",
        # No start-up window at all; and a saturation rate whose
        # per-slot accrual (2 vehicles) exceeds 1, so the credit bank
        # is the accrual, not 1.
        ({"startup_lost": 0.0}, {"saturation_headway": 0.5}),
        ids=("startup_lost=0", "bank=2"),
    )
    def test_plant_parameters(self, plant):
        from repro.meso.vectorized import BatchCountsSimulator

        scenarios = [
            build_named_scenario("surge-4x4", seed=s) for s in self.SEEDS
        ]
        first = scenarios[0]
        batch = BatchCountsSimulator(
            network=first.network,
            demand=first.demand,
            turning=first.turning,
            seeds=self.SEEDS,
            plant=PlantConstants(**plant),
        )
        serial_run = self._closed_loop(batch, scenarios, 200, **plant)
        assert batch.fast_slots > 0
        self._assert_members_equal_serial(batch, scenarios, 200, serial_run)

    def test_staggered_switches_into_amber(self):
        """Open loop: every cell cycles green -> amber -> green on its own
        clock, so each step switches a different subset of cells, some
        into amber while their neighbours turn green.  The pattern then
        freezes, so the cells left in amber sit past every start-up
        window."""
        scenarios = [
            build_named_scenario("steady-4x4", seed=s, load=0.5)
            for s in self.SEEDS
        ]
        network = scenarios[0].network
        node_ids = list(network.intersections)
        phase_lists = [
            [p.index for p in network.intersections[n].phases] for n in node_ids
        ]
        steps = 160

        def phase(b, n, step):
            step = min(step, 100)
            dwell = 3 + (b + 2 * n) % 5
            k = (step + 7 * b + 3 * n) // dwell
            if k % 3 == 2:
                return 0  # amber
            choices = phase_lists[n]
            return choices[(k + b) % len(choices)]

        batch = build_batch_engine(scenarios, "meso-vec")
        for step in range(steps):
            batch.step(
                1.0,
                np.array(
                    [
                        [phase(b, n, step) for n in range(len(node_ids))]
                        for b in range(len(scenarios))
                    ],
                    dtype=np.int64,
                ),
            )
        batch.finalize()
        assert batch.fast_slots > 0

        def serial_run(scenario):
            b = self.SEEDS.index(scenario.seed)
            serial = build_engine(scenario, "meso-counts")
            for step in range(steps):
                serial.step(
                    1.0,
                    {
                        node_id: phase(b, n, step)
                        for n, node_id in enumerate(node_ids)
                    },
                )
            serial.finalize()
            return serial

        self._assert_members_equal_serial(batch, scenarios, steps, serial_run)

    @pytest.mark.parametrize("first_step", (True, False), ids=("first", "later"))
    def test_invalid_phase_on_a_switched_cell_raises_key_error(self, first_step):
        """An unknown phase index fails as the serial engine fails: a
        ``KeyError`` from the intersection's phase lookup, on the first
        step (where even the engine's "no phase yet" -1 is checked) as
        on a later switch."""
        scenario = build_named_scenario("steady-3x3", seed=1)
        node_ids = list(scenario.network.intersections)
        serial = build_engine(scenario, "meso-counts")
        batch = build_batch_engine([scenario, scenario], "meso-vec")
        phases = np.ones((2, len(node_ids)), dtype=np.int64)
        if not first_step:
            batch.step(1.0, phases)
            serial.step(1.0, dict.fromkeys(node_ids, 1))
        bad = -1 if first_step else 99
        phases = phases.copy()
        phases[1, 4] = bad
        with pytest.raises(KeyError, match=f"no phase c{bad} at {node_ids[4]}"):
            batch.step(1.0, phases)
        with pytest.raises(KeyError, match=f"no phase c{bad} at {node_ids[4]}"):
            serial.step(1.0, {**dict.fromkeys(node_ids, 1), node_ids[4]: bad})


class TestServeCounters:
    """meso-vec's serve counters: plain ints that say which path ran.

    They pin the live-cell skip itself, so losing it fails here rather
    than only showing as a slower benchmark.
    """

    @staticmethod
    def _run(name, overrides, seeds, steps):
        scenarios = [
            build_named_scenario(name, seed=s, **overrides) for s in seeds
        ]
        batch = build_batch_engine(scenarios, "meso-vec")
        kernel = build_batch_controller(
            "util-bp", scenarios[0].network, len(seeds)
        )
        for _ in range(steps):
            batch.step(1.0, kernel.decide_batch(batch.controller_arrays()))
        return batch

    def test_light_load_serves_few_cells_on_the_fast_path(self):
        steps = 240
        batch = self._run("steady-10x10", {"load": 0.1}, range(1, 17), steps)
        cell_slots = batch.batch_size * len(batch.movement_layout[1]) * steps
        # About 1.4 % of the cell-slots hold a live cell.
        assert 0 < batch.cells_served < 0.03 * cell_slots
        assert batch.staged_slots == 0
        assert 0 < batch.fast_slots <= steps
        assert all(
            type(count) is int
            for count in (batch.fast_slots, batch.staged_slots, batch.cells_served)
        )

    def test_spillback_takes_the_staged_path(self):
        steps = 200
        batch = self._run("surge-4x4", {"capacity": 10}, range(1, 5), steps)
        assert batch.staged_slots > 0
        assert batch.fast_slots + batch.staged_slots <= steps


class TestPhaseArrays:
    """Malformed phase input fails loudly, before anything is stepped."""

    @staticmethod
    def _sim():
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("steady-3x3", seed=1)
        return BatchCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seeds=(1, 2),
        )

    @pytest.mark.parametrize(
        "phases,error,match",
        (
            ("bool", ValueError, "integer dtype, got bool"),
            ("float", ValueError, "integer dtype, got float64"),
            ("shape", ValueError, r"phase array must have shape \(2, 9\)"),
            ("range", KeyError, "no phase c7 at J00"),
        ),
        ids=("bool", "float", "shape", "out-of-range"),
    )
    def test_malformed_phase_array(self, phases, error, match):
        sim = self._sim()
        array = {
            "bool": np.ones((2, 9), dtype=bool),
            "float": np.ones((2, 9), dtype=np.float64),
            "shape": np.ones((3, 9), dtype=np.int64),
            "range": np.full((2, 9), 7, dtype=np.int64),
        }[phases]
        with pytest.raises(error, match=match):
            sim.step(1.0, array)
        assert sim.time == 0.0

    def test_changed_dt(self):
        sim = self._sim()
        sim.step(1.0, np.ones(9, dtype=np.int64))
        with pytest.raises(ValueError, match="constant mini-slot"):
            sim.step(2.0, np.ones(9, dtype=np.int64))


class TestBatchedControllerParity:
    """The batched closed loop against the serial one: exact parity.

    The serial side is a meso-counts engine fed to a per-replication
    controller through ``QueueObservation`` dicts; the batched side is a
    meso-vec engine whose internal arrays feed the batch kernel of the
    same name (``decide_batch``).  Beyond the steady family the loop is
    pinned on the incident (capacity drop mid-run) and asymmetric
    (direction-skewed demand) families — the shapes where
    spillback/beta and empty-movement/alpha branches actually fire —
    and on a network mixing 4-, 3- and 2-phase intersections.
    """

    SCENARIOS = (
        "steady-3x3",
        "incident-3x3",
        "asymmetric-3x3",
        "asymmetric-3x3" + MIXED_PHASES,
    )
    CONTROLLERS = (("util-bp", {}), ("fixed-time", {"period": 12.0}))
    STEPS = 250

    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_b1_lockstep_equals_serial(self, name, controller, params):
        """Decision-for-decision identity at B=1, every mini-slot."""
        scenario = build_parity_scenario(name, seed=11)
        serial = build_engine(build_parity_scenario(name, seed=11), "meso-counts")
        serial_controller = make_network_controller(
            controller, scenario.network, **params
        )
        batch = build_batch_engine(
            [build_parity_scenario(name, seed=11)], "meso-vec"
        )
        batched = build_batch_controller(
            controller, scenario.network, 1, **params
        )
        node_ids = batched.node_ids
        for step in range(self.STEPS):
            serial_decisions = serial_controller.decide(serial.observations())
            array = batched.decide_batch(batch.controller_arrays())
            batched_decisions = {
                node: int(array[0, i]) for i, node in enumerate(node_ids)
            }
            assert serial_decisions == batched_decisions, (name, step)
            serial.step(1.0, serial_decisions)
            batch.step(1.0, array)
        serial.finalize()
        batch.finalize()
        horizon = float(self.STEPS)
        assert (
            batch.collector.summary_of(0, horizon)
            == serial.collector.summary(horizon)
        )
        assert {
            n: t.to_dict() for n, t in batch.utilization_of(0).items()
        } == {n: t.to_dict() for n, t in serial.utilization.items()}

    def _run_batched(self, name, controller, params, seeds):
        scenarios = [build_parity_scenario(name, seed=s) for s in seeds]
        sim = build_batch_engine(scenarios, "meso-vec")
        kernel = build_batch_controller(
            controller, scenarios[0].network, len(seeds), **params
        )
        for _ in range(self.STEPS):
            sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))
        sim.finalize()
        return {
            seed: (
                sim.collector.summary_of(b, float(self.STEPS)),
                {n: t.to_dict() for n, t in sim.utilization_of(b).items()},
            )
            for b, seed in enumerate(seeds)
        }

    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    @pytest.mark.parametrize(
        "name",
        ("incident-3x3", "asymmetric-3x3", "asymmetric-3x3" + MIXED_PHASES),
    )
    def test_batched_controller_is_batch_width_independent(
        self, name, controller, params
    ):
        """B in {1, 4, 16}: each seed's results never depend on B."""
        seeds = tuple(range(41, 57))
        b16 = self._run_batched(name, controller, params, seeds)
        b4 = self._run_batched(name, controller, params, seeds[:4])
        b1 = self._run_batched(name, controller, params, seeds[:1])
        for seed in seeds[:4]:
            assert b16[seed] == b4[seed], (name, seed)
        assert b16[seeds[0]] == b1[seeds[0]], name


class TestBatchRunner:
    def test_batch_results_equal_single_runs(self):
        """run_scenario_batch fans out to exactly the single-run results."""
        from repro.experiments.runner import run_scenario, run_scenario_batch

        record = dict(
            record_phases=("J00",), record_queues=(("J00", "IN:N@J00"),)
        )
        scenarios = [
            build_named_scenario("steady-3x3", seed=s) for s in (5, 6, 7)
        ]
        batch = run_scenario_batch(
            scenarios, controller="util-bp", duration=150.0, **record
        )
        for scenario, result in zip(scenarios, batch):
            single = run_scenario(
                build_named_scenario("steady-3x3", seed=scenario.seed),
                controller="util-bp",
                duration=150.0,
                engine="meso-vec",
                **record,
            )
            assert result == single

    #: A duplicated pair (one trace) and an exit road, which has no
    #: stop line (all zeros).
    RECORD_QUEUES = (
        ("J00", "IN:N@J00"),
        ("J11", "J01->J11"),
        ("J00", "IN:N@J00"),
        ("J00", "OUT:N@J00"),
    )

    def test_batch_queue_traces_equal_serial_runs(self):
        """The batch records queue samples in bulk; every member's traces
        equal its own serial run's, sample for sample."""
        from repro.experiments.runner import run_scenario, run_scenario_batch

        knobs = dict(
            controller="util-bp",
            duration=200.0,
            record_queues=self.RECORD_QUEUES,
            queue_sample_interval=3.0,
        )
        seeds = (3, 4, 5, 6)
        batch = run_scenario_batch(
            [build_named_scenario("surge-4x4", seed=s) for s in seeds], **knobs
        )
        for seed, result in zip(seeds, batch):
            serial = run_scenario(
                build_named_scenario("surge-4x4", seed=seed),
                engine="meso-counts",
                **knobs,
            )
            traces = result.to_dict()["queue_traces"]
            assert traces == serial.to_dict()["queue_traces"], seed
            assert len(traces) == 3
        values = {
            key: trace.series.values
            for key, trace in batch[0].queue_traces.items()
        }
        assert len(values[("J00", "IN:N@J00")]) == 67
        assert any(values[("J11", "J01->J11")])
        assert not any(values[("J00", "OUT:N@J00")])

    def test_negative_queue_sample_is_rejected(self, monkeypatch):
        from repro.experiments.runner import run_scenario_batch
        from repro.meso.vectorized import BatchCountsSimulator

        def broken(sim, road_id):
            return np.full(sim.batch_size, -1, dtype=np.int64)

        monkeypatch.setattr(BatchCountsSimulator, "incoming_queue_total", broken)
        with pytest.raises(ValueError, match="queue length must be >= 0, got -1"):
            run_scenario_batch(
                [build_named_scenario("steady-3x3", seed=1)],
                duration=10.0,
                record_queues=(("J00", "IN:N@J00"),),
            )

    @pytest.mark.parametrize(
        "controller,params",
        (("util-bp", {}), ("fixed-time", {"period": 12.0})),
        ids=("util-bp", "fixed-time"),
    )
    def test_single_meso_vec_run_is_a_batch_of_one(self, controller, params):
        """run_scenario on meso-vec == the B=1 batch == meso-counts."""
        from repro.experiments.runner import run_scenario, run_scenario_batch

        knobs = dict(
            controller=controller,
            controller_params=params,
            duration=200.0,
            record_phases=("J00", "J11", "J99"),
            record_queues=(("J00", "IN:N@J00"), ("J11", "J01->J11")),
        )

        def scenario():
            return build_named_scenario("surge-4x4", seed=4)

        single = run_scenario(scenario(), engine="meso-vec", **knobs)
        batch = run_scenario_batch([scenario()], engine="meso-vec", **knobs)
        counts = run_scenario(scenario(), engine="meso-counts", **knobs)
        assert single == batch[0] == counts
        # The traces were really recorded (J99 is not in the grid: amber).
        assert single.phase_traces["J11"].switch_count() > 1
        assert single.phase_traces["J99"].phases == [0]
        assert len(single.queue_traces[("J11", "J01->J11")]) == 40

    @pytest.mark.parametrize(
        "override",
        ({"capacity": 12}, {"service_rate": 0.5}),
        ids=("capacity", "service-rate"),
    )
    def test_batch_rejects_a_different_network(self, override):
        """Same name, demand and road ids, other plant: refuse the batch."""
        from repro.experiments.runner import run_scenario_batch

        same_shape = build_named_scenario("steady-3x3", seed=1)
        other_plant = build_named_scenario("steady-3x3", seed=2, **override)
        assert list(other_plant.network.roads) == list(same_shape.network.roads)
        with pytest.raises(ValueError, match="one scenario shape"):
            run_scenario_batch(
                [same_shape, other_plant], controller="util-bp", duration=10.0
            )

    def test_batch_accepts_an_equal_network_built_apart(self):
        """Networks are compared by value when they are not one object."""
        from repro.experiments.runner import run_scenario, run_scenario_batch
        from repro.model.grid import _build_grid

        first = build_named_scenario("steady-3x3", seed=1)
        _build_grid.cache_clear()
        second = build_named_scenario("steady-3x3", seed=2)
        assert second.network is not first.network
        assert second.network == first.network
        knobs = dict(controller="util-bp", duration=60.0)
        batch = run_scenario_batch([first, second], **knobs)
        assert batch[1] == run_scenario(second, engine="meso-vec", **knobs)

    def test_fifos_are_created_on_first_push(self):
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("surge-4x4", seed=1)
        sim = BatchCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seeds=(1, 2, 3),
        )
        assert sim._lanes == {} and sim._transit == {}
        for _ in range(60):
            sim.step(1.0, [{}, {}, {}])
        n_roads = len(sim._road_ids)
        n_movements = len(sim._movement_keys)
        assert 0 < len(sim._transit) < 3 * n_roads
        assert all(0 <= key < 3 * n_roads for key in sim._transit)
        assert all(0 <= key < 3 * n_movements for key in sim._lanes)
        # Every finite head time names a non-empty transit FIFO.
        for b, row in enumerate(sim._head_ready.tolist()):
            for ri, ready in enumerate(row):
                if ready != float("inf"):
                    assert sim._transit[b * n_roads + ri]

    def test_broken_fifo_invariant_raises(self):
        """A head time with no FIFO behind it is a KeyError, not empty."""
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("steady-3x3", seed=1)
        sim = BatchCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seeds=(1, 2),
        )
        sim._head_ready[1, 0] = 0.0
        with pytest.raises(KeyError):
            sim.step(1.0, [{}, {}])

    def test_road_lookups(self):
        """Per-road introspection: known roads match the serial engine;
        an unknown road is zeros for queues and ``ValueError`` for
        occupancy."""
        scenario = build_named_scenario("surge-4x4", seed=4)
        serial = build_engine(build_named_scenario("surge-4x4", seed=4), "meso-counts")
        batch = build_batch_engine([scenario, scenario], "meso-vec")
        controller = make_network_controller("util-bp", scenario.network)
        for _ in range(80):
            phases = controller.decide(serial.observations())
            serial.step(1.0, phases)
            batch.step(1.0, [phases, phases])
        busy = 0
        for road in scenario.network.roads:
            occupancy = serial.road_occupancy(road)
            queued = serial.incoming_queue_total(road)
            assert batch.road_occupancy(road).tolist() == [occupancy] * 2
            assert batch.incoming_queue_total(road).tolist() == [queued] * 2
            busy += occupancy > 0
        assert busy
        missing = batch.incoming_queue_total("no-such-road")
        assert missing.tolist() == [0, 0]
        with pytest.raises(ValueError, match="no-such-road"):
            batch.road_occupancy("no-such-road")

    def test_constant_mini_slot_contract(self):
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("steady-3x3", seed=1)
        sim = BatchCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seeds=(1, 2),
        )
        sim.step(1.0, [{}, {}])
        with pytest.raises(ValueError, match="constant mini-slot"):
            sim.step(0.5, [{}, {}])


class TestEventsRunner:
    """``run_scenario`` on meso-events: B=1 kernel loop == serial loop.

    The same holds for meso-vec, whose single runs are batches of one.
    """

    CONTROLLERS = (
        ("util-bp", {}),
        ("cap-bp", {"period": 16.0}),
        ("original-bp", {"period": 16.0}),
        ("fixed-time", {"period": 16.0}),
    )

    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    @pytest.mark.parametrize("name", ("surge-4x4", "surge-4x4" + MIXED_PHASES))
    @pytest.mark.parametrize("engine", ("meso-events", "meso-vec"))
    def test_events_run_equals_counts_run(self, engine, name, controller, params):
        from repro.experiments.runner import run_scenario

        knobs = dict(
            controller=controller,
            controller_params=params,
            duration=200.0,
            record_phases=("J00", "J11", "J99"),
            record_queues=(("J00", "IN:N@J00"), ("J11", "J01->J11")),
        )
        kernel_run = run_scenario(
            build_parity_scenario(name, seed=4), engine=engine, **knobs
        )
        counts = run_scenario(
            build_parity_scenario(name, seed=4), engine="meso-counts", **knobs
        )
        assert kernel_run.to_dict() == counts.to_dict()
        assert kernel_run.phase_traces["J11"].switch_count() > 1
        assert len(kernel_run.queue_traces[("J11", "J01->J11")]) == 40

    def test_layout_mismatch_rejected_before_stepping(self, monkeypatch):
        from repro.experiments.runner import run_scenario
        from repro.meso.events import EventCountsSimulator

        def never_step(self, dt, phases):
            raise AssertionError("stepped despite a layout mismatch")

        monkeypatch.setattr(
            EventCountsSimulator,
            "movement_layout",
            property(lambda self: ((), ())),
        )
        monkeypatch.setattr(EventCountsSimulator, "step", never_step)
        with pytest.raises(ValueError, match="layout does not match"):
            run_scenario(
                build_named_scenario("steady-3x3", seed=5),
                engine="meso-events",
                duration=60.0,
            )

    @staticmethod
    def _count_calls(monkeypatch, owner, attribute, calls):
        real = getattr(owner, attribute)

        def counted(*args, **kwargs):
            calls[attribute] = calls.get(attribute, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)

    @staticmethod
    def _forbid(monkeypatch, owner, attribute):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{attribute} called on this loop")

        monkeypatch.setattr(owner, attribute, forbidden)

    def test_counts_run_stays_on_the_serial_loop(self, monkeypatch):
        """meso-counts: observations() and decide() every slot, no kernel."""
        import repro.experiments.runner as runner
        from repro.control.base import NetworkController
        from repro.meso.counts import CountsSimulator

        calls = {}
        self._count_calls(monkeypatch, CountsSimulator, "observations", calls)
        self._count_calls(monkeypatch, NetworkController, "decide", calls)
        self._forbid(monkeypatch, runner, "build_batch_controller")
        runner.run_scenario(
            build_named_scenario("steady-3x3", seed=5),
            engine="meso-counts",
            duration=60.0,
        )
        assert calls == {"observations": 60, "decide": 60}

    def test_events_run_builds_only_the_kernel(self, monkeypatch):
        """meso-events: no serial controller, no observations()."""
        import repro.experiments.runner as runner
        from repro.meso.counts import CountsSimulator

        self._forbid(monkeypatch, runner, "make_network_controller")
        self._forbid(monkeypatch, CountsSimulator, "observations")
        result = runner.run_scenario(
            build_named_scenario("steady-3x3", seed=5),
            engine="meso-events",
            duration=60.0,
        )
        assert result.summary.vehicles_entered > 0

    @pytest.mark.parametrize("engine", ("meso-counts", "meso-events"))
    def test_bad_controller_spec_fails_before_engine_build(
        self, monkeypatch, engine
    ):
        import repro.experiments.runner as runner

        self._forbid(monkeypatch, runner, "build_engine")
        with pytest.raises(TypeError, match="period"):
            runner.run_scenario(
                build_named_scenario("steady-3x3", seed=5),
                engine=engine,
                controller="cap-bp",
            )


def _serial_loop_run(scenario, engine, controller, params, duration, **record):
    """``run_scenario``'s serial loop by hand: ``observations()`` and the
    per-intersection controllers every slot.

    Returns the run's result and how many slots saw an out-road full.
    """
    from repro.experiments.runner import RunResult
    from repro.metrics.traces import PhaseTrace, QueueTrace, next_grid_sample

    sim = build_engine(scenario, engine)
    network_controller = make_network_controller(
        controller, scenario.network, **params
    )
    phase_traces = {node: PhaseTrace(node) for node in record["record_phases"]}
    queue_traces = {
        (node, road): QueueTrace(road_id=road)
        for node, road in record["record_queues"]
    }
    next_sample = 0.0
    spilled = 0
    for _ in range(int(duration)):
        now = sim.time
        observations = sim.observations()
        spilled += any(
            any(obs.out_queues.values()) for obs in observations.values()
        )
        decisions = network_controller.decide(observations)
        for node, trace in phase_traces.items():
            trace.record(now, decisions[node])
        if now >= next_sample:
            for (_, road), trace in queue_traces.items():
                trace.sample(now, sim.incoming_queue_total(road))
            next_sample = next_grid_sample(now, 5.0)
        sim.step(1.0, decisions)
    sim.finalize()
    result = RunResult(
        scenario_name=scenario.name,
        controller_name=controller,
        duration=duration,
        summary=sim.collector.summary(duration),
        phase_traces=phase_traces,
        queue_traces=queue_traces,
        utilization=dict(sim.utilization),
        vehicles_in_network=sim.vehicles_in_network(),
        backlog=sim.backlog_size(),
    )
    return result, spilled


class TestPerVehicleRunner:
    """``run_scenario`` on meso and micro: B=1 kernel loop == serial loop.

    Both engines offer the array façade, so ``run_scenario`` decides
    them with a B=1 kernel; the result must equal the serial
    ``observations()`` / ``NetworkController`` loop's, traces included.
    The short-road plant reaches spillback on both engines.
    """

    CONTROLLERS = TestEventsRunner.CONTROLLERS

    #: id -> (pattern or catalog entry, overrides, meso / micro horizon).
    PLANTS = {
        "II": ("II", {}, 300.0, 100.0),
        "IV": ("IV", {}, 300.0, 100.0),
        "short-roads": (
            "steady-3x3",
            {"capacity": 8, "road_length": 60.0},
            300.0,
            200.0,
        ),
    }

    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    @pytest.mark.parametrize("engine", ("meso", "micro"))
    def test_kernel_run_equals_serial_loop(
        self, monkeypatch, engine, plant, controller, params
    ):
        import repro.experiments.runner as runner
        from repro.scenarios.core import build_scenario
        from repro.scenarios.patterns import PATTERN_NAMES

        name, overrides, meso_duration, micro_duration = self.PLANTS[plant]
        duration = meso_duration if engine == "meso" else micro_duration

        def build():
            if name in PATTERN_NAMES:
                return build_scenario(name, seed=3, **overrides)
            return build_named_scenario(name, seed=3, **overrides)

        record = dict(
            record_phases=("J00", "J11"),
            record_queues=(("J00", "IN:N@J00"), ("J11", "J01->J11")),
        )
        serial, spilled = _serial_loop_run(
            build(), engine, controller, params, duration, **record
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("serial controllers built for an array engine")

        monkeypatch.setattr(runner, "make_network_controller", forbidden)
        kernel_run = runner.run_scenario(
            build(),
            engine=engine,
            controller=controller,
            controller_params=params,
            duration=duration,
            **record,
        )
        assert kernel_run.to_dict() == serial.to_dict()
        if plant == "short-roads":
            assert spilled


class TestAggregateSummary:
    def test_travel_time_is_littles_law_estimate(self):
        """The flagged field differs from per-vehicle (it is an estimate)."""
        scenario = build_named_scenario("steady-3x3", seed=11)
        controllers = [
            make_network_controller("util-bp", scenario.network)
            for _ in range(2)
        ]
        reference, counts = _lockstep(
            "steady-3x3",
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
        )
        ref = reference.collector.summary(float(STEPS))
        cnt = counts.collector.summary(float(STEPS))
        # Little's law bounds sanity: positive whenever trips completed,
        # and within the same order of magnitude as the exact average.
        assert cnt.average_travel_time > 0
        assert cnt.average_travel_time == pytest.approx(
            ref.average_travel_time, rel=1.0
        )
        # Unavailable per-vehicle extreme is reported as 0 and the mode
        # flag warns the consumer.
        assert cnt.max_queuing_time == 0.0
        assert "Little's-law" in str(cnt)

class TestPlantArguments:
    """Every meso engine takes ``saturation_headway`` as a positive float.

    There is no "discharge at the movements' µ" value any more: ``None``
    and non-positive headways are refused at construction rather than
    run at some other rate.
    """

    @staticmethod
    def _construct(engine, **plant):
        from repro.meso.counts import CountsSimulator
        from repro.meso.events import EventCountsSimulator
        from repro.meso.simulator import MesoSimulator
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("steady-3x3", seed=1)
        inputs = dict(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
        )
        constants = PlantConstants(**plant)
        if engine == "meso-vec":
            return BatchCountsSimulator(seeds=(1,), **inputs, plant=constants)
        cls = {
            "meso": MesoSimulator,
            "meso-counts": CountsSimulator,
            "meso-events": EventCountsSimulator,
        }[engine]
        return cls(seed=1, **inputs, plant=constants)

    @pytest.mark.parametrize(
        "headway,error,match",
        (
            (0.0, ValueError, "saturation_headway"),
            (-1.3, ValueError, "saturation_headway"),
            (None, TypeError, None),
        ),
        ids=("zero", "negative", "none"),
    )
    @pytest.mark.parametrize(
        "engine", ("meso", "meso-counts", "meso-events", "meso-vec")
    )
    def test_saturation_headway_must_be_positive(
        self, engine, headway, error, match
    ):
        with pytest.raises(error, match=match):
            self._construct(engine, saturation_headway=headway)
        # The same construction with a positive headway is accepted.
        self._construct(engine, saturation_headway=0.5)
