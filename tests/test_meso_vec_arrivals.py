"""meso-vec's sparse arrival path and its bulk stop-line read.

``BatchCountsSimulator`` keeps each pulled-ahead arrival window as
per-slot lists of ``(pair, count)`` events and visits only the entry
pairs with an arrival or a standing backlog.  The runs here equal
``meso-counts`` (which draws per slot through ``sample_count``) where
that path branches: backlogs that bind, horizons at the window edges,
windows across rate changes, a window with no arrivals at all and a
non-dyadic mini-slot.  Each case runs a B=1 batch (``run_scenario``)
and every member of a B=16 batch.
"""

import dataclasses

import numpy as np
import pytest

from repro.control.factory import build_batch_controller
from repro.core.engine import build_batch_engine
from repro.experiments.runner import run_scenario, run_scenario_batch
from repro.model.arrivals import (
    ARRIVAL_WINDOW,
    ArrivalSchedule,
    SlotGrid,
    slot_times,
)
from repro.scenarios import build_named_scenario, build_scenario

SEEDS = tuple(range(31, 47))
FIXED_TIME = ("fixed-time", {"period": 20.0})
UTIL_BP = ("util-bp", {})


def _assert_batch_equals_counts(build, controller, duration, **knobs):
    """B=1 and every B=16 member equal the meso-counts run of the seed."""
    name, params = controller
    knobs = dict(
        controller=name, controller_params=params, duration=duration, **knobs
    )
    batch = run_scenario_batch([build(seed) for seed in SEEDS], **knobs)
    for seed, member in zip(SEEDS, batch):
        counts = run_scenario(build(seed), engine="meso-counts", **knobs)
        assert member == counts, seed
    single = run_scenario(build(SEEDS[0]), engine="meso-vec", **knobs)
    assert single == batch[0]
    return batch


@pytest.mark.parametrize("controller", (UTIL_BP, FIXED_TIME), ids=("util-bp", "fixed-time"))
@pytest.mark.parametrize(
    "name,capacity", (("steady-3x3", 10), ("surge-4x4", 12)), ids=("steady-3x3", "surge-4x4")
)
def test_binding_entry_backlog(name, capacity, controller):
    batch = _assert_batch_equals_counts(
        lambda seed: build_named_scenario(name, seed=seed, capacity=capacity),
        controller,
        200.0,
    )
    # Vehicles were gated outside full entries: the backlog path ran.
    assert any(result.backlog for result in batch)


@pytest.mark.parametrize("steps", (127, 128, 129, 257))
def test_horizons_at_the_window_edges(steps):
    assert ARRIVAL_WINDOW == 128
    _assert_batch_equals_counts(
        lambda seed: build_named_scenario("steady-3x3", seed=seed, capacity=12),
        FIXED_TIME,
        float(steps),
    )


def test_windows_across_rate_changes():
    """Pattern segments of 50 s: every window spans two or three rates."""
    _assert_batch_equals_counts(
        lambda seed: build_scenario("mixed", seed=seed, mixed_segment_duration=50.0),
        UTIL_BP,
        200.0,
    )


def _with_quiet_stretch(seed):
    """steady-3x3 whose demand stops for t in [100, 400): window two
    (slots 128-255) holds no arrival at all."""
    scenario = build_named_scenario("steady-3x3", seed=seed)
    demand = {
        road: ArrivalSchedule(
            ((0.0, schedule.segments[0][1]), (100.0, 0.0), (400.0, 0.2))
        )
        for road, schedule in scenario.demand.items()
    }
    return dataclasses.replace(scenario, demand=demand)


def test_zero_rate_window():
    batch = _assert_batch_equals_counts(_with_quiet_stretch, UTIL_BP, 450.0)
    assert all(result.summary.vehicles_entered for result in batch)
    sim = build_batch_engine([_with_quiet_stretch(s) for s in SEEDS], "meso-vec")
    for _ in range(ARRIVAL_WINDOW + 1):
        sim.step(1.0, [{}] * len(SEEDS))
    assert sim._window_pos == 1
    assert not any(sim._window_events)


def test_non_dyadic_mini_slot():
    _assert_batch_equals_counts(
        lambda seed: build_named_scenario("surge-4x4", seed=seed, capacity=12),
        UTIL_BP,
        140.0,
        mini_slot=0.7,
    )


def test_window_events_sum_back_to_the_dense_draws():
    """A window's per-slot event lists hold exactly the nonzero counts of
    every (replication, entry) pair's ``sample_count_block`` draw, in
    ascending pair order."""
    scenarios = [build_named_scenario("surge-4x4", seed=s) for s in SEEDS[:3]]
    sim = build_batch_engine(scenarios, "meso-vec")
    twin = build_batch_engine(scenarios, "meso-vec")
    dt, start = 0.7, 35.0
    sim._refill_window(dt, start)
    grid = SlotGrid(slot_times(start, dt), dt)
    dense = np.array(
        [
            process.sample_count_block(grid)
            for processes in twin._arrivals
            for process in processes
        ]
    ).T
    assert dense.shape == (ARRIVAL_WINDOW, len(sim._inject_plan))
    assert dense.any()
    rebuilt = np.zeros_like(dense)
    for slot, events in enumerate(sim._window_events):
        pairs = [pair for pair, _ in events]
        assert pairs == sorted(set(pairs))
        for pair, count in events:
            assert count > 0
            rebuilt[slot, pair] += count
    assert np.array_equal(rebuilt, dense)
    assert len(sim._window_events) == ARRIVAL_WINDOW


@pytest.mark.parametrize("width", (1, 3))
def test_queue_traces_equal_per_road_totals(width):
    """The runner samples every recorded road once per sample time; each
    road's trace equals the sum of that road's stop-line queue columns,
    read step by step from an engine driven alongside."""
    scenarios = [
        build_named_scenario("surge-4x4", seed=s, capacity=12) for s in SEEDS[:width]
    ]
    network = scenarios[0].network
    roads = [*network.roads, "no-such-road"]
    record = tuple((network.road_destination.get(r, "J00"), r) for r in roads)
    steps = 90
    results = run_scenario_batch(
        scenarios,
        controller="util-bp",
        duration=float(steps),
        record_queues=record,
        queue_sample_interval=1.0,
    )
    sim = build_batch_engine(scenarios, "meso-vec")
    kernel = build_batch_controller("util-bp", network, width)
    _, keys = sim.movement_layout
    columns = {
        road: [m for m, (in_road, _) in enumerate(keys) if in_road == road]
        for road in roads
    }
    expected = {road: [] for road in roads}
    for _ in range(steps):
        for road in reversed(roads):
            totals = sim.incoming_queue_total(road)
            assert totals.tolist() == sim._queue_len[:, columns[road]].sum(axis=1).tolist()
            expected[road].append(totals)
        sim.step(1.0, kernel.decide_batch(sim.controller_arrays()))
    busy = 0
    for b, result in enumerate(results):
        for (_, road), trace in result.queue_traces.items():
            want = [float(totals[b]) for totals in expected[road]]
            assert trace.series.values == want, (b, road)
            busy += any(want)
    assert busy
