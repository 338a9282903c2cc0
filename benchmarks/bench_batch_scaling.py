"""Batch-width scaling of the vectorized engine (``meso-vec``).

Steps one warm scenario shape at batch widths B = 1, 4, 16 and 32
under a fixed phase plan and reports *replication mini-slots per
second* (batch steps x B): the number that decides how many extra
seeds a sweep can afford.  A serial ``meso-counts`` cell is measured
alongside as the per-replication baseline the batch has to beat.

Two workload shapes are covered:

* ``light`` — steady-10x10 at load 0.10: the mass-replication regime
  the batch engine exists for (array work dominates, per-vehicle
  Python work is small).  This is the shape the CI speedup gate pins
  (``scripts/bench_ci.py``).
* ``full`` — steady-10x10 at the catalog's default demand: vehicle
  volume grows per replication, so the batch advantage narrows; the
  printed matrix keeps that honest.

Besides the fixed-plan stepping matrix, a *closed-loop* matrix runs
the same widths with the batched util-bp kernel deciding every
replication on the engine's internal arrays (``controller_arrays``),
against a serial meso-counts closed-loop cell — the regime the
``MIN_VEC_CLOSED_SPEEDUP`` CI gate pins.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_scaling.py \
        --benchmark-only -q
"""

import numpy as np
import pytest

from repro.control.factory import (
    build_batch_controller,
    make_network_controller,
)
from repro.core.engine import build_batch_engine, build_engine
from repro.scenarios import build_named_scenario

#: Mini-slots simulated before timing starts (populate the network).
WARMUP_STEPS = 120

#: Green dwell of the fixed phase plan (mini-slots per phase).
PHASE_DWELL = 15

SCENARIO = "steady-10x10"

WORKLOADS = {
    "light": {"load": 0.10},
    "full": {},
}

BATCH_WIDTHS = (1, 4, 16, 32)


def _phase_plan_array(n_nodes: int, steps: int):
    return [
        np.full(n_nodes, 1 + (k // PHASE_DWELL) % 4, dtype=np.int64)
        for k in range(steps)
    ]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return request.param


@pytest.fixture(
    scope="module",
    params=BATCH_WIDTHS,
    ids=lambda width: f"B{width}",
)
def warm_batch(request, workload):
    width = request.param
    params = WORKLOADS[workload]
    scenarios = [
        build_named_scenario(SCENARIO, seed=1 + b, **params)
        for b in range(width)
    ]
    sim = build_batch_engine(scenarios, "meso-vec")
    n_nodes = len(scenarios[0].network.intersections)
    plan = _phase_plan_array(n_nodes, WARMUP_STEPS)
    for k in range(WARMUP_STEPS):
        sim.step(1.0, plan[k])
    return workload, width, sim, n_nodes


def test_batch_step_rate(benchmark, warm_batch):
    name, width, sim, n_nodes = warm_batch
    clock = [WARMUP_STEPS]
    plan = _phase_plan_array(n_nodes, 4 * PHASE_DWELL)

    def one_mini_slot():
        sim.step(1.0, plan[clock[0] % len(plan)])
        clock[0] += 1

    benchmark(one_mini_slot)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        replication_rate = width / benchmark.stats.stats.mean
        print(
            f"\n{SCENARIO}[{name}] B={width}: "
            f"{replication_rate:,.0f} replication-steps/s (meso-vec)"
        )


@pytest.fixture(scope="module")
def warm_serial(workload):
    params = WORKLOADS[workload]
    scenario = build_named_scenario(SCENARIO, seed=1, **params)
    sim = build_engine(scenario, "meso-counts")
    nodes = list(scenario.network.intersections)
    plans = [
        {node: 1 + (k // PHASE_DWELL) % 4 for node in nodes}
        for k in range(WARMUP_STEPS)
    ]
    for k in range(WARMUP_STEPS):
        sim.step(1.0, plans[k])
    return workload, sim, nodes


def test_serial_counts_baseline(benchmark, warm_serial):
    name, sim, nodes = warm_serial
    clock = [WARMUP_STEPS]
    plans = [
        {node: 1 + (k // PHASE_DWELL) % 4 for node in nodes}
        for k in range(4 * PHASE_DWELL)
    ]

    def one_mini_slot():
        sim.step(1.0, plans[clock[0] % len(plans)])
        clock[0] += 1

    benchmark(one_mini_slot)
    if benchmark.stats is not None:
        rate = 1.0 / benchmark.stats.stats.mean
        print(
            f"\n{SCENARIO}[{name}] serial: {rate:,.0f} steps/s (meso-counts)"
        )


@pytest.fixture(
    scope="module",
    params=BATCH_WIDTHS,
    ids=lambda width: f"B{width}",
)
def warm_closed_loop_batch(request):
    """A warm B-wide batch plus its batched util-bp controller.

    Closed-loop scaling is only benchmarked on the ``light`` shape —
    the one the CI gate pins; the fixed-plan matrix above already
    covers how demand volume erodes the batch advantage.
    """
    width = request.param
    params = WORKLOADS["light"]
    scenarios = [
        build_named_scenario(SCENARIO, seed=1 + b, **params)
        for b in range(width)
    ]
    sim = build_batch_engine(scenarios, "meso-vec")
    controller = build_batch_controller(
        "util-bp", scenarios[0].network, width
    )
    for _ in range(WARMUP_STEPS):
        sim.step(1.0, controller.decide_batch(sim.controller_arrays()))
    return width, sim, controller


def test_batch_closed_loop_rate(benchmark, warm_closed_loop_batch):
    width, sim, controller = warm_closed_loop_batch

    def one_mini_slot():
        sim.step(1.0, controller.decide_batch(sim.controller_arrays()))

    benchmark(one_mini_slot)
    if benchmark.stats is not None:
        replication_rate = width / benchmark.stats.stats.mean
        print(
            f"\n{SCENARIO}[light] B={width} util-bp: "
            f"{replication_rate:,.0f} replication-steps/s (meso-vec batched)"
        )


@pytest.fixture(scope="module")
def warm_closed_loop_serial():
    params = WORKLOADS["light"]
    scenario = build_named_scenario(SCENARIO, seed=1, **params)
    sim = build_engine(scenario, "meso-counts")
    controller = make_network_controller("util-bp", scenario.network)
    for _ in range(WARMUP_STEPS):
        sim.step(1.0, controller.decide(sim.observations()))
    return sim, controller


def test_serial_closed_loop_baseline(benchmark, warm_closed_loop_serial):
    sim, controller = warm_closed_loop_serial

    def one_mini_slot():
        sim.step(1.0, controller.decide(sim.observations()))

    benchmark(one_mini_slot)
    if benchmark.stats is not None:
        rate = 1.0 / benchmark.stats.stats.mean
        print(
            f"\n{SCENARIO}[light] serial util-bp: "
            f"{rate:,.0f} steps/s (meso-counts)"
        )


def test_batch_width_does_not_change_results():
    """Benchmark-scale restatement of the B-independence contract."""
    params = WORKLOADS["light"]
    widths_summaries = {}
    for width in (1, 4):
        scenarios = [
            build_named_scenario(SCENARIO, seed=1 + b, **params)
            for b in range(width)
        ]
        sim = build_batch_engine(scenarios, "meso-vec")
        n_nodes = len(scenarios[0].network.intersections)
        plan = _phase_plan_array(n_nodes, 90)
        for k in range(90):
            sim.step(1.0, plan[k])
        sim.finalize()
        widths_summaries[width] = sim.collector.summary_of(0, 90.0)
    assert widths_summaries[1] == widths_summaries[4]
