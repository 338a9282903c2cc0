"""Generated-plant differential oracle.

Hypothesis draws a whole plant — grid shape, road capacity, service
rate and road length, demand pattern and scale, the mixed pattern's
segment length (15-45 s, so a 90 s plant crosses rate changes),
mini-slot — and a controller with its parameters and seeds, then runs
it on every counts engine.  About half the multi-node plants come from
the catalog's ``steady`` family instead, with one or two internal
roads cut to 2-6 vehicles (``capacity_overrides``), so congestion
differs between the B=3 members:

* ``meso-counts`` (serial controllers on ``observations()``),
  ``meso-events`` (a B=1 kernel on its array façade) and ``meso-vec``
  at B=1 and B=3 must return equal ``RunResult.to_dict()`` payloads,
  replication by replication;
* the B=1 util-bp kernel, driven on ``meso-vec``'s arrays, must decide
  like :class:`tests.conftest.ReferenceUtilBp` (Algorithm 1 composed
  from the scalar equations) on every call.  The reference reads
  ``meso-counts``' own dict sensor, stepped in lockstep on the kernel's
  decisions, and ``meso-vec``'s ``observations()`` (the dict view of
  its arrays) must equal that sensor on every slot.

Across the drawn set some plants must reach spillback (a downstream
road's space bounds a served movement), amber and a full out-road
sensed by a controller, so the oracle exercises the congested paths
it guards.  The draws are derandomized; the example budget is a fifth
of the loaded hypothesis profile's (20 under the default profile, more
under the ``nightly`` profile that ``tests/conftest.py`` registers).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.factory import build_batch_controller
from repro.core.config import UtilBpConfig
from repro.core.engine import build_batch_engine, build_engine
from repro.experiments.runner import run_scenario, run_scenario_batch
from repro.model.grid import build_grid_network
from repro.scenarios import build_named_scenario, build_scenario

from tests.conftest import ReferenceUtilBp

#: Simulated seconds per drawn plant.
DURATION = 90.0


@st.composite
def plants(draw):
    """One generated plant, controller and seed set."""
    controller = draw(
        st.sampled_from(("util-bp", "cap-bp", "original-bp", "fixed-time"))
    )
    transition = draw(st.sampled_from((2.0, 4.0, 6.0)))
    if controller == "util-bp":
        params = {
            "alpha": draw(st.sampled_from((-1.0, -0.5, -3.0))),
            "beta": draw(st.sampled_from((-2.0, -0.25, -4.0))),
            "keep_margin": draw(st.sampled_from((0.0, 0.5, 2.0))),
            "transition_duration": transition,
        }
    else:
        params = {
            "period": float(draw(st.integers(4, 30))),
            "transition_duration": transition,
        }
    scenario = dict(
        pattern=draw(st.sampled_from(("I", "II", "III", "IV", "mixed"))),
        rows=draw(st.integers(1, 4)),
        cols=draw(st.integers(1, 4)),
        capacity=draw(st.integers(3, 120)),
        service_rate=draw(st.sampled_from((0.5, 0.8, 1.0, 1.6))),
        road_length=draw(st.sampled_from((20.0, 60.0, 150.0, 300.0))),
        demand_scale=draw(st.sampled_from((0.3, 1.0, 2.0, 4.0))),
        # Quarter seconds: a rate change can fall inside a mini-slot.
        mixed_segment_duration=draw(st.integers(60, 180)) / 4.0,
    )
    if scenario["rows"] * scenario["cols"] > 1 and draw(st.booleans()):
        scenario = _uneven_steady(draw, scenario)
    return dict(
        scenario=scenario,
        mini_slot=draw(st.sampled_from((0.5, 1.0, 2.0))),
        controller=controller,
        params=params,
        util_bp=params if controller == "util-bp" else {},
        seeds=draw(
            st.lists(st.integers(0, 2**16), min_size=3, max_size=3, unique=True)
        ),
    )


def _uneven_steady(draw, paper):
    """The drawn grid from the catalog's ``steady`` family, with one or
    two internal roads cut to 2-6 vehicles."""
    rows, cols = paper["rows"], paper["cols"]
    internal = build_grid_network(rows, cols).internal_roads()
    cut = draw(st.lists(st.sampled_from(internal), min_size=1, max_size=2, unique=True))
    return dict(
        name=f"steady-{rows}x{cols}",
        load=paper["demand_scale"],
        capacity=paper["capacity"],
        service_rate=paper["service_rate"],
        road_length=paper["road_length"],
        capacity_overrides={road: draw(st.integers(2, 6)) for road in cut},
    )


def _scenario(plant, seed):
    """The plant's scenario for one seed (a catalog name, if it has one)."""
    spec = dict(plant["scenario"])
    name = spec.pop("name", None)
    if name is None:
        return build_scenario(seed=seed, **spec)
    return build_named_scenario(name, seed=seed, **spec)


def _engines_agree(plant):
    """Every counts engine returns the same results on the plant."""
    scenarios = [_scenario(plant, seed) for seed in plant["seeds"]]
    knobs = dict(
        controller=plant["controller"],
        controller_params=plant["params"],
        duration=DURATION,
        mini_slot=plant["mini_slot"],
    )
    counts = [
        run_scenario(scenario, engine="meso-counts", **knobs).to_dict()
        for scenario in scenarios
    ]
    first = scenarios[0]
    assert run_scenario(first, engine="meso-events", **knobs).to_dict() == counts[0]
    assert run_scenario(first, engine="meso-vec", **knobs).to_dict() == counts[0]
    batch = run_scenario_batch(scenarios, engine="meso-vec", **knobs)
    assert [result.to_dict() for result in batch] == counts


def _kernel_decides_like_reference(plant):
    """The B=1 util-bp kernel vs the scalar reference, call by call.

    Returns what the run reached: spillback, amber and a full out-road.
    """
    scenario = _scenario(plant, plant["seeds"][0])
    network = scenario.network
    config = UtilBpConfig(**plant["util_bp"])
    sim = build_batch_engine([scenario], "meso-vec")
    counts = build_engine(scenario, "meso-counts")
    kernel = build_batch_controller("util-bp", network, 1, **plant["util_bp"])
    reference = {
        node_id: ReferenceUtilBp(intersection, config)
        for node_id, intersection in network.intersections.items()
    }
    reached = Counter()
    dt = plant["mini_slot"]
    for _ in range(int(DURATION / dt)):
        arrays = sim.controller_arrays()
        row = kernel.decide_batch(arrays)[0]
        observations = counts.observations()
        assert sim.observations()[0] == observations, f"t={sim.time}"
        expected = [
            reference[node_id].decide(observations[node_id])
            for node_id in kernel.node_ids
        ]
        assert row.tolist() == expected, f"t={sim.time}"
        if sim.time > 0 and not row.all():
            reached["amber"] += 1
        if arrays.out_queues.any():
            reached["full out-road"] += 1
        sim.step(dt, row)
        counts.step(dt, dict(zip(kernel.node_ids, row.tolist())))
    if sim.staged_slots:
        reached["spillback"] += 1
    return reached


def test_generated_plants_agree():
    reached = Counter()

    @settings(
        max_examples=max(1, settings.default.max_examples // 5),
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plant=plants())
    def check(plant):
        _engines_agree(plant)
        reached.update(set(_kernel_decides_like_reference(plant)))

    check()
    assert set(reached) == {"spillback", "amber", "full out-road"}, reached


@pytest.mark.parametrize("mini_slot", (0.5, 1.0, 2.0))
def test_mixed_rate_changes_inside_a_mini_slot(mini_slot):
    """The mixed pattern's boundaries (15.25, 30.5, 45.75 s) fall inside
    an arrival window at every mini-slot; the engines still agree."""
    _engines_agree(
        dict(
            scenario=dict(
                pattern="mixed",
                rows=2,
                cols=2,
                capacity=20,
                demand_scale=2.0,
                mixed_segment_duration=15.25,
            ),
            mini_slot=mini_slot,
            controller="util-bp",
            params={},
            seeds=[1, 2, 3],
        )
    )
