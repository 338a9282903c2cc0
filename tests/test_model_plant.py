"""The plant definition: its constants and its seeded traffic."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.model.arrivals import ArrivalSchedule, SlotGrid, slot_times
from repro.model.grid import build_grid_network
from repro.model.plant import PlantConstants, seeded_traffic
from repro.model.routing import RouteSampler
from repro.scenarios import build_scenario
from repro.util.rng import RngStreams

SRC = Path(__file__).resolve().parent.parent / "src"


class TestPlantConstants:
    def test_defaults(self):
        plant = PlantConstants()
        assert plant.travel_time is None
        assert (plant.startup_lost, plant.sensing_horizon) == (2.0, 2.0)
        assert plant.saturation_headway == 1.3
        assert plant.discharge_rate == 1.0 / 1.3

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PlantConstants().startup_lost = 0.0

    @pytest.mark.parametrize(
        "field,value,rule",
        (
            ("travel_time", -1.0, ">= 0"),
            ("startup_lost", -0.5, ">= 0"),
            ("sensing_horizon", -2.0, ">= 0"),
            ("saturation_headway", 0.0, "> 0"),
            ("startup_lost", float("inf"), "finite"),
        ),
    )
    def test_each_check_names_its_constant(self, field, value, rule):
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            PlantConstants(**{field: value})

    def test_zero_is_a_valid_idealization(self):
        plant = PlantConstants(travel_time=0, startup_lost=0, sensing_horizon=0)
        assert set(plant.transit_times(build_grid_network(1, 1)).values()) == {0.0}

    def test_transit_times_default_to_free_flow(self):
        network = build_grid_network(2, 2)
        times = PlantConstants().transit_times(network)
        assert list(times) == list(network.roads)
        assert times == {
            road_id: road.free_flow_time for road_id, road in network.roads.items()
        }
        assert set(PlantConstants(travel_time=3).transit_times(network).values()) == {3.0}


class TestSeededTraffic:
    def test_canonical_stream_layout(self):
        """``routing`` routes and ``arrivals/<road>`` counts of one seed."""
        scenario = build_scenario("II", seed=4)
        network, demand = scenario.network, scenario.demand
        traffic = seeded_traffic(network, demand, scenario.turning, seed=4)
        assert traffic.streams.seed == 4
        assert traffic.streams.names() == sorted(
            ["routing"] + [f"arrivals/{road}" for road in demand]
        )
        assert list(traffic.arrivals) == list(demand)
        streams = RngStreams(4)
        grid = SlotGrid(slot_times(0.0, 1.0, 128), 1.0)
        for road, process in traffic.arrivals.items():
            draws = streams.get(f"arrivals/{road}").poisson(
                demand[road].rate_at(0.0), size=128
            )
            assert np.array_equal(process.sample_count_block(grid), draws)
        reference = RouteSampler(network, scenario.turning, streams.get("routing"))
        for entry in demand:
            assert traffic.router.sample_route(entry) == reference.sample_route(entry)

    def test_scenario_reports_its_name(self):
        scenario = build_scenario("I", seed=1)
        with pytest.raises(ValueError, match=r"scenario 'bad': demand declared"):
            dataclasses.replace(
                scenario,
                name="bad",
                demand={"OUT:N@J00": ArrivalSchedule.constant(1.0)},
            )


#: The classes whose construction is the plant's stream layout, and the
#: module besides the plant that may build instances (the one defining
#: it, or ``None``: only the plant builds streams).
_TRAFFIC_CLASSES = {
    "RngStreams": None,
    "RouteSampler": "repro/model/routing.py",
    "PoissonArrivals": "repro/model/arrivals.py",
}


def _constructed_classes(tree: ast.AST):
    """Names of the traffic classes ``tree`` calls, aliases resolved."""
    aliases = {name: name for name in _TRAFFIC_CLASSES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _TRAFFIC_CLASSES and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in aliases:
            yield aliases[name], node.lineno


def test_only_the_plant_module_builds_seeded_traffic():
    """Every engine's streams come from ``repro.model.plant``."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "repro/model/plant.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{relative}:{line}: {name}("
            for name, line in _constructed_classes(tree)
            if _TRAFFIC_CLASSES[name] != relative
        ]
    assert not offenders, offenders
