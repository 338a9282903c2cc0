"""The analysis surfaces: CLI, sweep-grid recording, experiment table."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.options import AnalysisOptions
from repro.cli import _analysis_options, build_parser, main
from repro.orchestration.spec import SweepGrid


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    """A small store with entry-queue traces, filled once per module."""
    store = str(tmp_path_factory.mktemp("analysis") / "results.sqlite")
    code = main(
        [
            "sweep",
            "--scenario",
            "steady-3x3",
            "--engine",
            "meso-counts",
            "--seeds",
            "1",
            "--duration",
            "300",
            "--record-entry-queues",
            "2",
            "--store",
            store,
        ]
    )
    assert code == 0
    return store


class TestVersionFlag:
    def test_version_prints_package_and_api(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"repro \S+ \(api \d+\.\d+\)", out), out

    def test_version_matches_api_facade(self, capsys):
        from repro.api import API_VERSION, package_version

        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out.strip()
        assert out == f"repro {package_version()} (api {API_VERSION})"


def _parsed_options(*flags):
    args = build_parser().parse_args(["analyze", "changepoints", *flags])
    return _analysis_options(args)


class TestAnalyzeFlags:
    def test_help_prints_no_none(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "changepoints", "--help"])
        out = capsys.readouterr().out
        assert "--min-shift" in out and "None" not in out

    def test_building_the_parser_imports_no_analysis_module(self):
        """In a fresh process: neither the analysis stack nor the pool."""
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print([m for m in ('repro.analysis.stability',"
            " 'repro.orchestration.pool') if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            ),
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_no_flags_parse_to_the_default_options(self):
        assert _parsed_options() == AnalysisOptions()

    def test_every_flag_sets_its_field(self):
        options = _parsed_options(
            "--warmup-fraction", "0.5", "--min-points", "30",
            "--min-shift", "1.5", "--quantile", "0.9",
            "--permutations", "99", "--block", "6",
            "--perm-seed", "3", "--confidence", "0.8",
        )
        assert options == AnalysisOptions(
            warmup_fraction=0.5, min_points=30, min_shift_per_series=1.5,
            quantile=0.9, n_permutations=99, block_length=6, seed=3,
            confidence=0.8,
        )


class TestAnalyzeCommand:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        code = main(
            ["analyze", "changepoints", "--store", str(tmp_path / "no.sqlite")]
        )
        assert code == 2
        assert "no store" in capsys.readouterr().err

    def test_invalid_options_exit_2(self, traced_store, capsys):
        code = main(
            [
                "analyze",
                "changepoints",
                "--store",
                traced_store,
                "--warmup-fraction",
                "1.5",
            ]
        )
        assert code == 2
        assert "warmup_fraction" in capsys.readouterr().err

    def test_table_renders_the_cell(self, traced_store, capsys):
        assert main(["analyze", "changepoints", "--store", traced_store]) == 0
        out = capsys.readouterr().out
        assert "Regime-shift analysis — 1 cells" in out
        assert "steady-3x3" in out
        assert "flag/ana/run" in out

    def test_filters_narrow_the_query(self, traced_store, capsys):
        code = main(
            [
                "analyze",
                "changepoints",
                "--store",
                traced_store,
                "--controller",
                "fixed-time",
            ]
        )
        assert code == 0
        assert "0 cells" in capsys.readouterr().out

    def test_json_and_csv_exports_agree(self, traced_store, tmp_path, capsys):
        assert (
            main(
                [
                    "analyze",
                    "changepoints",
                    "--store",
                    traced_store,
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        csv_path = tmp_path / "verdicts.csv"
        assert (
            main(
                [
                    "analyze",
                    "changepoints",
                    "--store",
                    traced_store,
                    "--format",
                    "csv",
                    "--output",
                    str(csv_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(csv_path, newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        assert len(csv_rows) == len(rows) == 1
        assert csv_rows[0]["pattern"] == rows[0]["pattern"] == "steady-3x3"
        assert csv_rows[0]["status"] == rows[0]["status"]
        assert set(csv_rows[0]) == set(rows[0])

    def test_analysis_is_byte_deterministic(self, traced_store, capsys):
        outputs = []
        for _ in range(2):
            assert (
                main(
                    [
                        "analyze",
                        "changepoints",
                        "--store",
                        traced_store,
                        "--format",
                        "json",
                    ]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestGridRecording:
    def test_round_trips_through_the_wire_format(self):
        grid = SweepGrid(
            scenarios=("steady-3x3",),
            seeds=(1, 2),
            engines=("meso-counts",),
            record_entry_queues=-1,
        )
        clone = SweepGrid.from_dict(grid.to_dict())
        assert clone == grid
        assert clone.record_entry_queues == -1

    def test_default_is_off(self):
        grid = SweepGrid(scenarios=("steady-3x3",), engines=("meso-counts",))
        assert grid.to_dict()["record_entry_queues"] == 0
        assert all(spec.record_queues == () for spec in grid.specs())

    def test_validation_rejects_below_minus_one(self):
        with pytest.raises(ValueError, match="record_entry_queues"):
            SweepGrid(scenarios=("steady-3x3",), record_entry_queues=-2)

    def test_all_entries_recorded_on_every_spec(self):
        grid = SweepGrid(
            scenarios=("steady-3x3",),
            seeds=(1, 2),
            engines=("meso-counts",),
            record_entry_queues=-1,
        )
        specs = grid.specs()
        assert len(specs) == 2
        # A 3x3 grid has 12 entry roads; every pair is (node, road) and
        # identical across seeds (topology is seed-independent).
        assert all(len(spec.record_queues) == 12 for spec in specs)
        assert specs[0].record_queues == specs[1].record_queues
        assert all(
            isinstance(node, str) and isinstance(road, str)
            for node, road in specs[0].record_queues
        )

    def test_positive_n_limits_in_sorted_order(self):
        grid = SweepGrid(
            scenarios=("steady-3x3",),
            engines=("meso-counts",),
            record_entry_queues=2,
        )
        [spec] = grid.specs()
        full = SweepGrid(
            scenarios=("steady-3x3",),
            engines=("meso-counts",),
            record_entry_queues=-1,
        ).specs()[0]
        assert spec.record_queues == full.record_queues[:2]


class TestRegimesExperiment:
    def test_registered_with_the_builtins(self):
        from repro.analysis.stability import STABILITY_REGIMES
        from repro.results import experiment_names, get_experiment

        assert "stability-regimes" in experiment_names()
        assert get_experiment("stability-regimes") is STABILITY_REGIMES

    def test_spec_grid_shape_and_recording(self):
        from repro.analysis.stability import STABILITY_REGIMES

        specs = STABILITY_REGIMES.build_specs(**STABILITY_REGIMES.defaults)
        # 3 loads x 2 controllers x 3 seeds.
        assert len(specs) == 18
        assert {dict(s.scenario_params)["load"] for s in specs} == {
            0.8,
            1.2,
            1.6,
        }
        assert all(len(spec.record_queues) == 12 for spec in specs)
        assert {spec.controller for spec in specs} == {"util-bp", "cap-bp"}

    def test_paper_pattern_scales_demand(self):
        from repro.orchestration.spec import entry_queue_pairs
        from repro.results import get_experiment
        from repro.scenarios import build_scenario

        specs = get_experiment("stability-regimes").specs(
            pattern="II", loads=(0.5, 1.5), seeds=(1,), record_roads=3
        )
        # 2 loads x 2 controllers x 1 seed.
        assert len(specs) == 4
        assert {dict(s.scenario_params)["demand_scale"] for s in specs} == {
            0.5,
            1.5,
        }
        expected = entry_queue_pairs(build_scenario("II").network, 3)
        assert all(spec.record_queues == expected for spec in specs)

        def expected_arrivals(spec):
            return sum(
                schedule.expected_count(0.0, 100.0)
                for schedule in spec.make_scenario().demand.values()
            )

        by_scale = {
            dict(spec.scenario_params)["demand_scale"]: spec for spec in specs
        }
        assert expected_arrivals(by_scale[1.5]) == pytest.approx(
            3 * expected_arrivals(by_scale[0.5])
        )
