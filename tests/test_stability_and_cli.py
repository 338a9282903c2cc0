"""Tests for the stability study and the CLI."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.control.factory import FIXED_SLOT_CONTROLLERS
from repro.errors import ReproError
from repro.experiments.stability import (
    StabilityPoint,
    max_stable_scale,
    render_stability,
    run_stability_sweep,
)


class TestStability:
    def test_small_sweep_runs(self):
        points = run_stability_sweep(
            scales=(0.5, 1.0),
            controllers=(("util-bp", None),),
            duration=200.0,
        )
        assert len(points) == 2
        assert all(p.controller == "util-bp" for p in points)

    def test_light_demand_stable(self):
        points = run_stability_sweep(
            scales=(0.5,), controllers=(("util-bp", None),), duration=400.0
        )
        assert points[0].stable

    def test_stable_property(self):
        point = StabilityPoint(
            controller="x",
            demand_scale=1.0,
            average_queuing_time=10.0,
            vehicles_in_network=100,
            backlog=0,
            network_capacity=1000,
        )
        assert point.stable
        saturated = StabilityPoint(
            controller="x",
            demand_scale=2.0,
            average_queuing_time=500.0,
            vehicles_in_network=900,
            backlog=300,
            network_capacity=1000,
        )
        assert not saturated.stable

    def test_max_stable_scale(self):
        def point(scale, stable_count):
            return StabilityPoint(
                "c", scale, 1.0, 0 if stable_count else 10**6, 0, 10
            )

        points = [point(0.5, True), point(1.0, True), point(1.5, False)]
        assert max_stable_scale(points, "c") == 1.0
        assert max_stable_scale(points, "other") == 0.0

    def test_render(self):
        points = run_stability_sweep(
            scales=(0.5,), controllers=(("util-bp", None),), duration=100.0
        )
        assert "Stability sweep" in render_stability(points)

    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            run_stability_sweep(scales=())


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command(self, capsys):
        code = main(
            [
                "run",
                "--pattern",
                "II",
                "--controller",
                "fixed-time",
                "--period",
                "15",
                "--duration",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average queuing time" in out

    def test_run_util_bp_default(self, capsys):
        assert main(["run", "--duration", "60"]) == 0
        assert "Summary" in capsys.readouterr().out

    def test_ablations_single_study(self, capsys):
        code = main(["ablations", "alpha-beta-order", "--duration", "60"])
        assert code == 0
        assert "alpha-beta-order" in capsys.readouterr().out

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--controller", "magic"])

    @staticmethod
    def _usage_error(capsys, argv):
        """Run the CLI expecting exit 2 with one ``error:`` line."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        return errors[0]

    def test_run_unknown_pattern_is_a_usage_error(self, capsys):
        line = self._usage_error(capsys, ["run", "--pattern", "XYZ"])
        assert "unknown pattern 'XYZ'" in line

    def test_ablations_unknown_study_is_a_usage_error(self, capsys):
        line = self._usage_error(capsys, ["ablations", "nonexistent"])
        assert "unknown ablation 'nonexistent'" in line
        assert "keep-margin" in line

    @pytest.mark.parametrize("controller", FIXED_SLOT_CONTROLLERS)
    def test_run_fixed_slot_controller_needs_period(self, capsys, controller):
        line = self._usage_error(capsys, ["run", "--controller", controller])
        assert f"--controller {controller} needs --period" in line

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--period", "-5"], "--period"),
            (["run", "--duration", "-5"], "--duration"),
            (["sweep", "--duration", "-5"], "--duration"),
            (["sweep", "--duration", "nan"], "--duration"),
            (["sweep", "--workers", "0"], "--workers"),
            (["sweep", "--batch-size", "0"], "--batch-size"),
            (["table3", "--workers", "-1"], "--workers"),
            (["serve", "--batch-size", "0"], "--batch-size"),
            (["run", "--period", "soon"], "--period"),
        ],
    )
    def test_non_positive_numbers_are_usage_errors(self, capsys, argv, flag):
        line = self._usage_error(capsys, argv)
        assert f"argument {flag}:" in line

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sweep", "--patterns", "I", "--controllers", "cap-bp",
                 "--duration", "5"],
                "cap-bp requires a 'period' parameter",
            ),
            (
                ["sweep", "--controllers", "cap-bp:period=-3"],
                "period must be > 0",
            ),
            (
                ["sweep", "--controllers", "util-bp:alpha=0.5"],
                "alpha must be negative",
            ),
            (
                ["run", "--controller", "util-bp", "--period", "10"],
                "unknown util-bp parameters: ['period']",
            ),
        ],
        ids=["sweep-no-period", "sweep-bad-period", "sweep-bad-alpha",
             "run-util-bp-period"],
    )
    def test_unbuildable_controller_is_a_usage_error(
        self, capsys, argv, message
    ):
        line = self._usage_error(capsys, argv)
        assert message in line

    def test_fig2_flags_parse(self):
        args = build_parser().parse_args(
            ["fig2", "--engine", "meso", "--segment", "100"]
        )
        assert args.segment_duration == 100.0

    def test_stability_flags_parse(self):
        args = build_parser().parse_args(["stability", "--duration", "300"])
        assert args.duration == 300.0

    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--patterns", "I", "mixed",
                "--controllers", "util-bp", "cap-bp:period=18",
                "--workers", "4",
            ]
        )
        assert args.patterns == ["I", "mixed"]
        assert args.controllers == [
            ("util-bp", {}),
            ("cap-bp", {"period": 18.0}),
        ]
        assert args.workers == 4

    def test_sweep_rejects_unknown_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--patterns", "V"])

    def test_sweep_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--controllers", "magic"])


class TestScenariosCli:
    def test_list_shows_catalog(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("surge-4x4", "tidal-3x3", "incident-3x3"):
            assert name in out

    def test_list_shows_at_least_eight(self, capsys):
        from repro.scenarios import scenario_names

        main(["scenarios", "list"])
        out = capsys.readouterr().out
        listed = [n for n in scenario_names() if n in out]
        assert len(listed) >= 8

    def test_show_builds_the_scenario(self, capsys):
        assert main(["scenarios", "show", "incident-4x4"]) == 0
        out = capsys.readouterr().out
        assert "16 intersections" in out
        assert "road capacities" in out

    def test_show_accepts_dynamic_names(self, capsys):
        assert main(["scenarios", "show", "steady-2x2"]) == 0
        assert "4 intersections" in capsys.readouterr().out

    def test_sweep_scenario_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "surge-4x4", "--load", "1.2"]
        )
        assert args.scenarios == ["surge-4x4"]
        assert args.load == 1.2
        assert args.patterns is None

    def test_sweep_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--scenario", "magic-grid"])

    def test_sweep_load_without_scenario_errors(self, capsys):
        code = main(["sweep", "--patterns", "I", "--load", "1.4"])
        assert code == 2
        assert "--load" in capsys.readouterr().err

    def test_sweep_runs_scenario_end_to_end(self, capsys):
        code = main(
            ["sweep", "--scenario", "surge-3x3", "--duration", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "surge-3x3" in out
        assert "executed 1" in out

    def test_sweep_command_runs(self, capsys):
        code = main(
            [
                "sweep",
                "--patterns", "I",
                "--controllers", "util-bp",
                "--duration", "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep — 1 cells" in out
        assert "executed 1" in out


class TestCliStoreOptions:
    """--store names the result store; the shard flag."""

    def _sweep(self, *extra):
        return [
            "sweep", "--patterns", "I", "--controllers", "util-bp",
            "--duration", "60", *extra,
        ]

    def test_store_flag_is_canonical(self, tmp_path, capsys):
        import warnings

        store = tmp_path / "cells.sqlite"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(self._sweep("--store", str(store))) == 0
        assert store.is_file()
        capsys.readouterr()
        assert main(self._sweep("--store", str(store))) == 0
        assert "cache hits 1" in capsys.readouterr().out

    def test_shard_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--shard", "2/4"])
        assert args.shard == "2/4"
        args = parser.parse_args(
            ["submit", "--scenario", "steady-4x4", "--shard", "0/2"]
        )
        assert args.shard == "0/2"
        for bad in (["--shard", "4/4"], ["--shard", "nope"], ["--fleet", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["sweep", *bad])

    def _shard_sweep(self, seeds, *extra):
        return [
            "sweep", "--patterns", "I", "--controllers", "util-bp",
            "--duration", "60", "--seeds", *map(str, seeds), *extra,
        ]

    def test_sharded_sweeps_merge_to_complete_store(self, tmp_path, capsys):
        seeds = [1, 2, 3, 4]
        for index in range(2):
            shard_store = tmp_path / f"shard-{index}.sqlite"
            code = main(
                self._shard_sweep(
                    seeds, "--shard", f"{index}/2",
                    "--store", str(shard_store),
                )
            )
            assert code == 0
            assert f"shard {index}/2" in capsys.readouterr().out
        merged = tmp_path / "merged.sqlite"
        code = main(
            [
                "results", "merge", str(merged),
                str(tmp_path / "shard-0.sqlite"),
                str(tmp_path / "shard-1.sqlite"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 inserted" in out or "rows total" in out
        # Resume against the merged store: nothing left to compute.
        code = main(self._shard_sweep(seeds, "--store", str(merged)))
        assert code == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "cache hits 4" in out

    def test_results_merge_reports_bad_source(self, tmp_path, capsys):
        code = main(
            [
                "results", "merge", str(tmp_path / "out.sqlite"),
                str(tmp_path / "missing.sqlite"),
            ]
        )
        assert code == 2
        assert "no result store" in capsys.readouterr().err

    def test_parallel_sweep_exports_like_shards_merged(self, tmp_path, capsys):
        seeds = [1, 2, 3, 4]
        parallel = tmp_path / "parallel.sqlite"
        code = main(
            self._shard_sweep(seeds, "--workers", "2", "--store", str(parallel))
        )
        assert code == 0
        for index in range(2):
            code = main(
                self._shard_sweep(
                    seeds, "--shard", f"{index}/2",
                    "--store", str(tmp_path / f"shard-{index}.sqlite"),
                )
            )
            assert code == 0
        merged = tmp_path / "merged.sqlite"
        code = main(
            [
                "results", "merge", str(merged),
                str(tmp_path / "shard-0.sqlite"),
                str(tmp_path / "shard-1.sqlite"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        exports = []
        for store in (parallel, merged):
            assert main(["results", "export", "--store", str(store)]) == 0
            exports.append(capsys.readouterr().out)
        assert exports[0] == exports[1]
        assert exports[0].count("\n") == 1 + len(seeds)

    def test_serve_and_submit_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--store", "s.sqlite", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.port == 0
        args = parser.parse_args(
            [
                "submit", "--url", "http://127.0.0.1:9", "--scenario",
                "steady-4x4", "--wait", "5",
            ]
        )
        assert args.command == "submit"
        assert args.wait == 5.0
        args = parser.parse_args(["jobs", "job-000001", "--events"])
        assert args.command == "jobs"
        assert args.events

    def test_submit_unreachable_service_fails_cleanly(self, capsys):
        code = main(
            [
                "submit", "--url", "http://127.0.0.1:9",
                "--scenario", "steady-4x4",
            ]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_jobs_unreachable_service_fails_cleanly(self, capsys):
        code = main(["jobs", "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class _Stop(Exception):
    """Raised by a stand-in to end a CLI run once its call is recorded."""


class TestExperimentCommands:
    """The six experiment commands run their registered definition with
    each flag under the definition's parameter name."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["table3", "--engine", "meso-counts", "--scale", "0.5",
                 "--seed", "3"],
                {"engine": "meso-counts", "duration_scale": 0.5, "seed": 3},
            ),
            (
                ["fig2", "--engine", "micro", "--segment", "60",
                 "--seed", "2"],
                {"engine": "micro", "segment_duration": 60.0, "seed": 2},
            ),
            (
                ["fig34", "--engine", "meso", "--duration", "60",
                 "--seed", "4"],
                {"engine": "meso", "duration": 60.0, "seed": 4},
            ),
            (
                ["fig5", "--engine", "meso", "--duration", "70",
                 "--seed", "5"],
                {"engine": "meso", "duration": 70.0, "seed": 5},
            ),
            (
                ["ablations", "keep-margin", "--duration", "60"],
                {"study": "keep-margin", "duration": 60.0},
            ),
            (["stability", "--duration", "90"], {"duration": 90.0}),
            (["table3"], {}),
            (["stability"], {}),
        ],
        ids=["table3", "fig2", "fig34", "fig5", "ablations", "stability",
             "table3-defaults", "stability-defaults"],
    )
    def test_flags_arrive_as_parameters(self, monkeypatch, argv, expected):
        import repro.results.experiment as experiment
        from repro.orchestration import ExperimentPool

        calls = []

        def record(name, pool=None, **params):
            calls.append((name, pool, params))
            raise _Stop

        monkeypatch.setattr(experiment, "run_experiment", record)
        with pytest.raises(_Stop):
            main(argv)
        [(name, pool, params)] = calls
        assert name == argv[0]
        assert params == expected
        assert set(params) <= set(experiment.get_experiment(name).defaults)
        assert isinstance(pool, ExperimentPool)

    @pytest.mark.parametrize(
        "command", ["table3", "fig2", "fig34", "fig5", "ablations", "stability"]
    )
    def test_parsed_defaults_are_the_definitions(self, monkeypatch, command):
        """Without flags, the definition runs on its own defaults."""
        import dataclasses

        import repro.results.experiment as experiment

        definition = experiment.get_experiment(command)
        calls = []

        def record(**params):
            calls.append(params)
            raise _Stop

        monkeypatch.setitem(
            experiment._REGISTRY, command,
            dataclasses.replace(definition, build_specs=record),
        )
        with pytest.raises(_Stop):
            main([command])
        [params] = calls
        expected = dict(definition.defaults)
        if command == "ablations":
            from repro.experiments.ablations import ABLATIONS

            expected["study"] = next(iter(ABLATIONS))  # no study: every study
        assert params == expected

    def test_ablations_without_study_runs_every_study(
        self, monkeypatch, capsys
    ):
        import repro.results.experiment as experiment
        from repro.experiments.ablations import ABLATIONS

        calls = []

        def record(name, pool=None, **params):
            calls.append((name, pool, params))
            return []

        monkeypatch.setattr(experiment, "run_experiment", record)
        assert main(["ablations", "--duration", "30"]) == 0
        assert [params for _, _, params in calls] == [
            {"study": study, "duration": 30.0} for study in ABLATIONS
        ]
        # One pool serves every study.
        assert len({id(pool) for _, pool, _ in calls}) == 1
        out = capsys.readouterr().out
        assert out == "(no ablation points)\n\n" * len(ABLATIONS)


class TestGridFlags:
    """``sweep`` and ``submit`` share their grid flags and grid builder."""

    @pytest.mark.parametrize(
        "flags",
        [
            [
                "--patterns", "I", "IV",
                "--scenarios", "steady-3x3",
                "--controllers", "util-bp", "cap-bp:period=18",
                "--seeds", "1", "2",
                "--engines", "meso", "meso-vec",
                "--duration", "60",
            ],
            [],
        ],
        ids=["every-axis", "defaults"],
    )
    def test_same_flags_same_grid(self, monkeypatch, flags):
        from repro.cli import _grid_from_args
        from repro.orchestration import ExperimentPool, SweepGrid
        from repro.service.client import ServiceClient

        parser = build_parser()
        sweep = _grid_from_args(parser.parse_args(["sweep", *flags]))
        submit = _grid_from_args(parser.parse_args(["submit", *flags]))
        assert sweep.to_dict() == submit.to_dict()

        # End to end: what submit posts is what sweep would run.
        bodies, runs = [], []

        def post(client, body):
            bodies.append(body)
            raise _Stop

        def run(pool, specs):
            runs.append(tuple(specs))
            raise _Stop

        monkeypatch.setattr(ServiceClient, "submit", post)
        monkeypatch.setattr(ExperimentPool, "run", run)
        for command in ("submit", "sweep"):
            with pytest.raises(_Stop):
                main([command, *flags])
        [body] = bodies
        assert body["grid"] == sweep.to_dict()
        assert runs == [SweepGrid.from_dict(body["grid"]).specs()]

    def test_sweep_only_flags_reach_the_grid(self):
        from repro.cli import _grid_from_args

        args = build_parser().parse_args(
            ["sweep", "--scenario", "surge-3x3", "--load", "1.2",
             "--record-entry-queues", "-1"]
        )
        grid = _grid_from_args(
            args, load=args.load,
            record_entry_queues=args.record_entry_queues,
        )
        assert grid.scenarios == (("surge-3x3", (("load", 1.2),)),)
        assert grid.record_entry_queues == -1


class TestInterrupt:
    """Ctrl-C during ``repro sweep``: one line, exit 130, no worker left."""

    @pytest.mark.parametrize(
        "workers, target",
        [(2, "main"), (2, "group"), (1, "group")],
        ids=["two-workers-main-only", "two-workers-group", "one-worker-group"],
    )
    def test_interrupted_sweep_prints_one_line(self, tmp_path, workers, target):
        from repro.results.store import ResultStore

        store = tmp_path / "sweep.sqlite"

        def stored():
            try:
                with ResultStore.reader(store) as reader:
                    return len(reader)
            except ReproError:
                return 0

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep",
             "--patterns", "I", "II", "III", "IV", "--seeds", "1", "2", "3",
             "--duration", "900", "--workers", str(workers),
             "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            ),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not stored() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.communicate()
                time.sleep(0.02)
            if target == "group":  # what a terminal's Ctrl-C does
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert stderr.splitlines() == [
            f"repro sweep: interrupted; cells in {store}: {stored()}, "
            f"a re-run resumes"
        ]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker outlives the command
