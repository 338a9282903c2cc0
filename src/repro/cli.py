"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        one scenario under one controller, print the summary
sweep      run a (workload x controller x seed) grid on the worker pool
           (--shard i/N runs one deterministic grid shard, for sweeps
           spread over hosts and joined with 'results merge')
results    inspect a result store (list / show / export / merge)
analyze    regime-shift analytics over a store (changepoint verdicts)
scenarios  list/inspect the scenario catalog (repro.scenarios)
serve      run the simulation service (HTTP submission/query server)
submit     submit specs/grids to a running service
jobs       list or inspect jobs on a running service
table3     reproduce Table III
fig2       reproduce Fig. 2 (period sweep)
fig34      reproduce Figs. 3-4 (phase traces)
fig5       reproduce Fig. 5 (queue trace)
ablations  run a named ablation study
stability  demand-scale stability sweep

Every sweep-shaped command accepts ``--workers N`` (process-parallel
execution) and ``--store FILE``, the SQLite result store; completed
cells are committed incrementally and a re-invoked sweep resumes by
computing only the missing cells.

Bad option values (an unknown pattern, a non-positive ``--period``,
``--duration``, ``--workers`` or ``--batch-size``) are usage errors:
one ``error:`` line on stderr and exit code 2, and so is a
:class:`~repro.errors.ReproError` found later (a file that is not a
store, an unreachable service): one ``repro <command>: ...`` line.  A
worker process that dies twice on the same cell is one such line too,
with exit code 1.  Ctrl-C is one ``repro <command>: interrupted`` line
(with the cells in the store of a sweep) and exit code 130.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.options import ANALYSIS_PARAMS, AnalysisOptions
from repro.control.factory import (
    CONTROLLER_NAMES,
    FIXED_SLOT_CONTROLLERS,
    check_controller,
)
from repro.core.engine import ENGINE_NAMES
from repro.errors import ReproError, UsageError
from repro.util.validation import check_positive

__all__ = ["build_parser", "main"]


class _VersionAction(argparse.Action):
    """``--version`` printing both package and API versions.

    Custom (instead of ``action="version"``) so :mod:`repro.api` is
    imported only when the flag is actually used — parser construction
    stays cheap for every other invocation.
    """

    def __init__(self, option_strings, dest, **kwargs):
        """Configure as a zero-argument, exiting flag."""
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "print package and API versions, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        """Print ``repro <pkg-version> (api <API_VERSION>)`` and exit."""
        from repro.api import API_VERSION, package_version

        print(f"repro {package_version()} (api {API_VERSION})")
        parser.exit(0)


def _positive(kind: type):
    """An argparse ``type=`` parsing ``kind`` and requiring a finite > 0.

    A bad value becomes argparse's usage error (one ``error:`` line,
    exit 2) instead of a traceback from deep inside the run.
    """

    def parse(text: str):
        value = kind(text)  # ValueError -> "invalid <kind> value"
        try:
            return check_positive("value", value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))

    parse.__name__ = kind.__name__
    return parse


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    """Worker-pool options shared by every sweep-shaped command."""
    parser.add_argument(
        "--workers", type=_positive(int), default=1,
        help="worker processes (1 = serial in-process)",
    )
    parser.add_argument(
        "--store", default=None, metavar="FILE",
        help=(
            "SQLite result store; completed cells are committed "
            "incrementally and never re-simulated"
        ),
    )
    parser.add_argument(
        "--batch-size", type=_positive(int), default=16,
        help=(
            "maximum seed-batch width: same-cell/different-seed specs on "
            "a batch-capable engine (meso-vec) are stepped as one batched "
            "simulation (1 disables grouping; default 16)"
        ),
    )


def _make_pool(args: argparse.Namespace):
    from repro.orchestration import ExperimentPool

    return ExperimentPool(
        workers=args.workers, store=args.store, batch_size=args.batch_size
    )


def _add_grid_options(
    parser: argparse.ArgumentParser, shard_help: str
) -> None:
    """Sweep-grid axes shared by ``sweep`` and ``submit``.

    ``--shard`` takes the command's own ``shard_help``.
    """
    parser.add_argument(
        "--patterns", nargs="+", type=_parse_pattern_token, default=None,
        help="traffic patterns (I II III IV mixed)",
    )
    parser.add_argument(
        "--scenario", "--scenarios", dest="scenarios", nargs="+",
        type=_parse_scenario_token, default=None, metavar="NAME",
        help=(
            "catalog scenarios (see 'repro scenarios list'), e.g. "
            "surge-4x4 tidal-6x6; combined with --patterns"
        ),
    )
    parser.add_argument(
        "--controllers", nargs="+", type=_parse_controller_token,
        default=[("util-bp", {})], metavar="NAME[:key=val,...]",
        help="controllers, e.g. util-bp cap-bp:period=18",
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument(
        "--engine", "--engines", dest="engine", nargs="+",
        choices=ENGINE_NAMES, default=["meso"], metavar="ENGINE",
        help=(
            "engines axis of the grid; several names sweep every "
            f"workload on each of them (known: {', '.join(ENGINE_NAMES)})"
        ),
    )
    parser.add_argument("--duration", type=_positive(float), default=1800.0)
    parser.add_argument(
        "--shard", type=_parse_shard_token, default=None, metavar="I/N",
        help=shard_help,
    )


def _grid_from_args(
    args: argparse.Namespace,
    load: Optional[float] = None,
    record_entry_queues: int = 0,
):
    """The :class:`SweepGrid` the grid options of ``args`` describe."""
    from repro.orchestration import SweepGrid

    entry_params = {"load": load} if load is not None else {}
    return SweepGrid(
        patterns=None if args.patterns is None else tuple(args.patterns),
        scenarios=tuple(
            (name, entry_params) for name in args.scenarios or ()
        ),
        controllers=tuple(args.controllers),
        seeds=tuple(args.seeds),
        engines=tuple(args.engine),
        durations=(args.duration,),
        record_entry_queues=record_entry_queues,
    )


def _parse_pattern_token(token: str) -> str:
    """Validate a --patterns entry eagerly (before any cell runs)."""
    from repro.scenarios.patterns import PATTERN_NAMES

    if token not in PATTERN_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown pattern {token!r}; known: {list(PATTERN_NAMES)}"
        )
    return token


def _parse_scenario_token(token: str) -> str:
    """Validate a --scenario entry against the catalog (incl. dynamic)."""
    from repro.scenarios import is_scenario_name, scenario_names

    if not is_scenario_name(token):
        raise argparse.ArgumentTypeError(
            f"unknown scenario {token!r}; known: {list(scenario_names())} "
            f"(or <family>-<R>x<C>)"
        )
    return token


def _parse_study_token(token: str) -> str:
    """Validate an ablations study name eagerly (before any cell runs)."""
    from repro.experiments.ablations import ABLATIONS

    if token not in ABLATIONS:
        raise argparse.ArgumentTypeError(
            f"unknown ablation {token!r}; known: {sorted(ABLATIONS)}"
        )
    return token


def _parse_shard_token(token: str) -> str:
    """Validate an INDEX/COUNT shard designator (kept as its text form)."""
    from repro.orchestration.spec import parse_shard

    try:
        parse_shard(token)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return token


def _parse_controller_token(token: str) -> tuple:
    """Parse ``name`` or ``name:key=val,key=val`` into ``(name, params)``.

    The spec is checked here, so a controller no run could build is a
    usage error, not a traceback from a worker.
    """
    name, _, params_text = token.partition(":")
    params: Dict[str, Any] = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise argparse.ArgumentTypeError(
                    f"malformed controller parameter {item!r} "
                    f"(expected key=value)"
                )
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    try:
        check_controller(name, params)
    except (TypeError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error))
    return name, params


_ENGINE = ("--engine", dict(choices=ENGINE_NAMES))
_SEED = ("--seed", dict(type=int))
_DURATION = ("--duration", dict(type=_positive(float)))

#: The subcommands that each run the experiment of their name: help
#: text, and each flag with its argparse options (the dest is the
#: definition parameter the flag sets).
_EXPERIMENT_FLAGS = {
    "table3": ("reproduce Table III", (
        _ENGINE,
        ("--scale", dict(dest="duration_scale", metavar="SCALE", type=float)),
        _SEED,
    )),
    "fig2": ("reproduce Fig. 2", (
        _ENGINE,
        ("--segment", dict(
            dest="segment_duration", metavar="SEGMENT", type=float)),
        _SEED,
    )),
    "fig34": ("reproduce Figs. 3-4", (_ENGINE, _DURATION, _SEED)),
    "fig5": ("reproduce Fig. 5", (_ENGINE, _DURATION, _SEED)),
    "ablations": ("run an ablation study", (_DURATION,)),
    "stability": ("demand-scale sweep", (_DURATION,)),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'CPS-oriented Modeling and Control of Traffic "
            "Signals Using Adaptive Back Pressure' (DATE 2020)"
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario/controller")
    run.add_argument("--pattern", type=_parse_pattern_token, default="I")
    run.add_argument("--controller", choices=CONTROLLER_NAMES, default="util-bp")
    run.add_argument("--period", type=_positive(float), default=None,
                     help="control period for fixed-slot controllers")
    run.add_argument("--engine", choices=ENGINE_NAMES, default="meso")
    run.add_argument("--duration", type=_positive(float), default=1800.0)
    run.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="run a (pattern x controller x seed) grid on the worker pool",
    )
    _add_grid_options(
        sweep,
        shard_help=(
            "run only the I-th of N deterministic grid shards "
            "(zero-based, e.g. 0/4): the spec-content-hash partition is "
            "identical on every host, so N hosts running 0/N..N-1/N "
            "against their own stores cover the grid exactly once; "
            "merge the stores with 'repro results merge'"
        ),
    )
    sweep.add_argument(
        "--load", type=float, default=None,
        help="demand load level forwarded to catalog scenarios",
    )
    sweep.add_argument(
        "--record-entry-queues", type=int, default=0, metavar="N",
        help=(
            "record queue traces at each workload's entry roads "
            "(0 = off, -1 = all entries, n = the first n) — the input "
            "'repro analyze changepoints' needs"
        ),
    )
    sweep.add_argument(
        "--aggregate", nargs="?", const="pattern,controller,engine",
        default=None, metavar="AXES",
        help=(
            "also print mean/std/ci95 across the cells of each group, "
            "grouped by the comma-separated spec axes (default group: "
            "pattern,controller,engine — i.e. aggregate across seeds)"
        ),
    )
    _add_pool_options(sweep)

    results = sub.add_parser(
        "results", help="inspect a result store (list/show/export)"
    )
    results_sub = results.add_subparsers(
        dest="results_command", required=True
    )

    def _add_store_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--store", default="results.sqlite", metavar="FILE",
            help="the SQLite result store to read (default: results.sqlite)",
        )

    rlist = results_sub.add_parser(
        "list", help="roll up the store per (pattern, controller, engine)"
    )
    _add_store_argument(rlist)
    show = results_sub.add_parser(
        "show", help="print one stored cell (spec + summary) by hash prefix"
    )
    show.add_argument("hash_prefix", help="spec-hash prefix (repro results list/export shows hashes)")
    _add_store_argument(show)
    merge = results_sub.add_parser(
        "merge",
        help=(
            "merge shard stores into OUT by spec hash (idempotent; "
            "divergent payloads error unless --prefer says otherwise)"
        ),
    )
    merge.add_argument(
        "output", metavar="OUT",
        help="destination store file (created if missing)",
    )
    merge.add_argument(
        "inputs", nargs="+", metavar="IN",
        help="source store files (e.g. the stores of 'sweep --shard' runs)",
    )
    merge.add_argument(
        "--prefer", choices=("ours", "theirs"), default=None,
        help=(
            "conflict policy for hashes whose payloads diverge: keep "
            "the destination row (ours) or take the source row "
            "(theirs); without this flag a divergent payload aborts "
            "the merge"
        ),
    )
    export = results_sub.add_parser(
        "export", help="dump tidy per-cell rows as CSV or JSON"
    )
    _add_store_argument(export)
    export.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    export.add_argument(
        "--output", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )

    scenarios = sub.add_parser(
        "scenarios", help="inspect the scenario catalog"
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenarios_sub.add_parser("list", help="list all catalog scenarios")
    show = scenarios_sub.add_parser(
        "show", help="build one scenario and print its shape"
    )
    show.add_argument("name", type=_parse_scenario_token)
    show.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP submission/query server)",
    )
    serve.add_argument(
        "--store", default="results.sqlite", metavar="FILE",
        help="SQLite result store backing the service (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listening port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=_positive(int), default=1,
        help="worker processes per job (1 = serial in-process)",
    )
    serve.add_argument(
        "--batch-size", type=_positive(int), default=16,
        help="seed-batch width forwarded to the job pool",
    )

    def _add_url_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url", default="http://127.0.0.1:8000", metavar="URL",
            help="base URL of a running 'repro serve' instance",
        )

    submit = sub.add_parser(
        "submit", help="submit a spec/grid to a running service"
    )
    _add_url_argument(submit)
    submit.add_argument(
        "--json", dest="json_file", default=None, metavar="FILE",
        help=(
            "submission body file ('-' = stdin) carrying {'spec': ...}, "
            "{'specs': [...]} or {'grid': ...}; overrides the grid flags"
        ),
    )
    _add_grid_options(
        submit,
        shard_help=(
            "submit only the I-th of N deterministic grid shards "
            "(zero-based); the service expands the same spec-hash "
            "partition 'repro sweep --shard' uses"
        ),
    )
    submit.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="block until the job is terminal (polling the service)",
    )

    jobs = sub.add_parser(
        "jobs", help="list or inspect jobs on a running service"
    )
    _add_url_argument(jobs)
    jobs.add_argument(
        "job_id", nargs="?", default=None,
        help="job to describe (omit to list all jobs)",
    )
    jobs.add_argument(
        "--events", action="store_true",
        help="print the job's recorded events (requires a job id)",
    )

    # The experiment commands: each runs the definition of its name;
    # each flag's dest is the parameter it sets.  A flag left out stays
    # None and the definition supplies its default at run time.
    for name, (text, flags) in _EXPERIMENT_FLAGS.items():
        command = sub.add_parser(name, help=text)
        if name == "ablations":
            command.add_argument("study", nargs="?", default=None,
                                 type=_parse_study_token,
                                 help="study name (default: all)")
        for flag, options in flags:
            command.add_argument(flag, help="default: the experiment's", **options)
        _add_pool_options(command)

    analyze = sub.add_parser(
        "analyze",
        help="regime-shift analytics over a result store (repro.analysis)",
    )
    analyze_sub = analyze.add_subparsers(
        dest="analyze_command", required=True
    )
    changepoints = analyze_sub.add_parser(
        "changepoints",
        help=(
            "CUSUM stability verdicts per (workload, controller, load) "
            "cell: stable | breakdown@t* [CI] | insufficient-data"
        ),
    )
    changepoints.add_argument(
        "--store", default="results.sqlite", metavar="FILE",
        help="the SQLite result store to analyze (default: results.sqlite)",
    )
    changepoints.add_argument(
        "--pattern", default=None, help="restrict to one workload")
    changepoints.add_argument(
        "--controller", default=None, help="restrict to one controller")
    changepoints.add_argument(
        "--engine", default=None, help="restrict to one engine")
    changepoints.add_argument(
        "--seed", type=int, default=None, help="restrict to one seed")
    changepoints.add_argument(
        "--delay-mode", default=None, dest="delay_mode",
        help="restrict to one delay mode (per-vehicle / aggregate)",
    )
    defaults = AnalysisOptions()
    for param, field, convert, text in ANALYSIS_PARAMS:
        changepoints.add_argument(
            "--" + param.replace("_", "-"), dest=param, type=convert,
            help=f"{text} (default {getattr(defaults, field)})",
        )
    changepoints.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="export tidy verdict rows instead of the table",
    )
    changepoints.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the export to FILE instead of stdout",
    )
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.orchestration.spec import params_label
    from repro.util.tables import render_table

    if args.load is not None and not args.scenarios:
        raise UsageError(
            "--load applies to catalog scenarios; pass --scenario NAME "
            "(paper patterns take --patterns with scenario_params via "
            "the API)"
        )
    axes = None
    if args.aggregate is not None:
        from repro.results.aggregate import check_axes

        axes = check_axes(
            axis.strip() for axis in args.aggregate.split(",") if axis.strip()
        )
    grid = _grid_from_args(
        args, load=args.load, record_entry_queues=args.record_entry_queues
    )

    shard_suffix = ""
    if args.shard is not None:
        from repro.orchestration.spec import parse_shard

        index, count = parse_shard(args.shard)
        specs = grid.shard(index, count)
        shard_suffix = f" (shard {index}/{count} of {len(grid)} cells)"
        if not specs:
            print(
                f"shard {index}/{count} of this {len(grid)}-cell grid is "
                f"empty; nothing to run"
            )
            return 0
    else:
        specs = grid.specs()
    pool = _make_pool(args)
    results = pool.run(specs)
    rows = [
        (
            spec.pattern,
            spec.controller,
            params_label(spec.controller_params),
            spec.engine,
            spec.seed,
            f"{result.average_queuing_time:.2f}",
            f"{result.summary.throughput_per_hour:.0f}",
            f"{result.network_utilization().amber_share:.3f}",
        )
        for spec, result in zip(specs, results)
    ]
    print(
        render_table(
            (
                "pattern",
                "controller",
                "params",
                "engine",
                "seed",
                "avg queuing [s]",
                "thru [veh/h]",
                "amber",
            ),
            rows,
            title=(
                f"Sweep — {len(specs)} cells{shard_suffix}, engines "
                f"{','.join(args.engine)}, duration {args.duration:.0f} s"
            ),
        )
    )
    if axes is not None:
        from repro.results import aggregate, tidy_table

        agg_rows = aggregate(
            zip(specs, results), by=axes, on_mixed_delay_mode="split"
        )
        headers, body = tidy_table(agg_rows)
        print()
        print(
            render_table(
                headers, body,
                title=f"Aggregated over {', '.join(axes)} (across the rest)",
            )
        )
    print(
        f"executed {pool.stats.executed}, "
        f"cache hits {pool.stats.cache_hits}, workers {pool.workers}"
    )
    return 0


def _write_rows(
    rows: List[Dict[str, Any]], fmt: str, output: Optional[str]
) -> None:
    """Write tidy rows as ``csv`` or ``json`` to stdout or to ``output``."""
    if fmt == "json":
        import json as _json

        text = _json.dumps(rows, indent=2) + "\n"
    else:
        import csv
        import io

        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
    if output:
        from pathlib import Path

        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as error:
            raise UsageError(
                f"cannot write {output}: {error.strerror or error}"
            ) from None
        print(f"wrote {len(rows)} rows to {output}")
    else:
        sys.stdout.write(text)


def _run_results(args: argparse.Namespace) -> int:
    from repro.results import MergeStats, ResultStore

    if args.results_command == "merge":
        totals = MergeStats()
        with ResultStore(args.output) as destination:
            for source in args.inputs:
                stats = destination.merge_from(source, prefer=args.prefer)
                totals.merge(stats)
                print(
                    f"{source}: {stats.inserted} inserted, "
                    f"{stats.identical} identical, "
                    f"{stats.conflicts} conflicts"
                )
            rows = len(destination)
        print(
            f"merged {len(args.inputs)} store(s) into {args.output}: "
            f"{totals.inserted} inserted, {totals.identical} identical, "
            f"{totals.conflicts} conflicts — {rows} rows total"
        )
        return 0

    from repro.util.tables import render_table

    with ResultStore.reader(args.store) as store:
        if args.results_command == "list":
            rows = [
                (
                    entry["pattern"],
                    entry["controller"],
                    entry["engine"],
                    entry["cells"],
                    entry["seeds"],
                    entry["delay_mode"],
                    f"{entry['mean_avg_queuing_time']:.2f}"
                    if entry["mean_avg_queuing_time"] is not None
                    else "-",
                )
                for entry in store.overview()
            ]
            print(
                render_table(
                    (
                        "pattern",
                        "controller",
                        "engine",
                        "cells",
                        "seeds",
                        "delay mode",
                        "mean avg queuing [s]",
                    ),
                    rows,
                    title=f"Result store {args.store} — {len(store)} cells",
                )
            )
            return 0

        if args.results_command == "show":
            import json as _json

            record = store.find_one(args.hash_prefix)
            print(f"cell {record.spec_hash}")
            print(f"  label: {record.spec.label()}")
            print("  spec:")
            print(
                "\n".join(
                    f"    {line}"
                    for line in _json.dumps(
                        record.spec.to_dict(), indent=2
                    ).splitlines()
                )
            )
            print(f"  summary: {record.summary}")
            print(
                f"  avg queuing {record.summary.average_queuing_time:.2f} s, "
                f"delay mode {record.summary.delay_mode}"
            )
            return 0

        assert args.results_command == "export"
        _write_rows(store.export_rows(), args.format, args.output)
        return 0


def _analysis_options(args: argparse.Namespace) -> AnalysisOptions:
    """The detector options the ``analyze changepoints`` flags set."""
    return AnalysisOptions(
        **{
            field: getattr(args, param)
            for param, field, *_ in ANALYSIS_PARAMS
            if getattr(args, param) is not None
        }
    )


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.stability import (
        analyze_store,
        render_verdicts,
        verdict_rows,
    )
    from repro.results.store import QUERY_AXES

    options = _analysis_options(args)
    filters = {
        key: getattr(args, key)
        for key in QUERY_AXES
        if getattr(args, key) is not None
    }
    verdicts = analyze_store(args.store, options=options, **filters)
    if args.format is None:
        print(render_verdicts(verdicts))
        return 0
    _write_rows(verdict_rows(verdicts), args.format, args.output)
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import build_named_scenario, catalog_entries
    from repro.util.tables import render_table

    if args.scenarios_command == "list":
        rows = [
            (entry.name, entry.grid, entry.family.name, entry.description)
            for entry in catalog_entries()
        ]
        print(
            render_table(
                ("name", "grid", "family", "description"),
                rows,
                title=(
                    f"Scenario catalog — {len(rows)} entries "
                    f"(any <family>-<R>x<C> also resolves)"
                ),
            )
        )
        return 0

    scenario = build_named_scenario(args.name, seed=args.seed)
    network = scenario.network
    horizon = scenario.default_duration
    expected = sum(
        schedule.expected_count(0.0, horizon)
        for schedule in scenario.demand.values()
    )
    print(f"scenario {scenario.name} (seed {scenario.seed})")
    print(
        f"  network: {len(network.intersections)} intersections, "
        f"{len(network.roads)} roads, {len(network.entry_roads())} entries"
    )
    print(f"  default horizon: {horizon:.0f} s")
    print(f"  expected arrivals over horizon: {expected:.0f} vehicles")
    capacities = sorted(
        {road.capacity for road in network.roads.values()}
    )
    print(f"  road capacities: {capacities}")
    return 0


def _read_json_body(path: str) -> Any:
    """The JSON document in ``path`` (``-``: stdin) for ``submit --json``.

    A file that cannot be read or does not hold JSON is a
    :class:`UsageError` naming it.
    """
    import json as _json

    try:
        if path == "-":
            return _json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return _json.load(handle)
    except OSError as error:
        raise UsageError(f"cannot read {path}: {error.strerror or error}") from None
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"{path} is not a JSON document: {error}") from None


def _run_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    if args.json_file is not None:
        body = _read_json_body(args.json_file)
    else:
        body = {"grid": _grid_from_args(args).to_dict()}
    client = ServiceClient(args.url)
    if args.shard is not None:
        body["shard"] = args.shard
    job = client.submit(body)["job"]
    print(
        f"submitted {job['job_id']}: {job['counts']['total']} cells "
        f"({job['counts']['shared']} shared with earlier jobs)"
    )
    if args.wait is not None:
        job = client.job(job["job_id"], wait=args.wait)["job"]
    counts = job["counts"]
    print(
        f"{job['job_id']}: {job['state']} — "
        f"{counts['done']}/{counts['total']} done "
        f"({counts['from_store']} from store, "
        f"{counts['executed']} executed, {counts['failed']} failed)"
    )
    return 0 if job["state"] != "failed" else 1


def _run_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceClient
    from repro.util.tables import render_table

    client = ServiceClient(args.url)
    if args.job_id is None:
        rows = [
            (
                job["job_id"],
                job["state"],
                job["counts"]["total"],
                job["counts"]["done"],
                job["counts"]["failed"],
                job["counts"]["from_store"],
                job["counts"]["executed"],
            )
            for job in client.jobs()["jobs"]
        ]
        print(
            render_table(
                (
                    "job", "state", "cells", "done", "failed",
                    "from store", "executed",
                ),
                rows,
                title=f"Jobs at {args.url} — {len(rows)}",
            )
        )
        return 0
    if args.events:
        for event in client.iter_events(args.job_id, follow=False):
            print(_json.dumps(event))
        return 0
    view = client.job(args.job_id)
    print(_json.dumps(view["job"], indent=2, sort_keys=True))
    return 0


def _run_experiment_command(args: argparse.Namespace) -> int:
    """Run the experiment ``args.command`` names and print its rendering.

    The parameters are the flags given (the definition fills in the
    rest); ``ablations`` without a study runs every study on one pool.
    """
    from repro.results.experiment import get_experiment, run_experiment

    definition = get_experiment(args.command)
    params = {
        key: value
        for key, value in vars(args).items()
        if key in definition.defaults and value is not None
    }
    runs = [params]
    if args.command == "ablations" and args.study is None:
        from repro.experiments.ablations import ABLATIONS

        runs = [dict(params, study=study) for study in ABLATIONS]
    pool = _make_pool(args)
    for run in runs:
        print(
            definition.render(run_experiment(args.command, pool=pool, **run))
        )
        if args.command == "ablations":
            print()
    return 0


def _run_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the parsed command; returns its exit code."""
    if args.command == "run":
        from repro.experiments import RunConfig, build_scenario, run_scenario

        if args.controller in FIXED_SLOT_CONTROLLERS and args.period is None:
            parser.error(f"--controller {args.controller} needs --period")

        params = {}
        if args.period is not None:
            params["period"] = args.period
        try:
            check_controller(args.controller, params)
        except (TypeError, ValueError) as error:
            parser.error(str(error))
        result = run_scenario(
            build_scenario(args.pattern, seed=args.seed),
            config=RunConfig(
                controller=args.controller,
                controller_params=params,
                duration=args.duration,
                engine=args.engine,
            ),
        )
        print(result.summary)
        print(
            f"average queuing time: {result.average_queuing_time:.2f} s, "
            f"amber share: {result.network_utilization().amber_share:.3f}"
        )
        return 0

    if args.command == "serve":
        from repro.service import serve as run_service

        run_service(
            store=args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            batch_size=args.batch_size,
        )
        return 0

    handlers = {
        "sweep": _run_sweep,
        "results": _run_results,
        "scenarios": _run_scenarios,
        "analyze": _run_analyze,
        "submit": _run_submit,
        "jobs": _run_jobs,
        **dict.fromkeys(_EXPERIMENT_FLAGS, _run_experiment_command),
    }
    return handlers[args.command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` from any command becomes one
    ``repro <command>[ <subcommand>]: <message>`` line on stderr, never
    a traceback, and the exit code is the error's ``exit_status``: 2
    (a usage error) unless the error says otherwise, as a worker death
    does.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    subcommand = getattr(args, f"{args.command}_command", None)
    command = " ".join(filter(None, (args.command, subcommand)))
    try:
        return _run_command(parser, args)
    except ReproError as error:
        print(f"repro {command}: {error}", file=sys.stderr)
        return getattr(error, "exit_status", 2)
    except KeyboardInterrupt:
        print(f"repro {command}: interrupted{_stored_note(args)}", file=sys.stderr)
        return 130


def _stored_note(args: argparse.Namespace) -> str:
    """What an interrupted sweep-shaped command left in its store."""
    if args.command not in ("sweep", *_EXPERIMENT_FLAGS) or args.store is None:
        return ""
    from repro.results.store import ResultStore

    try:
        with ResultStore.reader(args.store) as store:
            return f"; cells in {args.store}: {len(store)}, a re-run resumes"
    except ReproError:
        return f"; no cells in {args.store}"


if __name__ == "__main__":
    raise SystemExit(main())
