"""Declarative run specifications and sweep grids.

A :class:`RunSpec` is the unit of work of the orchestration layer: a
hashable, picklable, JSON-serializable value object that fully
determines one closed-loop simulation — scenario pattern and build
parameters, controller and its parameters, engine, seed, horizon and
recording options.  Because a spec *is* the run (all randomness derives
from the spec's seed), any worker process executing the same spec
produces the identical result, which is what makes process-parallel
sweeps and on-disk result caching sound.

:class:`SweepGrid` expands cartesian products of patterns, controllers,
seeds, engines and horizons into spec lists — the shape of every
table/figure sweep in the paper and of the larger grids the
orchestration pool exists to serve.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.control.factory import check_controller
from repro.core.engine import ENGINE_NAMES, has_batch_engine
from repro.experiments.runner import (
    RunConfig,
    RunResult,
    run_scenario,
    run_scenario_batch,
)
from repro.model.network import Network
from repro.scenarios import (
    Scenario,
    build_named_scenario,
    build_scenario,
    is_scenario_name,
    validate_scenario_params,
)
from repro.scenarios.patterns import PATTERN_NAMES

__all__ = [
    "RunSpec",
    "BatchRunSpec",
    "SweepGrid",
    "parse_shard",
    "shard_index_of",
    "SPEC_SCHEMA_VERSION",
    "entry_queue_pairs",
    "params_label",
]

#: Bump when the spec or result schema changes incompatibly; part of
#: the spec hash so stale cache entries are never reused.
SPEC_SCHEMA_VERSION = 1

#: Parameter mappings are stored as sorted ``(key, value)`` tuples so
#: specs stay hashable; this alias names that shape.
FrozenParams = Tuple[Tuple[str, Any], ...]


def params_label(controller_params: FrozenParams) -> str:
    """Controller parameters as ``k=v,...`` (``-`` for none), everywhere."""
    return ",".join(f"{k}={v}" for k, v in controller_params) or "-"


def entry_queue_pairs(network: Network, count: int) -> Tuple[Tuple[str, str], ...]:
    """``(downstream node, road)`` pairs of ``network``'s entry roads.

    The first ``count`` entry roads in sorted order (all of them if
    ``count`` is not positive), in the shape
    :attr:`RunSpec.record_queues` expects.
    """
    entries = network.entry_roads()
    if count > 0:
        entries = entries[:count]
    return tuple((network.road_destination[road], road) for road in entries)


def _freeze_params(params: Union[None, Mapping[str, Any], Sequence]) -> FrozenParams:
    """Normalize a parameter mapping to a sorted, hashable tuple."""
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


def _params_to_json(params: FrozenParams) -> list:
    """Frozen params as pure JSON values (tuple values become lists)."""
    return [
        [key, list(value) if isinstance(value, tuple) else value]
        for key, value in params
    ]


@dataclass(frozen=True)
class RunSpec:
    """One fully specified (scenario x controller x engine x seed) cell.

    Parameters given as mappings are frozen to sorted tuples on
    construction, so instances are hashable and usable as dict keys.
    ``duration=None`` means the scenario's default horizon.
    """

    pattern: str = "I"
    controller: str = "util-bp"
    controller_params: FrozenParams = ()
    engine: str = "meso"
    seed: int = 1
    duration: Optional[float] = None
    mini_slot: float = 1.0
    queue_sample_interval: float = 5.0
    scenario_params: FrozenParams = ()
    record_phases: Tuple[str, ...] = ()
    record_queues: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.pattern not in PATTERN_NAMES and not is_scenario_name(
            self.pattern
        ):
            raise ValueError(
                f"unknown pattern/scenario {self.pattern!r}; expected one of "
                f"{PATTERN_NAMES} or a scenario-catalog name"
            )
        if self.engine not in ENGINE_NAMES:
            # Fail at spec construction, not mid-sweep in a worker: an
            # unknown engine would otherwise surface only after other
            # cells burned compute.
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {list(ENGINE_NAMES)}"
            )
        object.__setattr__(
            self, "controller_params", _freeze_params(self.controller_params)
        )
        # Like the engine: a controller spec no run could build (unknown
        # name, missing period, bad value) fails here, not in a worker.
        check_controller(self.controller, dict(self.controller_params))
        object.__setattr__(
            self, "scenario_params", _freeze_params(self.scenario_params)
        )
        # Eagerly reject parameters the workload's builder cannot take:
        # a typo'd or pattern-only key must fail here, not as a
        # TypeError inside a worker process mid-sweep.
        validate_scenario_params(self.pattern, self.scenario_params)
        object.__setattr__(self, "record_phases", tuple(self.record_phases))
        object.__setattr__(
            self,
            "record_queues",
            tuple((node, road) for node, road in self.record_queues),
        )
        if self.duration is not None:
            object.__setattr__(self, "duration", float(self.duration))
        # The run options fail here, with RunConfig's own checks, not
        # in a worker.
        RunConfig(
            duration=self.duration,
            mini_slot=self.mini_slot,
            queue_sample_interval=self.queue_sample_interval,
        )

    # -- views --------------------------------------------------------------

    def controller_kwargs(self) -> Dict[str, Any]:
        """The controller parameters as a plain keyword dict."""
        return dict(self.controller_params)

    def scenario_kwargs(self) -> Dict[str, Any]:
        """The extra ``build_scenario`` parameters as a keyword dict."""
        return dict(self.scenario_params)

    def label(self) -> str:
        """A short human-readable cell label for tables and logs."""
        params = params_label(self.controller_params)
        suffix = f"({params})" if self.controller_params else ""
        return (
            f"{self.pattern}/{self.controller}{suffix}"
            f"/{self.engine}/seed{self.seed}"
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view of the spec.

        Uses pure JSON types throughout (tuples become lists), so the
        output survives a ``json`` round trip unchanged — the cache
        relies on that to validate stored entries by equality.
        """
        return {
            "pattern": self.pattern,
            "controller": self.controller,
            "controller_params": _params_to_json(self.controller_params),
            "engine": self.engine,
            "seed": self.seed,
            "duration": self.duration,
            "mini_slot": self.mini_slot,
            "queue_sample_interval": self.queue_sample_interval,
            "scenario_params": _params_to_json(self.scenario_params),
            "record_phases": list(self.record_phases),
            "record_queues": [list(pair) for pair in self.record_queues],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        A payload missing any of ``pattern``, ``controller``, ``engine``
        and ``seed`` raises one ``ValueError`` naming all of them;
        unknown keys are ignored (stored rows decode through here).
        """
        required = ("pattern", "controller", "engine", "seed")
        missing = [key for key in required if key not in payload]
        if missing:
            raise ValueError(f"spec is missing required key(s) {missing}")
        return cls(
            pattern=payload["pattern"],
            controller=payload["controller"],
            controller_params=tuple(
                (k, v) for k, v in payload.get("controller_params", [])
            ),
            engine=payload["engine"],
            seed=int(payload["seed"]),
            duration=payload.get("duration"),
            mini_slot=float(payload.get("mini_slot", 1.0)),
            queue_sample_interval=float(
                payload.get("queue_sample_interval", 5.0)
            ),
            scenario_params=tuple(
                (k, v) for k, v in payload.get("scenario_params", [])
            ),
            record_phases=tuple(payload.get("record_phases", ())),
            record_queues=tuple(
                (n, r) for n, r in payload.get("record_queues", ())
            ),
        )

    def spec_hash(self) -> str:
        """Stable content hash; the result-cache key for this spec."""
        canonical = json.dumps(
            {"version": SPEC_SCHEMA_VERSION, "spec": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution ----------------------------------------------------------

    def make_scenario(self) -> Scenario:
        """Build the scenario this spec describes.

        ``pattern`` is either one of the paper's pattern names
        (``I``-``IV``, ``mixed``) or any scenario-catalog name
        (``surge-4x4``, ``tidal-6x6``, ...); ``scenario_params`` are
        forwarded to whichever builder applies.
        """
        if self.pattern in PATTERN_NAMES:
            return build_scenario(
                self.pattern, seed=self.seed, **self.scenario_kwargs()
            )
        return build_named_scenario(
            self.pattern, seed=self.seed, **self.scenario_kwargs()
        )

    def run_config(self) -> RunConfig:
        """This spec's run knobs as one validated :class:`RunConfig`."""
        return RunConfig(
            controller=self.controller,
            controller_params=self.controller_kwargs(),
            duration=self.duration,
            engine=self.engine,
            mini_slot=self.mini_slot,
            record_phases=self.record_phases,
            record_queues=self.record_queues,
            queue_sample_interval=self.queue_sample_interval,
        )

    def execute(self) -> RunResult:
        """Run the cell (in whatever process this is called from)."""
        return run_scenario(self.make_scenario(), config=self.run_config())


def shard_index_of(spec: RunSpec, count: int) -> int:
    """Which of ``count`` shards owns this spec.

    The assignment hashes the spec's *content* (its
    :meth:`RunSpec.spec_hash`), so it depends on nothing but the cell
    itself and ``count``: not on the grid the spec came from, not on
    axis ordering or expansion order, not on the process computing it
    (sha256, unlike Python's salted ``hash()``).  Any two hosts that
    agree on ``count`` therefore agree on the whole partition.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    # The leading 64 bits of the content hash are plenty for a balanced
    # modulo; parsing the full 256-bit hex would cost 4x for nothing.
    return int(spec.spec_hash()[:16], 16) % count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``INDEX/COUNT`` shard designator (``"0/4"`` ... ``"3/4"``).

    Indices are zero-based: ``N`` shards are ``0/N`` through
    ``N-1/N``.  Raises ``ValueError`` on malformed text or an index
    outside the count.
    """
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"malformed shard {text!r}; expected INDEX/COUNT, e.g. 0/4"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {text!r}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} out of range for count {count} "
            f"(valid: 0..{count - 1})"
        )
    return index, count


@dataclass(frozen=True)
class BatchRunSpec:
    """One batched execution unit: the same cell under many seeds.

    Groups :class:`RunSpec` cells that differ *only* in their seed and
    whose engine can step whole seed-batches (see
    :func:`repro.core.engine.has_batch_engine`).  The batch is purely an
    execution strategy: :meth:`execute` returns one
    :class:`RunResult` per member spec — equal, by the batch engines'
    parity contract, to what each spec's own ``execute()`` would have
    produced — so callers (the pool) can fan results back into the
    per-spec result store under unchanged cache keys.
    """

    template: RunSpec
    seeds: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a batch needs at least one seed")
        if not has_batch_engine(self.template.engine):
            raise ValueError(
                f"engine {self.template.engine!r} cannot step seed-batches; "
                f"submit the specs individually"
            )
        object.__setattr__(
            self, "seeds", tuple(int(seed) for seed in self.seeds)
        )

    @classmethod
    def from_specs(cls, specs: Sequence[RunSpec]) -> "BatchRunSpec":
        """Build a batch from specs that differ only in their seed."""
        if not specs:
            raise ValueError("a batch needs at least one spec")
        template = specs[0]
        reference = dataclasses.replace(template, seed=0)
        for spec in specs[1:]:
            if dataclasses.replace(spec, seed=0) != reference:
                raise ValueError(
                    f"batch members must differ only in seed: "
                    f"{spec.label()} vs {template.label()}"
                )
        return cls(template=template, seeds=tuple(s.seed for s in specs))

    def specs(self) -> Tuple[RunSpec, ...]:
        """The member cells, in batch (seed) order."""
        return tuple(
            dataclasses.replace(self.template, seed=seed)
            for seed in self.seeds
        )

    def __len__(self) -> int:
        return len(self.seeds)

    def execute(self) -> Tuple[RunResult, ...]:
        """Run the whole batch; one result per member spec, in order."""
        template = self.template
        scenarios = [
            dataclasses.replace(template, seed=seed).make_scenario()
            for seed in self.seeds
        ]
        return tuple(
            run_scenario_batch(scenarios, config=template.run_config())
        )


#: A controller axis entry: a name, or ``(name, params)``.
ControllerEntry = Union[str, Tuple[str, Optional[Mapping[str, Any]]]]


#: A scenarios-axis entry: a catalog name, or ``(name, params)`` where
#: the params override the entry's defaults for that cell only.
ScenarioAxisEntry = Union[str, Tuple[str, Optional[Mapping[str, Any]]]]


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product of sweep axes, expandable to :class:`RunSpec` s.

    Axes: traffic ``patterns`` (the paper's ``I``-``mixed``),
    ``scenarios`` (catalog names, optionally with per-entry parameters
    — ``("surge-4x4", {"load": 1.2})``), ``controllers`` (name or
    ``(name, params)`` entries), ``seeds``, ``engines`` and
    ``durations``.  The patterns and scenarios axes are concatenated
    into one workload axis; ``patterns=None`` (the default) means
    pattern ``I`` when no scenarios are given and nothing otherwise,
    so a scenarios-only grid does not sweep an unrequested pattern.
    Scalar run options (``mini_slot``, ``scenario_params``, recording)
    are shared by every cell; per-entry scenario parameters win over
    the shared ones.  ``record_entry_queues`` switches on queue-trace
    recording at each workload's entry roads (``0`` = off, ``-1`` =
    all entries, ``n > 0`` = the first ``n`` in sorted road order) —
    the input the regime-shift analyzer (:mod:`repro.analysis`) needs.
    """

    patterns: Optional[Tuple[str, ...]] = None
    controllers: Tuple[Tuple[str, FrozenParams], ...] = (("util-bp", ()),)
    seeds: Tuple[int, ...] = (1,)
    engines: Tuple[str, ...] = ("meso",)
    durations: Tuple[Optional[float], ...] = (None,)
    mini_slot: float = 1.0
    scenario_params: FrozenParams = ()
    scenarios: Tuple[Tuple[str, FrozenParams], ...] = ()
    record_entry_queues: int = 0

    def __post_init__(self) -> None:
        scenarios = []
        for entry in self.scenarios:
            if isinstance(entry, str):
                scenarios.append((entry, ()))
            else:
                name, params = entry
                scenarios.append((name, _freeze_params(params)))
        object.__setattr__(self, "scenarios", tuple(scenarios))
        if self.patterns is None:
            patterns: Tuple[str, ...] = () if scenarios else ("I",)
        else:
            patterns = tuple(self.patterns)
        object.__setattr__(self, "patterns", patterns)
        controllers = []
        for entry in self.controllers:
            if isinstance(entry, str):
                controllers.append((entry, ()))
            else:
                name, params = entry
                controllers.append((name, _freeze_params(params)))
        for name, params in controllers:
            check_controller(name, dict(params))
        object.__setattr__(self, "controllers", tuple(controllers))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        engines = tuple(self.engines)
        for engine in engines:
            if engine not in ENGINE_NAMES:
                raise ValueError(
                    f"unknown engine {engine!r} in engines axis; known: "
                    f"{list(ENGINE_NAMES)}"
                )
        object.__setattr__(self, "engines", engines)
        durations = tuple(
            None if d is None else float(d) for d in self.durations
        )
        for duration in durations or (None,):
            RunConfig(duration=duration, mini_slot=self.mini_slot)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(
            self, "scenario_params", _freeze_params(self.scenario_params)
        )
        record = int(self.record_entry_queues)
        if record < -1:
            raise ValueError(
                f"record_entry_queues must be >= -1 "
                f"(0=off, -1=all entries, n=first n), got {record}"
            )
        object.__setattr__(self, "record_entry_queues", record)
        # scenario_params are shared across the whole workload axis, so
        # a pattern-only key combined with a catalog scenario (or vice
        # versa) must fail at grid construction — per workload, against
        # the merged per-cell parameters each spec would receive.
        for name, extra in self.workloads():
            merged = dict(self.scenario_params)
            merged.update(extra)
            validate_scenario_params(name, merged)

    def workloads(self) -> Tuple[Tuple[str, FrozenParams], ...]:
        """The combined workload axis: patterns then catalog scenarios."""
        return tuple(
            [(pattern, ()) for pattern in self.patterns]
            + list(self.scenarios)
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view of the (normalized) grid.

        This is the grid's wire format: the HTTP service accepts it as
        a submission body, and :meth:`from_dict` round-trips it
        exactly.
        """
        return {
            "patterns": list(self.patterns),
            "scenarios": [
                [name, _params_to_json(params)]
                for name, params in self.scenarios
            ],
            "controllers": [
                [name, _params_to_json(params)]
                for name, params in self.controllers
            ],
            "seeds": list(self.seeds),
            "engines": list(self.engines),
            "durations": list(self.durations),
            "mini_slot": self.mini_slot,
            "scenario_params": _params_to_json(self.scenario_params),
            "record_entry_queues": self.record_entry_queues,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepGrid":
        """Build a grid from its JSON form (lenient, eagerly validated).

        Accepts the exact :meth:`to_dict` shape, but is deliberately
        forgiving about the hand-written variants a service client
        would send: every key is optional, controller/scenario entries
        may be bare names (``"util-bp"``) or ``[name, params]`` pairs
        with the params as a mapping or a ``[key, value]`` list.
        Unknown keys raise ``ValueError`` — the wire format is a public
        contract, so a typo'd axis must not be silently dropped.
        """
        known = {
            "patterns",
            "scenarios",
            "controllers",
            "seeds",
            "engines",
            "durations",
            "mini_slot",
            "scenario_params",
            "record_entry_queues",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep-grid key(s) {unknown}; known: {sorted(known)}"
            )

        def entries(value):
            """Normalize an axis list of names / [name, params] pairs."""
            out = []
            for entry in value:
                if isinstance(entry, str):
                    out.append((entry, ()))
                else:
                    name, params = entry
                    if isinstance(params, Mapping):
                        out.append((name, params))
                    else:
                        out.append(
                            (name, tuple((k, v) for k, v in params or ()))
                        )
            return tuple(out)

        patterns = payload.get("patterns")
        scenario_params = payload.get("scenario_params") or ()
        if not isinstance(scenario_params, Mapping):
            scenario_params = tuple((k, v) for k, v in scenario_params)
        return cls(
            patterns=None if patterns is None else tuple(patterns),
            scenarios=entries(payload.get("scenarios", ())),
            controllers=entries(payload.get("controllers", ("util-bp",))),
            seeds=tuple(payload.get("seeds", (1,))),
            engines=tuple(payload.get("engines", ("meso",))),
            durations=tuple(payload.get("durations", (None,))),
            mini_slot=float(payload.get("mini_slot", 1.0)),
            scenario_params=scenario_params,
            record_entry_queues=int(payload.get("record_entry_queues", 0)),
        )

    def __len__(self) -> int:
        return (
            len(self.workloads())
            * len(self.controllers)
            * len(self.seeds)
            * len(self.engines)
            * len(self.durations)
        )

    def _entry_queue_pairs(
        self, name: str, scenario_params: FrozenParams
    ) -> Tuple[Tuple[str, str], ...]:
        """Resolve a workload's recorded entry roads to trace pairs.

        Builds the workload's network once (the topology depends only
        on the build parameters, not on seed or demand realization) and
        maps each requested entry road to the ``(downstream node,
        road)`` pair :class:`RunSpec.record_queues` expects.
        """
        params = dict(scenario_params)
        if name in PATTERN_NAMES:
            scenario = build_scenario(name, seed=self.seeds[0], **params)
        else:
            scenario = build_named_scenario(
                name, seed=self.seeds[0], **params
            )
        return entry_queue_pairs(scenario.network, self.record_entry_queues)

    def specs(self) -> Tuple[RunSpec, ...]:
        """Expand the grid into one spec per cell (deterministic order)."""
        out = []
        pair_cache: Dict[Tuple[str, FrozenParams], Tuple] = {}
        for workload, (controller, params), seed, engine, duration in product(
            self.workloads(),
            self.controllers,
            self.seeds,
            self.engines,
            self.durations,
        ):
            name, extra_params = workload
            scenario_params: FrozenParams = self.scenario_params
            if extra_params:
                merged = dict(self.scenario_params)
                merged.update(extra_params)
                scenario_params = _freeze_params(merged)
            record_queues: Tuple[Tuple[str, str], ...] = ()
            if self.record_entry_queues:
                cache_key = (name, scenario_params)
                if cache_key not in pair_cache:
                    pair_cache[cache_key] = self._entry_queue_pairs(
                        name, scenario_params
                    )
                record_queues = pair_cache[cache_key]
            out.append(
                RunSpec(
                    pattern=name,
                    controller=controller,
                    controller_params=params,
                    engine=engine,
                    seed=seed,
                    duration=duration,
                    mini_slot=self.mini_slot,
                    scenario_params=scenario_params,
                    record_queues=record_queues,
                )
            )
        return tuple(out)

    # -- sharding ------------------------------------------------------------

    def shard(self, index: int, count: int) -> Tuple[RunSpec, ...]:
        """The ``index``-th of ``count`` deterministic grid partitions.

        Cells are assigned by :func:`shard_index_of` — the spec content
        hash modulo ``count`` — which makes the partition:

        * **disjoint and complete**: every cell lands in exactly one
          shard, and the union of all ``count`` shards is exactly
          :meth:`specs`;
        * **stable**: independent of axis ordering, of the grid object
          that expanded the cell, and of the process/host computing it,
          so ``repro sweep --shard i/N`` invocations on different
          machines never overlap and never miss a cell;
        * **count-keyed**: changing ``count`` reshuffles the partition,
          so every host of a sweep must agree on one ``N``.

        ``count`` may exceed the grid size; the surplus shards are
        simply empty.  Within a shard, cells keep the grid's expansion
        order.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 0 <= index < count:
            raise ValueError(
                f"shard index {index} out of range for count {count} "
                f"(valid: 0..{count - 1})"
            )
        return tuple(
            spec
            for spec in self.specs()
            if shard_index_of(spec, count) == index
        )
