"""Declarative experiment definitions and their registry.

Every driver reproducing a table or figure used to hand-roll the same
three steps: build a spec list, push it through an
:class:`~repro.orchestration.pool.ExperimentPool`, and fold the
results into a domain object that a render function turns into text.
:class:`ExperimentDefinition` names that triple — *specs builder*,
*collector* (the aggregation recipe) and *renderer* — so a driver is
nothing but a definition plus a small render function, and every
definition automatically gains what the pool provides: parallel
execution, the shared :class:`~repro.results.store.ResultStore`, true
resume, and cross-driver cell sharing (two definitions that request
the same cell through one pool/store compute it once).

Definitions register by name; :func:`run_experiment` accepts either a
definition or its name.  The six built-in drivers
(``table3``, ``fig2``, ``fig34``, ``fig5``, ``ablations``,
``stability``) register when their modules import;
:func:`load_builtin_experiments` forces that for name-based lookup.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.orchestration import ExperimentPool
from repro.orchestration.spec import RunSpec

__all__ = [
    "ExperimentDefinition",
    "register_experiment",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "load_builtin_experiments",
]

#: ``(**params) -> specs`` — expands an experiment's parameters into
#: the exact sweep cells it needs.
SpecsBuilder = Callable[..., Sequence[RunSpec]]

#: ``(specs, results, params) -> domain result`` — the aggregation
#: recipe turning raw cell results into the driver's result object.
Collector = Callable[[Sequence[RunSpec], Sequence[Any], Mapping[str, Any]], Any]


@dataclass(frozen=True)
class ExperimentDefinition:
    """One declarative experiment: grid, aggregation recipe, rendering."""

    name: str
    description: str
    build_specs: SpecsBuilder
    collect: Collector
    render: Callable[[Any], str]
    #: Complete default parameter set; overrides outside this set are
    #: rejected so a typo'd parameter fails before any cell runs.
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def params(self, **overrides: Any) -> Dict[str, Any]:
        """Defaults merged with overrides (unknown overrides rejected).

        An override of a tuple-valued default is made a tuple, so
        ``periods=[10, 20]`` runs and collects exactly like
        ``periods=(10, 20)``; a ``str`` there is rejected (``"II"``
        would otherwise become ``("I", "I")``).
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; known: {sorted(self.defaults)}"
            )
        merged = dict(self.defaults)
        for key, value in overrides.items():
            if isinstance(self.defaults[key], tuple):
                if isinstance(value, str):
                    raise TypeError(
                        f"experiment {self.name!r} parameter {key!r} takes "
                        f"a sequence, not the string {value!r}; "
                        f"write ({value!r},)"
                    )
                value = tuple(value)
            merged[key] = value
        return merged

    def specs(self, **overrides: Any) -> Tuple[RunSpec, ...]:
        """The sweep cells this experiment would submit."""
        return tuple(self.build_specs(**self.params(**overrides)))


_REGISTRY: Dict[str, ExperimentDefinition] = {}

#: Modules whose import registers the built-in definitions.
_BUILTIN_MODULES = (
    "repro.experiments.table3",
    "repro.experiments.fig2",
    "repro.experiments.fig34",
    "repro.experiments.fig5",
    "repro.experiments.ablations",
    "repro.experiments.stability",
    "repro.analysis.stability",
)


def register_experiment(definition: ExperimentDefinition) -> ExperimentDefinition:
    """Register a definition under its name (idempotent per name)."""
    _REGISTRY[definition.name] = definition
    return definition


def experiment_names() -> Tuple[str, ...]:
    """All registered experiment names, sorted."""
    return tuple(sorted(_REGISTRY))


def load_builtin_experiments() -> Tuple[str, ...]:
    """Import the six built-in drivers so their definitions register."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    return experiment_names()


def get_experiment(name: str) -> ExperimentDefinition:
    """Look up a definition by name (loading the built-ins first)."""
    load_builtin_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {list(experiment_names())}"
        )


def run_experiment(
    experiment: Any,
    pool: Optional[ExperimentPool] = None,
    **overrides: Any,
) -> Any:
    """Run an experiment end to end and return its domain result.

    ``experiment`` is a definition or a registered name.  All cells go
    through ``pool`` (default: a serial in-process pool), so passing a
    store-backed pool gives every definition resume and cross-driver
    sharing for free.
    """
    definition = (
        get_experiment(experiment)
        if isinstance(experiment, str)
        else experiment
    )
    params = definition.params(**overrides)
    specs = tuple(definition.build_specs(**params))
    pool = pool or ExperimentPool()
    results = pool.run(specs)
    return definition.collect(specs, results, params)
