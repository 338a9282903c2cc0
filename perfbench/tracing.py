"""Layer spans for the traced benchmark run.

The traced run measures where time goes without editing the program:
:func:`install` replaces the public entry points of each layer (class
attributes, or module attributes at the site where callers look them
up) with thin wrappers that open a span, and :func:`uninstall` puts the
original attributes back exactly as they were.

A span's *self time* is its duration minus the time covered by the
spans it caused (its children).  A call that re-enters the layer it is
already inside (``EventCountsSimulator.step`` falling back to
``CountsSimulator.step``) is folded into the outer span, so every layer
call is counted once.

Spans are aggregated in memory by ``(tag, name)``: the benchmark sets
:attr:`Tracer.tag` to the run it is timing (``"meso-counts@0.1"``), so
one traced pass yields both the per-layer totals and the per-run split.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYER_TARGETS", "attributes", "install", "uninstall"]


class Tracer:
    """Per-thread span stacks plus in-memory aggregates.

    ``spans[(tag, name)]`` is ``[calls, self_ns, total_ns]``;
    ``values[(tag, name)]`` is ``[count, sum]`` for quantities recorded
    by hooks (payload bytes, queue waits).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.tag = ""
        self.spans: Dict[Tuple[str, str], List[int]] = {}
        self.values: Dict[Tuple[str, str], List[float]] = {}
        #: Scratch state of hooks that pair two events (job queued/started).
        self.marks: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0]
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._add_span(name, elapsed - frame[1], elapsed)
        if hook is not None:
            # Hook work is tracing overhead: hide it from the parent too.
            hook_start = self.clock()
            hook(self, args, result)
            if stack:
                stack[-1][1] += self.clock() - hook_start
        return result

    def _add_span(self, name: str, self_ns: int, total_ns: int) -> None:
        with self._lock:
            entry = self.spans.setdefault((self.tag, name), [0, 0, 0])
            entry[0] += 1
            entry[1] += self_ns
            entry[2] += total_ns

    def add_value(self, name: str, value: float) -> None:
        """Record one observation of a hook-measured quantity."""
        with self._lock:
            entry = self.values.setdefault((self.tag, name), [0, 0.0])
            entry[0] += 1
            entry[1] += value

    def span_totals(self, name: str, tags: Optional[Callable[[str], bool]] = None):
        """``(calls, self_ns)`` of one span name summed over matching tags."""
        calls = self_ns = 0
        for (tag, span), (count, own, _total) in self.spans.items():
            if span == name and (tags is None or tags(tag)):
                calls += count
                self_ns += own
        return calls, self_ns

    def value_totals(self, name: str) -> Tuple[int, float]:
        """``(count, sum)`` of one hook quantity over all tags."""
        count, total = 0, 0.0
        for (_tag, value_name), (n, s) in self.values.items():
            if value_name == name:
                count += n
                total += s
        return count, total

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready copy of the aggregates."""
        with self._lock:
            return {
                "spans": [[tag, name, *entry] for (tag, name), entry in self.spans.items()],
                "values": [[tag, name, *entry] for (tag, name), entry in self.values.items()],
            }

    def load(self, payload: Dict[str, Any]) -> None:
        """Merge aggregates produced by :meth:`dump` (e.g. in a server)."""
        with self._lock:
            for tag, name, calls, own, total in payload["spans"]:
                entry = self.spans.setdefault((tag, name), [0, 0, 0])
                entry[0] += calls
                entry[1] += own
                entry[2] += total
            for tag, name, count, total in payload["values"]:
                entry = self.values.setdefault((tag, name), [0, 0.0])
                entry[0] += count
                entry[1] += total


# -- hooks ---------------------------------------------------------------------


def _payload_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add_value("metrics.payload_bytes", len(json.dumps(result)))


def _batch_decisions(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add_value("control.batch_decisions", int(result.shape[0]))


def _job_event(tracer: Tracer, args: tuple, result: Any) -> None:
    # Job.add_event(job, event, **fields) returns the stored record.
    if result["event"] == "job_queued":
        tracer.marks[result["job_id"]] = result["ts"]
    elif result["event"] == "job_started":
        queued = tracer.marks.pop(result["job_id"], None)
        if queued is not None:
            tracer.add_value("service.queue_wait_s", result["ts"] - queued)


#: ``(module[:Class], attribute, span name, hook)`` for every traced
#: layer entry point.  Module-level functions are wrapped where their
#: callers look them up (``repro.api`` for users, the runner and spec
#: modules for the program's own calls).
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api", "run_scenario", "runner", None),
    ("repro.api", "run_scenario_batch", "runner", None),
    ("repro.orchestration.spec", "run_scenario", "runner", None),
    ("repro.orchestration.spec", "run_scenario_batch", "runner", None),
    ("repro.scenarios.catalog:ScenarioEntry", "build", "scenarios.build", None),
    ("repro.orchestration.spec", "build_scenario", "scenarios.build", None),
    ("repro.experiments.runner", "build_engine", "engines.build", None),
    ("repro.experiments.runner", "build_batch_engine", "engines.build", None),
    ("repro.meso.simulator:MesoSimulator", "observations", "engines.observations", None),
    ("repro.meso.simulator:MesoSimulator", "step", "engines.step", None),
    ("repro.meso.simulator:MesoSimulator", "finalize", "engines.finalize", None),
    ("repro.meso.counts:CountsSimulator", "observations", "engines.observations", None),
    ("repro.meso.counts:CountsSimulator", "step", "engines.step", None),
    ("repro.meso.counts:CountsSimulator", "finalize", "engines.finalize", None),
    ("repro.meso.events:EventCountsSimulator", "step", "engines.step", None),
    ("repro.meso.events:EventCountsSimulator", "finalize", "engines.finalize", None),
    ("repro.meso.vectorized:BatchCountsSimulator", "observations", "engines.observations", None),
    ("repro.meso.vectorized:BatchCountsSimulator", "step", "engines.step", None),
    ("repro.meso.vectorized:BatchCountsSimulator", "finalize", "engines.finalize", None),
    (
        "repro.meso.vectorized:BatchCountsSimulator",
        "controller_arrays",
        "engines.controller_arrays",
        None,
    ),
    ("repro.experiments.runner", "make_network_controller", "control.build", None),
    ("repro.experiments.runner", "build_batch_controller", "control.build", None),
    ("repro.control.base:NetworkController", "decide", "control.decide", None),
    (
        "repro.control.batch:BatchUtilBpController",
        "decide_batch",
        "control.decide_batch",
        _batch_decisions,
    ),
    (
        "repro.control.batch:_BatchFixedSlotController",
        "decide_batch",
        "control.decide_batch",
        _batch_decisions,
    ),
    ("repro.metrics.traces:QueueTrace", "sample", "metrics.trace", None),
    ("repro.metrics.traces:PhaseTrace", "record", "metrics.trace", None),
    ("repro.metrics.collector:MetricsCollector", "summary", "metrics.summary", None),
    ("repro.metrics.aggregate:AggregateMetricsCollector", "summary", "metrics.summary", None),
    (
        "repro.metrics.aggregate:BatchAggregateMetricsCollector",
        "summaries",
        "metrics.summary",
        None,
    ),
    (
        "repro.metrics.aggregate:BatchAggregateMetricsCollector",
        "summary_of",
        "metrics.summary",
        None,
    ),
    ("repro.experiments.runner:RunResult", "to_dict", "metrics.to_dict", _payload_bytes),
    ("repro.experiments.runner:RunResult", "from_dict", "metrics.from_dict", None),
    ("repro.orchestration.pool:ExperimentPool", "run", "orchestration.pool", None),
    ("repro.orchestration.spec:RunSpec", "spec_hash", "orchestration.spec_hash", None),
    ("repro.orchestration.spec:BatchRunSpec", "execute", "orchestration.batch_unit", None),
    ("repro.results.store:ResultStore", "put", "results.put", None),
    ("repro.results.store:ResultStore", "get", "results.get", None),
    ("repro.service.jobs:JobManager", "submit", "service.submit", None),
    ("repro.service.jobs:Job", "add_event", "service.event", _job_event),
)


# -- install / uninstall --------------------------------------------------------


class _Patch:
    """One replaced attribute and what to put back."""

    def __init__(self, owner: Any, attribute: str, had_own: bool, original: Any):
        self.owner = owner
        self.attribute = attribute
        self.had_own = had_own
        self.original = original


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _raw_attribute(owner: Any, attribute: str) -> Tuple[bool, Any]:
    """``(defined on owner itself, raw descriptor)`` for an attribute."""
    if attribute in vars(owner):
        return True, vars(owner)[attribute]
    for klass in getattr(owner, "__mro__", ())[1:]:
        if attribute in vars(klass):
            return False, vars(klass)[attribute]
    raise AttributeError(f"{owner!r} has no attribute {attribute!r}")


def _wrap(tracer: Tracer, name: str, fn: Callable, hook) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return traced


def install(tracer: Tracer, targets=LAYER_TARGETS) -> List[_Patch]:
    """Wrap every target; returns the patches :func:`uninstall` reverts."""
    patches: List[_Patch] = []
    try:
        for target, attribute, name, hook in targets:
            owner = _resolve(target) if isinstance(target, str) else target
            had_own, raw = _raw_attribute(owner, attribute)
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(_wrap(tracer, name, raw.__func__, hook))
            else:
                replacement = _wrap(tracer, name, raw, hook)
            setattr(owner, attribute, replacement)
            patches.append(_Patch(owner, attribute, had_own, raw))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def attributes(targets=LAYER_TARGETS) -> List[Any]:
    """Each target's own attribute object (``None`` if inherited)."""
    out = []
    for target, attribute, _name, _hook in targets:
        owner = _resolve(target) if isinstance(target, str) else target
        out.append(vars(owner).get(attribute))
    return out


def uninstall(patches: List[_Patch]) -> None:
    """Restore the original attributes (inherited ones are removed again)."""
    for patch in reversed(patches):
        if patch.had_own:
            setattr(patch.owner, patch.attribute, patch.original)
        else:
            delattr(patch.owner, patch.attribute)
    patches.clear()
