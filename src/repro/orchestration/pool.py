"""The process-parallel sweep executor backed by the result store.

Every (scenario x controller x engine x seed) cell of a sweep is an
independent simulation whose outcome is fully determined by its
:class:`~repro.orchestration.spec.RunSpec` — the spec carries the seed,
so results cannot depend on which worker runs a cell or in what order.
:class:`ExperimentPool` exploits that:

* ``workers > 1`` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`;
* ``workers == 1`` runs them serially in-process (no executor, no
  pickling overhead — the debugging-friendly path);
* with a :class:`~repro.results.store.ResultStore`, every finished
  cell is committed to the store the moment it completes, and
  re-submitting a completed spec loads the stored result instead of
  simulating again — which is what makes any sweep *resumable*: kill
  it mid-flight, re-run it against the same store, and only the
  missing cells execute.

``store`` is the one persistence keyword: it accepts a live
:class:`ResultStore` or a path to its SQLite file.

A worker process that dies (killed, out of memory) breaks its whole
executor, which fails every unit still pending in it.  The pool keeps
at most ``workers`` units in flight, so a death loses only those; the
rest of the sweep goes on in a fresh executor.  The lost units then run
once more, one at a time in a fresh single-worker executor, and
:class:`WorkerDiedError` names the cells whose worker died again.

Long-running callers (the HTTP service's job worker) drive the pool
incrementally: ``run(specs, on_cell=...)`` invokes the callback the
moment each unique cell is satisfied — whether served from the store
or freshly executed — so progress can be streamed while the batch is
still in flight.

Results travel between processes (and to/from the store) as the plain
dict form produced by ``RunResult.to_dict``; both execution paths
reconstruct through ``RunResult.from_dict`` so serial and parallel runs
return identical objects.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.engine import has_batch_engine, provider_module
from repro.errors import ReproError
from repro.experiments.runner import RunResult
from repro.orchestration.spec import BatchRunSpec, RunSpec

__all__ = ["CellCallback", "ExperimentPool", "PoolStats", "WorkerDiedError"]

#: One schedulable unit of work: a single cell, or a seed-batch.
_WorkUnit = Union[RunSpec, BatchRunSpec]

#: Per-cell completion callback: ``(spec, result, source)`` where
#: ``source`` is ``"store"`` (served without simulating) or
#: ``"executed"`` (freshly computed); called once per unique spec.
CellCallback = Callable[[RunSpec, RunResult, str], None]


def _execute_payload(
    spec: RunSpec, engine_module: Optional[str] = None
) -> Dict[str, Any]:
    """Worker entry point: run one spec, return its serializable form.

    ``engine_module`` re-registers a plugin engine in the worker: under
    the ``spawn`` start method workers begin with a fresh registry, so
    the module that registered the engine in the parent is imported
    here first (importing is what registers, as for the built-ins).
    """
    if engine_module is not None:
        import importlib

        importlib.import_module(engine_module)
    return spec.execute().to_dict()


def _execute_batch_payload(
    batch: BatchRunSpec, engine_module: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Worker entry point for a seed-batch: one payload per member."""
    if engine_module is not None:
        import importlib

        importlib.import_module(engine_module)
    return [result.to_dict() for result in batch.execute()]


def _submit(executor: ProcessPoolExecutor, unit: _WorkUnit):
    """Submit one work unit to ``executor``; returns its future."""
    if isinstance(unit, BatchRunSpec):
        return executor.submit(
            _execute_batch_payload, unit, provider_module(unit.template.engine)
        )
    return executor.submit(_execute_payload, unit, provider_module(unit.engine))


def _unit_specs(unit: _WorkUnit) -> Sequence[RunSpec]:
    """The cells one work unit computes."""
    return unit.specs() if isinstance(unit, BatchRunSpec) else (unit,)


class WorkerDiedError(ReproError):
    """A worker process died twice running the same cells.

    The cells every other unit computed are already committed; these
    are not.  ``repro sweep`` prints the message as one line and exits
    with :attr:`exit_status` (a failed run, not a usage error).
    """

    exit_status = 1

    def __init__(self, cells: Sequence[RunSpec]):
        self.cells = tuple(cells)
        labels = ", ".join(spec.label() for spec in self.cells)
        super().__init__(
            f"a worker process died twice running {labels}; the other "
            f"cells completed (re-running resumes from a store)"
        )


@dataclass
class PoolStats:
    """Counts of how the pool satisfied the submitted cells.

    Both counters are per *unique* spec: duplicate occurrences of one
    spec within a batch are satisfied by a single execution or a
    single store read.
    """

    executed: int = 0
    cache_hits: int = 0

    @property
    def total(self) -> int:
        """Unique cells satisfied so far (executed + served from store)."""
        return self.executed + self.cache_hits


class ExperimentPool:
    """Executes :class:`RunSpec` batches, in parallel when asked.

    Parameters
    ----------
    workers:
        Worker processes; ``1`` (default) runs everything serially
        in-process.
    store:
        The persistence option: a
        :class:`~repro.results.store.ResultStore`, or a path to its
        SQLite file; ``None`` disables persistence.  Completed cells
        are committed incrementally, so a warm store makes re-running
        a completed sweep free and an interrupted sweep resumable.
    batch_size:
        Maximum seed-batch width.  Cells that differ only in their seed
        and name a batch-capable engine (``meso-vec``) are grouped and
        executed as one batched simulation of up to this many
        replications; results fan back into the individual per-spec
        store rows (cache keys unchanged — a warm store still resumes
        cell by cell).  ``1`` disables grouping.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[Any] = None,
        batch_size: int = 16,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        if store is not None and not hasattr(store, "get"):
            from repro.results.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.stats = PoolStats()

    # -- public API ---------------------------------------------------------

    def run(
        self,
        specs: Iterable[RunSpec],
        on_cell: Optional[CellCallback] = None,
    ) -> List[RunResult]:
        """Execute a batch of specs; results match the input order.

        Store hits are returned without simulating; duplicate specs in
        one batch are executed once and fanned back out.  ``on_cell``
        (if given) is invoked once per *unique* spec the moment it is
        satisfied — ``on_cell(spec, result, "store")`` for store hits,
        ``on_cell(spec, result, "executed")`` for fresh executions
        (after the store commit) — so long-running callers can stream
        per-cell progress while the batch is in flight.
        """
        spec_list = list(specs)
        results: List[Optional[RunResult]] = [None] * len(spec_list)

        # Group duplicate cells so each unique spec is satisfied once —
        # one store read or one execution, fanned out to every index.
        groups: Dict[RunSpec, List[int]] = {}
        for index, spec in enumerate(spec_list):
            groups.setdefault(spec, []).append(index)

        pending: Dict[RunSpec, List[int]] = {}
        for spec, indices in groups.items():
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                self.stats.cache_hits += 1
                for index in indices:
                    results[index] = cached
                if on_cell is not None:
                    on_cell(spec, cached, "store")
            else:
                pending[spec] = indices

        if pending:
            units = self._plan_units(list(pending))
            if self.workers == 1 or len(units) == 1:
                for unit in units:
                    self._execute_unit(unit, pending, results, on_cell)
            else:
                self._run_parallel(units, pending, results, on_cell)

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunResult:
        """Execute a single spec (store-aware)."""
        return self.run([spec])[0]

    # -- seed-batch planning -------------------------------------------------

    def _plan_units(self, specs: Sequence[RunSpec]) -> List[_WorkUnit]:
        """Group batchable same-cell/different-seed specs into batches.

        Cells whose engine cannot batch (or lone seeds) stay individual
        units; batchable groups are chunked to ``batch_size``.  Unit
        order follows the first appearance of each cell, so scheduling
        stays deterministic.
        """
        if self.batch_size == 1:
            return list(specs)
        # Same-cell key as BatchRunSpec.from_specs: the spec with its
        # seed normalized away (specs are hashable value objects).
        groups: Dict[RunSpec, List[RunSpec]] = {}
        order: List[Tuple[Optional[RunSpec], RunSpec]] = []
        for spec in specs:
            if not has_batch_engine(spec.engine):
                order.append((None, spec))
                continue
            key = dataclasses.replace(spec, seed=0)
            if key not in groups:
                order.append((key, spec))
            groups.setdefault(key, []).append(spec)
        units: List[_WorkUnit] = []
        for key, spec in order:
            if key is None:
                units.append(spec)
                continue
            members = groups[key]
            for start in range(0, len(members), self.batch_size):
                chunk = members[start:start + self.batch_size]
                if len(chunk) == 1:
                    units.append(chunk[0])
                else:
                    units.append(BatchRunSpec.from_specs(chunk))
        return units

    def _execute_unit(
        self,
        unit: _WorkUnit,
        pending: Dict[RunSpec, List[int]],
        results: List[Optional[RunResult]],
        on_cell: Optional[CellCallback] = None,
    ) -> None:
        """Run one work unit in-process and account its results."""
        if isinstance(unit, BatchRunSpec):
            payload: Any = _execute_batch_payload(unit)
        else:
            payload = _execute_payload(unit)
        self._finish_unit(unit, payload, pending, results, on_cell)

    def _finish_unit(
        self,
        unit: _WorkUnit,
        payload: Any,
        pending: Dict[RunSpec, List[int]],
        results: List[Optional[RunResult]],
        on_cell: Optional[CellCallback] = None,
    ) -> None:
        """Account, persist and fan out every cell of one completed unit."""
        payloads = payload if isinstance(unit, BatchRunSpec) else (payload,)
        for spec, spec_payload in zip(_unit_specs(unit), payloads):
            self.stats.executed += 1
            if self.store is not None:
                self.store.put(spec, spec_payload)
            result = RunResult.from_dict(spec_payload)
            for index in pending[spec]:
                results[index] = result
            if on_cell is not None:
                on_cell(spec, result, "executed")

    def _run_parallel(
        self,
        units: Sequence[_WorkUnit],
        pending: Dict[RunSpec, List[int]],
        results: List[Optional[RunResult]],
        on_cell: Optional[CellCallback] = None,
    ) -> None:
        """Fan work units (cells or seed-batches) out over processes.

        At most ``workers`` units are in flight; the next is submitted
        as one completes.  Each completed unit is committed to the store
        the moment it completes — not when the whole batch does — so an
        interrupted or partially failed sweep resumes from the cells
        that finished.  If a unit raises: with a store, the remaining
        units still run into it before the first error propagates;
        without one, that would only burn compute on results nobody
        keeps, so no further unit starts and the error surfaces
        promptly.  A dead worker breaks its executor and fails only the
        units in flight in it; the rest go on in a fresh executor, and
        the lost ones are re-run by :meth:`_rerun_lost`.
        """
        max_workers = min(self.workers, len(units))
        queued = deque(units)
        lost: List[_WorkUnit] = []
        first_error: Optional[BaseException] = None
        while queued:
            in_flight: Dict[Future, _WorkUnit] = {}
            broken = False
            executor = ProcessPoolExecutor(max_workers=max_workers)
            try:
                while True:
                    while queued and not broken and len(in_flight) < max_workers:
                        unit = queued.popleft()
                        try:
                            in_flight[_submit(executor, unit)] = unit
                        except BrokenProcessPool:
                            queued.appendleft(unit)
                            broken = True
                    if not in_flight:
                        break
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        unit = in_flight.pop(future)
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            lost.append(unit)
                            broken = True
                            continue
                        except BaseException as error:  # noqa: BLE001 - re-raised
                            if first_error is None:
                                first_error = error
                                if self.store is None:
                                    queued.clear()
                            continue
                        self._finish_unit(unit, payload, pending, results, on_cell)
            finally:
                # On an interrupt, units not yet started never start.
                executor.shutdown(cancel_futures=True)
        if first_error is not None:
            raise first_error
        if lost:
            self._rerun_lost(lost, pending, results, on_cell)

    def _rerun_lost(
        self,
        units: Sequence[_WorkUnit],
        pending: Dict[RunSpec, List[int]],
        results: List[Optional[RunResult]],
        on_cell: Optional[CellCallback] = None,
    ) -> None:
        """Re-run the units a dead worker took down, once each.

        They run one at a time on a single-worker executor, so a second
        death takes down exactly the unit that caused it, and the
        host's memory goes to one unit (an out-of-memory kill is the
        usual death).  A death replaces the executor with a fresh one;
        the unit is skipped, the rest still run and commit, then
        :class:`WorkerDiedError` names every skipped cell.
        """
        died: List[RunSpec] = []
        executor: Optional[ProcessPoolExecutor] = None
        try:
            for unit in units:
                if executor is None:
                    executor = ProcessPoolExecutor(max_workers=1)
                try:
                    payload = _submit(executor, unit).result()
                except BrokenProcessPool:
                    died.extend(_unit_specs(unit))
                    executor.shutdown()
                    executor = None
                    continue
                self._finish_unit(unit, payload, pending, results, on_cell)
        finally:
            if executor is not None:
                executor.shutdown()
        if died:
            raise WorkerDiedError(died)
