"""Job submission, deduplication and background execution.

This is the service's engine room, deliberately HTTP-free (plain
threads + condition variables) so the whole submission lifecycle is
testable without a socket:

* a **cell registry** maps spec content hashes to in-flight/completed
  cells.  Two clients submitting the identical :class:`RunSpec` —
  concurrently or seconds apart — share one cell: the first submission
  *owns* it (its job executes the cell), every later submission
  attaches as a waiter.  That is the multi-tenant dedup story: one
  computation, many subscribers;
* a single **worker thread** drains submitted jobs FIFO and executes
  each job's owned cells through an
  :class:`~repro.orchestration.pool.ExperimentPool` bound to the
  service's result store — so a cell already in the store is satisfied
  without simulating (``source="store"``), and everything the worker
  computes is committed incrementally.  The pool (and with it the one
  writable SQLite connection) is created *inside* the worker thread:
  the worker is the store's single writer, HTTP readers open their own
  read-only connections;
* every state change appends a structured **event** to each waiting
  job (``job_queued``, ``job_started``, ``cell_completed``,
  ``cell_failed``, ``job_completed``) with a per-job sequence number —
  the NDJSON feed streams exactly this list.

Because the worker is single-threaded and jobs are FIFO, a job's
shared cells (owned by an earlier job) are always resolved by the time
its own turn comes; job finalization never blocks on another job.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, UsageError
from repro.experiments.runner import RunResult
from repro.orchestration.pool import ExperimentPool
from repro.orchestration.spec import RunSpec, parse_shard
from repro.results.store import ResultStore
from repro.util.logging import get_logger, log_context

__all__ = ["Job", "JobManager", "MAX_QUEUED_JOBS", "QueueFullError", "UnknownJobError"]

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")

#: Most jobs waiting for the worker; a submission past it is refused
#: instead of queueing without limit.
MAX_QUEUED_JOBS = 256


class QueueFullError(ReproError):
    """The job queue is full: the service answers 429 with ``Retry-After``."""

    status = 429
    retry_after = 1  # seconds


class UnknownJobError(ReproError):
    """No job has this id: the service answers 404."""

    status = 404

    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")


def _cell_counts(cells: Sequence["_Cell"]) -> Dict[str, int]:
    """How many of ``cells`` are done, failed, pending, stored, executed."""
    return {
        "done": sum(c.status == "done" for c in cells),
        "failed": sum(c.status == "failed" for c in cells),
        "pending": sum(c.status == "pending" for c in cells),
        "from_store": sum(c.source == "store" for c in cells),
        "executed": sum(c.source == "executed" for c in cells),
    }


@dataclass
class _Cell:
    """One unique spec's lifecycle, shared by every job that names it."""

    spec: RunSpec
    spec_hash: str
    status: str = "pending"  # pending | done | failed
    source: Optional[str] = None  # "store" | "executed" once done
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Ids of every job (owner first) subscribed to this cell.
    job_ids: List[str] = field(default_factory=list)


@dataclass
class Job:
    """One submission: an ordered set of unique cells plus its events."""

    job_id: str
    request_id: Optional[str]
    cell_hashes: List[str]
    owned_hashes: List[str]
    created_at: float = field(default_factory=time.time)
    state: str = "queued"
    error: Optional[str] = None
    #: ``(index, count)`` when this job is one shard of a larger grid.
    shard: Optional[Tuple[int, int]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def add_event(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event to the job's bounded event log."""
        record: Dict[str, Any] = {
            "seq": len(self.events),
            "ts": time.time(),
            "job_id": self.job_id,
            "event": event,
        }
        record.update(fields)
        self.events.append(record)
        return record


class JobManager:
    """The cell registry + FIFO worker behind the HTTP service.

    Parameters
    ----------
    store_path:
        The SQLite result store file; created (and WAL-audited) on
        construction so read-only request connections can open it
        immediately.  A store that cannot run in WAL mode (such as
        ``":memory:"``) is a :class:`~repro.errors.UsageError`.
    workers / batch_size:
        Forwarded to the worker's :class:`ExperimentPool` (process
        fan-out within a job, seed-batching on batch engines).
    """

    def __init__(
        self,
        store_path: str,
        workers: int = 1,
        batch_size: int = 16,
    ):
        self.store_path = str(store_path)
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self._log = get_logger("jobs")
        # Create/upgrade the store file eagerly and audit its journal
        # mode: the one-writer/many-readers contract relies on WAL.
        with ResultStore(self.store_path) as store:
            self.journal_mode = store.journal_mode
        if self.journal_mode != "wal":
            raise UsageError(
                f"store {self.store_path} is in journal mode "
                f"{self.journal_mode!r}; the service requires WAL for "
                f"concurrent readers"
            )
        self._condition = threading.Condition()
        self._cells: Dict[str, _Cell] = {}
        self._jobs: Dict[str, Job] = {}
        self._queue: Deque[str] = deque()
        self._owned_specs: Dict[str, List[RunSpec]] = {}
        self._pool: Optional[ExperimentPool] = None
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        self._job_counter = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the background worker thread (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stopping = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-job-worker", daemon=True
        )
        self._worker.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the worker after the in-flight job (idempotent)."""
        with self._condition:
            self._stopping = True
            self._condition.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)
            self._worker = None

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        specs: Sequence[RunSpec],
        request_id: Optional[str] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> str:
        """Register a job for the given specs; returns its job id.

        Duplicate specs within the submission collapse to one cell;
        cells already known to the registry (in flight or completed)
        are *shared*, not re-executed.  With :data:`MAX_QUEUED_JOBS`
        jobs waiting it raises :class:`QueueFullError` and registers
        nothing.  ``shard=(index, count)`` tags the job as one shard of
        a larger grid — the caller is expected
        to have partitioned the specs already (the HTTP layer applies
        :meth:`SweepGrid.shard` before calling here), so the tag is
        bookkeeping that surfaces in ``describe`` and the event feed.
        """
        if not specs:
            raise ValueError("a job needs at least one spec")
        if shard is not None:
            shard = parse_shard(shard)
        with self._condition:
            if len(self._queue) >= MAX_QUEUED_JOBS:
                self._log.warning("job_refused", queued=len(self._queue))
                raise QueueFullError(
                    f"{MAX_QUEUED_JOBS} jobs are queued, the most the "
                    f"service holds; resubmit in {QueueFullError.retry_after} s"
                )
            self._job_counter += 1
            job_id = f"job-{self._job_counter:06d}"
            cell_hashes: List[str] = []
            owned: List[RunSpec] = []
            owned_hashes: List[str] = []
            shared = 0
            for spec in specs:
                spec_hash = spec.spec_hash()
                if spec_hash in cell_hashes:
                    continue  # duplicate within this submission
                cell_hashes.append(spec_hash)
                cell = self._cells.get(spec_hash)
                if cell is None or cell.status == "failed":
                    # Failed cells are retryable: a resubmission owns a
                    # fresh cell instead of inheriting the stale error.
                    cell = _Cell(spec=spec, spec_hash=spec_hash)
                    self._cells[spec_hash] = cell
                    owned.append(spec)
                    owned_hashes.append(spec_hash)
                else:
                    shared += 1
                cell.job_ids.append(job_id)
            job = Job(
                job_id=job_id,
                request_id=request_id,
                cell_hashes=cell_hashes,
                owned_hashes=owned_hashes,
                shard=shard,
            )
            queued_fields: Dict[str, Any] = {
                "cells": len(cell_hashes),
                "owned": len(owned),
                "shared": shared,
            }
            if shard is not None:
                queued_fields["shard"] = f"{shard[0]}/{shard[1]}"
            job.add_event("job_queued", **queued_fields)
            # Cells that completed before this job arrived surface as
            # immediate events, so a late subscriber still sees every
            # cell exactly once in its feed.
            for spec_hash in cell_hashes:
                cell = self._cells[spec_hash]
                if cell.status == "done":
                    job.add_event(
                        "cell_completed",
                        spec_hash=spec_hash,
                        source=cell.source,
                        label=cell.spec.label(),
                    )
            self._jobs[job_id] = job
            self._owned_specs[job_id] = owned
            self._queue.append(job_id)
            self._condition.notify_all()
            self._log.info(
                "job_submitted",
                job_id=job_id,
                cells=len(cell_hashes),
                owned=len(owned),
                shared=shared,
                shard=None if shard is None else f"{shard[0]}/{shard[1]}",
            )
            return job_id

    # -- views (all thread-safe snapshots) ----------------------------------

    def _job(self, job_id: str) -> Job:
        """The job ``job_id`` (the caller holds the condition)."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def describe(self, job_id: str, include_cells: bool = True) -> Dict[str, Any]:
        """A JSON-ready snapshot of one job (raises :class:`UnknownJobError`)."""
        with self._condition:
            job = self._job(job_id)
            cells = [self._cells[h] for h in job.cell_hashes]
            counts = {"total": len(cells), **_cell_counts(cells)}
            counts["shared"] = len(job.cell_hashes) - len(job.owned_hashes)
            view: Dict[str, Any] = {
                "job_id": job.job_id,
                "state": job.state,
                "request_id": job.request_id,
                "created_at": job.created_at,
                "counts": counts,
                "error": job.error,
                "shard": (
                    None
                    if job.shard is None
                    else {"index": job.shard[0], "count": job.shard[1]}
                ),
            }
            if include_cells:
                view["cells"] = [
                    {
                        "spec_hash": cell.spec_hash,
                        "label": cell.spec.label(),
                        "status": cell.status,
                        "source": cell.source,
                        "error": cell.error,
                    }
                    for cell in cells
                ]
            return view

    def jobs(self) -> List[Dict[str, Any]]:
        """Summaries of every known job, oldest first."""
        with self._condition:
            ids = list(self._jobs)
        return [self.describe(job_id, include_cells=False) for job_id in ids]

    def job_results(self, job_id: str, full: bool = False) -> List[Dict[str, Any]]:
        """Completed cells of a job: spec + summary (+ full payload)."""
        with self._condition:
            job = self._job(job_id)
            out = []
            for spec_hash in job.cell_hashes:
                cell = self._cells[spec_hash]
                if cell.status != "done" or cell.payload is None:
                    continue
                entry: Dict[str, Any] = {
                    "spec_hash": spec_hash,
                    "label": cell.spec.label(),
                    "source": cell.source,
                    "spec": cell.spec.to_dict(),
                    "summary": dict(cell.payload.get("summary") or {}),
                }
                if full:
                    entry["result"] = cell.payload
                out.append(entry)
            return out

    def watch(
        self, job_id: str, seen: int, timeout: float
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """``(the job's events after its first seen, whether it ended)``.

        Blocks up to ``timeout`` seconds until the job records an event
        past ``seen`` or ends, then returns at once: a job's end and
        every event notify the manager's condition.
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                job = self._job(job_id)
                terminal = job.state in ("done", "failed")
                remaining = deadline - time.monotonic()
                if terminal or len(job.events) > seen or remaining <= 0:
                    return list(job.events[seen:]), terminal
                self._condition.wait(remaining)

    def stats(self) -> Dict[str, int]:
        """Cumulative pool stats: unique cells executed vs store-served."""
        pool = self._pool
        with self._condition:
            jobs = len(self._jobs)
            cells = len(self._cells)
        return {
            "executed": 0 if pool is None else pool.stats.executed,
            "cache_hits": 0 if pool is None else pool.stats.cache_hits,
            "jobs": jobs,
            "cells": cells,
        }

    # -- worker -------------------------------------------------------------

    def _ensure_pool(self) -> ExperimentPool:
        # Created lazily inside the worker thread: this pool's store
        # connection is the service's single writer.
        if self._pool is None:
            self._pool = ExperimentPool(
                workers=self.workers,
                store=self.store_path,
                batch_size=self.batch_size,
            )
        return self._pool

    def _worker_loop(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._stopping:
                    self._condition.wait()
                if self._stopping and not self._queue:
                    return
                job_id = self._queue.popleft()
                job = self._jobs[job_id]
                owned = self._owned_specs.pop(job_id, [])
                job.state = "running"
                job.add_event("job_started", owned=len(owned))
                self._condition.notify_all()
            with log_context(job_id=job_id, request_id=job.request_id):
                self._log.info("job_started", owned=len(owned))
                error: Optional[BaseException] = None
                if owned:
                    try:
                        self._ensure_pool().run(owned, on_cell=self._on_cell)
                    except BaseException as exc:  # noqa: BLE001 - reported on the job
                        error = exc
                self._finalize(job_id, error)

    def _on_cell(self, spec: RunSpec, result: RunResult, source: str) -> None:
        """Pool callback (worker thread): fan one completed cell out."""
        spec_hash = spec.spec_hash()
        with self._condition:
            cell = self._cells[spec_hash]
            cell.status = "done"
            cell.source = source
            cell.payload = result.to_dict()
            for job_id in cell.job_ids:
                job = self._jobs.get(job_id)
                if job is not None:
                    job.add_event(
                        "cell_completed",
                        spec_hash=spec_hash,
                        source=source,
                        label=spec.label(),
                    )
            self._condition.notify_all()
        self._log.info(
            "cell_completed", spec_hash=spec_hash, source=source,
            label=spec.label(),
        )

    def _finalize(self, job_id: str, error: Optional[BaseException]) -> None:
        with self._condition:
            job = self._jobs[job_id]
            if error is not None:
                # Owned cells the pool never completed carry the error;
                # completed ones keep their results.
                for spec_hash in job.owned_hashes:
                    cell = self._cells[spec_hash]
                    if cell.status == "pending":
                        cell.status = "failed"
                        cell.error = str(error)
                        for waiter_id in cell.job_ids:
                            waiter = self._jobs.get(waiter_id)
                            if waiter is not None:
                                waiter.add_event(
                                    "cell_failed",
                                    spec_hash=spec_hash,
                                    error=str(error),
                                )
                job.error = str(error)
            counts = _cell_counts([self._cells[h] for h in job.cell_hashes])
            del counts["pending"]
            job.state = "failed" if counts["failed"] else "done"
            job.add_event("job_completed", state=job.state, **counts)
            self._condition.notify_all()
        if error is not None:
            self._log.error("job_failed", error=str(error))
        else:
            self._log.info("job_completed", state=job.state)
