"""The SQLite-backed result store: one file, every completed cell.

Sweep results used to live as a flat directory of per-spec JSON blobs
with no index, no resume story and no cross-driver sharing.
:class:`ResultStore` replaces that: a single SQLite file whose rows are
keyed by the spec content hash, with indexed columns for the spec axes
(pattern, controller, engine, seed, duration) so ``query`` can answer
"every seed of this cell" without deserializing the whole store, and
JSON payload columns carrying the exact ``RunSpec.to_dict`` /
``RunResult.to_dict`` round-trip forms the orchestration layer already
uses to cross process boundaries.

Properties the sweep machinery relies on:

* **crash-safe incremental writes** — every :meth:`put` is its own
  committed transaction (WAL journal), so a sweep killed mid-flight
  leaves a readable store holding exactly the cells that finished;
* **true resume** — :class:`~repro.orchestration.pool.ExperimentPool`
  consults the store before executing, so re-running any sweep skips
  completed cells and continues where the kill happened;
* **schema-versioned entries** — rows written under an older
  ``SPEC_SCHEMA_VERSION`` are never served (and ``get`` re-checks the
  stored spec JSON against the querying spec, so even a hash collision
  cannot alias two cells).

Only the parent (pool) process touches the store; worker processes
return payloads over the executor, so there is no cross-process SQLite
write contention inside a single sweep.  Concurrent *separate* sweeps
sharing a store file are serialized by SQLite itself (WAL + busy
timeout).

One writer, many readers
------------------------
The HTTP service (:mod:`repro.service`) put the store in front of
concurrent clients, which sharpened the concurrency contract:

* exactly **one** connection (the job worker's pool) writes;
* every query request opens its own **read-only** connection
  (``ResultStore(path, read_only=True)`` or :meth:`ResultStore.reader`)
  backed by SQLite's ``mode=ro`` + ``query_only`` — a reader physically
  cannot write, and under WAL it never blocks (or is blocked by) the
  writer;
* because each :meth:`put` is a single committed transaction, readers
  see whole rows or nothing — never a torn payload
  (``tests/test_results_store.py`` exercises many readers against a
  live writer).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, NoReturn, Optional, Union

from repro.errors import UsageError
from repro.experiments.runner import RunResult
from repro.orchestration.spec import SPEC_SCHEMA_VERSION, RunSpec, params_label
from repro.util.logging import get_logger

__all__ = [
    "AmbiguousPrefixError",
    "CellNotFoundError",
    "MergeError",
    "MergeStats",
    "QUERY_AXES",
    "ResultStore",
    "StoredRecord",
]

#: The spec axes :meth:`ResultStore.query` filters on by equality: the
#: ``repro analyze`` flags and the service's query parameters.
QUERY_AXES = ("pattern", "controller", "engine", "seed", "delay_mode")

#: Layout version of the SQLite schema itself (tables/columns), kept in
#: the meta table; independent of ``SPEC_SCHEMA_VERSION``, which
#: versions the spec/result payloads stored in the rows.
STORE_LAYOUT_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    spec_hash TEXT PRIMARY KEY,
    spec_version INTEGER NOT NULL,
    pattern TEXT NOT NULL,
    controller TEXT NOT NULL,
    engine TEXT NOT NULL,
    seed INTEGER NOT NULL,
    duration REAL,
    scenario_name TEXT,
    delay_mode TEXT,
    average_queuing_time REAL,
    spec_json TEXT NOT NULL,
    result_json TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_pattern ON results (pattern);
CREATE INDEX IF NOT EXISTS idx_results_controller ON results (controller);
CREATE INDEX IF NOT EXISTS idx_results_engine ON results (engine);
CREATE INDEX IF NOT EXISTS idx_results_seed ON results (seed);
CREATE INDEX IF NOT EXISTS idx_results_duration ON results (duration);
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Sentinel distinguishing "filter on NULL duration" from "no filter".
_UNSET = object()


class MergeError(UsageError):
    """A store merge that cannot proceed: schema drift or a divergent
    payload under the default (strict) conflict policy."""


class CellNotFoundError(UsageError):
    """No stored cell has the hash prefix (the service answers 404)."""

    status = 404

    def __init__(self, hash_prefix: str):
        super().__init__(f"no cell with hash prefix {hash_prefix!r}")


class AmbiguousPrefixError(UsageError):
    """More than one stored cell has the hash prefix (409)."""

    status = 409


@dataclass
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge_from` call.

    ``inserted`` rows were new to the destination; ``identical`` rows
    already existed byte-for-byte (the idempotent re-merge case);
    ``conflicts`` counts hashes whose payloads diverged and were
    resolved by an explicit ``prefer`` policy (strict merges raise
    before any such row is counted).
    """

    inserted: int = 0
    identical: int = 0
    conflicts: int = 0

    @property
    def total(self) -> int:
        """Source rows considered (inserted + identical + conflicts)."""
        return self.inserted + self.identical + self.conflicts

    def merge(self, other: "MergeStats") -> None:
        """Accumulate another merge's counters into this one."""
        self.inserted += other.inserted
        self.identical += other.identical
        self.conflicts += other.conflicts


@dataclass(frozen=True)
class StoredRecord:
    """One fully decoded store row: the cell and its result."""

    spec_hash: str
    spec: RunSpec
    result: RunResult
    created_at: float

    @property
    def summary(self):
        """Shortcut to the run's :class:`~repro.metrics.collector.Summary`."""
        return self.result.summary


class ResultStore:
    """A single-file SQLite store of completed sweep cells.

    Parameters
    ----------
    path:
        The SQLite file (created on first open); ``":memory:"`` builds
        an in-process store for tests and benchmarks.
    read_only:
        Open the SQLite file with ``mode=ro`` + ``PRAGMA query_only``:
        the connection physically cannot write, :meth:`put` raises, and
        under WAL the reader neither blocks nor is blocked by the (one)
        writer.  The file must already exist.

    A file that cannot be opened or created as a store — missing when
    read-only, not SQLite, without a layout version or with a newer
    one — raises :class:`~repro.errors.UsageError`.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        read_only: bool = False,
    ):
        self.path = path if str(path) == ":memory:" else Path(path)
        self.read_only = bool(read_only)
        if self.read_only and not isinstance(self.path, Path):
            raise ValueError("an in-memory store cannot be read-only")
        if self.read_only and not self.path.exists():
            raise UsageError(
                f"no store at {str(self.path)!r} (run a sweep with --store "
                f"first, or pass --store)"
            )
        self._conn: Optional[sqlite3.Connection] = None
        try:
            layout = self._connect()
        except (sqlite3.Error, OSError) as error:
            self._refuse(f"cannot open {self.path} as a result store: {error}")
        if layout is None:
            if self.read_only:
                self._refuse(
                    f"store {self.path} has no layout version; it was "
                    f"never opened writable"
                )
            self._set_meta("layout_version", str(STORE_LAYOUT_VERSION))
        elif int(layout) > STORE_LAYOUT_VERSION:
            self._refuse(
                f"store {self.path} uses layout version {layout}, newer "
                f"than this code understands ({STORE_LAYOUT_VERSION})"
            )

    def _connect(self) -> Optional[str]:
        """Open the connection (schema on a writable one); the layout."""
        if self.read_only:
            self._conn = sqlite3.connect(f"file:{self.path}?mode=ro", uri=True)
            # Belt and braces on top of mode=ro: even meta writes fail.
            self._conn.execute("PRAGMA query_only=ON")
            self._conn.execute("PRAGMA busy_timeout=30000")
        else:
            if isinstance(self.path, Path):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(str(self.path))
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            with self._conn:
                self._conn.executescript(_SCHEMA)
        return self._get_meta("layout_version")

    def _refuse(self, message: str) -> NoReturn:
        """Close whatever connection is open and raise :class:`UsageError`."""
        if self._conn is not None:
            self._conn.close()
        raise UsageError(message)

    @classmethod
    def reader(cls, path: Union[str, os.PathLike]) -> "ResultStore":
        """Open an existing store file read-only (one per reader/request)."""
        return cls(path, read_only=True)

    @property
    def journal_mode(self) -> str:
        """The live SQLite journal mode (``"wal"`` for file stores)."""
        return str(
            self._conn.execute("PRAGMA journal_mode").fetchone()[0]
        ).lower()

    @property
    def layout_version(self) -> int:
        """The SQLite-schema layout version recorded in the meta table."""
        return int(self._get_meta("layout_version") or 0)

    # -- core API -----------------------------------------------------------

    def put(
        self, spec: RunSpec, result: Union[RunResult, Mapping[str, Any]]
    ) -> None:
        """Store one completed cell (overwrites any previous entry).

        Each call is its own committed transaction: a sweep killed
        right after ``put`` returns keeps the cell.
        """
        if self.read_only:
            raise ValueError(f"store {self.path} is open read-only")
        payload = result.to_dict() if isinstance(result, RunResult) else dict(result)
        summary = payload.get("summary") or {}
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec.spec_hash(),
                    SPEC_SCHEMA_VERSION,
                    spec.pattern,
                    spec.controller,
                    spec.engine,
                    spec.seed,
                    spec.duration,
                    payload.get("scenario_name"),
                    summary.get("delay_mode", "per-vehicle"),
                    summary.get("average_queuing_time"),
                    json.dumps(spec.to_dict(), sort_keys=True),
                    json.dumps(payload),
                    time.time(),
                ),
            )

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The stored result for a spec, or ``None``.

        Entries written under a stale schema version (or, vanishingly
        unlikely, a colliding hash) are treated as misses, and so are
        rows that do not decode (see :meth:`_decode_all`): a sweep
        re-executes such a cell and overwrites the row.
        """
        row = self._conn.execute(
            "SELECT spec_version, spec_json, result_json FROM results "
            "WHERE spec_hash = ?",
            (spec.spec_hash(),),
        ).fetchone()
        if row is None or row[0] != SPEC_SCHEMA_VERSION:
            return None
        try:
            if json.loads(row[1]) != spec.to_dict():
                return None
            return RunResult.from_dict(json.loads(row[2]))
        except (KeyError, TypeError, ValueError):
            return None

    def contains(self, spec: RunSpec) -> bool:
        """True if the store holds a servable result for the spec."""
        return self.get(spec) is not None

    def query(
        self,
        pattern: Optional[str] = None,
        controller: Optional[str] = None,
        engine: Optional[str] = None,
        seed: Optional[int] = None,
        duration: Any = _UNSET,
        delay_mode: Optional[str] = None,
    ) -> List[StoredRecord]:
        """All servable records matching the given spec-axis filters.

        ``duration=None`` filters on cells that ran at their scenario's
        default horizon; omit the argument to not filter on duration.
        Results come back in insertion order (then by hash) so repeated
        queries are deterministic.
        """
        clauses = ["spec_version = ?"]
        args: List[Any] = [SPEC_SCHEMA_VERSION]
        for column, value in zip(
            QUERY_AXES, (pattern, controller, engine, seed, delay_mode)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        if duration is not _UNSET:
            if duration is None:
                clauses.append("duration IS NULL")
            else:
                clauses.append("duration = ?")
                args.append(float(duration))
        rows = self._conn.execute(
            "SELECT spec_hash, spec_json, result_json, created_at "
            f"FROM results WHERE {' AND '.join(clauses)} "
            "ORDER BY created_at, spec_hash",
            args,
        ).fetchall()
        return self._decode_all(rows)

    def records(self) -> List[StoredRecord]:
        """Every servable record in the store."""
        return self.query()

    def find(self, hash_prefix: str) -> List[StoredRecord]:
        """Records whose spec hash starts with ``hash_prefix``."""
        rows = self._conn.execute(
            "SELECT spec_hash, spec_json, result_json, created_at "
            "FROM results WHERE spec_hash LIKE ? AND spec_version = ? "
            "ORDER BY spec_hash",
            (hash_prefix + "%", SPEC_SCHEMA_VERSION),
        ).fetchall()
        return self._decode_all(rows)

    def find_one(self, hash_prefix: str) -> StoredRecord:
        """The one record whose spec hash starts with ``hash_prefix``.

        Raises :class:`CellNotFoundError` when none does and
        :class:`AmbiguousPrefixError` when several do.
        """
        matches = self.find(hash_prefix)
        if not matches:
            raise CellNotFoundError(hash_prefix)
        if len(matches) > 1:
            hashes = ", ".join(record.spec_hash[:16] for record in matches)
            raise AmbiguousPrefixError(
                f"prefix {hash_prefix!r} is ambiguous "
                f"({len(matches)} cells: {hashes})"
            )
        return matches[0]

    def _decode_all(self, rows) -> List[StoredRecord]:
        """Decode rows, skipping any a newer/older codebase cannot.

        A row can stop being constructible without a schema bump — a
        scenario parameter a builder dropped, an engine name this
        codebase does not know.  One such row must not make the
        whole store unreadable, so decode failures degrade to
        omission (``get`` already treats the same rows as misses).
        """
        out = []
        for row in rows:
            try:
                out.append(
                    StoredRecord(
                        spec_hash=row[0],
                        spec=RunSpec.from_dict(json.loads(row[1])),
                        result=RunResult.from_dict(json.loads(row[2])),
                        created_at=float(row[3]),
                    )
                )
            except (KeyError, TypeError, ValueError):
                continue
        return out

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE spec_version = ?",
            (SPEC_SCHEMA_VERSION,),
        ).fetchone()[0]

    # -- merging (sharded sweeps) -------------------------------------------

    #: The full results-row column list, in table order; merge copies
    #: rows verbatim so merged stores are byte-identical to stores the
    #: same cells were written into directly.
    _ROW_COLUMNS = (
        "spec_hash, spec_version, pattern, controller, engine, seed, "
        "duration, scenario_name, delay_mode, average_queuing_time, "
        "spec_json, result_json, created_at"
    )

    def merge_from(
        self,
        other: Union["ResultStore", str, os.PathLike],
        prefer: Optional[str] = None,
    ) -> MergeStats:
        """Merge every row of ``other`` into this store, keyed by spec hash.

        This is the multi-host join: ``repro sweep --shard i/N`` on each
        host writes disjoint cells into its own store file, and merging
        them into the canonical store is pure bookkeeping because every
        row is an immutable, per-put-committed (spec hash -> payload)
        fact.

        Policy, per source row:

        * hash absent here — **inserted** verbatim (spec/result JSON
          and ``created_at`` are copied byte-for-byte, so a merged
          store is indistinguishable from one the cells were written
          into directly, and re-merging is idempotent);
        * hash present with the identical spec and result JSON —
          **skipped** (counted as ``identical``);
        * hash present with a *divergent* payload — :class:`MergeError`
          by default (two stores disagreeing about one deterministic
          cell means a code or environment drift worth stopping for);
          ``prefer="ours"`` keeps the destination row,
          ``prefer="theirs"`` takes the source row;
        * any source row written under a different
          ``SPEC_SCHEMA_VERSION`` — :class:`MergeError` naming the row
          and both versions (legacy or newer rows must be regenerated,
          not silently dropped into a store that will never serve
          them).

        ``other`` may be a live :class:`ResultStore` or a path to one
        (opened read-only for the duration).  Returns the
        :class:`MergeStats` and logs a ``store_merged`` event.
        """
        if self.read_only:
            raise ValueError(f"store {self.path} is open read-only")
        if prefer not in (None, "ours", "theirs"):
            raise ValueError(
                f"prefer must be None, 'ours' or 'theirs', got {prefer!r}"
            )
        source = other
        close_source = False
        if not isinstance(source, ResultStore):
            path = Path(source)
            if not path.exists():
                raise MergeError(f"no result store at {path}")
            # Opening read-only also validates the layout version.
            source = ResultStore.reader(path)
            close_source = True
        try:
            try:
                rows = source._conn.execute(
                    f"SELECT {self._ROW_COLUMNS} FROM results "
                    f"ORDER BY spec_hash"
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise MergeError(
                    f"{source.path} is not a readable result store: {error}"
                ) from None
            stats = MergeStats()
            to_insert = []
            for row in rows:
                spec_hash, spec_version = row[0], row[1]
                if spec_version != SPEC_SCHEMA_VERSION:
                    raise MergeError(
                        f"row {spec_hash[:16]}... in {source.path} was "
                        f"written under spec schema version {spec_version}; "
                        f"this code stores version {SPEC_SCHEMA_VERSION} — "
                        f"regenerate the source store instead of merging "
                        f"stale rows"
                    )
                mine = self._conn.execute(
                    "SELECT spec_json, result_json FROM results "
                    "WHERE spec_hash = ?",
                    (spec_hash,),
                ).fetchone()
                if mine is None:
                    to_insert.append(row)
                    stats.inserted += 1
                elif mine[0] == row[10] and mine[1] == row[11]:
                    stats.identical += 1
                else:
                    if prefer is None:
                        raise MergeError(
                            f"divergent payload for spec {spec_hash[:16]}... "
                            f"between {self.path} and {source.path}; the "
                            f"cells of a deterministic sweep cannot "
                            f"disagree unless code or environment drifted "
                            f"— pass prefer='ours'/'theirs' to resolve "
                            f"explicitly"
                        )
                    stats.conflicts += 1
                    if prefer == "theirs":
                        to_insert.append(row)
            if to_insert:
                # One transaction: merge is idempotent, so a crash
                # mid-merge is safely re-run; per-row commits would
                # only slow the join down.
                with self._conn:
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO results VALUES "
                        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        to_insert,
                    )
            get_logger("store").info(
                "store_merged",
                source=str(source.path),
                dest=str(self.path),
                inserted=stats.inserted,
                identical=stats.identical,
                conflicts=stats.conflicts,
                prefer=prefer,
            )
            return stats
        finally:
            if close_source:
                source.close()

    def __iter__(self) -> Iterator[StoredRecord]:
        return iter(self.records())

    # -- reporting views ----------------------------------------------------

    def overview(self) -> List[Dict[str, Any]]:
        """Per (pattern, controller, engine) roll-up for ``results list``."""
        rows = self._conn.execute(
            "SELECT pattern, controller, engine, COUNT(*), "
            "COUNT(DISTINCT seed), GROUP_CONCAT(DISTINCT delay_mode), "
            "AVG(average_queuing_time) "
            "FROM results WHERE spec_version = ? "
            "GROUP BY pattern, controller, engine "
            "ORDER BY pattern, controller, engine",
            (SPEC_SCHEMA_VERSION,),
        ).fetchall()
        return [
            {
                "pattern": pattern,
                "controller": controller,
                "engine": engine,
                "cells": cells,
                "seeds": seeds,
                "delay_mode": modes,
                "mean_avg_queuing_time": mean_queuing,
            }
            for pattern, controller, engine, cells, seeds, modes, mean_queuing
            in rows
        ]

    def export_rows(self) -> List[Dict[str, Any]]:
        """Tidy per-cell rows (spec axes + summary metrics) for export.

        Reads the indexed columns and the summary sub-dict directly —
        no :class:`RunSpec`/:class:`RunResult` reconstruction — so
        export stays cheap for trace-heavy cells and keeps working for
        rows whose spec no longer constructs under this codebase; a row
        whose JSON does not decode is left out.
        ``duration`` is the *spec axis* (empty = scenario default);
        the run's actual horizon is exported as ``horizon``.

        Rows are ordered by spec hash — a pure function of the cells,
        not of completion timing — so the export of a given cell set is
        byte-identical however it was computed: serial, process
        -parallel, or sharded across hosts and merged.
        """
        rows = self._conn.execute(
            "SELECT spec_hash, pattern, controller, engine, seed, "
            "duration, scenario_name, spec_json, result_json "
            "FROM results WHERE spec_version = ? "
            "ORDER BY spec_hash",
            (SPEC_SCHEMA_VERSION,),
        ).fetchall()
        out = []
        for (
            spec_hash,
            pattern,
            controller,
            engine,
            seed,
            duration,
            scenario_name,
            spec_json,
            result_json,
        ) in rows:
            try:
                spec_payload = json.loads(spec_json)
                summary = dict(json.loads(result_json).get("summary") or {})
            except ValueError:
                continue
            row: Dict[str, Any] = {
                "spec_hash": spec_hash,
                "pattern": pattern,
                "controller": controller,
                "controller_params": params_label(
                    spec_payload.get("controller_params", [])
                ),
                "engine": engine,
                "seed": seed,
                "duration": duration,
                "scenario_name": scenario_name,
            }
            # Summary carries its own "duration" (the actual horizon);
            # exported under a distinct name so it cannot shadow the
            # duration *axis* above.
            if "duration" in summary:
                summary["horizon"] = summary.pop("duration")
            row.update(summary)
            out.append(row)
        return out

    # -- meta ---------------------------------------------------------------

    def _get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta VALUES (?, ?)",
                (key, value),
            )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"
