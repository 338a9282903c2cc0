"""The simulation service application: routes over store + jobs.

Endpoints (all responses are JSON carrying ``api_version`` and
``request_id``; see the README "Serving results" section for the
schema of each):

========  ==============================  =====================================
GET       ``/healthz``                    liveness + store + cumulative stats
GET       ``/api``                        API version and endpoint map
POST      ``/jobs``                       submit a ``RunSpec`` / ``SweepGrid``
GET       ``/jobs``                       list jobs
GET       ``/jobs/{job_id}``              poll one job (``?wait=SECONDS``)
GET       ``/jobs/{job_id}/events``       NDJSON event stream (``?follow=0``)
GET       ``/jobs/{job_id}/results``      completed cells (``?full=1``)
GET       ``/results/query``              filter stored cells by spec axes
GET       ``/results/aggregate``          mean/std/ci95 across store groups
GET       ``/results/{hash_prefix}``      one stored cell by hash prefix
========  ==============================  =====================================

Submission body: ``{"spec": {...}}`` (one ``RunSpec.to_dict`` form),
``{"specs": [...]}`` or ``{"grid": {...}}`` (``SweepGrid.from_dict``
form).  A grid submission may add ``"shard": "i/N"`` (or ``[i, N]``)
to submit only that deterministic shard of the grid — the same
partition ``repro sweep --shard`` computes — so N clients can split
one grid and the registry still deduplicates any overlap.  Identical
cells are deduplicated across jobs and clients by spec content hash —
the cell registry shares one computation — and cells already in the
store are served without simulating.

Concurrency contract: the job worker owns the single writable store
connection; every query endpoint opens a fresh **read-only** SQLite
connection for the duration of the request, so readers never block the
writer (WAL) and physically cannot corrupt the store.

Every request gets a ``request_id`` bound into the structured-log
context, so each log line of a request (and of the jobs it submitted)
is attributable.
"""

from __future__ import annotations

import itertools
import json
import secrets
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.api import API_VERSION
from repro.errors import ReproError
from repro.orchestration.spec import (
    SPEC_SCHEMA_VERSION,
    RunSpec,
    SweepGrid,
    parse_shard,
)
from repro.results.aggregate import DEFAULT_METRICS, aggregate
from repro.results.store import ResultStore, StoredRecord
from repro.service.http import Handler, HttpError, HttpServer, Request, Response, Router
from repro.service.jobs import JobManager
from repro.util.logging import context_fields, get_logger, log_context

__all__ = ["ServiceApp", "serve"]

_request_counter = itertools.count(1)

#: How often a long poll or a followed stream looks for news (s).
_POLL_SECONDS = 0.05


def _new_request_id() -> str:
    return f"req-{next(_request_counter):06d}-{secrets.token_hex(3)}"


class ServiceApp:
    """Routes + handlers bound to one :class:`JobManager` and store."""

    def __init__(
        self,
        store_path: str,
        workers: int = 1,
        batch_size: int = 16,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.store_path = str(store_path)
        self.manager = JobManager(
            self.store_path, workers=workers, batch_size=batch_size
        )
        self._log = get_logger("service")
        router = Router()
        router.add("GET", "/healthz", self.healthz)
        router.add("GET", "/api", self.api_info)
        router.add("POST", "/jobs", self.submit_job)
        router.add("GET", "/jobs", self.list_jobs)
        router.add("GET", "/jobs/{job_id}", self.get_job)
        router.add("GET", "/jobs/{job_id}/events", self.job_events)
        router.add("GET", "/jobs/{job_id}/results", self.job_results)
        router.add("GET", "/results/query", self.results_query)
        router.add("GET", "/results/aggregate", self.results_aggregate)
        router.add("GET", "/results/changepoints", self.results_changepoints)
        router.add("GET", "/results/{hash_prefix}", self.results_get)
        self.server = HttpServer(
            router, self._wrap_request, host=host, port=port
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the job worker, bind the socket and start accepting."""
        self.manager.start()
        self.server.start()
        self._log.info(
            "service_started",
            host=self.server.host,
            port=self.server.port,
            store=self.store_path,
            journal_mode=self.manager.journal_mode,
            api_version=API_VERSION,
        )

    def serve_forever(self) -> None:
        """Block until :meth:`close` runs (or the wait is interrupted)."""
        self.server.stopping.wait()

    def close(self) -> None:
        """End open requests and join their threads, then stop the worker."""
        self.server.close()
        self.manager.stop()
        self._log.info("service_stopped")

    @property
    def port(self) -> int:
        """The bound listening port."""
        return self.server.port

    # -- request plumbing ---------------------------------------------------

    def _wrap_request(self, request: Request, handler: Handler) -> Response:
        """Assign a request id, log, and envelope handler errors.

        A :class:`~repro.errors.ReproError` answers with its ``status``
        (400 when it carries none) and, when it carries a
        ``retry_after``, a ``Retry-After`` header; anything else is a
        logged 500.
        """
        request_id = request.headers.get("x-request-id") or _new_request_id()
        with log_context(request_id=request_id):
            self._log.info(
                "request_received", method=request.method, path=request.path
            )
            try:
                response = handler(request)
            except ReproError as error:
                response = Response.json(
                    self._envelope({"error": str(error)}, request_id),
                    getattr(error, "status", 400),
                )
                retry_after = getattr(error, "retry_after", None)
                if retry_after is not None:
                    response.headers["Retry-After"] = str(retry_after)
            except Exception as error:  # noqa: BLE001 - becomes a 500
                self._log.error(
                    "request_crashed",
                    method=request.method,
                    path=request.path,
                    error=f"{type(error).__name__}: {error}",
                )
                response = Response.json(
                    self._envelope(
                        {"error": f"internal error ({type(error).__name__})"},
                        request_id,
                    ),
                    500,
                )
            response.headers.setdefault("X-Request-Id", request_id)
            self._log.info(
                "request_completed",
                method=request.method,
                path=request.path,
                status=response.status,
            )
            return response

    @staticmethod
    def _envelope(payload: Dict[str, Any], request_id: str) -> Dict[str, Any]:
        """The versioned response envelope every endpoint shares."""
        merged = {"api_version": API_VERSION, "request_id": request_id}
        merged.update(payload)
        return merged

    def _respond(
        self, request: Request, payload: Dict[str, Any], status: int = 200
    ) -> Response:
        request_id = context_fields().get("request_id") or _new_request_id()
        return Response.json(self._envelope(payload, request_id), status)

    def _reader(self) -> Optional[ResultStore]:
        """A fresh read-only store connection (None if unreadable)."""
        try:
            return ResultStore.reader(self.store_path)
        except ReproError:
            return None

    # -- handlers: service --------------------------------------------------

    def healthz(self, request: Request) -> Response:
        """Liveness: store view, journal mode, cumulative stats."""
        store_view: Dict[str, Any] = {
            "path": self.store_path,
            "rows": 0,
            "layout_version": None,
            "spec_schema_version": SPEC_SCHEMA_VERSION,
        }
        reader = self._reader()
        if reader is not None:
            with reader:
                store_view["rows"] = len(reader)
                store_view["layout_version"] = reader.layout_version
        return self._respond(
            request,
            {
                "status": "ok",
                "store": store_view,
                "journal_mode": self.manager.journal_mode,
                "stats": self.manager.stats(),
            },
        )

    def api_info(self, request: Request) -> Response:
        """Describe the endpoint surface and server versions."""
        from repro.api import package_version

        return self._respond(
            request,
            {
                "package_version": package_version(),
                "endpoints": {
                    "GET /healthz": "liveness + cumulative stats",
                    "POST /jobs": "submit {'spec': ...} | {'specs': [...]} "
                                  "| {'grid': ..., 'shard': 'i/N'?}",
                    "GET /jobs": "list jobs",
                    "GET /jobs/{job_id}": "poll one job (?wait=SECONDS)",
                    "GET /jobs/{job_id}/events": "NDJSON events (?follow=0)",
                    "GET /jobs/{job_id}/results": "completed cells (?full=1)",
                    "GET /results/query": "filter stored cells by spec axes",
                    "GET /results/aggregate": "grouped mean/std/ci95",
                    "GET /results/changepoints": "CUSUM stability verdicts "
                                                 "per cell",
                    "GET /results/{hash_prefix}": "one stored cell",
                },
            },
        )

    # -- handlers: jobs -----------------------------------------------------

    @staticmethod
    def _parse_shard_field(value: Any) -> "tuple[int, int]":
        """``"i/N"`` or ``[i, N]`` → validated ``(index, count)``."""
        if isinstance(value, str):
            return parse_shard(value)
        if (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(isinstance(item, int) for item in value)
        ):
            return parse_shard(f"{value[0]}/{value[1]}")
        raise ValueError(
            f"malformed shard {value!r}; expected 'INDEX/COUNT' or "
            f"[index, count]"
        )

    def _parse_submission(
        self, payload: Any
    ) -> "tuple[List[RunSpec], Optional[tuple[int, int]]]":
        if not isinstance(payload, dict):
            raise HttpError(400, "submission body must be a JSON object")
        keys = [k for k in ("spec", "specs", "grid") if k in payload]
        if len(keys) != 1:
            raise HttpError(
                400,
                "submission must carry exactly one of 'spec', 'specs' "
                "or 'grid'",
            )
        key = keys[0]
        if "shard" in payload and key != "grid":
            raise HttpError(
                400, "'shard' is only valid on a 'grid' submission"
            )
        try:
            if key == "spec":
                return [RunSpec.from_dict(payload["spec"])], None
            if key == "specs":
                entries = payload["specs"]
                if not isinstance(entries, list) or not entries:
                    raise ValueError("'specs' must be a non-empty list")
                return [RunSpec.from_dict(e) for e in entries], None
            grid = SweepGrid.from_dict(payload["grid"])
            if "shard" not in payload:
                return list(grid.specs()), None
            shard = self._parse_shard_field(payload["shard"])
            specs = list(grid.shard(*shard))
            if not specs:
                raise ValueError(
                    f"shard {shard[0]}/{shard[1]} of this grid is empty "
                    f"({len(grid)} cells across {shard[1]} shards)"
                )
            return specs, shard
        except (KeyError, TypeError, ValueError) as error:
            raise HttpError(400, f"invalid {key!r} submission: {error}")

    def submit_job(self, request: Request) -> Response:
        """Accept a spec/grid submission and enqueue a job."""
        specs, shard = self._parse_submission(request.json())
        request_id = context_fields().get("request_id")
        job_id = self.manager.submit(
            specs, request_id=request_id, shard=shard
        )
        return self._respond(
            request, {"job": self.manager.describe(job_id)}, status=202
        )

    def list_jobs(self, request: Request) -> Response:
        """List every job the manager knows about."""
        return self._respond(request, {"jobs": self.manager.jobs()})

    def _job_or_404(self, job_id: str) -> None:
        try:
            self.manager.describe(job_id, include_cells=False)
        except KeyError:
            raise HttpError(404, f"unknown job {job_id!r}")

    def get_job(self, request: Request) -> Response:
        """Poll one job (``?wait=SECONDS`` blocks until terminal)."""
        job_id = request.path_params["job_id"]
        self._job_or_404(job_id)
        wait = request.param("wait")
        if wait is not None:
            try:
                timeout = min(float(wait), 300.0)
            except ValueError:
                raise HttpError(400, f"malformed wait={wait!r}")
            deadline = time.monotonic() + timeout
            while not self.server.stopping.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.manager.wait(
                    job_id, timeout=min(remaining, _POLL_SECONDS)
                ):
                    break
        return self._respond(request, {"job": self.manager.describe(job_id)})

    def job_events(self, request: Request) -> Response:
        """Stream a job's recorded events as NDJSON."""
        job_id = request.path_params["job_id"]
        self._job_or_404(job_id)
        follow = request.param("follow", "1") not in ("0", "false", "no")
        manager = self.manager
        stopping = self.server.stopping

        def stream() -> Iterator[bytes]:
            """Yield the event payloads (NDJSON body generator)."""
            seq = 0
            while True:
                events, terminal = manager.events_since(job_id, seq)
                for event in events:
                    yield (json.dumps(event) + "\n").encode("utf-8")
                seq += len(events)
                if (
                    terminal
                    or not follow
                    or stopping.is_set()
                    or request.peer_closed(_POLL_SECONDS)
                ):
                    return

        return Response.ndjson(stream())

    def job_results(self, request: Request) -> Response:
        """Completed cells of one job (``?full=1`` embeds results)."""
        job_id = request.path_params["job_id"]
        self._job_or_404(job_id)
        full = request.param("full", "0") not in ("0", "false", "no")
        return self._respond(
            request,
            {
                "job_id": job_id,
                "results": self.manager.job_results(job_id, full=full),
            },
        )

    # -- handlers: stored results ------------------------------------------

    _QUERY_FILTERS = ("pattern", "controller", "engine", "seed", "delay_mode")

    def _query(self, request: Request) -> List[StoredRecord]:
        """Stored cells matching the request's filters ([] without a store)."""
        filters: Dict[str, Any] = {}
        for name in self._QUERY_FILTERS:
            value = request.param(name)
            if value is None:
                continue
            if name == "seed":
                try:
                    filters[name] = int(value)
                except ValueError:
                    raise HttpError(400, f"malformed seed={value!r}")
            else:
                filters[name] = value
        reader = self._reader()
        if reader is None:
            return []
        with reader:
            return reader.query(**filters)

    def results_query(self, request: Request) -> Response:
        """Filter stored cells by spec axes."""
        limit_text = request.param("limit")
        try:
            limit = None if limit_text is None else max(int(limit_text), 0)
        except ValueError:
            raise HttpError(400, f"malformed limit={limit_text!r}")
        records = self._query(request)
        rows = [
            {
                "spec_hash": record.spec_hash,
                "label": record.spec.label(),
                "pattern": record.spec.pattern,
                "controller": record.spec.controller,
                "engine": record.spec.engine,
                "seed": record.spec.seed,
                "duration": record.spec.duration,
                "scenario_name": record.result.scenario_name,
                "summary": record.result.summary.to_dict(),
            }
            for record in (
                records if limit is None else records[:limit]
            )
        ]
        return self._respond(
            request, {"rows": rows, "total": len(records)}
        )

    def results_aggregate(self, request: Request) -> Response:
        """Grouped mean/std/ci95 over stored cells."""
        by_text = request.param("by", "pattern,controller,engine")
        by = tuple(axis.strip() for axis in by_text.split(",") if axis.strip())
        metrics_text = request.param("metrics")
        metrics = (
            DEFAULT_METRICS
            if metrics_text is None
            else tuple(m.strip() for m in metrics_text.split(",") if m.strip())
        )
        records = self._query(request)
        rows = aggregate(
            records, by=by, metrics=metrics, on_mixed_delay_mode="split"
        )
        return self._respond(
            request, {"rows": rows, "cells": len(records), "by": list(by)}
        )

    def results_changepoints(self, request: Request) -> Response:
        """CUSUM stability verdicts per stored cell group."""
        from repro.analysis.options import ANALYSIS_PARAMS, AnalysisOptions
        from repro.analysis.stability import analyze_records, verdict_rows

        overrides: Dict[str, Any] = {}
        for param, field, convert, _ in ANALYSIS_PARAMS:
            text = request.param(param)
            if text is None:
                continue
            try:
                overrides[field] = convert(text)
            except ValueError:
                raise HttpError(400, f"malformed {param}={text!r}")
        options = AnalysisOptions(**overrides)
        records = self._query(request)
        verdicts = verdict_rows(analyze_records(records, options=options))
        return self._respond(
            request, {"verdicts": verdicts, "cells": len(verdicts)}
        )

    def results_get(self, request: Request) -> Response:
        """One stored cell by spec-hash prefix."""
        prefix = request.path_params["hash_prefix"]
        full = request.param("full", "0") not in ("0", "false", "no")
        reader = self._reader()
        if reader is None:
            raise HttpError(404, f"no stored cell matches {prefix!r}")
        with reader:
            matches = reader.find(prefix)
        if not matches:
            raise HttpError(404, f"no stored cell matches {prefix!r}")
        if len(matches) > 1:
            raise HttpError(
                409,
                f"hash prefix {prefix!r} is ambiguous "
                f"({len(matches)} cells)",
            )
        record = matches[0]
        payload: Dict[str, Any] = {
            "spec_hash": record.spec_hash,
            "label": record.spec.label(),
            "spec": record.spec.to_dict(),
            "summary": record.result.summary.to_dict(),
            "created_at": record.created_at,
        }
        if full:
            payload["result"] = record.result.to_dict()
        return self._respond(request, payload)


def serve(
    store: str = "results.sqlite",
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    batch_size: int = 16,
) -> None:
    """Run the simulation service until interrupted (blocking)."""
    app = ServiceApp(
        store, workers=workers, batch_size=batch_size, host=host, port=port
    )
    try:
        app.start()
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        app.close()
