"""The simulation service: HTTP core, job layer, end-to-end contract."""

from __future__ import annotations

import gc
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import API_VERSION
from repro.errors import UsageError
from repro.orchestration.spec import RunSpec
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service import http as http_layer
from repro.service.http import MAX_BODY_BYTES, HttpError, Request, Router
from repro.service import jobs as job_layer
from repro.service.jobs import (
    MAX_QUEUED_JOBS,
    JobManager,
    QueueFullError,
    UnknownJobError,
)
from repro.util.logging import configure

#: The source tree, for the ``repro`` subprocesses.
SRC = str(Path(repro.__file__).resolve().parents[1])

#: A cell small enough to simulate in well under a second.
SPEC = {
    "pattern": "steady-4x4",
    "controller": "util-bp",
    "engine": "meso",
    "seed": 1,
    "duration": 40.0,
}


def spec_dict(**overrides):
    payload = dict(SPEC)
    payload.update(overrides)
    return payload


def watch_to_end(manager, job_id, timeout=60.0):
    """Every event of a job, watched until it ends (None past ``timeout``)."""
    deadline = time.monotonic() + timeout
    events, terminal = [], False
    while not terminal and time.monotonic() < deadline:
        new, terminal = manager.watch(
            job_id, len(events), deadline - time.monotonic()
        )
        events += new
    return events if terminal else None


def raw_exchange(port, request_head, body=b""):
    """Open a socket, send one request; returns the socket (caller closes)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.sendall(request_head.encode("latin-1") + body)
    return sock


class RunningService:
    """A started ServiceApp, bound to an ephemeral port."""

    def __init__(self, store_path):
        self.app = ServiceApp(str(store_path))
        self.app.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.app.port}")

    @staticmethod
    def open_connections():
        """Connections the server is still handling (one thread each)."""
        return len(handler_threads())

    def stop(self):
        self.app.close()


def handler_threads():
    """The live threads of ``ThreadingHTTPServer`` connection handlers."""
    return [
        thread for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    ]


def open_follow_and_poll(port, job_id):
    """A ``?follow=1`` stream past its first event, and a ``?wait=300`` poll.

    Returns the stream's socket, its reader, and the poll's socket.
    """
    follow = raw_exchange(
        port,
        f"GET /jobs/{job_id}/events?follow=1 HTTP/1.1\r\n"
        f"Host: localhost\r\n\r\n",
    )
    stream = follow.makefile("rb")
    while stream.readline() not in (b"\r\n", b""):
        pass  # status line and headers
    assert json.loads(stream.readline())["event"] == "job_queued"
    poll = raw_exchange(
        port,
        f"GET /jobs/{job_id}?wait=300 HTTP/1.1\r\nHost: localhost\r\n\r\n",
    )
    time.sleep(0.2)  # the poll reaches its wait
    return follow, stream, poll


def assert_closed_cleanly(stream, poll):
    """The stream ended, and the poll read end-of-file or a whole response."""
    assert stream.read() == b""
    with poll.makefile("rb") as response:
        data = response.read()
    if data:
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        length = [
            line for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        ]
        assert int(length[0].split(b":")[1]) == len(body)
        assert json.loads(body)["job"]["state"] == "queued"


@pytest.fixture
def service(tmp_path):
    running = RunningService(tmp_path / "service.sqlite")
    yield running
    running.stop()


class TestRouter:
    async def _ok(self, request):
        raise AssertionError("not dispatched in these tests")

    def test_template_segments_captured(self):
        router = Router()
        router.add("GET", "/jobs/{job_id}/events", self._ok)
        handler, params, known = router.match("GET", "/jobs/job-7/events")
        assert handler is not None
        assert params == {"job_id": "job-7"}
        assert known

    def test_unknown_path_vs_wrong_method(self):
        router = Router()
        router.add("GET", "/jobs", self._ok)
        handler, _, known = router.match("POST", "/jobs")
        assert handler is None and known  # 405 territory
        handler, _, known = router.match("GET", "/nope")
        assert handler is None and not known  # 404 territory

    def test_request_json_errors(self):
        request = Request("POST", "/jobs", {}, {}, body=b"{broken")
        with pytest.raises(HttpError) as error:
            request.json()
        assert error.value.status == 400
        empty = Request("POST", "/jobs", {}, {}, body=b"")
        with pytest.raises(HttpError):
            empty.json()


class TestJobManager:
    def test_requires_wal_store(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        assert manager.journal_mode == "wal"

    def test_duplicates_within_submission_collapse(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        spec = RunSpec.from_dict(SPEC)
        job_id = manager.submit([spec, spec, spec])
        view = manager.describe(job_id)
        assert view["counts"]["total"] == 1
        manager.stop()

    def test_identical_cells_shared_across_jobs(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        spec = RunSpec.from_dict(SPEC)
        first = manager.submit([spec])
        second = manager.submit([spec])
        assert manager.describe(first)["counts"]["shared"] == 0
        assert manager.describe(second)["counts"]["shared"] == 1
        manager.start()
        assert watch_to_end(manager, first)
        assert watch_to_end(manager, second)
        assert manager.stats()["executed"] == 1  # one engine run for both
        for job_id in (first, second):
            view = manager.describe(job_id)
            assert view["state"] == "done"
            assert view["cells"][0]["status"] == "done"
        manager.stop()

    def test_empty_submission_rejected(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        with pytest.raises(ValueError, match="at least one spec"):
            manager.submit([])
        manager.stop()

    def test_failed_cells_fail_the_job_and_are_retryable(
        self, tmp_path, failing_engine
    ):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        manager.start()
        # The engine's step raises inside the run.
        bad = RunSpec.from_dict(spec_dict(engine=failing_engine))
        job_id = manager.submit([bad])
        events = [e["event"] for e in watch_to_end(manager, job_id)]
        view = manager.describe(job_id)
        assert view["state"] == "failed"
        assert view["cells"][0]["status"] == "failed"
        assert view["cells"][0]["error"]
        assert "cell_failed" in events
        # A resubmission owns a fresh cell (does not inherit the error).
        retry = manager.submit([bad])
        assert manager.describe(retry)["counts"]["shared"] == 0
        manager.stop()

    def test_event_sequence_for_one_job(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        manager.start()
        job_id = manager.submit([RunSpec.from_dict(SPEC)])
        assert watch_to_end(manager, job_id)
        events, terminal = manager.watch(job_id, 0, timeout=0)
        assert terminal
        assert [e["event"] for e in events] == [
            "job_queued", "job_started", "cell_completed", "job_completed",
        ]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert events[2]["source"] == "executed"
        manager.stop()

    def test_queue_is_bounded(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))  # worker stopped
        spec = RunSpec.from_dict(SPEC)
        for _ in range(MAX_QUEUED_JOBS):
            manager.submit([spec])
        with pytest.raises(QueueFullError, match="resubmit") as error:
            manager.submit([RunSpec.from_dict(spec_dict(seed=2))])
        assert error.value.status == 429
        # A refused submission registers nothing.
        assert manager.stats()["jobs"] == MAX_QUEUED_JOBS
        assert manager.stats()["cells"] == 1
        manager.stop()

    def test_wait_times_out_before_start(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        job_id = manager.submit([RunSpec.from_dict(SPEC)])
        # The queued event at once; past it nothing (worker not started).
        events, terminal = manager.watch(job_id, 0, timeout=10)
        assert [e["event"] for e in events] == ["job_queued"]
        assert not terminal
        start = time.monotonic()
        assert manager.watch(job_id, 1, timeout=0.05) == ([], False)
        assert time.monotonic() - start >= 0.05
        manager.stop()

    def test_watch_wakes_at_the_next_event(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        job_id = manager.submit([RunSpec.from_dict(SPEC)])
        threading.Timer(0.2, manager.start).start()
        start = time.monotonic()
        events, _ = manager.watch(job_id, 1, timeout=30)
        assert time.monotonic() - start < 10
        assert events[0]["event"] == "job_started"
        assert watch_to_end(manager, job_id)[-1]["event"] == "job_completed"
        manager.stop()

    def test_unknown_job_is_one_404_error(self, tmp_path):
        manager = JobManager(str(tmp_path / "s.sqlite"))
        for call in (
            lambda: manager.describe("job-999999"),
            lambda: manager.job_results("job-999999"),
            lambda: manager.watch("job-999999", 0, timeout=0),
        ):
            with pytest.raises(UnknownJobError, match="'job-999999'") as error:
                call()
            assert error.value.status == 404


class TestServiceEndpoints:
    def test_healthz_and_envelope(self, service):
        view = service.client.health()
        assert view["status"] == "ok"
        assert view["api_version"] == API_VERSION
        assert view["request_id"].startswith("req-")
        assert view["journal_mode"] == "wal"

    def test_incoming_request_id_is_honoured(self, service):
        url = f"{service.client.base_url}/healthz"
        request = urllib.request.Request(
            url, headers={"X-Request-Id": "req-custom-1"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "req-custom-1"
            assert json.load(response)["request_id"] == "req-custom-1"

    def test_unknown_path_and_method(self, service):
        with pytest.raises(ServiceError) as error:
            service.client._request("GET", "/nope")
        assert error.value.status == 404
        with pytest.raises(ServiceError) as error:
            service.client._request("POST", "/healthz")
        assert error.value.status == 405

    def test_submission_status_line(self, service):
        body = json.dumps({"spec": SPEC}).encode()
        sock = raw_exchange(
            service.app.port,
            f"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n",
            body,
        )
        with sock, sock.makefile("rb") as response:
            assert response.readline() == b"HTTP/1.1 202 Accepted\r\n"

    def test_full_queue_is_429_with_retry_after(self, service, monkeypatch):
        # The module object the service was built from (a test elsewhere
        # reloads the service modules, so not a fresh import by name).
        monkeypatch.setattr(job_layer, "MAX_QUEUED_JOBS", 2)
        service.app.manager.stop()  # nothing leaves the queue
        for seed in (1, 2):
            service.client.submit_spec(spec_dict(seed=seed))
        request = urllib.request.Request(
            f"{service.client.base_url}/jobs",
            data=json.dumps({"spec": spec_dict(seed=3)}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        with error.value:
            assert error.value.code == 429
            assert error.value.headers["Retry-After"] == "1"
            assert "resubmit" in json.load(error.value)["error"]
        assert len(service.client.jobs()["jobs"]) == 2

    def test_submission_body_validated(self, service):
        for body in ({}, {"spec": SPEC, "grid": {}}, {"specs": []}):
            with pytest.raises(ServiceError) as error:
                service.client.submit(body)
            assert error.value.status == 400
        with pytest.raises(ServiceError) as error:
            service.client.submit_spec(spec_dict(pattern="no-such"))
        assert error.value.status == 400
        assert "no-such" in error.value.message

    def test_unbuildable_controller_spec_is_400(self, service):
        """A controller spec no run could build never becomes a job."""
        with pytest.raises(ServiceError) as error:
            service.client.submit_spec(spec_dict(controller="cap-bp"))
        assert error.value.status == 400
        assert "requires a 'period' parameter" in error.value.message

    def test_bad_run_option_is_400(self, service):
        """A spec whose run option no run could take never becomes a job."""
        for spec in ({"pattern": "II", "mini_slot": 0}, spec_dict(mini_slot=0)):
            with pytest.raises(ServiceError) as error:
                service.client.submit({"spec": spec})
            assert error.value.status == 400
        assert "mini_slot must be > 0" in error.value.message
        assert service.client.jobs()["jobs"] == []

    def test_spec_missing_keys_is_400_naming_them(self, service):
        with pytest.raises(ServiceError) as error:
            service.client.submit({"spec": {"pattern": "II", "mini_slot": 0}})
        assert error.value.status == 400
        assert error.value.message == (
            "invalid 'spec' submission: spec is missing required key(s) "
            "['controller', 'engine', 'seed']"
        )
        assert service.client.jobs()["jobs"] == []

    def test_submit_poll_results_roundtrip(self, service):
        job = service.client.submit_spec(SPEC)["job"]
        assert job["state"] in ("queued", "running", "done")
        done = service.client.job(job["job_id"], wait=60)["job"]
        assert done["state"] == "done"
        assert done["counts"] == {
            "total": 1, "done": 1, "failed": 0, "pending": 0,
            "from_store": 0, "executed": 1, "shared": 0,
        }
        results = service.client.job_results(job["job_id"])["results"]
        assert len(results) == 1
        assert results[0]["source"] == "executed"
        assert results[0]["summary"]["vehicles_entered"] > 0
        assert "result" not in results[0]
        full = service.client.job_results(job["job_id"], full=True)
        assert "summary" in full["results"][0]["result"]

    def test_event_stream_is_ndjson(self, service):
        job = service.client.submit_spec(SPEC)["job"]
        service.client.job(job["job_id"], wait=60)
        events = list(service.client.iter_events(job["job_id"], follow=False))
        assert [e["event"] for e in events] == [
            "job_queued", "job_started", "cell_completed", "job_completed",
        ]

    def test_follow_stream_ends_at_terminal_job(self, service):
        job = service.client.submit_spec(SPEC)["job"]
        # follow=True blocks until the job completes, then closes.
        events = list(service.client.iter_events(job["job_id"], follow=True))
        assert events[-1]["event"] == "job_completed"

    def test_grid_submission_expands_cells(self, service):
        grid = {
            "scenarios": ["steady-4x4"],
            "controllers": ["util-bp", ["cap-bp", {"period": 16}]],
            "seeds": [1, 2],
            "engines": ["meso"],
            "durations": [40.0],
        }
        job = service.client.submit_grid(grid)["job"]
        done = service.client.job(job["job_id"], wait=120)["job"]
        assert done["state"] == "done"
        assert done["counts"]["total"] == 4
        assert done["counts"]["done"] == 4

    def test_sharded_grid_submissions_cover_the_grid(self, service):
        grid = {
            "scenarios": ["steady-4x4"],
            "controllers": ["util-bp"],
            "seeds": [1, 2, 3, 4],
            "engines": ["meso"],
            "durations": [40.0],
        }
        jobs = []
        for index in range(2):
            job = service.client.submit_grid(grid, shard=f"{index}/2")["job"]
            assert job["shard"] == {"index": index, "count": 2}
            jobs.append(job)
        totals = 0
        for job in jobs:
            done = service.client.job(job["job_id"], wait=120)["job"]
            assert done["state"] == "done"
            assert done["shard"] == job["shard"]
            totals += done["counts"]["total"]
        # The two shards partition the grid: every cell ran exactly once.
        assert totals == 4
        stats = service.client.health()["stats"]
        assert stats["executed"] == 4
        assert stats["cells"] == 4

    def test_shard_submission_validated(self, service):
        grid = {
            "scenarios": ["steady-4x4"],
            "seeds": [1],
            "durations": [40.0],
        }
        for body in (
            {"spec": SPEC, "shard": "0/2"},
            {"grid": grid, "shard": "2/2"},
            {"grid": grid, "shard": "nope"},
            {"grid": grid, "shard": [1, 2, 3]},
        ):
            with pytest.raises(ServiceError) as error:
                service.client.submit(body)
            assert error.value.status == 400
        # A shard designator landing on an empty shard is a clear 400,
        # not a zero-cell job: the 1-cell grid fills exactly one of the
        # two shards (which one depends on the content hash).
        whole = service.client.submit_grid(grid)["job"]
        assert whole["shard"] is None
        empty_shards = 0
        for index in range(2):
            try:
                job = service.client.submit_grid(grid, shard=f"{index}/2")
                assert job["job"]["counts"]["total"] == 1
            except ServiceError as error:
                assert error.status == 400
                assert "empty" in error.message
                empty_shards += 1
        assert empty_shards == 1

    def test_healthz_reports_store_rows_and_versions(self, service):
        from repro.orchestration.spec import SPEC_SCHEMA_VERSION

        before = service.client.health()["store"]
        assert before["rows"] == 0
        assert before["layout_version"] == 1
        assert before["spec_schema_version"] == SPEC_SCHEMA_VERSION
        job = service.client.submit_spec(SPEC)["job"]
        service.client.job(job["job_id"], wait=60)
        after = service.client.health()["store"]
        assert after["rows"] == 1
        assert after["path"].endswith("service.sqlite")

    def test_query_and_aggregate_served_from_store(self, service):
        job = service.client.submit_spec(SPEC)["job"]
        service.client.job(job["job_id"], wait=60)
        rows = service.client.query(controller="util-bp")
        assert rows["total"] == 1
        assert rows["rows"][0]["pattern"] == "steady-4x4"
        assert rows["rows"][0]["summary"]["vehicles_entered"] > 0
        empty = service.client.query(controller="fixed-time")
        assert empty["total"] == 0
        agg = service.client.aggregate(by="pattern,controller")
        assert agg["cells"] == 1
        assert len(agg["rows"]) == 1
        with pytest.raises(ServiceError) as error:
            service.client.aggregate(by="nonsense")
        assert error.value.status == 400

    def test_result_by_hash_prefix(self, service):
        job = service.client.submit_spec(SPEC)["job"]
        service.client.job(job["job_id"], wait=60)
        results = service.client.job_results(job["job_id"])["results"]
        spec_hash = results[0]["spec_hash"]
        view = service.client.result(spec_hash[:12])
        assert view["spec_hash"] == spec_hash
        assert view["spec"]["pattern"] == "steady-4x4"
        with pytest.raises(ServiceError) as error:
            service.client.result("ffffffffffff")
        assert error.value.status == 404
        assert error.value.message == (
            "no cell with hash prefix 'ffffffffffff'"
        )

    def test_malformed_wait_is_400(self, service):
        job_id = service.client.submit_spec(SPEC)["job"]["job_id"]
        for wait in ("soon", "nan"):
            with pytest.raises(ServiceError) as error:
                service.client.job(job_id, wait=wait)
            assert error.value.status == 400
            assert error.value.message == f"malformed wait={wait!r}"

    def test_ambiguous_hash_prefix_is_409(self, service):
        from repro.results.store import ResultStore

        job = service.client.submit_spec(SPEC)["job"]
        service.client.job(job["job_id"], wait=60)
        with ResultStore(service.app.store_path) as store:
            (record,) = store.records()
            # 17 cells: two of them share a first hex digit.
            for seed in range(2, 18):
                store.put(
                    RunSpec.from_dict(spec_dict(seed=seed)), record.result
                )
            firsts = [r.spec_hash[0] for r in store.records()]
        shared = next(c for c in firsts if firsts.count(c) > 1)
        with pytest.raises(ServiceError) as error:
            service.client.result(shared)
        assert error.value.status == 409
        assert f"prefix {shared!r} is ambiguous" in error.value.message

    def test_unknown_job_is_404(self, service):
        for call in (
            lambda: service.client.job("job-999999"),
            lambda: service.client.job("job-999999", wait=1),
            lambda: service.client.job("job-999999", wait="soon"),
            lambda: service.client.job_results("job-999999"),
            lambda: list(service.client.iter_events("job-999999")),
        ):
            with pytest.raises(ServiceError) as error:
                call()
            assert error.value.status == 404
            assert error.value.message == "unknown job 'job-999999'"

    def test_unknown_metric_is_400_naming_it(self, service):
        with pytest.raises(ServiceError) as error:
            service.client.aggregate(metrics="average_queuing_time,bogus")
        assert error.value.status == 400
        assert "bogus" in error.value.message

    @pytest.mark.parametrize(
        "raised, status",
        [
            (UsageError("bad value"), 400),
            (HttpError(409, "conflict"), 409),
            (ValueError("a bug"), 500),
            (AttributeError("a bug"), 500),
        ],
        ids=["usage-error", "http-error", "value-error", "attribute-error"],
    )
    def test_only_repro_errors_become_4xx(self, service, raised, status):
        def handler(request):
            raise raised

        service.app.server.router.add("GET", "/boom", handler)
        with pytest.raises(ServiceError) as error:
            service.client._request("GET", "/boom")
        assert error.value.status == status
        if status == 500:
            assert "internal error" in error.value.message
        else:
            assert error.value.message == str(raised)

    def test_unreachable_service_is_a_service_error(self):
        client = ServiceClient("http://127.0.0.1:9")
        with pytest.raises(ServiceError, match="cannot reach") as error:
            client.health()
        assert error.value.status is None
        with pytest.raises(ServiceError, match="cannot reach"):
            list(client.iter_events("job-000001", follow=False))


class TestHttpGuards:
    """Requests the HTTP layer refuses before a handler runs."""

    @staticmethod
    def status(port, head):
        sock = raw_exchange(port, head + "\r\n")
        with sock, sock.makefile("rb") as response:
            return int(response.readline().split()[1])

    def test_body_over_the_cap_is_413(self, service):
        head = (
            f"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
        )
        assert self.status(service.app.port, head) == 413

    def test_chunked_body_is_501(self, service):
        head = (
            "POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            "Transfer-Encoding: chunked\r\n"
        )
        assert self.status(service.app.port, head) == 501

    def test_request_line_over_16_kb_is_400(self, service):
        head = f"GET /{'a' * 16 * 1024} HTTP/1.1\r\nHost: localhost\r\n"
        assert self.status(service.app.port, head) == 400

    def test_more_than_100_header_lines_is_431(self, service):
        lines = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(101))
        head = f"GET /healthz HTTP/1.1\r\nHost: localhost\r\n{lines}"
        assert self.status(service.app.port, head) == 431


class TestEndToEndContract:
    """The acceptance criteria of the service tentpole."""

    def test_concurrent_identical_submissions_execute_once(self, service):
        """Two clients racing the same RunSpec share one computation."""
        outcomes = {}
        barrier = threading.Barrier(2)

        def submit(name):
            client = ServiceClient(service.client.base_url)
            barrier.wait()
            job = client.submit_spec(SPEC)["job"]
            done = client.job(job["job_id"], wait=60)["job"]
            outcomes[name] = (
                done,
                client.job_results(job["job_id"])["results"],
            )

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90)
        assert set(outcomes) == {"a", "b"}
        # PoolStats: exactly one engine execution for both clients.
        stats = service.client.health()["stats"]
        assert stats["executed"] == 1
        assert stats["cells"] == 1
        # Both received the same spec-hash-keyed result.
        (job_a, results_a), (job_b, results_b) = (
            outcomes["a"], outcomes["b"],
        )
        assert job_a["state"] == job_b["state"] == "done"
        assert results_a[0]["spec_hash"] == results_b[0]["spec_hash"]
        assert results_a[0]["summary"] == results_b[0]["summary"]
        # Exactly one of the two jobs owned the cell.
        shares = sorted(
            (job_a["counts"]["shared"], job_b["counts"]["shared"])
        )
        assert shares == [0, 1]

    def test_restart_serves_from_store_without_recompute(self, tmp_path):
        store_path = tmp_path / "service.sqlite"
        first = RunningService(store_path)
        try:
            job = first.client.submit_spec(SPEC)["job"]
            done = first.client.job(job["job_id"], wait=60)["job"]
            assert done["counts"]["executed"] == 1
        finally:
            first.stop()

        second = RunningService(store_path)
        try:
            job = second.client.submit_spec(SPEC)["job"]
            done = second.client.job(job["job_id"], wait=60)["job"]
            assert done["state"] == "done"
            assert done["counts"]["from_store"] == 1
            assert done["counts"]["executed"] == 0
            stats = second.client.health()["stats"]
            assert stats["executed"] == 0
            assert stats["cache_hits"] == 1
            results = second.client.job_results(job["job_id"])["results"]
            assert results[0]["source"] == "store"
        finally:
            second.stop()

    def test_dropped_follow_stream_harms_nothing(self, tmp_path):
        """A client that leaves a ``?follow=1`` stream after one line."""
        stream = io.StringIO()
        configure(stream=stream)
        try:
            service = RunningService(tmp_path / "service.sqlite")
            try:
                service.app.manager.stop()  # the job waits in the queue
                job_id = service.client.submit_spec(SPEC)["job"]["job_id"]
                sock = raw_exchange(
                    service.app.port,
                    f"GET /jobs/{job_id}/events?follow=1 HTTP/1.1\r\n"
                    f"Host: localhost\r\n\r\n",
                )
                with sock, sock.makefile("rb") as response:
                    while response.readline() not in (b"\r\n", b""):
                        pass  # status line and headers
                    first = json.loads(response.readline())
                assert first["event"] == "job_queued"
                # The stream sees the end of file between polls: its
                # handler ends, and frees its place, while the job waits.
                deadline = time.monotonic() + 1
                while service.open_connections() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.open_connections() == 0
                assert service.client.job(job_id)["job"]["state"] == "queued"
                service.app.manager.start()
                done = service.client.job(job_id, wait=60)["job"]
                assert done["state"] == "done"
                assert service.client.health()["status"] == "ok"
                events = service.client.iter_events(job_id, follow=False)
                assert [e["event"] for e in events] == [
                    "job_queued", "job_started", "cell_completed",
                    "job_completed",
                ]
                deadline = time.monotonic() + 10
                while service.open_connections() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.open_connections() == 0
            finally:
                service.stop()
        finally:
            configure(stream=None)
        logged = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert "request_completed" in logged
        assert "request_crashed" not in logged

    def test_dropped_wait_poll_frees_its_thread(self, service):
        """A client that leaves a ``?wait=300`` poll on a queued job."""
        service.app.manager.stop()  # the job waits in the queue
        job_id = service.client.submit_spec(SPEC)["job"]["job_id"]
        poll = raw_exchange(
            service.app.port,
            f"GET /jobs/{job_id}?wait=300 HTTP/1.1\r\nHost: localhost\r\n\r\n",
        )
        time.sleep(0.2)  # the poll reaches its wait
        assert service.open_connections() == 1
        poll.close()
        deadline = time.monotonic() + 1
        while service.open_connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.open_connections() == 0
        assert service.client.job(job_id)["job"]["state"] == "queued"

    def test_shutdown_closes_an_open_follow_stream(self, tmp_path, monkeypatch):
        """Closing the app ends a followed stream and a long poll at once."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        service = RunningService(tmp_path / "service.sqlite")
        service.app.manager.stop()  # the job never leaves the queue
        job_id = service.client.submit_spec(SPEC)["job"]["job_id"]
        follow, stream, poll = open_follow_and_poll(service.app.port, job_id)
        with follow, stream, poll:
            start = time.monotonic()
            service.stop()
            assert time.monotonic() - start < 2.0
            assert_closed_cleanly(stream, poll)
        assert handler_threads() == []
        del service
        gc.collect()
        assert unraisable == []

    def test_sigint_ends_repro_serve_with_a_stream_and_a_poll_open(
        self, tmp_path
    ):
        """``repro serve`` under SIGINT: exit 0 at once, no traceback."""
        script = (
            "import sys\n"
            "from repro.service.jobs import JobManager\n"
            "JobManager.start = lambda self: None  # jobs stay queued\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "serve", "--port", "0",
             "--store", str(tmp_path / "service.sqlite")],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            for line in proc.stderr:
                if '"service_started"' in line:
                    port = json.loads(line)["port"]
                    break
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit_spec(SPEC)["job"]["job_id"]
            follow, stream, poll = open_follow_and_poll(port, job_id)
            with follow, stream, poll:
                start = time.monotonic()
                proc.send_signal(signal.SIGINT)
                returncode = proc.wait(timeout=30)
                elapsed = time.monotonic() - start
                assert_closed_cleanly(stream, poll)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert returncode == 0
        assert elapsed < 2.0
        assert "Traceback" not in stderr
        assert '"service_stopped"' in stderr

    def test_connections_past_the_bound_get_503(self, service, monkeypatch):
        monkeypatch.setattr(http_layer, "MAX_CONNECTIONS", 2)
        before = len(handler_threads())
        idle = [
            socket.create_connection(("127.0.0.1", service.app.port), timeout=30)
            for _ in range(2)
        ]
        try:
            deadline = time.monotonic() + 10
            while (
                len(handler_threads()) < before + 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(
                    f"{service.client.base_url}/healthz", timeout=30
                )
            with error.value:
                assert error.value.code == 503
                assert error.value.headers["Retry-After"] == "1"
            idle.pop().close()
            deadline = time.monotonic() + 10
            while True:
                try:
                    assert service.client.health()["status"] == "ok"
                    break
                except ServiceError as refused:
                    if refused.status != 503 or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        finally:
            for sock in idle:
                sock.close()

    def test_all_log_lines_are_json_with_request_ids(self, tmp_path):
        stream = io.StringIO()
        configure(stream=stream)
        try:
            service = RunningService(tmp_path / "service.sqlite")
            try:
                job = service.client.submit_spec(SPEC)["job"]
                service.client.job(job["job_id"], wait=60)
                service.client.query(controller="util-bp")
            finally:
                service.stop()
        finally:
            configure(stream=None)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert records, "service produced no log lines"
        for record in records:
            assert {"ts", "level", "component", "event"} <= set(record)
        request_scoped = [
            r for r in records
            if r["event"].startswith(("request_", "job_", "cell_"))
            and r["event"] != "job_submitted_legacy"
        ]
        assert request_scoped
        for record in request_scoped:
            assert str(record.get("request_id", "")).startswith("req-"), (
                f"log line lacks a request id: {record}"
            )


class TestAnalysisEndpoint:
    """GET /results/changepoints and the /api version report."""

    def test_api_reports_versions_and_endpoints(self, service):
        from repro.api import package_version

        info = service.client._request("GET", "/api")
        assert info["api_version"] == API_VERSION
        assert info["package_version"] == package_version()
        assert "GET /results/changepoints" in info["endpoints"]

    def test_empty_store_yields_no_verdicts(self, service):
        payload = service.client._request("GET", "/results/changepoints")
        assert payload["verdicts"] == []
        assert payload["cells"] == 0

    def test_malformed_and_invalid_params_are_400(self, service):
        for params in (
            {"min_points": "abc"},
            {"warmup_fraction": "2.0"},
            {"permutations": "1.5"},
        ):
            with pytest.raises(ServiceError) as error:
                service.client._request(
                    "GET", "/results/changepoints", params=params
                )
            assert error.value.status == 400

    def test_payload_matches_the_cli_analysis(self, tmp_path):
        from repro.analysis import analyze_store, verdict_rows

        store_path = tmp_path / "service.sqlite"
        service = RunningService(store_path)
        try:
            grid = {
                "scenarios": ["steady-4x4"],
                "engines": ["meso-counts"],
                "seeds": [1],
                "durations": [300.0],
                "record_entry_queues": 2,
            }
            job = service.client.submit_grid(grid)["job"]
            done = service.client.job(job["job_id"], wait=120)["job"]
            assert done["state"] == "done"

            payload = service.client._request(
                "GET", "/results/changepoints"
            )
            assert payload["cells"] == 1
            [verdict] = payload["verdicts"]
            assert verdict["pattern"] == "steady-4x4"
            assert verdict["n_runs"] == 1
            assert verdict["status"] in (
                "stable", "breakdown", "insufficient-data",
            )
            # The service payload is exactly the CLI's verdict rows.
            assert payload["verdicts"] == verdict_rows(
                analyze_store(str(store_path))
            )

            # Detector overrides flow through: demanding more samples
            # than the run recorded downgrades it to insufficient-data.
            strict = service.client._request(
                "GET", "/results/changepoints", params={"min_points": 10000}
            )
            assert strict["verdicts"][0]["status"] == "insufficient-data"

            # Filters narrow the store query like /results/aggregate.
            miss = service.client._request(
                "GET",
                "/results/changepoints",
                params={"controller": "fixed-time"},
            )
            assert miss["cells"] == 0
        finally:
            service.stop()
