"""End-to-end benchmark of the reproduction's user paths.

One workload per invocation, in a fresh process:

    python3 perfbench/run.py --workload closed-loop --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload (see ``workloads.py``) times three user paths in turn:

1. **set-up** — fresh interpreters up to the first simulated mini-slot
   on every engine, and fresh ``repro serve`` processes up to the first
   200 from ``/healthz`` (``--trace 0`` only);
2. **loop** — rounds of ``run_scenario`` (steady-10x10, loads 0.1 and
   1.0, meso-counts / meso-events / meso-vec) plus one
   ``run_scenario_batch`` of 16 seeds, repeated for ``--seconds``;
3. **service** — ``repro serve --workers 1`` over a store pre-filled
   before timing, driven by two client threads in a closed loop of 200
   jobs (POST, ``GET /jobs/{id}?wait=``, ``GET /jobs/{id}/results``),
   in four chunks, one after each of the first loop rounds.

Every timed block (a loop run, a set-up sample, a job chunk) sits
between two measurements of ``scripts/bench_ci.py``'s machine-speed
score, and its times are rescaled to the score recorded in
``benchmarks/baseline_ci.json``.  On a shared host whose speed drifts
with its neighbours' load this keeps the figures steady from one run
(and one hour) to the next; the report prints the raw wall-clock
figure next to each rescaled one.  The job chunks are interleaved with
the loop rounds so that both paths sample the host across the whole
run.  Loop rates are slots over the median run time per (engine, load),
so a single disturbed run moves them little.

Every output is checked: the three count engines and the B=16 members
must agree bit-for-bit, every round must repeat the first, fingerprints
must match ``expected.json`` when it has the seed, and every job must
report exactly the executed / from-store / shared counts its plan
implies.  A wrong or failed operation counts in ``failed`` and makes
the command exit 1.

``--trace 1`` is the separate traced run: loop rounds alternate
untraced and traced, the server starts through ``serve_traced.py``,
and the output metrics are the per-layer ones (``layers.json`` says
which layer each belongs to, which end-to-end metric it should move and
on which workloads its layer runs; there a metric that reads 0 is a
failure).  ``--record-expected`` stores this run's fingerprints for the
seed instead of comparing them.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the run's metadata and every metric's quartiles and sample count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
BENCH_CI = ROOT / "scripts" / "bench_ci.py"
GATE_BASELINE = ROOT / "benchmarks" / "baseline_ci.json"
SCRATCH = ROOT / ".perfbench-tmp"

from workloads import (  # noqa: E402
    BATCH_LABEL,
    BATCH_LOAD,
    BATCH_WIDTH,
    CLIENT_THREADS,
    ENGINES,
    LOADS,
    LOOP_DURATION,
    LOOP_SCENARIO,
    WORKLOADS,
    loop_seeds,
    plan_jobs,
)
import tracing  # noqa: E402

#: Fresh processes timed per set-up sample kind; the median is reported.
SETUP_REPEATS = 3
#: The service jobs run in this many chunks, one after each of the first
#: loop rounds, so both paths sample the machine across the whole run;
#: this many rounds run whatever ``--seconds`` says.
SERVICE_CHUNKS = 4
#: Upper bound on any single wait for the service (s).
SERVICE_TIMEOUT = 120.0


# -- small helpers ---------------------------------------------------------------


class Calibration:
    """Rescales measured times to the speed of the CI baseline's machine.

    ``calibration_score`` from ``scripts/bench_ci.py`` (fixed Python and
    numpy work per second, imitating the simulators' hot loops; best of
    two passes, so one interrupted pass does not skew it) is measured
    before and after every timed block.  A time measured in the block,
    times the mean of the two scores over the score recorded in
    ``benchmarks/baseline_ci.json``, is the time it would have taken
    there.  On a shared host the neighbours slow the score and the block
    alike, so rescaling takes most of that drift out.
    """

    def __init__(self) -> None:
        spec = importlib.util.spec_from_file_location("bench_ci", BENCH_CI)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self._score = module.calibration_score
        self.reference = json.loads(GATE_BASELINE.read_text())["calibration_score"]
        self.refresh()

    def refresh(self) -> None:
        """Measure the score afresh (after untimed work in between)."""
        self.last = self._score(repeats=2)

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), raw seconds, rescaled seconds)``.

        The score measured after the run is the next run's "before".
        """
        before = self.last
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.refresh()
        return result, raw, raw * (before + self.last) / (2 * self.reference)


def describe(samples: List[float]) -> Dict[str, float]:
    """Median, first and third quartile and sample count of a sample."""
    values = sorted(samples)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(samples: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) of a sample."""
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def fingerprint(payload: Any) -> str:
    """A short content hash of a JSON-serializable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def child_env() -> Dict[str, str]:
    """The environment of every child process: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def attempt(self, ok: bool, what: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)
        return ok

    def run(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; an exception counts as a failure."""
        try:
            result = fn()
        except Exception as error:  # noqa: BLE001 - every failure is reported
            self.attempt(False, f"{what}: {type(error).__name__}: {error}")
            return None
        self.attempt(True)
        return result


# -- set-up ------------------------------------------------------------------------


def time_setup_probe(workload: str, seed: int) -> float:
    """Spawn-to-``ready`` seconds of one fresh loop process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe said {line!r}")
        finally:
            proc.stdout.close()
            if proc.wait(timeout=SERVICE_TIMEOUT) != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path, log_path: Path, trace_out: Optional[Path] = None):
        self.store = store
        self.log_path = log_path
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.ready_lines = 0

    def start(self) -> float:
        """Spawn, wait for the first 200 from ``/healthz``; returns seconds."""
        from repro.api import ServiceClient

        if self.trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--trace-out", str(self.trace_out),
            ]
        command += ["--store", str(self.store), "--port", "0", "--workers", "1"]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = start + SERVICE_TIMEOUT
        while not self.port:
            self._check_alive(deadline)
            for line in self.log_path.read_text().splitlines():
                if '"service_started"' in line:
                    self.port = int(json.loads(line)["port"])
            time.sleep(0.002)
        client = ServiceClient(self.url, timeout=5.0)
        while True:
            self._check_alive(deadline)
            try:
                client.health()
                break
            except OSError:
                time.sleep(0.002)
        elapsed = time.perf_counter() - start
        self.ready_lines = self.log_lines()
        return elapsed

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self.proc.returncode}: "
                f"{self.log_path.read_text()[-2000:]}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("server did not become healthy in time")

    def log_lines(self) -> int:
        return len(self.log_path.read_text().splitlines())

    def peak_rss_kb(self) -> int:
        """The server's resident-set high-water mark (Linux)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGINT, then wait; kill if it does not exit in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- loop path ---------------------------------------------------------------------


class LoopPath:
    """The ``run_scenario`` / ``run_scenario_batch`` rounds of a workload."""

    def __init__(
        self, workload, seed: int, ledger: Ledger, expected: Optional[dict],
        calibration: Calibration,
    ):
        import repro.api as api

        self.api = api
        self.ledger = ledger
        self.expected = expected
        self.calibration = calibration
        self.scenarios = {
            load: api.build_named_scenario(LOOP_SCENARIO, seed=seed, load=load)
            for load in LOADS
        }
        self.batch = [
            api.build_named_scenario(LOOP_SCENARIO, seed=s, load=BATCH_LOAD)
            for s in loop_seeds(seed)
        ]
        network = self.scenarios[LOADS[0]].network
        pairs = tuple(
            (network.road_destination[road], road) for road in network.entry_roads()
        )
        self.knobs = dict(
            controller=workload.controller,
            controller_params=workload.controller_params,
            duration=LOOP_DURATION,
            record_queues=pairs if workload.record_queues else (),
        )
        self.reference: Optional[Dict[str, Any]] = None
        #: Untraced run seconds per ``engine@load`` key, one per round,
        #: rescaled to the baseline machine's speed and raw.
        self.times: Dict[str, List[float]] = {}
        self.raw_times: Dict[str, List[float]] = {}

    def warm_up(self) -> None:
        """One mini-slot per engine: lazy imports happen before timing."""
        knobs = dict(self.knobs, duration=1.0)
        for engine in ENGINES:
            self.api.run_scenario(self.scenarios[LOADS[0]], engine=engine, **knobs)
        self.api.run_scenario_batch(self.batch[:2], engine="meso-vec", **knobs)

    def _run(self, engine: str, load: float) -> Any:
        if engine == BATCH_LABEL:
            return self.api.run_scenario_batch(self.batch, engine="meso-vec", **self.knobs)
        return self.api.run_scenario(self.scenarios[load], engine=engine, **self.knobs)

    def round(self, tracer: Optional[tracing.Tracer] = None) -> Dict[str, float]:
        """One timed pass over every (engine, load) and the batch.

        Returns rescaled seconds per ``engine@load`` key (untraced
        rounds also append to :attr:`times` and :attr:`raw_times`).
        """
        times: Dict[str, float] = {}
        prints: Dict[str, Any] = {}
        runs = [(f"{engine}@{load}", engine, load) for load in LOADS for engine in ENGINES]
        runs.append((f"{BATCH_LABEL}@{BATCH_LOAD}", BATCH_LABEL, BATCH_LOAD))
        self.calibration.refresh()
        for key, engine, load in runs:
            if tracer is not None:
                tracer.tag = key
            try:
                result, raw, seconds = self.calibration.time(
                    lambda: self._run(engine, load)
                )
            except Exception as error:  # noqa: BLE001 - counted as failed
                self.ledger.attempt(False, f"{key}: {error!r}")
                continue
            times[key] = seconds
            if tracer is None:
                self.times.setdefault(key, []).append(seconds)
                self.raw_times.setdefault(key, []).append(raw)
            else:
                tracer.tag = "check"
            if engine == BATCH_LABEL:
                prints[key] = [fingerprint(r.to_dict()) for r in result]
            else:
                prints[key] = fingerprint(result.to_dict())
        self._check(prints)
        return times

    def _check(self, prints: Dict[str, Any]) -> None:
        """Parity, determinism and committed fingerprints, one op per run."""
        if self.reference is None:
            self.reference = prints
        for key, value in prints.items():
            engine, load = key.split("@")
            problems = []
            if value != self.reference.get(key):
                problems.append("differs from the first round")
            serial = prints.get(f"{ENGINES[0]}@{load}")
            if engine == BATCH_LABEL:
                if value[0] != prints.get(f"{ENGINES[0]}@{BATCH_LOAD}"):
                    problems.append("B=16 member 0 differs from the serial run")
            elif value != serial:
                problems.append(f"differs from {ENGINES[0]}")
            if self.expected is not None:
                want = self.expected["loop"].get(key)
                if want != value:
                    problems.append("differs from expected.json")
            self.ledger.attempt(not problems, f"{key}: {'; '.join(problems)}")

    def rate_stats(self, run_times: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
        """``slots_per_s.*`` of the untraced rounds (:attr:`times` or :attr:`raw_times`).

        The value is the simulated (replication-)slots over the summed
        *median* run times, so one disturbed run moves it little; the
        quartiles are those of the per-round rates.
        """
        groups = {engine: [f"{engine}@{load}" for load in LOADS] for engine in ENGINES}
        groups.update(
            {f"{engine}@{load}": [f"{engine}@{load}"] for engine in ENGINES for load in LOADS}
        )
        groups[BATCH_LABEL] = [f"{BATCH_LABEL}@{BATCH_LOAD}"]
        out = {}
        for name, keys in groups.items():
            if not all(run_times.get(key) for key in keys):
                continue
            width = BATCH_WIDTH if name == BATCH_LABEL else 1
            work = width * LOOP_DURATION * len(keys)  # mini_slot is 1 s
            per_round = [work / sum(ts) for ts in zip(*(run_times[k] for k in keys))]
            stats = describe(per_round)
            stats["median"] = work / sum(statistics.median(run_times[k]) for k in keys)
            out[f"slots_per_s.{name}"] = stats
        return out


# -- service path ------------------------------------------------------------------


class ServicePath:
    """The HTTP job closed loop against one ``repro serve`` process."""

    def __init__(self, workload, seed: int, ledger: Ledger, scratch: Path):
        self.plan = plan_jobs(workload, seed)
        self.ledger = ledger
        self.store = scratch / "store.sqlite"
        #: Latency of every completed job (ms) and the summed wall time
        #: of the job chunks (s).
        self.job_ms: List[float] = []
        self.busy = 0.0
        self.client_times: Dict[str, List[float]] = {
            "submit": [], "wait": [], "results": [],
        }
        self.summaries: Dict[str, str] = {}
        self.cells_shared = 0
        #: The server's cumulative pool stats after the last job.
        self.stats: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.stored: Dict[str, str] = {}

    def prepare(self) -> None:
        """Untimed: pre-fill the store with the plan's stored cells."""
        from repro.api import ExperimentPool

        pool = ExperimentPool(workers=1, store=str(self.store))
        try:
            results = pool.run(self.plan.prestored)
        finally:
            pool.store.close()
        for spec, result in zip(self.plan.prestored, results):
            self.stored[spec.spec_hash()] = fingerprint(result.summary.to_dict())

    def drive_chunk(self, url: str, index: int) -> float:
        """Run chunk ``index`` of the jobs on two client threads; seconds."""
        from repro.api import ServiceClient

        size = -(-len(self.plan.jobs) // SERVICE_CHUNKS)
        jobs = self.plan.jobs[index * size:(index + 1) * size]
        threads = [
            threading.Thread(
                target=self._client,
                args=(ServiceClient(url, timeout=SERVICE_TIMEOUT), thread, jobs),
                name=f"perfbench-client-{thread}",
            )
            for thread in range(CLIENT_THREADS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10 * SERVICE_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        return elapsed

    def _client(self, client, thread: int, jobs) -> None:
        for job in jobs:
            if job.thread == thread:
                self.ledger.run(
                    f"job of {len(job.specs)} cells",
                    lambda: self._one_job(client, job),
                )

    def _one_job(self, client, job) -> None:
        specs = [spec.to_dict() for spec in job.specs]
        hashes = {spec.spec_hash() for spec in job.specs}
        start = time.perf_counter()
        job_id = client.submit_specs(specs)["job"]["job_id"]
        submitted = time.perf_counter()
        view = client.job(job_id, wait=SERVICE_TIMEOUT)["job"]
        waited = time.perf_counter()
        results = client.job_results(job_id)["results"]
        done = time.perf_counter()
        if view["state"] != "done" or view["counts"] != job.expected:
            raise RuntimeError(
                f"{job_id}: state {view['state']}, counts {view['counts']}, "
                f"expected {job.expected}"
            )
        if {entry["spec_hash"] for entry in results} != hashes:
            raise RuntimeError(f"{job_id}: results name other cells")
        with self._lock:
            self.job_ms.append(1000 * (done - start))
            self.client_times["submit"].append(submitted - start)
            self.client_times["wait"].append(waited - submitted)
            self.client_times["results"].append(done - waited)
            self.cells_shared += view["counts"]["shared"]
            for entry in results:
                spec_hash = entry["spec_hash"]
                summary = fingerprint(entry["summary"])
                known = self.summaries.setdefault(spec_hash, summary)
                if known != summary:
                    raise RuntimeError(f"{spec_hash[:12]}: summary changed")
                if spec_hash in self.stored and self.stored[spec_hash] != summary:
                    raise RuntimeError(f"{spec_hash[:12]}: store served another result")

    def check_totals(self, stats: Dict[str, int], expected: Optional[dict]) -> None:
        """Pool counts and the result-set fingerprint, one op."""
        self.stats = stats
        plan = self.plan
        want = {
            "executed": plan.executed,
            "cache_hits": plan.from_store,
            "jobs": len(plan.jobs),
            "cells": plan.executed + plan.from_store,
        }
        problems = [
            f"{name} {stats.get(name)} != {value}"
            for name, value in want.items()
            if stats.get(name) != value
        ]
        if self.cells_shared != plan.shared:
            problems.append(f"shared {self.cells_shared} != {plan.shared}")
        if expected is not None and expected["service"] != self.result_fingerprint():
            problems.append("result set differs from expected.json")
        self.ledger.attempt(not problems, f"service totals: {'; '.join(problems)}")

    def result_fingerprint(self) -> str:
        return fingerprint(sorted(self.summaries.items()))


# -- the run -----------------------------------------------------------------------


def source_digest() -> str:
    """Content hash of the program source (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = None
    if not args.record_expected:
        expected = expected_all.get(args.workload, {}).get(str(args.seed))
    traced = bool(args.trace)
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    servers: List[Server] = []

    def new_server() -> Server:
        server = Server(
            service.store,
            scratch / f"serve-{len(servers)}.log",
            scratch / "serve-trace.json" if traced else None,
        )
        servers.append(server)
        return server

    loop_tracer = tracing.Tracer()
    service_tracer = tracing.Tracer()
    #: Samples with times rescaled to the baseline machine's speed, and raw.
    samples: Dict[str, List[float]] = {}
    raw_samples: Dict[str, List[float]] = {}
    log_lines = 0
    try:
        # 1. Untimed preparation, then set-up samples: fresh loop
        #    processes and fresh servers (the last one serves the jobs).
        service = ServicePath(workload, args.seed, ledger, scratch)
        ledger.run("store preparation", service.prepare)
        calibration = Calibration()

        def timed(what, fn):
            """``(raw, rescaled)`` of the seconds ``fn`` returns; None if it failed."""
            out = ledger.run(what, lambda: calibration.time(fn))
            if out is None:
                return None
            seconds, wall, rescaled_wall = out
            return seconds, seconds * rescaled_wall / wall

        setup_loop: List[Tuple[float, float]] = []
        setup_server: List[Tuple[float, float]] = []
        if not traced:
            for _ in range(SETUP_REPEATS):
                value = timed(
                    "set-up probe", lambda: time_setup_probe(args.workload, args.seed)
                )
                if value is not None:
                    setup_loop.append(value)
            for _ in range(SETUP_REPEATS - 1):
                server = new_server()
                value = timed("server start", server.start)
                server.stop()
                if value is not None:
                    setup_server.append(value)

        # 2. The serving server, then loop rounds interleaved with job
        #    chunks for --seconds (untraced and traced rounds alternate).
        server = new_server()
        value = timed("server start", server.start)
        if value is not None and not traced:
            setup_server.append(value)
        if not server.port:
            raise RuntimeError("the service did not start")
        loop = LoopPath(workload, args.seed, ledger, expected, calibration)
        job_ms: List[float] = []
        busy = 0.0
        loop.warm_up()
        round_seconds = {"untraced": [], "traced": []}
        originals = tracing.attributes()
        started = time.perf_counter()
        period = 0
        while True:
            trace_round = traced and period % 2 == 1
            patches = tracing.install(loop_tracer) if trace_round else []
            try:
                times = loop.round(loop_tracer if trace_round else None)
            finally:
                tracing.uninstall(patches)
            if trace_round:
                restored = all(a is b for a, b in zip(originals, tracing.attributes()))
                ledger.attempt(restored, "wrappers left attributes changed")
            round_seconds["traced" if trace_round else "untraced"].append(
                sum(times.values())
            )
            if period < SERVICE_CHUNKS:
                first = len(service.job_ms)
                chunk = timed("job chunk", lambda: service.drive_chunk(server.url, period))
                if chunk is not None:
                    scale = chunk[1] / chunk[0]
                    job_ms.extend(ms * scale for ms in service.job_ms[first:])
                    busy += chunk[1]
            period += 1
            elapsed = time.perf_counter() - started
            enough = period >= SERVICE_CHUNKS and period % (1 + traced) == 0
            # Stop before a period that would overrun --seconds.
            if enough and (args.record_expected or elapsed * (period + 1) / period > args.seconds):
                break

        # 3. Service totals, memory, and the server's own records.
        from repro.api import ServiceClient

        stats = ledger.run(
            "service stats", lambda: ServiceClient(server.url).health()["stats"]
        ) or {}
        service.check_totals(stats, expected)
        server_rss_kb = server.peak_rss_kb()
        server.stop()
        if service.job_ms:
            samples["job_ms"] = job_ms
            samples["cells_per_s"] = [len(service.summaries) / busy]
            raw_samples["job_ms"] = service.job_ms
            raw_samples["cells_per_s"] = [len(service.summaries) / service.busy]
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples["peak_rss_mb"] = [(self_kb + server_rss_kb) / 1024]
        if traced and server.trace_out.exists():
            service_tracer.load(json.loads(server.trace_out.read_text()))
        log_lines = server.log_lines() - server.ready_lines
        for kind, index in ((raw_samples, 0), (samples, 1)):
            kind["setup_s"] = [a[index] + b[index] for a, b in zip(setup_loop, setup_server)]
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    if args.record_expected:
        record_expected(expected_all, args, loop, service)

    stats = {name: describe(values) for name, values in samples.items() if values}
    raw_stats = {name: describe(values) for name, values in raw_samples.items() if values}
    raw_metrics: Dict[str, float] = {}
    if traced:
        metrics = per_layer_metrics(
            loop_tracer, service_tracer, service, round_seconds, log_lines
        )
        idle = idle_layers(metrics, args.workload)
        ledger.attempt(not idle, f"layers that never ran on {args.workload}: {idle}")
    else:
        stats.update(loop.rate_stats(loop.times))
        raw_stats.update(loop.rate_stats(loop.raw_times))
        metrics = end_to_end_metrics(stats, samples)
        raw_metrics = end_to_end_metrics(raw_stats, raw_samples)
    missing = [name for name in wanted_metrics(traced) if name not in metrics]
    if missing:
        ledger.attempt(False, f"metrics not measured: {missing}")
    metrics = {name: metrics[name] for name in wanted_metrics(traced) if name in metrics}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rounds": len(round_seconds["untraced"]) + len(round_seconds["traced"]),
        "jobs": len(service.job_ms),
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
    }
    print_report(meta, stats, metrics, raw_metrics, loop_tracer if traced else None)
    print(json.dumps({"perfbench": meta, "samples": stats, "raw": raw_stats}))
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


@functools.lru_cache(maxsize=None)
def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def layers() -> Dict[str, Dict[str, Any]]:
    """Per-layer metadata beyond name and unit, from ``layers.json``."""
    return json.loads((HERE / "layers.json").read_text())["per_layer"]


def unit(name: str) -> str:
    bench = spec()
    return next(m["unit"] for m in bench["end_to_end"] + bench["per_layer"] if m["name"] == name)


def wanted_metrics(traced: bool) -> List[str]:
    return [m["name"] for m in spec()["per_layer" if traced else "end_to_end"]]


def end_to_end_metrics(stats, samples) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name in wanted_metrics(traced=False):
        if name in ("job_ms_p50", "job_ms_p90"):
            if "job_ms" in samples:
                metrics[name] = percentile(samples["job_ms"], int(name[-2:]))
        elif name in stats:
            metrics[name] = stats[name]["median"]
    return metrics


def idle_layers(metrics: Dict[str, float], workload: str) -> List[str]:
    """Per-layer metrics that read 0 on a workload whose paths run their layer.

    There a 0 means the wrapper never fired (a renamed or bypassed entry
    point), not a measurement.  Elsewhere the metric is 0 by
    construction and the report prints it as n/a.
    """
    return [
        name for name, meta in layers().items()
        if workload in meta["on"] and not metrics.get(name)
    ]


def per_layer_metrics(loop_tracer, service_tracer, service, round_seconds, log_lines):
    """The per-layer metrics of a traced run (see ``layers.json``)."""
    def loop_tags(tag: str) -> bool:
        return "@" in tag  # an ``engine@load`` run, not the "check" tag

    rounds = max(len(round_seconds["traced"]), 1)

    def mean(tracer, span, scale, tags=None):
        calls, self_ns = tracer.span_totals(span, tags)
        return self_ns / calls / scale if calls else 0.0

    def calls(tracer, span, tags=None):
        return tracer.span_totals(span, tags)[0]

    def value_mean(name, scale=1.0):
        count, total = service_tracer.value_totals(name)
        return scale * total / count if count else 0.0

    ms, us = 1e6, 1e3
    serial_decisions = calls(loop_tracer, "control.decide", loop_tags)
    batch_decisions = loop_tracer.value_totals("control.batch_decisions")[1]
    slots = rounds * LOOP_DURATION * (len(ENGINES) * len(LOADS) + BATCH_WIDTH)
    metrics: Dict[str, float] = {
        "runner.self_ms": mean(loop_tracer, "runner", ms, loop_tags),
        "scenarios.build_ms": mean(service_tracer, "scenarios.build", ms),
        "engines.build_ms": mean(loop_tracer, "engines.build", ms, loop_tags),
        "engines.finalize_ms": mean(loop_tracer, "engines.finalize", ms, loop_tags),
        "engines.observations_us": mean(loop_tracer, "engines.observations", us, loop_tags),
        "engines.observations_calls":
            calls(loop_tracer, "engines.observations", loop_tags) / rounds,
        "engines.step_calls": calls(loop_tracer, "engines.step", loop_tags) / rounds,
        "engines.controller_arrays_us":
            mean(loop_tracer, "engines.controller_arrays", us, loop_tags),
        "control.build_ms": mean(loop_tracer, "control.build", ms, loop_tags),
        "control.decide_us": mean(loop_tracer, "control.decide", us, loop_tags),
        "control.decide_calls": serial_decisions / rounds,
        "control.decide_batch_us": mean(loop_tracer, "control.decide_batch", us, loop_tags),
        "control.batched_share":
            batch_decisions / max(batch_decisions + serial_decisions, 1),
        "metrics.trace_us_per_slot":
            loop_tracer.span_totals("metrics.trace", loop_tags)[1] / us / slots,
        "metrics.summary_ms": mean(loop_tracer, "metrics.summary", ms, loop_tags),
        "metrics.to_dict_ms": mean(service_tracer, "metrics.to_dict", ms),
        "metrics.from_dict_ms": mean(service_tracer, "metrics.from_dict", ms),
        "metrics.payload_bytes": value_mean("metrics.payload_bytes"),
        "orchestration.pool_self_ms": mean(service_tracer, "orchestration.pool", ms),
        "orchestration.spec_hash_us": mean(service_tracer, "orchestration.spec_hash", us),
        "orchestration.spec_hash_calls": calls(service_tracer, "orchestration.spec_hash"),
        "orchestration.cells_executed": service.stats.get("executed", 0),
        "orchestration.cells_from_store": service.stats.get("cache_hits", 0),
        "orchestration.batch_units": calls(service_tracer, "orchestration.batch_unit"),
        "results.put_ms": mean(service_tracer, "results.put", ms),
        "results.get_ms": mean(service_tracer, "results.get", ms),
        "results.put_calls": calls(service_tracer, "results.put"),
        "results.get_calls": calls(service_tracer, "results.get"),
        "service.submit_ms": mean(service_tracer, "service.submit", ms),
        "service.queue_wait_ms": value_mean("service.queue_wait_s", 1000.0),
        "service.cells_shared": service.cells_shared,
        "service.log_lines": log_lines,
    }
    for engine in (*ENGINES, BATCH_LABEL):
        metrics[f"engines.step_us.{engine}"] = mean(
            loop_tracer, "engines.step", us, lambda t, e=engine: t.split("@")[0] == e
        )
    for part in ("submit", "wait", "results"):
        values = service.client_times[part]
        metrics[f"client.{part}_ms"] = 1000 * statistics.mean(values) if values else 0.0
    untraced = statistics.median(round_seconds["untraced"])
    traced = statistics.median(round_seconds["traced"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def record_expected(expected_all, args, loop, service) -> None:
    entry = {"loop": loop.reference, "service": service.result_fingerprint()}
    expected_all.setdefault(args.workload, {})[str(args.seed)] = entry
    EXPECTED.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n")
    print(f"recorded fingerprints for {args.workload} seed {args.seed}")


# -- report ------------------------------------------------------------------------

#: Layer spans shown in the per-run split of a traced run (column label).
SPLIT_SPANS = {
    "runner": "runner",
    "engines.build": "eng.build",
    "control.build": "ctl.build",
    "engines.observations": "observe",
    "engines.controller_arrays": "ctl.array",
    "control.decide": "decide",
    "control.decide_batch": "dec.batch",
    "engines.step": "step",
    "metrics.trace": "trace",
    "engines.finalize": "finalize",
    "metrics.summary": "summary",
}


def print_report(meta, stats, metrics, raw_metrics, loop_tracer) -> None:
    """The human-readable table: every metric with its sample spread.

    ``raw`` is the metric from unrescaled wall-clock times.
    """
    print(
        f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"commit={meta['commit'][:12]} source={meta['source_sha256']} "
        f"nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']}"
    )
    print(f"{'metric':<30}{'unit':>6}{'value':>13}{'q1':>13}{'q3':>13}{'n':>5}{'raw':>13}")
    for name, value in metrics.items():
        if meta["trace"] and meta["workload"] not in layers()[name]["on"]:
            print(f"{name:<30}{unit(name):>6}{'n/a':>13}   (layer does not run on this workload)")
            continue
        key = "job_ms" if name.startswith("job_ms") else name
        sample = None if meta["trace"] else stats.get(key)
        q1, q3, n = (value, value, 1) if sample is None else (
            sample["q1"], sample["q3"], sample["n"])
        raw_text = f"{raw_metrics[name]:>13.4f}" if name in raw_metrics else ""
        print(f"{name:<30}{unit(name):>6}{value:>13.4f}{q1:>13.4f}{q3:>13.4f}{n:>5}{raw_text}")
    print(f"{'failed_frac':<30}{'frac':>6}{meta['failed_frac']:>13.4f}")
    if not meta["trace"]:
        print_gate_ratios(stats, WORKLOADS[meta["workload"]])
    if loop_tracer is not None:
        print_split(loop_tracer)


def print_gate_ratios(stats, workload) -> None:
    """Each step() gate's claim next to the same ratio end to end."""
    claims = {}
    if GATE_BASELINE.exists():
        for gate in json.loads(GATE_BASELINE.read_text()).get("speedups", []):
            claims[(gate["fast"], gate["reference"])] = gate["ratio"]

    def median(name):
        return stats.get(f"slots_per_s.{name}", {}).get("median")

    light = f"@{BATCH_LOAD}"
    pairs = (
        ("meso-events / meso-counts",
         ("step/meso-events/steady-10x10-l10", "step/meso-counts/steady-10x10-l10"),
         ("meso-events", "meso-counts"), (f"meso-events{light}", f"meso-counts{light}")),
        ("meso-vec-b16 / meso-counts", workload.batch_gate,
         None, (BATCH_LABEL, f"meso-counts{light}")),
    )
    print("gate vs user ratios (step() gate claim from benchmarks/baseline_ci.json):")
    for label, gate, summed, light_pair in pairs:
        claim = claims.get(gate)
        parts = [f"  {label:<28} gate {gate[0]} {claim:.3f}x"
                 if claim else f"  {label:<28} gate n/a"]
        if summed and median(summed[0]) and median(summed[1]):
            parts.append(f"end-to-end {median(summed[0]) / median(summed[1]):.3f}x (both loads)")
        if median(light_pair[0]) and median(light_pair[1]):
            parts.append(
                f"{median(light_pair[0]) / median(light_pair[1]):.3f}x (load {BATCH_LOAD})"
            )
        print(" | ".join(parts))


def print_split(tracer: tracing.Tracer) -> None:
    """Self milliseconds per run of every layer, per traced run kind."""
    tags = sorted({tag for tag, _ in tracer.spans if "@" in tag})
    print("layer self time per run (ms), traced rounds:")
    print(f"  {'run':<20}" + "".join(f"{s:>10}" for s in SPLIT_SPANS.values()) + "   largest")
    for tag in tags:
        runs = tracer.spans.get((tag, "runner"), [1])[0] or 1
        values = [
            tracer.spans.get((tag, span), [0, 0])[1] / 1e6 / runs for span in SPLIT_SPANS
        ]
        largest = list(SPLIT_SPANS)[values.index(max(values))]
        print(f"  {tag:<20}" + "".join(f"{v:>10.1f}" for v in values) + f"   {largest}")


# -- entry point -------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process, then one combined table."""
    reports, code = {}, 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))
        code = code or proc.returncode
        if len(lines) >= 2:
            reports[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    print("\nall workloads:")
    print(f"{'metric':<34}" + "".join(f"{n:>16}" for n in reports))
    for metric in wanted_metrics(bool(args.trace)):
        cells = [
            reports[n][1]["metrics"].get(metric, {}).get("value") for n in reports
        ]
        print(f"{metric:<34}" + "".join(
            f"{c:>16.4f}" if c is not None else f"{'-':>16}" for c in cells))
    print(f"{'failed_frac':<34}" + "".join(
        f"{r[0]['perfbench']['failed_frac']:>16.4f}" for r in reports.values()))
    attempted = sum(r[1]["attempted"] for r in reports.values())
    failed = sum(r[1]["failed"] for r in reports.values())
    print(json.dumps({
        "correct": code == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{n}/{m}": v for n, r in reports.items() for m, v in r[1]["metrics"].items()
        },
    }))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="store this run's fingerprints for the seed in expected.json",
    )
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
