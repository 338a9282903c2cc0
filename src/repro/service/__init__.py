"""Simulation-as-a-service: HTTP submission/query server over the store.

The service turns the repo's batch experiment machinery into a
long-running process: clients POST :class:`~repro.orchestration.spec.RunSpec`
or :class:`~repro.orchestration.spec.SweepGrid` payloads, identical
cells are deduplicated across concurrent clients by spec content hash,
execution happens through :class:`~repro.orchestration.pool.ExperimentPool`
on a background worker, and results are served straight from the shared
:class:`~repro.results.store.ResultStore` (one writer, many read-only
readers; see that module's concurrency notes).

Layers:

* :mod:`repro.service.http` — routing on stdlib ``ThreadingHTTPServer``;
* :mod:`repro.service.jobs` — HTTP-free job manager (dedup registry,
  FIFO worker, progress events);
* :mod:`repro.service.app` — routes + request enveloping, and the
  blocking :func:`serve` entry point used by ``repro serve``;
* :mod:`repro.service.client` — stdlib client used by ``repro submit``
  / ``repro jobs`` and the end-to-end tests.
"""

from repro.service.app import ServiceApp, serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager

__all__ = [
    "Job",
    "JobManager",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "serve",
]
