"""A small stdlib HTTP client for the simulation service.

Used by the ``repro submit`` / ``repro jobs`` CLI commands and by the
end-to-end tests; kept dependency-free (``urllib``) like the server.
Every method returns the decoded JSON envelope (so callers see
``api_version`` and ``request_id``), and :meth:`iter_events` yields
the NDJSON event stream line by line as it arrives.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional
from urllib.error import HTTPError
from urllib.parse import urlencode
from urllib.request import Request as UrlRequest
from urllib.request import urlopen

from repro.errors import ReproError

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError, RuntimeError):
    """A non-2xx service response (its status and the server's message),
    or a service that cannot be reached (``status`` is ``None``)."""

    def __init__(self, status: Optional[int], message: str):
        super().__init__(
            message if status is None else f"HTTP {status}: {message}"
        )
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to a running ``repro serve`` instance."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    def _open(request: UrlRequest, timeout: Optional[float]):
        """``urlopen`` with every failure raised as :class:`ServiceError`."""
        try:
            return urlopen(request, timeout=timeout)
        except HTTPError as error:
            try:
                body = json.loads(error.read().decode("utf-8"))
                message = body.get("error", str(body))
            except (ValueError, UnicodeDecodeError):
                message = error.reason
            raise ServiceError(error.code, str(message)) from None
        except OSError as error:  # URLError: its reason names the cause
            reason = getattr(error, "reason", error)
            raise ServiceError(None, f"cannot reach {request.full_url}: {reason}") from None

    def _request(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        url = self.base_url + path
        if params:
            url += "?" + urlencode(params)
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = UrlRequest(url, data=data, headers=headers, method=method)
        with self._open(request, self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- endpoints ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Fetch ``GET /healthz``."""
        return self._request("GET", "/healthz")

    def api_info(self) -> Dict[str, Any]:
        """Fetch ``GET /api``."""
        return self._request("GET", "/api")

    def submit(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a raw body: ``{"spec"|"specs"|"grid": ...}``."""
        return self._request("POST", "/jobs", payload=body)

    def submit_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one ``RunSpec.to_dict`` payload; returns the job view."""
        return self._request("POST", "/jobs", payload={"spec": spec})

    def submit_specs(self, specs: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Submit a list of run specs as one job."""
        return self._request("POST", "/jobs", payload={"specs": specs})

    def submit_grid(
        self, grid: Dict[str, Any], shard: Optional[str] = None
    ) -> Dict[str, Any]:
        """Submit a ``SweepGrid.from_dict`` payload; returns the job view.

        ``shard="i/N"`` submits only that deterministic shard of the
        grid (the same partition ``repro sweep --shard`` computes).
        """
        payload: Dict[str, Any] = {"grid": grid}
        if shard is not None:
            payload["shard"] = shard
        return self._request("POST", "/jobs", payload=payload)

    def jobs(self) -> Dict[str, Any]:
        """Fetch the job list."""
        return self._request("GET", "/jobs")

    def job(
        self, job_id: str, wait: Optional[float] = None
    ) -> Dict[str, Any]:
        """Fetch one job view (``wait`` blocks until terminal)."""
        params = {} if wait is None else {"wait": wait}
        return self._request("GET", f"/jobs/{job_id}", params=params)

    def job_results(self, job_id: str, full: bool = False) -> Dict[str, Any]:
        """Fetch a job's completed cells."""
        params = {"full": "1"} if full else {}
        return self._request("GET", f"/jobs/{job_id}/results", params=params)

    def iter_events(
        self, job_id: str, follow: bool = True
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's NDJSON events as they stream in."""
        url = f"{self.base_url}/jobs/{job_id}/events"
        if not follow:
            url += "?follow=0"
        # No read timeout while following: the stream idles between
        # cell completions of long simulations.
        timeout = self.timeout if not follow else None
        with self._open(UrlRequest(url), timeout) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def query(self, **filters: Any) -> Dict[str, Any]:
        """Filter stored cells by spec axes."""
        return self._request("GET", "/results/query", params=filters)

    def aggregate(
        self,
        by: str = "pattern,controller,engine",
        metrics: Optional[str] = None,
        **filters: Any,
    ) -> Dict[str, Any]:
        """Fetch grouped statistics over stored cells."""
        params: Dict[str, Any] = {"by": by}
        if metrics is not None:
            params["metrics"] = metrics
        params.update(filters)
        return self._request("GET", "/results/aggregate", params=params)

    def result(self, hash_prefix: str, full: bool = False) -> Dict[str, Any]:
        """Fetch one stored cell by hash prefix."""
        params = {"full": "1"} if full else {}
        return self._request(
            "GET", f"/results/{hash_prefix}", params=params
        )
