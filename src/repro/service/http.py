"""A zero-dependency asyncio HTTP/1.1 micro-core.

The simulation service needs exactly four things from an HTTP layer:
parse a request, route it by method + path template, serialize a JSON
response, and stream NDJSON progress lines.  Pulling in a framework
for that would add the repo's first hard web dependency, so this
module implements the minimal core on ``asyncio.start_server``:

* one request per connection (``Connection: close``) — no keep-alive
  state machine to get wrong; clients of a result server poll, they
  don't pipeline;
* request bodies are read by ``Content-Length`` (chunked request
  bodies are rejected with 501) and capped at
  :data:`MAX_BODY_BYTES`;
* responses either carry a ``Content-Length`` (JSON/plain bodies) or
  stream an async iterator of byte chunks and delimit by closing the
  connection — which is exactly the shape an NDJSON event feed wants;
* routes are declared as ``(method, "/jobs/{job_id}/events")``
  templates; ``{name}`` segments are captured into
  ``request.path_params``.

Handlers are ``async def handler(request) -> Response``; the
``on_request`` wrapper the application passes turns whatever they
raise into a response.  Malformed requests get a 400 here, without
reaching a handler.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ReproError

__all__ = [
    "HttpError",
    "HttpServer",
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "Router",
]

#: Largest accepted request body; a sweep-grid submission is a few KB.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest accepted request line / header line.
_MAX_LINE = 16 * 1024


class HttpError(ReproError):
    """Raise from a handler to produce a clean JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    path_params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """The body decoded as JSON (400 on syntax errors)."""
        if not self.body:
            raise HttpError(400, "request body is empty; expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """A query-string parameter (last occurrence wins)."""
        return self.query.get(name, default)


@dataclass
class Response:
    """An HTTP response: a sized body, or a streamed chunk iterator."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: When set, the response streams these chunks and is delimited by
    #: connection close (``body`` is ignored).
    stream: Optional[AsyncIterator[bytes]] = None

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        """A JSON response (sorted keys, trailing newline for curl)."""
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        merged = {"Content-Type": "application/json; charset=utf-8"}
        merged.update(headers or {})
        return cls(status=status, headers=merged, body=body)

    @classmethod
    def ndjson(cls, chunks: AsyncIterator[bytes]) -> "Response":
        """A streamed NDJSON response (close-delimited)."""
        return cls(
            status=200,
            headers={"Content-Type": "application/x-ndjson; charset=utf-8"},
            stream=chunks,
        )


Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """Method + path-template dispatch (``{name}`` captures a segment)."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, template: str, handler: Handler) -> None:
        """Register a handler for a method and path template."""
        parts = tuple(template.strip("/").split("/")) if template.strip("/") else ()
        self._routes.append((method.upper(), parts, handler))

    def match(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Dict[str, str], bool]:
        """Resolve ``(handler, path_params, path_known)``.

        ``path_known`` distinguishes a 404 (no route shape matches)
        from a 405 (the path exists under another method).
        """
        segments = tuple(path.strip("/").split("/")) if path.strip("/") else ()
        path_known = False
        for route_method, parts, handler in self._routes:
            if len(parts) != len(segments):
                continue
            params: Dict[str, str] = {}
            for part, segment in zip(parts, segments):
                if part.startswith("{") and part.endswith("}"):
                    params[part[1:-1]] = unquote(segment)
                elif part != segment:
                    break
            else:
                path_known = True
                if route_method == method.upper():
                    return handler, params, True
        return None, {}, path_known


class HttpServer:
    """The asyncio server loop around a :class:`Router`.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`port` after :meth:`start`.  ``on_request`` wraps every
    dispatch — the application layer uses it to assign request ids,
    log, and turn handler errors into responses.
    """

    def __init__(
        self,
        router: Router,
        on_request: Callable[[Request, Handler], Awaitable[Response]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.router = router
        self.host = host
        self.port = port
        self.on_request = on_request
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve requests until cancelled, then :meth:`close`.

        ``start()`` already accepts connections, so this only waits.
        ``asyncio.Server.serve_forever`` is not used: on cancellation it
        awaits ``wait_closed()``, which from Python 3.12.1 blocks until
        every open connection has ended, before ``close()`` could end
        them.
        """
        assert self._server is not None, "call start() first"
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.close()

    async def close(self) -> None:
        """Stop listening, end every open connection, then wait for both.

        A connection still streaming (``?follow=1`` on a running job)
        is cancelled and its socket closed here, while the loop runs;
        left alone it would outlive the loop.  The connections end
        before ``wait_closed()``, which waits for them from Python
        3.12.1 on.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                request = await self._read_request(reader)
            except HttpError as error:
                await self._write_response(
                    writer,
                    Response.json({"error": error.message}, error.status),
                )
                return
            if request is None:
                return  # client closed without sending a request
            response = await self._dispatch(request)
            await self._write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # close() ends the connection.  The task returns normally:
            # on Python < 3.12 asyncio logs a traceback for a cancelled
            # connection task.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        handler, params, path_known = self.router.match(
            request.method, request.path
        )
        if handler is None:
            status = 405 if path_known else 404
            return Response.json(
                {"error": f"{HTTPStatus(status).phrase.lower()}: "
                          f"{request.method} {request.path}"},
                status,
            )
        request.path_params = params
        return await self.on_request(request, handler)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        line = await reader.readline()
        if not line.strip():
            return None
        if len(line) > _MAX_LINE:
            raise HttpError(400, "request line too long")
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise HttpError(400, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if len(line) > _MAX_LINE:
                raise HttpError(400, "header line too long")
            if not line or line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise HttpError(501, "chunked request bodies are not supported")
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise HttpError(400, "malformed Content-Length")
            if length < 0 or length > MAX_BODY_BYTES:
                raise HttpError(
                    413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            body = await reader.readexactly(length)
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        return Request(
            method=method.upper(),
            path=unquote(split.path) or "/",
            query=query,
            headers=headers,
            body=body,
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        reason = HTTPStatus(response.status).phrase
        headers = dict(response.headers)
        headers.setdefault("Connection", "close")
        if response.stream is None:
            headers.setdefault("Content-Length", str(len(response.body)))
        head_lines = [f"HTTP/1.1 {response.status} {reason}"]
        head_lines += [f"{name}: {value}" for name, value in headers.items()]
        writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1"))
        if response.stream is None:
            writer.write(response.body)
            await writer.drain()
            return
        async for chunk in response.stream:
            writer.write(chunk)
            await writer.drain()
