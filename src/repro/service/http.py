"""A zero-dependency HTTP/1.1 layer on the standard library's threaded server.

:class:`HttpServer` is a :class:`http.server.ThreadingHTTPServer`: the
standard library parses each request and runs each connection on its
own thread.  One request per connection (``Connection: close``); a
response is sized, or streams byte chunks delimited by the close (an
NDJSON event feed).  Bodies are capped at :data:`MAX_BODY_BYTES`
(413); a chunked body is a 501, a request line over 16 KB a 400, more
than 100 header lines a 431, and a connection past
:data:`MAX_CONNECTIONS` a 503 with ``Retry-After``, answered without a
thread.  Routes are ``(method, "/jobs/{job_id}/events")`` templates.

Handlers are plain functions ``handler(request) -> Response``; the
application's ``on_request`` wrapper turns what they raise into a
response.  A handler that blocks (a long poll, a followed stream)
checks :attr:`HttpServer.stopping`, which :meth:`HttpServer.close`
sets before it joins the handler threads, and
:meth:`Request.peer_closed` between short waits.
"""

from __future__ import annotations

import json
import select
import socket
import threading
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ReproError

__all__ = [
    "HttpError",
    "HttpServer",
    "MAX_BODY_BYTES",
    "MAX_CONNECTIONS",
    "Request",
    "Response",
    "Router",
]

#: Largest accepted request body; a sweep-grid submission is a few KB.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Most connections handled at once, one thread each; one more is
#: refused with 503 instead of starting a thread without limit.
MAX_CONNECTIONS = 64

#: Largest accepted request line.
_MAX_LINE = 16 * 1024

#: Seconds one socket read or write may block before the connection is
#: dropped, so a stalled client cannot hold its thread for ever.
_SOCKET_TIMEOUT = 60.0


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
    #: The client's socket; the server always sets it, and only
    #: :meth:`peer_closed` reads it.
    connection: Optional[socket.socket] = field(default=None, repr=False)

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

    def flag(self, name: str, default: bool) -> bool:
        """A yes/no query parameter: ``0``, ``false`` and ``no`` are no."""
        value = self.param(name)
        if value is None:
            return default
        return value not in ("0", "false", "no")

    def peer_closed(self) -> bool:
        """Whether the client has closed its end; never blocks.

        A handler that waits (a long poll, a followed stream) checks
        this between its waits: a write alone notices a dropped client
        only when the next one fails.  Bytes sent after the request are
        read and dropped (one request per connection).  A client that
        only half-closed its sending side reads as closed too.
        """
        readable, _, _ = select.select([self.connection], [], [], 0)
        if not readable:
            return False
        try:
            return not self.connection.recv(4096)
        except OSError:
            return True


@dataclass
class Response:
    """An HTTP response: a sized body, or a streamed chunk iterator."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: When set, the response streams these chunks after ``body`` and is
    #: delimited by connection close.
    stream: Optional[Iterator[bytes]] = None

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
    def ndjson(cls, chunks: Iterator[bytes]) -> "Response":
        """A streamed NDJSON response (close-delimited)."""
        return cls(
            status=200,
            headers={"Content-Type": "application/x-ndjson; charset=utf-8"},
            stream=chunks,
        )

    def head(self) -> bytes:
        """The ``HTTP/1.1`` status line and headers, blank line included."""
        headers = dict(self.headers)
        headers.setdefault("Connection", "close")
        if self.stream is None:
            headers.setdefault("Content-Length", str(len(self.body)))
        lines = [f"HTTP/1.1 {self.status} {HTTPStatus(self.status).phrase}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


Handler = Callable[[Request], Response]


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


class HttpServer(ThreadingHTTPServer):
    """The threaded server around a :class:`Router`.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`port` after :meth:`start`.  ``on_request`` wraps every
    dispatch — the application layer uses it to assign request ids,
    log, and turn handler errors into responses.
    """

    #: The listen backlog; ``socketserver``'s default of 5 would drop a
    #: burst of concurrent clients.
    request_queue_size = 128
    #: ``server_close()`` joins only non-daemon handler threads.
    daemon_threads = False

    def __init__(
        self,
        router: Router,
        on_request: Callable[[Request, Handler], Response],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if ":" in host:
            self.address_family = socket.AF_INET6
        super().__init__((host, port), _RequestHandler, bind_and_activate=False)
        self.router = router
        self.on_request = on_request
        self.host = host
        self.port = port
        #: Set by :meth:`close`; handlers that block return when it is.
        self.stopping = threading.Event()
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._accepting: Optional[threading.Thread] = None

    def start(self) -> None:
        """Bind, listen, and accept connections on a background thread."""
        self.server_bind()
        self.server_activate()
        self.port = self.server_address[1]
        self._accepting = threading.Thread(
            target=self.serve_forever,
            args=(0.05,),  # seconds between checks for shutdown()
            name="repro-http-accept",
            daemon=True,
        )
        self._accepting.start()

    def close(self) -> None:
        """Stop accepting, end every open connection, join their threads.

        A connection still sending its request has its read side shut,
        so its handler reads end-of-file at once.
        """
        self.stopping.set()
        if self._accepting is not None:
            self.shutdown()
        with self._open_lock:
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        self.server_close()

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a new thread, or refuse it with 503."""
        with self._open_lock:
            admitted = len(self._open) < MAX_CONNECTIONS
            if admitted:
                self._open.add(request)
        if admitted:
            super().process_request(request, client_address)
            return
        busy = _error(503, f"more than {MAX_CONNECTIONS} open connections")
        busy.headers["Retry-After"] = "1"
        try:
            request.sendall(busy.head() + busy.body)
        except OSError:
            pass
        self.shutdown_request(request)

    def shutdown_request(self, request) -> None:
        """Close one connection and free its place."""
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)


def _error(status: int, message: str) -> Response:
    return Response.json({"error": message}, status)


class _RequestHandler(BaseHTTPRequestHandler):
    """One connection: parse one request, dispatch it, write the response."""

    server: HttpServer
    protocol_version = "HTTP/1.1"  # answers ``Expect: 100-continue``
    timeout = _SOCKET_TIMEOUT
    #: A small response goes out at once, not after the client's ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Serve exactly one request; the standard parser reads headers."""
        try:
            self.raw_requestline = self.rfile.readline(_MAX_LINE + 1)
            if len(self.raw_requestline) > _MAX_LINE:
                self.send_error(400, "request line too long")
            elif self.raw_requestline and self.parse_request():
                self._write(self._response())
        except OSError:
            pass  # the client went away or stalled; nothing to answer

    def send_error(self, code, message=None, explain=None) -> None:
        """Every rejection, the standard parser's too, as a JSON error."""
        self._write(_error(code, message or HTTPStatus(code).phrase))

    def log_message(self, format, *args) -> None:
        """Silent: the application logs every request as JSON."""

    def _response(self) -> Response:
        headers = {name.lower(): value for name, value in self.headers.items()}
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return _error(501, "chunked request bodies are not supported")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return _error(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            return _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        split = urlsplit(self.path)
        request = Request(
            method=self.command.upper(),
            path=unquote(split.path) or "/",
            query=dict(parse_qsl(split.query, keep_blank_values=True)),
            headers=headers,
            body=self.rfile.read(length),
            connection=self.connection,
        )
        handler, request.path_params, path_known = self.server.router.match(
            request.method, request.path
        )
        if handler is None:
            status = 405 if path_known else 404
            phrase = HTTPStatus(status).phrase.lower()
            return _error(status, f"{phrase}: {request.method} {request.path}")
        return self.server.on_request(request, handler)

    def _write(self, response: Response) -> None:
        self.wfile.write(response.head() + response.body)
        for chunk in response.stream or ():
            self.wfile.write(chunk)
