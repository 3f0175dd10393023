"""A hand-rolled asyncio HTTP/1.1 server with decorator routing.

The twin service must stay inside the repo's dependency budget
(``numpy`` + ``networkx``), so instead of FastAPI this is ~200 lines
on :func:`asyncio.start_server`: request parsing, ``{param}`` path
routing, JSON bodies, and chunked NDJSON streaming — exactly the
subset the twin's REST surface needs, and nothing else.

Handlers are ``async def handler(request) -> Response``.  Routes are
declared FastAPI-style::

    app = App("twin")

    @app.get("/sessions/{sid}/digest")
    async def digest(request):
        return Response({"digest": ...})

A :class:`Response` whose ``stream`` is an async iterator is sent with
``Transfer-Encoding: chunked``, one chunk per yielded item — that is
how ``/telemetry/stream`` pushes NDJSON snapshots for as long as the
client stays connected.

:class:`HttpError` is the one error class, from request framing up
through the twin's session layers; anything else is a bug: a 500.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import sys
import traceback
from functools import partialmethod
from http import HTTPStatus
from typing import (Any, AsyncIterator, Awaitable, Callable, Dict, List,
                    Optional, Tuple)
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = ["App", "HttpError", "Request", "Response", "start_http_server"]

#: refuse request bodies larger than this (the twin's payloads are
#: small JSON documents; anything bigger is a client bug).
MAX_BODY_BYTES = 8 * 1024 * 1024
_LINE_LIMIT = 64 * 1024


class HttpError(Exception):
    """A client-visible error; the server renders it as JSON."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request."""

    def __init__(self, method: str, path: str, query: Dict[str, str],
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        #: ``{name}`` captures from the matched route pattern.
        self.params: Dict[str, str] = {}

    def json(self) -> Dict[str, Any]:
        """Parse the body as a JSON object; empty bodies parse as
        ``{}``, and anything else is a 400."""
        if not self.body:
            return {}
        try:
            value = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(value, dict):
            raise HttpError(400, f"request body must be a JSON object, "
                                 f"got {type(value).__name__}")
        return value


class Response:
    """JSON by default; pass ``stream`` for chunked NDJSON."""

    def __init__(self, payload: Any = None, status: int = 200,
                 content_type: Optional[str] = None,
                 stream: Optional[AsyncIterator[Any]] = None,
                 body: Optional[bytes] = None):
        self.status = status
        self.stream = stream
        if stream is not None:
            self.content_type = content_type or "application/x-ndjson"
            self.body = b""
        elif body is not None:
            self.content_type = content_type or "text/plain; charset=utf-8"
            self.body = body
        else:
            self.content_type = content_type or "application/json"
            text = json.dumps(payload if payload is not None else {},
                              sort_keys=True)
            self.body = (text + "\n").encode("utf-8")


Handler = Callable[[Request], Awaitable[Response]]
_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile(pattern: str) -> "re.Pattern[str]":
    parts: List[str] = []
    pos = 0
    for match in _PARAM_RE.finditer(pattern):
        parts.append(re.escape(pattern[pos:match.start()]))
        parts.append(f"(?P<{match.group(1)}>[^/]+)")
        pos = match.end()
    parts.append(re.escape(pattern[pos:]))
    return re.compile("^" + "".join(parts) + "$")


class App:
    """Route table plus the per-connection protocol loop."""

    def __init__(self, name: str = "app"):
        self.name = name
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler]] = []

    # -- route declaration ----------------------------------------------
    def route(self, method: str, pattern: str):
        compiled = _compile(pattern)

        def decorate(handler: Handler) -> Handler:
            self._routes.append((method.upper(), compiled, handler))
            return handler
        return decorate

    get = partialmethod(route, "GET")
    post = partialmethod(route, "POST")
    delete = partialmethod(route, "DELETE")

    # -- dispatch --------------------------------------------------------
    async def dispatch(self, request: Request) -> Response:
        allowed: List[str] = []
        for method, compiled, handler in self._routes:
            match = compiled.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            request.params = {k: unquote(v)
                              for k, v in match.groupdict().items()}
            try:
                return await handler(request)
            except HttpError as exc:
                return Response({"error": exc.message}, status=exc.status)
            except Exception:  # noqa: BLE001 — keep the server alive
                traceback.print_exc(file=sys.stderr)
                return Response({"error": "internal server error"},
                                status=500)
        if allowed:
            return Response(
                {"error": f"method {request.method} not allowed "
                          f"(try {sorted(set(allowed))})"}, status=405)
        return Response({"error": f"no route for {request.path}"},
                        status=404)

    # -- connection handling --------------------------------------------
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    await _write_response(
                        writer,
                        Response({"error": exc.message}, status=exc.status),
                        keep_alive=False)
                    # Closing with unread input would reset the
                    # connection before the client reads the error.
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(_drain(reader), 1.0)
                    break
                if request is None:
                    break
                response = await self.dispatch(request)
                keep_alive = (
                    response.stream is None
                    and request.headers.get("connection", "").lower()
                    != "close")
                await _write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.CancelledError):
            # A client gone, or (cancelled) loop teardown: ending
            # quietly here is the orderly-shutdown path.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass


async def _drain(reader: asyncio.StreamReader) -> None:
    while await reader.read(_LINE_LIMIT):
        pass


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Request]:
    try:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        method, target, _version = line.decode("latin-1").split(None, 2)
        split = urlsplit(target)
        headers: Dict[str, str] = {}
        while (raw := await reader.readline()) not in (b"\r\n", b"\n",
                                                       b""):
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError as exc:  # also asyncio's "line over the limit"
        raise HttpError(400, f"malformed request head: {exc}") from None
    length = headers.get("content-length", "0") or "0"
    if not length.isdecimal():
        raise HttpError(400, f"Content-Length must be a non-negative "
                             f"integer, got {length!r}")
    if int(length) > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(int(length))
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method.upper(), unquote(split.path), query,
                   headers, body)


def _head(status: int, content_type: str, extra: str) -> bytes:
    return (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"{extra}\r\n").encode("latin-1")


async def _write_response(writer: asyncio.StreamWriter,
                          response: Response, keep_alive: bool) -> None:
    if response.stream is None:
        connection = "keep-alive" if keep_alive else "close"
        writer.write(_head(
            response.status, response.content_type,
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {connection}\r\n"))
        writer.write(response.body)
        await writer.drain()
        return
    writer.write(_head(
        response.status, response.content_type,
        "Transfer-Encoding: chunked\r\nConnection: close\r\n"))
    await writer.drain()
    try:
        async for item in response.stream:
            if isinstance(item, bytes):
                chunk = item
            elif isinstance(item, str):
                chunk = item.encode("utf-8")
            else:
                chunk = (json.dumps(item, sort_keys=True) + "\n"
                         ).encode("utf-8")
            if not chunk:
                continue
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                         + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        aclose = getattr(response.stream, "aclose", None)
        if aclose is not None:
            try:
                await aclose()
            except Exception:  # noqa: BLE001 — already tearing down
                pass


async def start_http_server(app: App, host: str, port: int
                            ) -> "asyncio.base_events.Server":
    """Bind and return the listening server (``port=0`` picks a free
    port; read it back from ``server.sockets[0].getsockname()``)."""
    return await asyncio.start_server(
        app.handle_connection, host=host, port=port,
        limit=_LINE_LIMIT)
