"""The twin service: REST surface, lifecycle, graceful shutdown.

Routes (all JSON unless noted)::

    GET    /                          service + session inventory
    GET    /healthz                   liveness probe
    GET    /version                   package version
    POST   /sessions                  {"config": {...}, "id"?, "pace"?}
    GET    /sessions                  list sessions
    GET    /sessions/{sid}            session info
    DELETE /sessions/{sid}            tear a session down
    POST   /sessions/{sid}/advance    {"dt_s": 60, "steps"?: 1}
    POST   /sessions/{sid}/actions    one operator action (queued)
    GET    /sessions/{sid}/actions    the append-only action log
    GET    /sessions/{sid}/digest     state digest (sha256)
    POST   /sessions/{sid}/replay     replay log via farm, compare
    POST   /sessions/{sid}/pace       {"dt_s", "interval_s"} | {"stop"}
    GET    /sessions/{sid}/telemetry/stream    NDJSON snapshots
                                      (?start=N&follow=1 to tail)
    GET    /sessions/{sid}/telemetry/records   TelemetryStore JSONL

SIGINT/SIGTERM drain the server: the listener closes, sessions and
shard pools shut down, and :func:`serve_forever` reports which signal
ended it so the CLI can exit 130 — Ctrl-C is an orderly outcome, not
a traceback.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Any, Optional

from .http import App, Request, Response, start_http_server
from .manager import SessionManager

__all__ = ["build_app", "serve_forever", "TwinServer"]


def build_app(manager: SessionManager) -> App:
    """Routes are plain calls: every bad request surfaces as the
    :class:`~repro.twin.http.HttpError` of the layer that checks it."""
    app = App("repro-twin")

    @app.get("/healthz")
    async def healthz(request: Request) -> Response:
        return Response({"ok": True})

    @app.get("/version")
    async def version(request: Request) -> Response:
        from ..cli import package_version
        return Response({"version": package_version()})

    @app.get("/")
    async def index(request: Request) -> Response:
        return Response({"service": "repro-twin",
                         "workers": manager.workers,
                         "sessions": manager.list_sessions()})

    @app.get("/sessions")
    async def list_sessions(request: Request) -> Response:
        return Response({"sessions": manager.list_sessions()})

    @app.post("/sessions")
    async def create_session(request: Request) -> Response:
        body = request.json()
        return Response(await manager.create(
            body.get("config"), session_id=body.get("id"),
            pace=body.get("pace")), status=201)

    @app.get("/sessions/{sid}")
    async def session_info(request: Request) -> Response:
        return Response(await manager.info(request.params["sid"]))

    @app.delete("/sessions/{sid}")
    async def delete_session(request: Request) -> Response:
        return Response(await manager.delete(request.params["sid"]))

    @app.post("/sessions/{sid}/advance")
    async def advance(request: Request) -> Response:
        body = request.json()
        snapshots = await manager.advance(
            request.params["sid"], body.get("dt_s", 60.0),
            steps=body.get("steps", 1))
        return Response({"snapshots": snapshots,
                         "t_s": snapshots[-1]["t_s"]
                         if snapshots else None})

    @app.post("/sessions/{sid}/actions")
    async def submit_action(request: Request) -> Response:
        queued = await manager.submit(request.params["sid"],
                                      request.json())
        return Response({"queued": queued}, status=201)

    @app.get("/sessions/{sid}/actions")
    async def action_log(request: Request) -> Response:
        return Response(await manager.action_log(request.params["sid"]))

    @app.get("/sessions/{sid}/digest")
    async def digest(request: Request) -> Response:
        return Response(
            {"digest": await manager.digest(request.params["sid"])})

    @app.post("/sessions/{sid}/replay")
    async def replay(request: Request) -> Response:
        return Response(
            await manager.verify_replay(request.params["sid"]))

    @app.post("/sessions/{sid}/pace")
    async def pace(request: Request) -> Response:
        body = request.json()
        if body.get("stop"):
            return Response(await manager.stop_pace(request.params["sid"]))
        return Response(
            await manager.start_pace(request.params["sid"], body))

    @app.get("/sessions/{sid}/telemetry/stream")
    async def stream(request: Request) -> Response:
        follow = request.query.get("follow", "0") not in ("0", "",
                                                          "false")
        return Response(stream=manager.stream(
            request.params["sid"], start=request.query.get("start", "0"),
            follow=follow))

    @app.get("/sessions/{sid}/telemetry/records")
    async def records(request: Request) -> Response:
        text = await manager.records_jsonl(request.params["sid"])
        return Response(body=text.encode("utf-8"),
                        content_type="application/x-ndjson")

    return app


class TwinServer:
    """Bind/serve/shutdown bundle used by the CLI and the demo:
    ``async with`` binds, and its exit closes the listener and shuts
    the sessions down."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 workers: int = 0):
        self.host = host
        self.port = port
        self.manager = SessionManager(workers=workers)
        self.app = build_app(self.manager)
        self._server: Optional[Any] = None
        self.stop_event = asyncio.Event()
        self.signaled: Optional[int] = None

    async def __aenter__(self) -> "TwinServer":
        self._server = await start_http_server(self.app, self.host,
                                               self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self._server.close()
        await self._server.wait_closed()
        await self.manager.shutdown()

    def request_stop(self, signum: Optional[int] = None) -> None:
        self.signaled = signum
        self.stop_event.set()


async def serve_forever(host: str, port: int, workers: int) -> int:
    """Run until SIGINT/SIGTERM; returns the CLI exit code (130 when
    interrupted, 0 on a programmatic stop).  Call it on the main
    thread of a POSIX process: the signal handlers are the point."""
    async with TwinServer(host=host, port=port,
                          workers=workers) as server:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_stop, signum)
        print(f"twin: listening on http://{server.host}:{server.port} "
              f"(workers={workers})")
        sys.stdout.flush()
        await server.stop_event.wait()
    if server.signaled in (signal.SIGINT, signal.SIGTERM):
        print(f"twin: shut down on signal {server.signaled}")
        return 130
    return 0
