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
from typing import Any, Dict, Optional

from .http import App, HttpError, Request, Response, start_http_server
from .manager import SessionManager, TwinError

__all__ = ["build_app", "serve_forever", "TwinServer"]


def _wrap(error: TwinError) -> HttpError:
    return HttpError(error.status, error.message)


def build_app(manager: SessionManager) -> App:
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
        if not isinstance(body, dict):
            raise HttpError(400, "expected an object body")
        try:
            info = await manager.create(body.get("config"),
                                        session_id=body.get("id"))
            pace = body.get("pace")
            if pace:
                await manager.start_pace(
                    info["id"], float(pace.get("dt_s", 60.0)),
                    float(pace.get("interval_s", 1.0)))
        except TwinError as exc:
            raise _wrap(exc)
        return Response(info, status=201)

    @app.get("/sessions/{sid}")
    async def session_info(request: Request) -> Response:
        try:
            return Response(await manager.info(request.params["sid"]))
        except TwinError as exc:
            raise _wrap(exc)

    @app.delete("/sessions/{sid}")
    async def delete_session(request: Request) -> Response:
        try:
            return Response(
                await manager.delete(request.params["sid"]))
        except TwinError as exc:
            raise _wrap(exc)

    @app.post("/sessions/{sid}/advance")
    async def advance(request: Request) -> Response:
        body = request.json()
        try:
            snapshots = await manager.advance(
                request.params["sid"],
                body.get("dt_s", 60.0),
                steps=int(body.get("steps", 1)))
        except TwinError as exc:
            raise _wrap(exc)
        return Response({"snapshots": snapshots,
                         "t_s": snapshots[-1]["t_s"]
                         if snapshots else None})

    @app.post("/sessions/{sid}/actions")
    async def submit_action(request: Request) -> Response:
        try:
            queued = await manager.submit(request.params["sid"],
                                          request.json())
        except TwinError as exc:
            raise _wrap(exc)
        return Response({"queued": queued}, status=201)

    @app.get("/sessions/{sid}/actions")
    async def action_log(request: Request) -> Response:
        try:
            return Response(
                await manager.action_log(request.params["sid"]))
        except TwinError as exc:
            raise _wrap(exc)

    @app.get("/sessions/{sid}/digest")
    async def digest(request: Request) -> Response:
        try:
            value = await manager.digest(request.params["sid"])
        except TwinError as exc:
            raise _wrap(exc)
        return Response({"digest": value})

    @app.post("/sessions/{sid}/replay")
    async def replay(request: Request) -> Response:
        try:
            return Response(
                await manager.verify_replay(request.params["sid"]))
        except TwinError as exc:
            raise _wrap(exc)

    @app.post("/sessions/{sid}/pace")
    async def pace(request: Request) -> Response:
        body = request.json()
        sid = request.params["sid"]
        try:
            if body.get("stop"):
                return Response(await manager.stop_pace(sid))
            return Response(await manager.start_pace(
                sid, float(body.get("dt_s", 60.0)),
                float(body.get("interval_s", 1.0))))
        except TwinError as exc:
            raise _wrap(exc)

    @app.get("/sessions/{sid}/telemetry/stream")
    async def stream(request: Request) -> Response:
        sid = request.params["sid"]
        start = int(request.query.get("start", "0"))
        follow = request.query.get("follow", "0") not in ("0", "",
                                                          "false")
        try:
            manager._handle(sid)
        except TwinError as exc:
            raise _wrap(exc)
        return Response(stream=manager.stream(sid, start=start,
                                              follow=follow))

    @app.get("/sessions/{sid}/telemetry/records")
    async def records(request: Request) -> Response:
        try:
            text = await manager.records_jsonl(request.params["sid"])
        except TwinError as exc:
            raise _wrap(exc)
        return Response(body=text.encode("utf-8"),
                        content_type="application/x-ndjson")

    return app


class TwinServer:
    """Bind/serve/shutdown bundle used by the CLI and the demo."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 workers: int = 0):
        self.host = host
        self.port = port
        self.manager = SessionManager(workers=workers)
        self.app = build_app(self.manager)
        self._server: Optional[Any] = None
        self.stop_event = asyncio.Event()
        self.signaled: Optional[int] = None

    async def start(self) -> None:
        self._server = await start_http_server(self.app, self.host,
                                               self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.shutdown()

    def request_stop(self, signum: Optional[int] = None) -> None:
        self.signaled = signum
        self.stop_event.set()


async def serve_forever(host: str, port: int, workers: int) -> int:
    """Run until SIGINT/SIGTERM; returns the CLI exit code (130 when
    interrupted, 0 on a programmatic stop)."""
    server = TwinServer(host=host, port=port, workers=workers)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_stop, signum)
        except (NotImplementedError, RuntimeError):
            pass
    print(f"twin: listening on http://{server.host}:{server.port} "
          f"(workers={workers})")
    sys.stdout.flush()
    try:
        await server.stop_event.wait()
    finally:
        await server.stop()
    if server.signaled in (signal.SIGINT, signal.SIGTERM):
        print(f"twin: shut down on signal {server.signaled}")
        return 130
    return 0
