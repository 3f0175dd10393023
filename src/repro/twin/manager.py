"""Async façade over local or sharded sessions, plus streaming.

The HTTP layer talks only to :class:`SessionManager`.  With
``workers=0`` sessions live in-process (handy for tests and the demo);
with ``workers=N`` every session is pinned to a shard worker process
(:mod:`.shard`) and all commands cross the process boundary as
JSON-pure dicts.  Either way the manager serializes commands per
session with an ``asyncio.Lock`` — the action log is append-only and
ordered, which is what the replay contract quantifies over — and keeps
the archive of boundary snapshots that ``/telemetry/stream``
subscribers replay and then follow live.

Replay verification goes through the farm: the session's
``(config, action_log)`` becomes a ``twin-replay``
:class:`~repro.farm.spec.TaskSpec` executed by a one-worker
:class:`~repro.farm.executor.FarmExecutor` — the same content-hashed
``execute_spec`` choke point every other subsystem replays through.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Dict, List, Optional

from .actions import ActionError
from .config import TwinConfig
from .session import TwinSession
from .shard import ShardPool, shard_call

__all__ = ["SessionManager", "TwinError"]


class TwinError(Exception):
    """Manager-level failure with an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _SessionHandle:
    """Parent-side bookkeeping for one session."""

    def __init__(self, session_id: str, config: Dict[str, Any]):
        self.session_id = session_id
        self.config = config
        self.lock = asyncio.Lock()
        self.snapshots: List[Dict[str, Any]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.pacer: Optional[asyncio.Task] = None
        self.closed = False


class SessionManager:
    def __init__(self, workers: int = 0):
        self.workers = int(workers)
        self._pool = ShardPool(self.workers) if self.workers > 0 \
            else None
        # One thread for all in-process sessions: they share this
        # process's globals (flow-id counter), so their commands must
        # never interleave.  Sharded sessions get real concurrency.
        self._local_executor = None if self._pool is not None else \
            ThreadPoolExecutor(max_workers=1,
                               thread_name_prefix="twin-local")
        self._local: Dict[str, TwinSession] = {}
        self._handles: Dict[str, _SessionHandle] = {}
        self._counter = 0

    # -- command plumbing ------------------------------------------------
    async def _call(self, session_id: str,
                    payload: Dict[str, Any]) -> Any:
        payload = dict(payload, id=session_id)
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            future = self._pool.submit(session_id, payload)
            result = await asyncio.wrap_future(future)
        else:
            # In-process sessions still run off the event loop so a
            # 64K-scale advance cannot stall concurrent requests.
            result = await loop.run_in_executor(
                self._local_executor, shard_call,
                self._attach_local(payload))
        if not result["ok"]:
            raise TwinError(result.get("status", 500), result["error"])
        return result["value"]

    def _attach_local(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # workers=0 reuses the shard dispatch table against this
        # process's session dict — one code path, two deployments.
        from . import shard
        shard._SESSIONS = self._local
        return payload

    def _handle(self, session_id: str) -> _SessionHandle:
        handle = self._handles.get(session_id)
        if handle is None:
            raise TwinError(404, f"no session {session_id!r}")
        return handle

    # -- lifecycle -------------------------------------------------------
    async def create(self, config_params: Optional[Dict[str, Any]],
                     session_id: Optional[str] = None
                     ) -> Dict[str, Any]:
        try:
            config = TwinConfig.from_params(config_params or {})
        except (ActionError, ValueError) as exc:
            raise TwinError(400, str(exc))
        if session_id is None:
            self._counter += 1
            session_id = f"s{self._counter}"
        if session_id in self._handles:
            raise TwinError(409, f"session {session_id!r} already "
                                 f"exists")
        handle = _SessionHandle(session_id, config.to_params())
        self._handles[session_id] = handle
        try:
            async with handle.lock:
                info = await self._call(session_id, {
                    "op": "create", "config": config.to_params()})
        except TwinError:
            del self._handles[session_id]
            raise
        if self._pool is not None:
            info["shard"] = self._pool.shard_of(session_id)
        return info

    async def delete(self, session_id: str) -> Dict[str, Any]:
        handle = self._handle(session_id)
        await self.stop_pace(session_id)
        async with handle.lock:
            result = await self._call(session_id, {"op": "delete"})
        handle.closed = True
        for queue in handle.subscribers:
            queue.put_nowait(None)
        del self._handles[session_id]
        return result

    def list_sessions(self) -> List[Dict[str, Any]]:
        return [{"id": session_id,
                 "config": handle.config,
                 "snapshots": len(handle.snapshots),
                 "paced": handle.pacer is not None}
                for session_id, handle in sorted(self._handles.items())]

    # -- session commands ------------------------------------------------
    async def info(self, session_id: str) -> Dict[str, Any]:
        self._handle(session_id)
        return await self._call(session_id, {"op": "info"})

    async def submit(self, session_id: str,
                     action: Any) -> Dict[str, Any]:
        handle = self._handle(session_id)
        async with handle.lock:
            return await self._call(
                session_id, {"op": "submit", "action": action})

    async def advance(self, session_id: str, dt_s: float,
                      steps: int = 1) -> List[Dict[str, Any]]:
        handle = self._handle(session_id)
        async with handle.lock:
            snapshots = await self._call(session_id, {
                "op": "advance", "dt_s": dt_s, "steps": steps})
        handle.snapshots.extend(snapshots)
        for snapshot in snapshots:
            for queue in handle.subscribers:
                queue.put_nowait(snapshot)
        return snapshots

    async def digest(self, session_id: str) -> str:
        handle = self._handle(session_id)
        async with handle.lock:
            return await self._call(session_id, {"op": "digest"})

    async def action_log(self, session_id: str) -> Dict[str, Any]:
        handle = self._handle(session_id)
        async with handle.lock:
            return await self._call(session_id, {"op": "log"})

    async def records_jsonl(self, session_id: str) -> str:
        self._handle(session_id)
        return await self._call(session_id, {"op": "records"})

    # -- replay verification ---------------------------------------------
    async def verify_replay(self, session_id: str) -> Dict[str, Any]:
        """Replay the session's action log through the farm and compare
        digests — the acceptance bar, served as an endpoint."""
        handle = self._handle(session_id)
        async with handle.lock:
            log = await self._call(session_id, {"op": "log"})
            live = await self._call(session_id, {"op": "digest"})
        loop = asyncio.get_running_loop()
        replayed = await loop.run_in_executor(
            None, _replay_via_farm, log)
        return {"live_digest": live,
                "replay_digest": replayed["digest"],
                "match": live == replayed["digest"]}

    # -- paced advancement -----------------------------------------------
    async def start_pace(self, session_id: str, dt_s: float,
                         interval_s: float) -> Dict[str, Any]:
        handle = self._handle(session_id)
        if not dt_s > 0 or not interval_s >= 0:
            raise TwinError(400, "pace needs dt_s > 0 and "
                                 "interval_s >= 0")
        await self.stop_pace(session_id)

        async def _pace() -> None:
            try:
                while True:
                    await self.advance(session_id, dt_s)
                    await asyncio.sleep(interval_s)
            except (asyncio.CancelledError, TwinError):
                pass

        handle.pacer = asyncio.get_running_loop().create_task(_pace())
        return {"paced": True, "dt_s": dt_s, "interval_s": interval_s}

    async def stop_pace(self, session_id: str) -> Dict[str, Any]:
        handle = self._handle(session_id)
        if handle.pacer is not None:
            handle.pacer.cancel()
            try:
                await handle.pacer
            except asyncio.CancelledError:
                pass
            handle.pacer = None
        return {"paced": False}

    # -- streaming -------------------------------------------------------
    async def stream(self, session_id: str, start: int = 0,
                     follow: bool = False
                     ) -> AsyncIterator[Dict[str, Any]]:
        handle = self._handle(session_id)
        queue: Optional[asyncio.Queue] = None
        if follow:
            queue = asyncio.Queue()
            handle.subscribers.append(queue)
        try:
            index = max(0, int(start))
            while index < len(handle.snapshots):
                yield handle.snapshots[index]
                index += 1
            if queue is None:
                return
            while not handle.closed:
                snapshot = await queue.get()
                if snapshot is None:
                    return
                # Skip anything already served from the archive.
                if snapshot.get("step", index) < index - 1:
                    continue
                yield snapshot
                index += 1
        finally:
            if queue is not None and queue in handle.subscribers:
                handle.subscribers.remove(queue)

    # -- teardown --------------------------------------------------------
    async def shutdown(self) -> None:
        for session_id in list(self._handles):
            handle = self._handles[session_id]
            await self.stop_pace(session_id)
            handle.closed = True
            for queue in handle.subscribers:
                queue.put_nowait(None)
        if self._pool is not None:
            self._pool.shutdown()
        if self._local_executor is not None:
            self._local_executor.shutdown(wait=False,
                                          cancel_futures=True)


def _replay_via_farm(log: Dict[str, Any]) -> Dict[str, Any]:
    """Run the registered ``twin-replay`` task on a one-worker farm."""
    from ..farm import tasks as _tasks  # noqa: F401 — registry import
    from ..farm.executor import FarmExecutor
    from ..farm.spec import TaskSpec
    spec = TaskSpec(kind="twin-replay",
                    params={"config": log["config"],
                            "action_log": log["action_log"]})
    report = FarmExecutor(workers=1, use_cache=False).run([spec])
    result = report.results[0]
    if result.status != "ok":
        raise TwinError(500, f"replay failed: {result.error}")
    return result.result
