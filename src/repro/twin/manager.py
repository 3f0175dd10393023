"""Async façade over local or sharded sessions, plus streaming.

The HTTP layer talks only to :class:`SessionManager`, and every
failure leaves it as an :class:`~repro.twin.http.HttpError`.  With
``workers=0`` sessions live in-process, in the manager's own table;
with ``workers=N`` every session is pinned to a shard worker process
(:mod:`.shard`) and commands cross the process boundary as JSON-pure
dicts.  Both run one dispatch, :func:`~repro.twin.shard.shard_call`,
handed the table it acts on.  Either way the manager serializes
commands per session with an ``asyncio.Lock`` — the action log is
append-only and ordered, which is what the replay contract quantifies
over — and keeps the archive of boundary snapshots that
``/telemetry/stream`` subscribers replay and then follow live.

Replay verification runs the session's ``(config, action_log)`` as a
``twin-replay`` :class:`~repro.farm.spec.TaskSpec` through a
one-worker :class:`~repro.farm.executor.FarmExecutor` in a worker
thread — the farm's one way to run a task, with no pool and no cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from .config import TwinConfig
from .http import HttpError
from .session import TwinSession
from .shard import ShardPool, shard_call

__all__ = ["SessionManager"]


class _SessionHandle:
    """Parent-side bookkeeping for one session."""

    def __init__(self, config: Dict[str, Any]):
        self.config = config
        self.lock = asyncio.Lock()
        self.snapshots: List[Dict[str, Any]] = []
        self.subscribers: List[asyncio.Queue] = []
        #: the pacing task and the event that asks it to stop
        self.pacer: Optional[Tuple[asyncio.Task, asyncio.Event]] = None
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
                self._local_executor, shard_call, payload, self._local)
        if not result["ok"]:
            raise HttpError(result["status"], result["error"])
        return result["value"]

    def _handle(self, session_id: str) -> _SessionHandle:
        handle = self._handles.get(session_id)
        if handle is None:
            raise HttpError(404, f"no session {session_id!r}")
        return handle

    # -- lifecycle -------------------------------------------------------
    async def create(self, config_params: Any,
                     session_id: Any = None, pace: Any = None
                     ) -> Dict[str, Any]:
        """Create a session (paced from the start if *pace* is given);
        every field is checked before anything is created."""
        try:
            config = TwinConfig.from_params(
                {} if config_params is None else config_params)
        except (TypeError, ValueError) as exc:  # TypeError: ill-typed field
            raise HttpError(400, str(exc))
        if pace:
            _pace_args(pace)
        if session_id is None:
            self._counter += 1
            session_id = f"s{self._counter}"
        if not isinstance(session_id, str) or not session_id:
            raise HttpError(400, f"session id must be a non-empty "
                                 f"string, got {session_id!r}")
        if session_id in self._handles:
            raise HttpError(409, f"session {session_id!r} already "
                                 f"exists")
        handle = _SessionHandle(config.to_params())
        self._handles[session_id] = handle
        try:
            async with handle.lock:
                info = await self._call(session_id, {
                    "op": "create", "config": config.to_params()})
        except HttpError:
            del self._handles[session_id]
            raise
        if self._pool is not None:
            info["shard"] = self._pool.shard_of(session_id)
        if pace:
            await self.start_pace(session_id, pace)
        return info

    async def delete(self, session_id: str) -> Dict[str, Any]:
        handle = self._handle(session_id)
        await self.stop_pace(session_id)
        async with handle.lock:
            result = await self._call(session_id, {"op": "delete"})
        _close(handle)
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
    async def start_pace(self, session_id: str,
                         pace: Any) -> Dict[str, Any]:
        """(Re)start pacing from a ``{"dt_s", "interval_s"}`` object."""
        handle = self._handle(session_id)
        dt_s, interval_s = _pace_args(pace)
        await self.stop_pace(session_id)
        stop = asyncio.Event()

        async def _pace() -> None:
            # The pacer stops only between steps: a step sent to the
            # session always runs to its end there, so it is archived
            # too, or the clock would pass the last archived boundary.
            with contextlib.suppress(HttpError):
                while not stop.is_set():
                    await self.advance(session_id, dt_s)
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(stop.wait(), interval_s)

        handle.pacer = (asyncio.get_running_loop().create_task(_pace()),
                        stop)
        return {"paced": True, "dt_s": dt_s, "interval_s": interval_s}

    async def stop_pace(self, session_id: str) -> Dict[str, Any]:
        """Stop pacing; returns once the step in flight, if any, is
        archived."""
        handle = self._handle(session_id)
        if handle.pacer is not None:
            pacer, stop = handle.pacer
            stop.set()
            await pacer
            handle.pacer = None
        return {"paced": False}

    # -- streaming -------------------------------------------------------
    def stream(self, session_id: str, start: Any = 0,
               follow: bool = False) -> AsyncIterator[Dict[str, Any]]:
        """Check the session and *start* before any header goes out;
        the iterator serves the archive, then (*follow*) new ones."""
        handle = self._handle(session_id)
        try:
            index = max(0, int(start))
        except (TypeError, ValueError):
            raise HttpError(400, f"start must be an integer, "
                                 f"got {start!r}") from None
        return self._serve(handle, index, follow)

    async def _serve(self, handle: _SessionHandle, index: int,
                     follow: bool) -> AsyncIterator[Dict[str, Any]]:
        queue: Optional[asyncio.Queue] = None
        if follow:
            queue = asyncio.Queue()
            handle.subscribers.append(queue)
        try:
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
            await self.stop_pace(session_id)
            _close(self._handles[session_id])
        if self._pool is not None:
            self._pool.shutdown()
        if self._local_executor is not None:
            self._local_executor.shutdown(wait=False,
                                          cancel_futures=True)


def _close(handle: _SessionHandle) -> None:
    """End the session's streams: followers see the end of the feed."""
    handle.closed = True
    for queue in handle.subscribers:
        queue.put_nowait(None)


def _replay_via_farm(log: Dict[str, Any]) -> Dict[str, Any]:
    """Run the registered ``twin-replay`` task in this thread through
    the farm, with no cache; a failed replay is a 500."""
    from ..farm import FarmExecutor, TaskSpec
    spec = TaskSpec(kind="twin-replay",
                    params={"config": log["config"],
                            "action_log": log["action_log"]})
    result, = FarmExecutor().run([spec]).results
    if not result.ok:
        raise HttpError(500, f"replay failed: "
                             f"{result.error.splitlines()[0]}")
    return result.result


def _pace_args(pace: Any) -> Tuple[float, float]:
    """Coerce and range-check a pace object's ``dt_s``/``interval_s``."""
    try:
        dt_s = float(pace.get("dt_s", 60.0))
        interval_s = float(pace.get("interval_s", 1.0))
    except (AttributeError, TypeError, ValueError, OverflowError):
        dt_s = interval_s = math.nan      # not an object, or not numbers
    if not 0.0 < dt_s < math.inf or not 0.0 <= interval_s < math.inf:
        raise HttpError(400, "pace needs an object with finite numbers "
                             "dt_s > 0 and interval_s >= 0")
    return dt_s, interval_s
