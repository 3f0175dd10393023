"""Session sharding across worker processes.

A live :class:`~repro.twin.session.TwinSession` cannot be pickled —
it is a web of generators pinned to a DES clock — so instead of
shipping sessions around, each session is *pinned* to one worker
process for its whole life.  A :class:`ShardPool` keeps ``N``
single-worker pools (the same ``ProcessPoolExecutor`` machinery the
farm executor builds on); a session's shard is a stable hash of its
id, and every command for that session is executed in its shard via
the module-level :func:`shard_call` entry point, against that worker's
session table.  In-process sessions (``SessionManager(workers=0)``)
run the same :func:`shard_call` against their manager's own table.

Commands and results are JSON-pure dicts, so the parent never holds
live simulation state — which is also what makes the digest-isolation
guarantee easy to reason about: two sessions interact only if they
share a worker, and the only process-global state the stacks touch
(flow-id counters) is reset at every entry that mints flows.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List

from .actions import ActionError
from .config import TwinConfig
from .session import TwinSession

__all__ = ["ShardPool", "shard_call"]

#: the session table of one shard worker process.
_SESSIONS: Dict[str, TwinSession] = {}


class _NotFound(Exception):
    pass


def _dispatch(payload: Dict[str, Any],
              sessions: Dict[str, TwinSession]) -> Any:
    op = payload["op"]
    session_id = payload.get("id", "")
    if op == "create":
        if session_id in sessions:
            raise ActionError(f"session {session_id!r} already exists")
        config = TwinConfig.from_params(payload["config"])
        session = TwinSession(config, session_id=session_id)
        sessions[session_id] = session
        return session.info()
    if op == "delete":
        sessions.pop(session_id, None)
        return {"deleted": session_id}
    session = sessions.get(session_id)
    if session is None:
        raise _NotFound(f"no session {session_id!r} in this shard")
    if op == "info":
        return session.info()
    if op == "submit":
        return session.submit(payload["action"])
    if op == "advance":
        try:
            steps = int(payload.get("steps", 1))
        except (TypeError, OverflowError):
            steps = 0
        if steps < 1:
            raise ActionError(f"steps must be an integer >= 1, got "
                              f"{payload.get('steps')!r}")
        return [session.advance(payload["dt_s"]) for _ in range(steps)]
    if op == "digest":
        return session.digest()
    if op == "log":
        return {"config": session.config.to_params(),
                "action_log": session.action_log}
    if op == "records":
        return session.store.to_jsonl()
    raise ValueError(f"unknown shard op {op!r}")


def shard_call(payload: Dict[str, Any],
               sessions: Dict[str, TwinSession] = _SESSIONS
               ) -> Dict[str, Any]:
    """Top-level picklable command entry against *sessions* (by
    default this worker's table); never raises across the process
    boundary — errors come back as tagged results."""
    try:
        return {"ok": True, "value": _dispatch(payload, sessions)}
    except ValueError as exc:  # ActionError included
        return {"ok": False, "status": 400, "error": str(exc)}
    except _NotFound as exc:
        return {"ok": False, "status": 404, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 — keep the shard alive
        return {"ok": False, "status": 500,
                "error": f"{type(exc).__name__}: {exc}"}


class ShardPool:
    """``workers`` single-worker process pools, one session table each."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pools: List[ProcessPoolExecutor] = [
            ProcessPoolExecutor(max_workers=1) for _ in range(workers)]

    def shard_of(self, session_id: str) -> int:
        """Stable shard assignment (never the builtin ``hash``)."""
        digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()
        return int(digest, 16) % self.workers

    def submit(self, session_id: str, payload: Dict[str, Any]):
        """Queue one command on the session's shard; returns the
        ``concurrent.futures.Future`` of its tagged result."""
        pool = self._pools[self.shard_of(session_id)]
        return pool.submit(shard_call, payload)

    def shutdown(self) -> None:
        # Joined now: CPython's exit hook can race a pool's closing
        # wake-up pipe and print a traceback into the server log.
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
