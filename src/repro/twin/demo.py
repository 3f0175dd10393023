"""The scripted operator scenario, and an embeddable server harness.

``repro twin demo`` runs the acceptance scenario end to end in one
process: start a server, create a session, then act like an operator
— cordon a rack's worth of hosts, let a correlated optics-batch
domain loose, tighten the power contract, heal — and finally ask the
server to replay the action log through the farm and prove the digest
matches bit-for-bit.  The same scenario drives CI's ``twin-smoke``
job against an out-of-process server.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, Optional

from .client import TwinClient
from .server import TwinServer

__all__ = ["ServerHarness", "scripted_scenario", "run_demo"]


class ServerHarness:
    """A twin server on a background thread (tests and the demo)."""

    def __init__(self, workers: int = 0, host: str = "127.0.0.1"):
        self.workers = workers
        self.host = host
        self.port: Optional[int] = None
        #: the server's event loop, once started.
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[TwinServer] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="twin-server", daemon=True)

    # -- lifecycle -------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._server = TwinServer(host=self.host, port=0,
                                  workers=self.workers)
        async with self._server:
            self.port = self._server.port
            self._started.set()
            await self._server.stop_event.wait()

    def start(self) -> "ServerHarness":
        self._thread.start()
        if not self._started.wait(timeout=60):
            raise TimeoutError("twin server failed to start")
        if self._failure is not None:
            raise RuntimeError(
                f"twin server died on startup: {self._failure}")
        return self

    def stop(self) -> None:
        if self.loop is not None and self._server is not None:
            self.loop.call_soon_threadsafe(self._server.request_stop)
        self._thread.join(timeout=60)

    # -- conveniences ----------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def client(self, timeout_s: float = 120.0) -> TwinClient:
        client = TwinClient(self.url, timeout_s=timeout_s)
        client.wait_ready()
        return client

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def scripted_scenario(client: TwinClient, *, scale: str = "small",
                      seed: Any = 0, session_id: str = "demo",
                      jobs: int = 16,
                      say: Optional[Callable[[str], None]] = None
                      ) -> Dict[str, Any]:
    """Cordon -> optics-batch domain -> power-cap tighten -> heal,
    then verify the replay digest.  Returns the transcript."""
    tell = say or (lambda _line: None)
    config = {"kind": "cluster", "scale": scale, "seed": seed,
              "jobs": jobs, "probe_interval_s": 30.0,
              "enforce_cap": True}
    info = client.create_session(config, session_id=session_id)
    tell(f"created session {info['id']} "
         f"(kind={info['kind']}, scale={info['scale']})")

    snapshot = client.advance(session_id, dt_s=120.0)[-1]
    tell(f"t={snapshot['t_s']:.0f}s jobs={snapshot['jobs']} "
         f"draw={snapshot['power']['draw_mw']}MW")

    cordoned = ["p0.b0.h0", "p0.b0.h1"]
    client.action(session_id, {"kind": "cordon", "hosts": cordoned})
    snapshot = client.advance(session_id, dt_s=60.0)[-1]
    tell(f"cordoned {cordoned} -> "
         f"{snapshot['hosts']['cordoned']} hosts out of service")

    domain = {"kind": "optics-batch", "pod": 1, "block": 0,
              "size": 2, "mode": "hard", "seed": seed,
              "at_time_s": 0.0}
    client.action(session_id, {"kind": "inject-fault",
                               "document": {"domains": [domain]}})
    snapshot = client.advance(session_id, dt_s=600.0, steps=3)[-1]
    tell(f"optics-batch domain injected -> faults="
         f"{snapshot['faults']} degraded="
         f"{snapshot['hosts']['degraded']}")

    client.action(session_id, {"kind": "set-power-cap", "frac": 0.5})
    snapshot = client.advance(session_id, dt_s=600.0)[-1]
    tell(f"power cap tightened -> cap={snapshot['power']['cap_mw']}MW "
         f"in_use={snapshot['hosts']['in_use']}")

    client.action(session_id, {"kind": "uncordon", "hosts": cordoned})
    snapshot = client.advance(session_id, dt_s=600.0)[-1]
    tell(f"healed -> cordoned={snapshot['hosts']['cordoned']} "
         f"t={snapshot['t_s']:.0f}s")

    archived = client.telemetry(session_id)
    digest = client.digest(session_id)
    verdict = client.verify_replay(session_id)
    tell(f"digest {digest[:16]}... replay "
         f"{'MATCH' if verdict['match'] else 'MISMATCH'}")
    return {
        "session": session_id,
        "snapshots": len(archived),
        "final": snapshot,
        "digest": digest,
        "replay": verdict,
    }


def run_demo(scale: str = "small", workers: int = 0, seed: Any = 0,
             say: Callable[[str], None] = print) -> int:
    """In-process server + scripted scenario; the CLI entry point."""
    with ServerHarness(workers=workers) as harness:
        client = harness.client()
        say(f"twin demo: server on {harness.url} (workers={workers})")
        transcript = scripted_scenario(client, scale=scale, seed=seed,
                                       say=say)
        client.delete_session(transcript["session"])
    if not transcript["replay"]["match"]:
        say("replay digest MISMATCH — the twin is not deterministic")
        return 1
    say(f"replay digest verified over {transcript['snapshots']} "
        f"boundaries")
    return 0
