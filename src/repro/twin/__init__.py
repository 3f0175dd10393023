"""The digital twin: persistent simulated datacenters as a service.

Everything else in this repo is a batch library — build a world, run
it, print a report, exit.  The twin turns the same stacks into an
*operated* system, the way the paper's infrastructure actually runs:
an asyncio HTTP service (:mod:`.server`, hand-rolled on stdlib —
:mod:`.http`) hosts live sessions (:mod:`.session`) that advance in
explicit virtual-time steps, stream telemetry snapshots as NDJSON,
and accept validated operator actions (:mod:`.actions`) applied at
the next boundary.  Sessions shard across worker processes
(:mod:`.shard`); every session keeps an append-only action log whose
farm-executed replay is bit-identical to the live state — `==`, the
repo-wide determinism bar.
"""

from .client import TwinClient, TwinClientError
from .config import TwinConfig
from .demo import ServerHarness, run_demo, scripted_scenario
from .manager import SessionManager
from .server import TwinServer, build_app, serve_forever
from .session import TwinSession, replay, session_digest

__all__ = [
    "SessionManager",
    "ServerHarness",
    "TwinClient",
    "TwinClientError",
    "TwinConfig",
    "TwinServer",
    "TwinSession",
    "build_app",
    "replay",
    "run_demo",
    "scripted_scenario",
    "serve_forever",
    "session_digest",
]
