"""Digital-twin session throughput at the 64K-GPU preset.

One persistent :class:`~repro.twin.session.TwinSession` over the
8,192-host 64K fabric is driven through a scripted operator loop —
cordon/uncordon pairs applied at every boundary — and then replayed
from its action log.  The point records how fast the twin absorbs
operator actions and cuts telemetry snapshots at paper scale, and
asserts the replay lands on the live digest bit-for-bit, into
``BENCH_twin.json`` at the repo root so the trajectory is tracked run
over run.
"""

import pathlib
import time

from repro.twin import TwinConfig, TwinSession, replay

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_twin.json"

_BOUNDARIES = 10
_DT_S = 60.0


def _measure() -> dict:
    config = TwinConfig(kind="cluster", scale="64k", jobs=32,
                        probe_interval_s=3600.0)
    t0 = time.perf_counter()
    session = TwinSession(config)
    build_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    n_actions = 0
    for step in range(_BOUNDARIES):
        hosts = [f"p0.b0.h{2 * step}", f"p0.b0.h{2 * step + 1}"]
        session.submit({"kind": "cordon", "hosts": hosts})
        session.submit({"kind": "uncordon", "hosts": hosts})
        n_actions += 2
        session.advance(_DT_S)
    drive_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    replayed = replay(config, session.action_log)
    replay_s = time.perf_counter() - t2

    return {
        "scale": "64k",
        "hosts": session.stack.total_hosts,
        "boundaries": _BOUNDARIES,
        "virtual_s": _BOUNDARIES * _DT_S,
        "actions": n_actions,
        "build_s": round(build_s, 3),
        "drive_s": round(drive_s, 3),
        "replay_s": round(replay_s, 3),
        "actions_per_s": round(n_actions / drive_s, 1),
        "snapshots_per_s": round(_BOUNDARIES / drive_s, 1),
        "replay_match": replayed.digest() == session.digest(),
    }


def test_bench_twin_64k_session(bench_record):
    result = _measure()
    bench_record(BENCH_JSON, "64k-session", result)

    # The wall budget: standing up an 8K-host world stays interactive,
    # and the operator loop turns around far faster than real time.
    assert result["build_s"] < 30.0
    assert result["drive_s"] < 30.0
    assert result["replay_s"] < 60.0
    assert result["actions_per_s"] > 1.0
    assert result["snapshots_per_s"] > 1.0
    # The determinism bar holds at paper scale, not just in unit tests.
    assert result["replay_match"] is True
    print("\n64k twin session:")
    for key, value in result.items():
        print(f"  {key:<16} {value}")
