"""Tests for the digital-twin service (``repro.twin``).

The load-bearing property is the replay contract: a live session's
digest equals ``replay(config, action_log)``'s digest with ``==``,
under both solver backends and across ``PYTHONHASHSEED`` values.  The
HTTP layer is tested end to end through :class:`ServerHarness` — a
real server on a background thread — including the sharded mode where
two concurrent sessions must not contaminate each other.
"""

import asyncio
import contextlib
import io
import json
import os
import re
import signal
import time

import pytest

from repro.monitoring.telemetry import (CommGroup, JobMetadata,
                                        QpMetadata, TelemetryStore)
from repro.network.ecmp import FiveTuple
from repro.network.solver import use_backend
from repro.twin import serve_forever
from repro.twin import (ServerHarness, TwinClientError, TwinConfig,
                        TwinSession, replay)

from .hashseed import outputs_under_hash_seeds


def _tiny(seed=7, **overrides):
    params = dict(kind="cluster", scale="tiny", seed=seed, jobs=8)
    params.update(overrides)
    return TwinConfig(**params)


def _drive(session):
    """The fixed operator scenario shared across determinism tests."""
    session.advance(120.0)
    session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})
    session.advance(60.0)
    session.submit({"kind": "inject-fault", "document": {"domains": [
        {"kind": "optics-batch", "pod": 1, "block": 0, "size": 2,
         "mode": "hard", "seed": 7, "at_time_s": 0.0}]}})
    session.advance(600.0)
    session.submit({"kind": "set-power-cap", "frac": 0.5})
    session.advance(600.0)
    session.submit({"kind": "uncordon", "hosts": ["p0.b0.h0"]})
    session.advance(600.0)
    return session


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown twin kind"):
            TwinConfig(kind="quantum")

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown twin scale"):
            TwinConfig(scale="galactic")

    def test_params_round_trip(self):
        config = _tiny(seed=3)
        assert TwinConfig.from_params(config.to_params()) == config

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            TwinConfig.from_params({"scale": "tiny", "warp": 9})


class TestReplayDeterminism:
    @pytest.mark.parametrize("solver", ["python", "vector"])
    def test_replay_matches_live(self, solver):
        with use_backend(solver):
            live = _drive(TwinSession(_tiny()))
            replayed = replay(live.config, live.action_log)
        assert replayed.digest() == live.digest()
        # Not just the digest: every boundary snapshot is identical.
        assert replayed.snapshots == live.snapshots
        assert replayed.store == live.store

    def test_backends_agree(self):
        """Same world state, digest included, under both fill kernels."""
        states = {}
        for solver in ("python", "vector"):
            with use_backend(solver):
                states[solver] = _drive(TwinSession(_tiny()))
        assert states["python"].digest() == states["vector"].digest()
        assert states["python"].snapshots == states["vector"].snapshots

    def test_seeds_diverge(self):
        a = _drive(TwinSession(_tiny(seed=1))).digest()
        b = _drive(TwinSession(_tiny(seed=2))).digest()
        assert a != b

    def test_digest_stable_across_hash_seeds(self):
        """The repo-wide bar: bit-identical under PYTHONHASHSEED."""
        digests = [out.strip() for out in outputs_under_hash_seeds(
            _SUBPROCESS_DIGEST, ("1", "2"))]
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64  # a sha256 hex digest


_SUBPROCESS_DIGEST = """
from repro.twin import TwinConfig, TwinSession
session = TwinSession(TwinConfig(
    kind="cluster", scale="tiny", seed=7, jobs=8))
session.advance(120.0)
session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})
session.advance(600.0)
session.submit({"kind": "inject-fault", "document": {"domains": [
    {"kind": "optics-batch", "pod": 1, "block": 0, "size": 2,
     "mode": "hard", "seed": 7, "at_time_s": 0.0}]}})
session.advance(600.0)
session.submit({"kind": "uncordon", "hosts": ["p0.b0.h0"]})
session.advance(600.0)
print(session.digest())
"""


class TestActionValidation:
    def test_unknown_kind_rejected(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="unknown action kind"):
            session.submit({"kind": "launch-missiles"})

    def test_unknown_host_rejected(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="not a host"):
            session.submit({"kind": "cordon", "hosts": ["p9.b9.h9"]})

    def test_switch_cordon_rejected(self):
        """Cordon targets must be hosts, not fabric switches."""
        session = TwinSession(_tiny())
        switch = next(
            name for name, dev in
            session.stack.topology.devices.items() if dev.tier != 0)
        with pytest.raises(Exception, match="not a host"):
            session.submit({"kind": "cordon", "hosts": [switch]})

    def test_advance_requires_positive_dt(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="positive"):
            session.advance(0.0)


class TestTelemetryJsonl:
    def test_store_round_trip_from_session(self):
        live = _drive(TwinSession(_tiny()))
        text = live.store.to_jsonl()
        assert TelemetryStore.from_jsonl(text) == live.store

    def test_round_trip_is_stable(self):
        live = _drive(TwinSession(_tiny()))
        text = live.store.to_jsonl()
        assert TelemetryStore.from_jsonl(text).to_jsonl() == text

    def test_registered_job_round_trips(self):
        store = TwinSession(_tiny()).store
        store.register_job(JobMetadata(
            job="llm-a", hosts=["p0.b0.h0", "p0.b0.h1"],
            comm_groups=[CommGroup(
                name="dp0", kind="allreduce",
                hosts=["p0.b0.h0", "p0.b0.h1"],
                qps=[QpMetadata(
                    qp=7, src_host="p0.b0.h0", dst_host="p0.b0.h1",
                    five_tuple=FiveTuple("p0.b0.h0:r0", "p0.b0.h1:r0",
                                         50000))])]))
        text = store.to_jsonl()
        assert text.splitlines()[0].startswith('{"comm_groups"')
        rebuilt = TelemetryStore.from_jsonl(text)
        assert rebuilt == store
        assert rebuilt.jobs["llm-a"].qps()[0].five_tuple \
            == store.jobs["llm-a"].qps()[0].five_tuple

    def test_bad_line_is_named(self):
        good = TwinSession(_tiny()).store.to_jsonl()
        with pytest.raises(ValueError, match="line 1"):
            TelemetryStore.from_jsonl("not json\n" + good)


class TestReplayTask:
    """``POST .../replay`` runs the ``twin-replay`` task in-process
    through ``execute_spec``: no pool, and no cache entry written."""

    def test_replay_matches_live_and_caches_nothing(self, tmp_path,
                                                    monkeypatch):
        from repro.twin.manager import _replay_via_farm
        cache = tmp_path / "farm-cache"
        monkeypatch.setenv("REPRO_FARM_CACHE", str(cache))
        live = TwinSession(_tiny())
        live.advance(120.0)
        replayed = _replay_via_farm({"config": live.config.to_params(),
                                     "action_log": live.action_log})
        assert replayed["digest"] == live.digest()
        assert not cache.exists()

    def test_failed_replay_is_a_500(self):
        from repro.twin.manager import TwinError, _replay_via_farm
        with pytest.raises(TwinError, match="replay failed") as failure:
            _replay_via_farm({"config": {"kind": "quantum"},
                              "action_log": []})
        assert failure.value.status == 500


class TestServingSession:
    def test_serving_replay_matches_live(self):
        config = TwinConfig(
            kind="serving", scale="small", seed=3,
            serving={"duration_s": 4 * 3600.0, "bucket_s": 1800.0})
        live = TwinSession(config)
        live.advance(3600.0)
        live.submit({"kind": "set-power-cap", "frac": 0.6})
        live.advance(3600.0)
        snapshot = live.snapshots[-1]
        assert snapshot["kind"] == "serving"
        assert "ttft" in snapshot and "power" in snapshot
        replayed = replay(config, live.action_log)
        assert replayed.digest() == live.digest()

    def test_serving_rejects_cluster_actions(self):
        config = TwinConfig(kind="serving", scale="small",
                            serving={"duration_s": 4 * 3600.0,
                                     "bucket_s": 1800.0})
        session = TwinSession(config)
        with pytest.raises(Exception, match="serving"):
            session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})


@pytest.fixture(scope="module")
def harness():
    with ServerHarness(workers=0) as server:
        yield server


class TestHttpServer:
    CONFIG = {"kind": "cluster", "scale": "tiny", "seed": 7, "jobs": 8}

    def test_healthz_and_version(self, harness):
        client = harness.client()
        assert client.version()
        assert client.request("GET", "/healthz")["ok"] is True

    def test_session_lifecycle_and_replay(self, harness):
        client = harness.client()
        info = client.create_session(self.CONFIG, session_id="life")
        assert info["id"] == "life"
        snapshots = client.advance("life", dt_s=120.0, steps=2)
        assert len(snapshots) == 2
        assert snapshots[1]["t_s"] == pytest.approx(240.0)
        client.action("life", {"kind": "cordon",
                               "hosts": ["p0.b0.h0"]})
        snapshot = client.advance("life", dt_s=60.0)[-1]
        assert snapshot["hosts"]["cordoned"] == 1
        verdict = client.verify_replay("life")
        assert verdict["match"] is True
        assert verdict["live_digest"] == client.digest("life")
        log = client.action_log("life")
        assert len(log["action_log"]) == 3
        client.delete_session("life")
        with pytest.raises(TwinClientError) as excinfo:
            client.session("life")
        assert excinfo.value.status == 404

    def test_duplicate_session_conflicts(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="dup")
        try:
            with pytest.raises(TwinClientError) as excinfo:
                client.create_session(self.CONFIG, session_id="dup")
            assert excinfo.value.status == 409
        finally:
            client.delete_session("dup")

    def test_bad_action_is_400(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="bad")
        try:
            with pytest.raises(TwinClientError) as excinfo:
                client.action("bad", {"kind": "frobnicate"})
            assert excinfo.value.status == 400
            with pytest.raises(TwinClientError) as excinfo:
                client.action("bad", {"kind": "cordon",
                                      "hosts": ["p9.b9.h9"]})
            assert excinfo.value.status == 400
        finally:
            client.delete_session("bad")

    @pytest.mark.parametrize("solver", ["auto", "python"])
    def test_solver_field_is_400(self, harness, solver):
        """The wire cannot pick a fill kernel: any non-null ``solver``
        is a bad request, and no session is left behind."""
        client = harness.client()
        with pytest.raises(TwinClientError) as excinfo:
            client.create_session(dict(self.CONFIG, solver=solver),
                                  session_id=solver)
        assert excinfo.value.status == 400
        with pytest.raises(TwinClientError) as excinfo:
            client.session(solver)
        assert excinfo.value.status == 404

    def test_unknown_session_is_404(self, harness):
        client = harness.client()
        with pytest.raises(TwinClientError) as excinfo:
            client.advance("ghost", dt_s=60.0)
        assert excinfo.value.status == 404

    def test_telemetry_stream_and_records(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="telemetry")
        try:
            client.advance("telemetry", dt_s=60.0, steps=3)
            archived = client.telemetry("telemetry")
            assert [s["t_s"] for s in archived] == [60.0, 120.0, 180.0]
            tail = list(client.stream("telemetry", start=1,
                                      max_snapshots=2))
            assert [s["t_s"] for s in tail] == [120.0, 180.0]
            lines = client.records_jsonl("telemetry").splitlines()
            parsed = [json.loads(line) for line in lines]
            assert any(r.get("type") == "switch-counter"
                       for r in parsed)
        finally:
            client.delete_session("telemetry")


    def test_index_and_session_list(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="listed")
        try:
            index = client.request("GET", "/")
            assert index["service"] == "repro-twin"
            assert index["workers"] == 0
            listed = client.sessions()
            assert listed == index["sessions"]
            entry = next(s for s in listed if s["id"] == "listed")
            assert entry["config"]["seed"] == 7
            assert entry["snapshots"] == 0
            assert entry["paced"] is False
        finally:
            client.delete_session("listed")

    def test_pace_start_and_stop(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="paced")
        try:
            started = client.pace("paced", dt_s=30.0, interval_s=0.0)
            assert started == {"paced": True, "dt_s": 30.0,
                               "interval_s": 0.0}
            entry = _wait_for_snapshots(client, "paced", 2)
            assert entry["paced"] is True
            assert client.stop_pace("paced") == {"paced": False}
            entry = _listed(client, "paced")
            assert entry["paced"] is False
            # Stopped means stopped: the archive no longer grows, and
            # every paced step advanced the clock by dt_s.
            archived = client.telemetry("paced")
            assert len(archived) == entry["snapshots"]
            assert [s["t_s"] for s in archived] == \
                [30.0 * (i + 1) for i in range(len(archived))]
            time.sleep(0.2)
            assert _listed(client, "paced")["snapshots"] \
                == len(archived)
            # The live clock stands at the last paced boundary.
            assert client.session("paced")["t_s"] == archived[-1]["t_s"]
            assert client.verify_replay("paced")["match"] is True
        finally:
            client.delete_session("paced")

    def test_pace_on_create_and_bad_pace(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="born-paced",
                              pace={"dt_s": 60.0, "interval_s": 0.0})
        try:
            _wait_for_snapshots(client, "born-paced", 1)
            with pytest.raises(TwinClientError) as excinfo:
                client.pace("born-paced", dt_s=0.0)
            assert excinfo.value.status == 400
            assert client.stop_pace("born-paced") == {"paced": False}
        finally:
            client.delete_session("born-paced")
        with pytest.raises(TwinClientError) as excinfo:
            client.stop_pace("born-paced")
        assert excinfo.value.status == 404


def _listed(client, session_id):
    return next(s for s in client.sessions() if s["id"] == session_id)


def _wait_for_snapshots(client, session_id, count, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while True:
        entry = _listed(client, session_id)
        if entry["snapshots"] >= count:
            return entry
        assert time.monotonic() < deadline, entry
        time.sleep(0.02)


class TestServeForever:
    def test_serves_until_sigterm(self):
        """The ``repro twin serve`` entry point, in-process: it prints
        its port, answers ``/healthz``, and a SIGTERM sent only after
        that line has appeared drains it with exit code 130."""
        out = io.StringIO()
        default = signal.getsignal(signal.SIGTERM)

        async def drive():
            serving = asyncio.ensure_future(
                serve_forever("127.0.0.1", 0, 0))
            deadline = time.monotonic() + 30.0
            while "listening on" not in out.getvalue():
                assert not serving.done() and time.monotonic() < deadline
                await asyncio.sleep(0.01)
            port = int(re.search(r"listening on http://127\.0\.0\.1:"
                                 r"(\d+) \(workers=0\)",
                                 out.getvalue()).group(1))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
                         b"Connection: close\r\n\r\n")
            reply = await asyncio.wait_for(reader.read(), 30.0)
            writer.close()
            # The server's own handler must be in place, or SIGTERM
            # would end the test process.
            assert signal.getsignal(signal.SIGTERM) is not default
            os.kill(os.getpid(), signal.SIGTERM)
            return reply, await asyncio.wait_for(serving, 30.0)

        with contextlib.redirect_stdout(out):
            reply, code = asyncio.run(drive())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body) == {"ok": True}
        assert code == 130
        assert out.getvalue().endswith(
            f"twin: shut down on signal {int(signal.SIGTERM)}\n")
        assert signal.getsignal(signal.SIGTERM) is default


class TestShardedServer:
    def test_concurrent_sessions_are_isolated(self):
        with ServerHarness(workers=2) as server:
            client = server.client()
            config = dict(TestHttpServer.CONFIG)
            alpha = client.create_session(config, session_id="alpha")
            beta = client.create_session(config, session_id="beta")
            assert {alpha["shard"], beta["shard"]} <= {0, 1}
            client.advance("beta", dt_s=120.0)
            before = client.digest("beta")
            # Driving alpha hard must not move beta's digest.
            client.advance("alpha", dt_s=120.0)
            client.action("alpha", {"kind": "cordon",
                                    "hosts": ["p0.b0.h0"]})
            client.advance("alpha", dt_s=600.0, steps=2)
            assert client.digest("beta") == before
            assert client.verify_replay("alpha")["match"] is True
            assert client.verify_replay("beta")["match"] is True


class TestFarmInterrupt:
    def test_ctrl_c_returns_partial_report(self):
        import os
        import signal
        import threading
        import time

        from repro.farm import FarmExecutor, TaskSpec
        specs = [TaskSpec("farm-selftest",
                          {"mode": "hang", "sleep_s": 1.0, "seed": i})
                 for i in range(5)]
        timer = threading.Timer(
            0.4, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            report = FarmExecutor(workers=1, use_cache=False).run(specs)
        finally:
            timer.cancel()
        assert report.interrupted is True
        assert len(report.results) == len(specs)
        assert any(r.status == "skipped" for r in report.results)
        assert report.to_dict()["interrupted"] is True

    def test_uninterrupted_report_is_clean(self):
        from repro.farm import FarmExecutor, TaskSpec
        report = FarmExecutor(workers=1, use_cache=False).run(
            [TaskSpec("farm-selftest", {"mode": "ok", "value": 1})])
        assert report.interrupted is False
        assert report.ok
