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
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.telemetry import (CommGroup, JobMetadata,
                                        QpMetadata, TelemetryStore)
from repro.network.ecmp import FiveTuple
from repro.network.solver import use_backend
from repro.twin import serve_forever
from repro.twin import (ServerHarness, SessionManager, TwinClientError,
                        TwinConfig, TwinSession, replay)
from repro.twin.actions import ActionError

from . import twin_wire
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


#: any JSON value, NaN and infinities included (the wire admits them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_HOSTS = st.sampled_from(["p0.b0.h0", "p0.b0.h1", "p1.b0.h2", "p0.b1.h3"])
_DOMAIN = st.fixed_dictionaries(
    {"kind": st.sampled_from(["optics-batch", "rack", "power-domain",
                              "switch-asic"]),
     "pod": st.integers(0, 1), "block": st.integers(0, 1),
     "size": st.integers(1, 2), "mode": st.sampled_from(["hard", "gray"]),
     "seed": st.integers(0, 9)},
    optional={"at_time_s": st.sampled_from([0.0, 90.0]),
              "jitter_s": st.sampled_from([0.0, 5.0])})
_FAULT = st.fixed_dictionaries(
    {"job": st.sampled_from(["job-000", "ghost"]),
     "cause": st.sampled_from(["nic-error", "user-code", "optical-fiber"]),
     "manifestation": st.sampled_from(["fail-stop", "fail-slow"])},
    optional={"target": _HOSTS | st.sampled_from(["job-000", "link:3"])})
_INJECT = st.builds(
    lambda domains, faults: {"kind": "inject-fault",
                             "document": {"domains": domains,
                                          "faults": faults}},
    st.lists(_DOMAIN, max_size=1), st.lists(_FAULT, min_size=1, max_size=1))
_VALID_ACTION = st.one_of(
    st.builds(lambda kind, hosts: {"kind": kind, "hosts": hosts},
              st.sampled_from(["cordon", "uncordon", "drain"]),
              st.lists(_HOSTS, min_size=1, max_size=2)),
    st.builds(lambda job: {"kind": "preempt", "job": job},
              st.sampled_from(["job-000", "job-001", "ghost"])),
    _INJECT,
    st.builds(lambda frac: {"kind": "set-power-cap", "frac": frac},
              st.floats(0.0, 1.0)))


def _ill_typed(valid):
    """A valid action with one field, or (odd *pick*) one field of one
    of its fault or domain entries, replaced by an arbitrary JSON
    value."""
    def corrupt(args):
        action, junk, pick = args
        action = json.loads(json.dumps(action))
        entries = [entry for part in ("domains", "faults")
                   for entry in action.get("document", {}).get(part, ())]
        holders = entries if entries and pick % 2 else [action]
        fields = [(holder, key) for holder in holders
                  for key in sorted(holder)]
        holder, key = fields[pick // 2 % len(fields)]
        holder[key] = junk
        return action
    return st.tuples(valid, _JSON, st.integers(0, 31)).map(corrupt)


_ACTION = st.one_of(_VALID_ACTION, _ill_typed(_VALID_ACTION),
                    _ill_typed(_INJECT), _JSON)
_STEPS = st.lists(
    st.one_of(st.tuples(st.just("submit"), _ACTION),
              st.tuples(st.just("advance"),
                        st.sampled_from([30.0, 60.0, 600.0]))),
    max_size=10)


class TestBoundaryReplay:
    """Whatever an operator submits, a boundary completes and the log
    replays to the live digest."""

    @settings(max_examples=60, deadline=None)
    @given(_STEPS)
    def test_submit_rejects_or_queues_and_replay_matches(self, steps):
        live = TwinSession(_tiny())
        live.advance(600.0)  # job-000 runs from here on
        for op, arg in steps:
            if op == "advance":
                live.advance(arg)
                continue
            pending = live.info()["pending_actions"]
            try:
                live.submit(arg)
            except ActionError:
                assert live.info()["pending_actions"] == pending
            else:
                assert live.info()["pending_actions"] == pending + 1
        live.advance(60.0)
        assert replay(live.config, live.action_log).digest() \
            == live.digest()

    def test_ill_typed_domains_fail_at_submit(self):
        """The cordon stays queued; the bad document never reaches the
        boundary, so the batch applies and replays whole."""
        live = TwinSession(_tiny())
        live.submit({"kind": "cordon", "hosts": ["p0.b0.h1"]})
        for document in ({"domains": 5}, {"domains": [5]},
                         {"domains": [{"kind": "rack", "pod": "x"}]},
                         {"domains": [{"kind": "rack", "pod": 0.5}]},
                         {"faults": {"job": "job-000"}}):
            with pytest.raises(ActionError):
                live.submit({"kind": "inject-fault",
                             "document": document})
        live.advance(60.0)
        live.advance(60.0)
        assert live.snapshots[-1]["hosts"]["cordoned"] == 1
        replayed = replay(live.config, live.action_log)
        assert replayed.snapshots[-1]["hosts"]["cordoned"] == 1
        assert replayed.digest() == live.digest()

    def test_action_rejected_at_its_boundary_is_logged(self):
        live = TwinSession(_tiny())
        live.submit({"kind": "inject-fault", "document": {"faults": [
            {"job": "job-000", "cause": "nic-error",
             "manifestation": "fail-stop", "target": "p0.b0.h0"}]}})
        live.submit({"kind": "cordon", "hosts": ["p0.b0.h1"]})
        applied = live.advance(60.0)["applied"]
        assert applied[0]["kind"] == "inject-fault"
        assert "not a placed tenant" in applied[0]["error"]
        assert applied[1] == {"kind": "cordon", "cordoned": ["p0.b0.h1"]}
        assert len(live.action_log[0]["actions"]) == 2
        replayed = replay(live.config, live.action_log)
        assert replayed.snapshots == live.snapshots


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
    through a one-worker farm: no pool, and no cache entry written."""

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
        from repro.twin.http import HttpError
        from repro.twin.manager import _replay_via_farm
        with pytest.raises(HttpError, match="replay failed") as failure:
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


_REQUEST_BYTES = st.builds(
    lambda method, path, suffix, version, headers, body, cut: ((
        f"{method} {path}{suffix} {version}\r\n"
        + "".join(f"{line}\r\n" for line in headers) + "\r\n"
    ).encode("latin-1") + body)[:cut],
    st.sampled_from(["GET", "POST", "DELETE", "PUT", ""])
    | st.text(st.characters(max_codepoint=255), max_size=4),
    st.sampled_from(["/", "/healthz", "/sessions", "/sessions/malformed",
                     "/sessions/malformed/advance",
                     "/sessions/malformed/actions",
                     "/sessions/malformed/pace",
                     "/sessions/malformed/telemetry/stream",
                     "/sessions/ghost/digest", "/nope"]),
    st.text(alphabet="?=&%/[]:#x0 ", max_size=8),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "", "junk"]),
    st.lists(st.sampled_from([
        "Content-Length: 0", "Content-Length: 7", "Content-Length: abc",
        "Content-Length: -4", "Content-Length: 99999999999",
        "Content-Length: 1_0", "Transfer-Encoding: chunked",
        "Connection: close", "Host: localhost", "no colon"])
        | st.text(st.characters(max_codepoint=255,
                                blacklist_characters="\r\n"),
                  max_size=12),
        max_size=4),
    st.binary(max_size=32)
    | _JSON.map(lambda value: json.dumps(value).encode()),
    st.integers(1, 400))
_LONG_LINES = st.integers(60_000, 140_000).map(
    lambda n: twin_wire.raw_request("GET", "/" + "a" * n))


@pytest.fixture(scope="module")
def front_door():
    """An in-process server whose event loop records every exception
    that reaches its handler, with one live session, ``"malformed"``."""
    caught = []
    with ServerHarness(workers=0) as server:
        server.loop.set_exception_handler(
            lambda loop, context: caught.append(context))
        server.client().create_session(twin_wire.CONFIG,
                                       session_id="malformed")
        yield server, caught


def _send(server, data):
    return twin_wire.exchange(server.host, server.port, data)


class TestFrontDoor:
    """Malformed input ends in a JSON 4xx (or, for a request the client
    never finished, a clean close) — never a 500, a dropped connection
    or an exception loose in the event loop."""

    @pytest.mark.parametrize("label,build", twin_wire.MALFORMED,
                             ids=[label for label, _ in twin_wire.MALFORMED])
    def test_malformed_request_is_a_json_4xx(self, front_door, label,
                                             build):
        server, caught = front_door
        twin_wire.json_4xx(_send(server, build("malformed")))
        assert caught == []
        assert "malformed-p" not in {
            s["id"] for s in server.client().sessions()}

    @pytest.mark.parametrize("body", [
        {"config": dict(twin_wire.CONFIG, solver="auto")},
        {"config": twin_wire.CONFIG, "pace": {"dt_s": 0}},
        {"config": twin_wire.CONFIG, "pace": {"dt_s": "x"}},
        {"config": twin_wire.CONFIG, "pace": 5},
        {"config": dict(twin_wire.CONFIG, jobs="x")},
        {"config": dict(twin_wire.CONFIG, jobs=1.5)},
        {"config": dict(twin_wire.CONFIG, dampening_s="x")},
        {"config": {"kind": "serving", "serving": {"a": 1}}},
        {"config": {"kind": "serving", "scale": "tiny",
                    "serving": {"model": "Seer"}}},
        {"config": twin_wire.CONFIG, "id": ["x"]},
    ], ids=["solver", "pace-zero", "pace-text", "pace-number",
            "jobs-text", "jobs-fraction", "dampening-text",
            "serving-key", "serving-model", "id-list"])
    def test_rejected_create_leaves_no_session(self, front_door, body):
        server, caught = front_door
        client = server.client()
        before = client.sessions()
        with pytest.raises(TwinClientError) as excinfo:
            client.request("POST", "/sessions", dict(body, id="rejected")
                           if "id" not in body else body)
        assert excinfo.value.status == 400
        assert client.sessions() == before
        assert caught == []

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(_REQUEST_BYTES, st.binary(max_size=96),
                     _LONG_LINES))
    def test_fuzzed_bytes_get_a_4xx_or_a_clean_close(self, front_door,
                                                     data):
        server, caught = front_door
        for status, _headers, _body in twin_wire.parse_responses(
                _send(server, data)):
            assert status < 500
        assert caught == []
        assert server.client().request("GET", "/healthz") == {"ok": True}


class TestSessionTables:
    def test_in_process_managers_keep_their_own_sessions(self):
        """Two ``workers=0`` managers in one loop: each one's session
        ``"x"`` is its own."""
        async def drive():
            managers = [SessionManager(workers=0) for _ in range(2)]
            try:
                await asyncio.gather(*(
                    manager.create(_tiny(seed=seed).to_params(),
                                   session_id="x")
                    for seed, manager in enumerate(managers)))
                return [(await manager.action_log("x"))["config"]["seed"]
                        for manager in managers]
            finally:
                for manager in managers:
                    await manager.shutdown()

        assert asyncio.run(drive()) == [0, 1]


class TestPaceStop:
    def test_stop_during_a_held_step_archives_it(self, monkeypatch):
        """Stopping the pacer while its step is on the session's
        executor: the step still moves the clock, so stop must wait for
        it and archive its snapshot.  The test holds the second paced
        step open until stop has been asked for."""
        from repro.twin import manager as manager_module
        entered, release = threading.Event(), threading.Event()
        advances = []

        def held_call(payload, table):
            if payload["op"] == "advance":
                advances.append(payload["dt_s"])
                if len(advances) == 2:
                    entered.set()
                    assert release.wait(60.0)
            return shard_call(payload, table)

        shard_call = manager_module.shard_call
        monkeypatch.setattr(manager_module, "shard_call", held_call)

        async def drive():
            manager = SessionManager(workers=0)
            try:
                await manager.create(_tiny().to_params(), session_id="p")
                await manager.start_pace("p", {"dt_s": 30.0,
                                               "interval_s": 0.0})
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 60.0)
                stopping = asyncio.ensure_future(manager.stop_pace("p"))
                await asyncio.sleep(0)      # stop has begun
                release.set()
                assert await stopping == {"paced": False}
                archived = [s["t_s"] for s in
                            [x async for x in manager.stream("p")]]
                return archived, await manager.info("p")
            finally:
                release.set()
                await manager.shutdown()

        archived, info = asyncio.run(drive())
        assert advances == [30.0, 30.0]
        assert archived == [30.0, 60.0]
        assert info["t_s"] == archived[-1]
        assert info["steps"] == len(archived)


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
