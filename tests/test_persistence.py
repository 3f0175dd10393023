"""Archiving a telemetry store through its one wire format (NDJSON).

Offline analysis (§3.1's fallback) re-reads stored telemetry: a store
written with ``to_jsonl`` and read back with ``from_jsonl`` must keep
every record, every join key, and the diagnosis.
"""

import json

import pytest

from repro.monitoring import (
    FaultSpec,
    HierarchicalAnalyzer,
    JobConfig,
    Manifestation,
    MonitoredTrainingJob,
    RootCause,
    SyslogRecord,
    TelemetryStore,
)
from repro.network import Fabric, reset_flow_ids
from repro.topology import AstralParams, build_astral

HOSTS = tuple(f"p0.b0.h{i}" for i in range(4))


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@pytest.fixture()
def faulty_result():
    fabric = Fabric(build_astral(AstralParams.small()))
    fault = FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      HOSTS[1], at_iteration=2)
    return MonitoredTrainingJob(
        fabric, JobConfig(hosts=HOSTS, iterations=4),
        fault=fault).run()


def _reload(store: TelemetryStore) -> TelemetryStore:
    return TelemetryStore.from_jsonl(store.to_jsonl())


class TestRoundTrip:
    BUCKETS = ("nccl_timeline", "iterations", "qp_rates", "err_cqes",
               "sflow_paths", "int_pings", "switch_counters", "syslogs",
               "host_sensors")

    def test_record_counts_preserved(self, faulty_result):
        store = faulty_result.store
        restored = _reload(store)
        for bucket in self.BUCKETS:
            assert len(getattr(restored, bucket)) \
                == len(getattr(store, bucket)), bucket
        assert restored == store

    def test_job_metadata_preserved(self, faulty_result):
        store = faulty_result.store
        restored = _reload(store)
        original = store.jobs["job0"]
        clone = restored.jobs["job0"]
        assert clone.hosts == original.hosts
        assert [qp.five_tuple for qp in clone.qps()] \
            == [qp.five_tuple for qp in original.qps()]

    def test_five_tuples_survive_as_join_keys(self, faulty_result):
        store = faulty_result.store
        restored = _reload(store)
        ft = restored.jobs["job0"].qps()[0].five_tuple
        assert restored.qp_rates_for(ft)

    def test_tuples_restored_for_paths(self, faulty_result):
        restored = _reload(faulty_result.store)
        record = restored.sflow_paths[0]
        assert isinstance(record.devices, tuple)
        assert isinstance(record.link_ids, tuple)
        ping = restored.int_pings[0]
        assert isinstance(ping.hop_latencies_us, tuple)
        assert ping.worst_hop()  # usable API after reload

    def test_diagnosis_identical_on_reloaded_store(self, faulty_result):
        """Offline re-analysis of archived telemetry reaches the same
        verdict as the live run (the §3.1 offline fallback)."""
        live = HierarchicalAnalyzer(
            faulty_result.store, faulty_result.expected_compute_s,
            faulty_result.expected_comm_s).diagnose("job0")
        restored = _reload(faulty_result.store)
        offline = HierarchicalAnalyzer(
            restored, faulty_result.expected_compute_s,
            faulty_result.expected_comm_s).diagnose("job0")
        assert offline.root_cause_device == live.root_cause_device
        assert offline.inferred_cause == live.inferred_cause
        assert offline.manifestation == live.manifestation

    def test_every_bucket_counts_for_equality(self, faulty_result):
        store = faulty_result.store
        buckets = [attr for attr in self.BUCKETS if getattr(store, attr)]
        assert "host_sensors" in buckets and "syslogs" in buckets
        for attr in buckets:
            restored = _reload(store)
            getattr(restored, attr).pop()
            assert restored != store, attr

    def test_empty_store_round_trips(self):
        restored = _reload(TelemetryStore())
        assert restored.nccl_timeline == []
        assert restored.jobs == {}


class TestWireBytes:
    """The NDJSON bytes themselves: bucket order and line layout."""

    ORDER = ["job-metadata", "nccl-timeline", "iteration", "qp-rate",
             "err-cqe", "sflow-path", "int-ping", "switch-counter",
             "syslog", "host-sensor"]

    def test_lines_follow_the_bucket_order(self, faulty_result):
        tags = [json.loads(line)["type"]
                for line in faulty_result.store.to_jsonl().splitlines()]
        ranks = [self.ORDER.index(tag) for tag in tags]
        assert ranks == sorted(ranks)
        assert tags[0] == "job-metadata"

    def test_one_sorted_key_line_per_record(self):
        store = TelemetryStore()
        store.add(SyslogRecord(time_s=1.5, device="p0.b0.h1",
                               severity="err", message="x"))
        assert store.to_jsonl() == (
            '{"device": "p0.b0.h1", "fatal": false, "message": "x", '
            '"severity": "err", "time_s": 1.5, "type": "syslog"}\n')
        assert TelemetryStore().to_jsonl() == ""
