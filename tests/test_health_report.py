"""Tests for the cluster health report."""

import pytest

from repro.monitoring import (
    FaultSpec,
    JobConfig,
    Manifestation,
    MonitoredTrainingJob,
    MultiJobRun,
    RootCause,
    TelemetryStore,
    build_health_report,
)
from repro.network import Fabric, reset_flow_ids
from repro.topology import AstralParams, build_astral

HOSTS = tuple(f"p0.b0.h{i}" for i in range(4))


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def _run(fault=None, iterations=5):
    fabric = Fabric(build_astral(AstralParams.small()))
    return MonitoredTrainingJob(
        fabric, JobConfig(hosts=HOSTS, iterations=iterations),
        fault=fault).run()


class TestHealthyCluster:
    def test_all_clear(self):
        result = _run()
        report = build_health_report(result.store)
        assert report.healthy
        assert report.jobs[0].status == "HEALTHY"
        assert "ALL CLEAR" in report.render()

    def test_iteration_stats(self):
        result = _run(iterations=4)
        report = build_health_report(result.store)
        assert report.jobs[0].iterations_seen == 4
        assert report.jobs[0].mean_iteration_s > 0


class TestUnhealthyCluster:
    def test_hang_shows_stalled(self):
        fault = FaultSpec(RootCause.CCL_BUG, Manifestation.FAIL_HANG,
                          HOSTS[0], at_iteration=2)
        result = _run(fault=fault)
        report = build_health_report(result.store)
        assert report.jobs[0].status == "STALLED"
        assert not report.healthy

    def test_fatal_log_surfaces_device(self):
        fault = FaultSpec(RootCause.GPU_HARDWARE,
                          Manifestation.FAIL_STOP, HOSTS[1],
                          at_iteration=2)
        result = _run(fault=fault)
        report = build_health_report(result.store)
        devices = [device for device, _ in report.fatal_devices]
        assert HOSTS[1] in devices
        assert "fatal device logs" in report.render()

    def test_pcie_storm_shows_sensors_and_congestion(self):
        fault = FaultSpec.pcie_storm(HOSTS[1], at_iteration=1)
        result = _run(fault=fault)
        report = build_health_report(result.store)
        hosts = [host for host, _ in report.abnormal_hosts]
        assert HOSTS[1] in hosts
        assert report.congested_links
        rendered = report.render()
        assert "PCIe errors" in rendered
        assert "ATTENTION NEEDED" in rendered


class TestMultiJobReport:
    def test_two_jobs_rolled_up(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        jobs = [
            JobConfig(name="a", hosts=HOSTS, iterations=3),
            JobConfig(name="b",
                      hosts=tuple(f"p0.b1.h{i}" for i in range(4)),
                      iterations=3),
        ]
        run = MultiJobRun(fabric, jobs, store=TelemetryStore())
        run.run()
        report = build_health_report(run.store)
        assert {job.job for job in report.jobs} == {"a", "b"}
