"""Tests for the offline toolsets (wiring/config verification, stress
tests) and the MTTLF model (§3.1, §5, Figure 10)."""

import pytest

from repro.monitoring import (
    ConfigInconsistency,
    FaultSpec,
    HostConfig,
    HostHealth,
    JobConfig,
    Manifestation,
    MonitoredTrainingJob,
    MttlfModel,
    OfflineToolset,
    RootCause,
    verify_configs,
    verify_wiring,
)
from repro.network import Fabric, reset_flow_ids
from repro.topology import AstralParams, build_astral


class TestWiringVerify:
    def test_clean_astral_has_no_violations(self):
        topo = build_astral(AstralParams.tiny())
        assert verify_wiring(topo, AstralParams.tiny()) == []

    def test_miswired_host_detected(self):
        reset_flow_ids()
        topo = build_astral(AstralParams.tiny())
        fabric = Fabric(topo)
        fault = FaultSpec(RootCause.WIRE_CONNECTION,
                          Manifestation.FAIL_SLOW, "link:0",
                          at_iteration=1)
        job = MonitoredTrainingJob(
            fabric,
            JobConfig(hosts=("p0.b0.h0", "p0.b0.h1"), iterations=3),
            fault=fault)
        job.run()
        violations = verify_wiring(topo, AstralParams.tiny())
        assert len(violations) == 2  # both swapped cables flagged
        assert all(v.host == "p0.b0.h0" for v in violations)
        assert any("rail" in v.reason for v in violations)


class TestConfigVerify:
    def test_consistent_fleet_passes(self):
        configs = {f"h{i}": HostConfig() for i in range(8)}
        assert verify_configs(configs) == []

    def test_version_drift_detected(self):
        configs = {f"h{i}": HostConfig() for i in range(8)}
        configs["h3"] = HostConfig(nccl_version="2.18.1")
        issues = verify_configs(configs)
        assert issues == [ConfigInconsistency(
            "h3", "nccl_version", "2.18.1", "2.21.5")]

    def test_multiple_fields_detected(self):
        configs = {f"h{i}": HostConfig() for i in range(8)}
        configs["h5"] = HostConfig(driver_version="550.54.14",
                                   pfc_enabled=False)
        issues = verify_configs(configs)
        fields = {issue.fieldname for issue in issues}
        assert fields == {"driver_version", "pfc_enabled"}

    def test_empty_fleet(self):
        assert verify_configs({}) == []


class TestStressTests:
    def test_healthy_host_passes_all(self):
        toolset = OfflineToolset()
        reports = toolset.run_all(["h0"])
        assert all(report.passed for report in reports)

    def test_gpu_defect_caught_by_burn(self):
        toolset = OfflineToolset({"h0": HostHealth(gpu_defect=True)})
        report = toolset.gpu_burn("h0")
        assert not report.passed
        assert "Xid" in report.detail

    def test_pcie_defect_caught_by_hostping(self):
        """The §5 PCIe incident would be caught pre-delivery."""
        toolset = OfflineToolset({"h0": HostHealth(pcie_degraded=True)})
        report = toolset.hostping("h0")
        assert not report.passed
        assert "PCIe" in report.detail

    def test_defective_hosts_listing(self):
        toolset = OfflineToolset({
            "h0": HostHealth(memory_defect=True),
            "h2": HostHealth(nvlink_degraded=True),
        })
        assert toolset.defective_hosts(["h0", "h1", "h2"]) == ["h0", "h2"]


class TestMttlf:
    def test_reductions_match_figure10(self):
        """Fail-stop ~12x, fail-hang ~25x, fail-slow ~5x (Figure 10)."""
        model = MttlfModel(n_hosts=64, jitter_frac=0.0)
        speedups = {
            m: model.manual_hours(m) / model.automated_hours(m)
            for m in (Manifestation.FAIL_STOP, Manifestation.FAIL_HANG,
                      Manifestation.FAIL_SLOW)
        }
        assert 8 <= speedups[Manifestation.FAIL_STOP] <= 13
        assert 18 <= speedups[Manifestation.FAIL_HANG] <= 27
        assert 3.5 <= speedups[Manifestation.FAIL_SLOW] <= 6.5

    def test_automated_stop_and_hang_in_minutes(self):
        """Headline: MTTLF reduced from days to minutes for stop/hang."""
        model = MttlfModel(n_hosts=64, jitter_frac=0.0)
        assert model.automated_hours(Manifestation.FAIL_STOP) < 1.0
        assert model.automated_hours(Manifestation.FAIL_HANG) < 1.5

    def test_manual_hang_matches_war_story(self):
        """§5: several dozen experts, 26 hours of batch replacement."""
        model = MttlfModel(n_hosts=64, jitter_frac=0.0)
        assert model.manual_hours(Manifestation.FAIL_HANG) \
            == pytest.approx(26.0)

    def test_manual_cost_grows_with_cluster(self):
        small = MttlfModel(n_hosts=16, jitter_frac=0.0)
        large = MttlfModel(n_hosts=1024, jitter_frac=0.0)
        assert large.manual_hours(Manifestation.FAIL_HANG) \
            > small.manual_hours(Manifestation.FAIL_HANG)

    def test_unlocalized_diagnosis_pays_fallback(self):
        from repro.monitoring import Diagnosis
        model = MttlfModel(n_hosts=64, jitter_frac=0.0)
        bad = Diagnosis(job="j")  # not localized
        good = Diagnosis(job="j", root_cause_device="h0")
        good.drill_down_steps = bad.drill_down_steps = 5
        assert model.automated_hours(Manifestation.FAIL_SLOW, bad) \
            > model.automated_hours(Manifestation.FAIL_SLOW, good)

    def test_campaign_report_aggregates(self):
        model = MttlfModel(n_hosts=64, seed=1)
        manifestations = [Manifestation.FAIL_STOP] * 10 \
            + [Manifestation.FAIL_HANG] * 5
        report = model.campaign(manifestations)
        assert len(report.samples) == 15
        assert report.mean_speedup(Manifestation.FAIL_STOP) > 5
        assert report.mean_hours(Manifestation.FAIL_SLOW) == 0.0

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            MttlfModel(n_hosts=1)


class TestTemplateModelTest:
    def _fabric(self):
        from repro.network import Fabric, reset_flow_ids
        reset_flow_ids()
        return Fabric(build_astral(AstralParams.small()))

    def test_healthy_hosts_pass(self):
        fabric = self._fabric()
        hosts = [f"p0.b0.h{i}" for i in range(4)]
        report = OfflineToolset().template_model_test(fabric, hosts)
        assert report.passed

    def test_silent_nic_degradation_caught(self):
        """A crawling NIC that every per-component probe misses still
        fails the end-to-end template training."""
        fabric = self._fabric()
        hosts = [f"p0.b0.h{i}" for i in range(4)]
        for link in fabric.topology.links_of(hosts[1]):
            fabric.topology.scale_link(link.link_id, 0.1)
        report = OfflineToolset().template_model_test(fabric, hosts)
        assert not report.passed
        assert "expected" in report.detail

    def test_dead_link_fails_cleanly(self):
        fabric = self._fabric()
        hosts = [f"p0.b0.h{i}" for i in range(4)]
        dst = hosts[2]
        for link in fabric.topology.links_of(dst):
            other = fabric.topology.devices[link.other(dst)]
            if other.rail == 0:
                fabric.topology.fail_link(link.link_id)
        report = OfflineToolset().template_model_test(fabric, hosts)
        assert not report.passed
