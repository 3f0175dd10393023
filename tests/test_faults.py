"""Tests for the failure taxonomy and fault sampling (Figure 7)."""

from collections import Counter

import pytest

from repro.monitoring import (
    CAUSE_PROFILES,
    MANIFESTATION_PREVALENCE,
    Manifestation,
    ROOT_CAUSE_PREVALENCE,
    RootCause,
    FaultSpec,
    sample_faults,
)

from .hashseed import outputs_under_hash_seeds


class TestTaxonomy:
    def test_manifestation_prevalence_sums_to_one(self):
        assert sum(MANIFESTATION_PREVALENCE.values()) \
            == pytest.approx(1.0)

    def test_root_cause_prevalence_sums_to_one(self):
        assert sum(ROOT_CAUSE_PREVALENCE.values()) == pytest.approx(1.0)

    def test_paper_percentages(self):
        """Fig. 7 inner ring (normalized from the published 101%)."""
        assert ROOT_CAUSE_PREVALENCE[RootCause.HOST_ENV_CONFIG] \
            == pytest.approx(32 / 101)
        assert ROOT_CAUSE_PREVALENCE[RootCause.NIC_ERROR] \
            == pytest.approx(15 / 101)

    def test_every_cause_has_profile(self):
        for cause in RootCause:
            assert cause in CAUSE_PROFILES
            profile = CAUSE_PROFILES[cause]
            assert sum(profile.manifestation_weights.values()) \
                == pytest.approx(1.0)

    def test_silent_failures_lack_fatal_logs(self):
        """§3.1: fail-slow/fail-hang causes tend not to log explicitly;
        the hang-prone CCL bug and congestion-prone switch config must
        be silent."""
        assert not CAUSE_PROFILES[RootCause.CCL_BUG].fatal_log
        assert not CAUSE_PROFILES[RootCause.SWITCH_CONFIG].fatal_log

    def test_hardware_failures_have_fatal_logs(self):
        assert CAUSE_PROFILES[RootCause.GPU_HARDWARE].fatal_log
        assert CAUSE_PROFILES[RootCause.MEMORY].fatal_log


class TestSampling:
    def test_sample_count(self):
        assert len(sample_faults(50, seed=1)) == 50

    def test_deterministic(self):
        a = sample_faults(20, seed=42)
        b = sample_faults(20, seed=42)
        assert a == b

    def test_cause_marginal_matches_figure7(self):
        faults = sample_faults(3000, seed=7)
        counts = Counter(f.cause for f in faults)
        for cause, expected in ROOT_CAUSE_PREVALENCE.items():
            observed = counts[cause] / len(faults)
            assert observed == pytest.approx(expected, abs=0.03)

    def test_manifestation_marginal_roughly_matches_figure7(self):
        faults = sample_faults(3000, seed=7)
        counts = Counter(f.manifestation for f in faults)
        for manifestation, expected in MANIFESTATION_PREVALENCE.items():
            observed = counts[manifestation] / len(faults)
            assert observed == pytest.approx(expected, abs=0.06)

    def test_fail_on_start_at_iteration_zero(self):
        faults = sample_faults(300, seed=3)
        for fault in faults:
            if fault.manifestation is Manifestation.FAIL_ON_START:
                assert fault.at_iteration == 0
            else:
                assert fault.at_iteration >= 1

    def test_targets_drawn_from_pools(self):
        faults = sample_faults(
            200, seed=5, hosts=["hA", "hB"], switches=["sA"],
            link_ids=[7, 9])
        for fault in faults:
            kind = fault.profile.target_kind
            if kind == "host":
                assert fault.target in ("hA", "hB")
            elif kind == "switch":
                assert fault.target == "sA"
            elif kind == "link":
                assert fault.target in ("link:7", "link:9")

    def test_syslog_message_renders(self):
        fault = FaultSpec(RootCause.GPU_HARDWARE,
                          Manifestation.FAIL_STOP, "h0", detail="79")
        assert "Xid" in fault.syslog_message()
        assert "h0" in fault.syslog_message()


class TestSpecValidation:
    """Malformed specs fail at construction with the field named."""

    def test_negative_at_time_s_rejected(self):
        with pytest.raises(ValueError, match="at_time_s"):
            FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      "h0", at_time_s=-1.0)

    def test_negative_at_iteration_rejected(self):
        with pytest.raises(ValueError, match="at_iteration"):
            FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      "h0", at_iteration=-3)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      "")

    def test_malformed_link_reference_rejected(self):
        with pytest.raises(ValueError, match="link:<id>"):
            FaultSpec(RootCause.OPTICAL_FIBER, Manifestation.FAIL_STOP,
                      "link:banana")

    def test_link_effect_requires_link_target(self):
        # OPTICAL_FIBER manifests as LINK_DOWN — a host target is a
        # category error the constructor must catch.
        with pytest.raises(ValueError, match="requires a 'link:<id>'"):
            FaultSpec(RootCause.OPTICAL_FIBER, Manifestation.FAIL_STOP,
                      "p0.b0.h0")

    def test_device_effect_rejects_link_target(self):
        with pytest.raises(ValueError, match="cannot strike a link"):
            FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      "link:3")

    def test_validate_rejects_unknown_device(self):
        from repro.topology import AstralParams, build_astral
        topology = build_astral(AstralParams.tiny())
        spec = FaultSpec(RootCause.SWITCH_BUG, Manifestation.FAIL_STOP,
                         "no.such.tor")
        with pytest.raises(ValueError, match="unknown device"):
            spec.validate(topology=topology)

    def test_validate_rejects_unknown_link_id(self):
        from repro.topology import AstralParams, build_astral
        topology = build_astral(AstralParams.tiny())
        spec = FaultSpec(RootCause.OPTICAL_FIBER,
                         Manifestation.FAIL_STOP, "link:999999")
        with pytest.raises(ValueError, match="unknown link id"):
            spec.validate(topology=topology)

    def test_validate_passes_and_chains_on_known_targets(self):
        from repro.topology import AstralParams, build_astral
        topology = build_astral(AstralParams.tiny())
        link_id = next(iter(topology.links))
        spec = FaultSpec(RootCause.OPTICAL_FIBER,
                         Manifestation.FAIL_STOP, f"link:{link_id}")
        assert spec.validate(topology=topology) is spec


class TestCrossProcessDeterminism:
    """String-seeded draws must agree across interpreter processes
    (different ``PYTHONHASHSEED``), or campaign replays diverge."""

    @staticmethod
    def _digest_script():
        return """
import hashlib, json
from repro.cluster.recovery import RecoveryManager
from repro.monitoring.faults import sample_faults

faults = sample_faults(25, seed="campaign-7",
                       hosts=["h0", "h1"], switches=["s0"],
                       link_ids=[1, 2, 3])
recovery = RecoveryManager(seed=7)
payload = {
    "faults": [(f.cause.value, f.manifestation.value, f.target,
                f.at_iteration) for f in faults],
    "fail": [recovery.failure_delay_s("job0", a, 32)
             for a in range(4)],
    "repair": [recovery.repair_delay_s("p0.b0.r0.g0.tor", o)
               for o in range(4)],
}
print(hashlib.sha256(
    json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""

    def test_draws_stable_across_hash_seeds(self):
        digests = {out.strip() for out in outputs_under_hash_seeds(
            self._digest_script(), ("0", "424242"))}
        assert len(digests) == 1
