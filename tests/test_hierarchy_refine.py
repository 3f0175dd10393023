"""Bounded refinement: the escalation ladder and its exactness proof.

The correctness bar mirrors the fold's: for every fault class whose
block-level certificate holds, bounded refinement must equal full-pod
refinement — and the flat :class:`MultiJobRun` — with ``==`` on every
float, no tolerances.  For every class whose certificate is void the
*ladder itself* is asserted (the :class:`RefinePlan` names the level
and the reason), not just the final numbers.  The fault-then-heal
scenarios from the issue ride here too: a link flap inside the
hold-down window while a refined group's tenants are live, a heal that
refolds under the vector solver, and a double fault in two pods
sharing a cross-pod tenant (one merged group, never two).
"""

import pytest

from repro.hierarchy import (HierJob, HierarchicalRun, build_flat_fabric,
                             flat_job_configs, plan_refined_group)
from repro.monitoring import FaultSpec, Manifestation, RootCause
from repro.monitoring.multijob import MultiJobRun
from repro.network import Fabric, FabricEngine, make_flow
from repro.network.flows import reset_flow_ids
from repro.network.solver import use_backend
from repro.resilience import FailureInjector, FaultDomain, expand_domains
from repro.topology import AstralParams, build_astral


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def tiny(pods: int = 2) -> AstralParams:
    return AstralParams(pods=pods, blocks_per_pod=2, hosts_per_block=4,
                        gpus_per_host=2, aggs_per_group=2,
                        cores_per_group=2)


def block_jobs(params):
    return [HierJob(f"j{i}", n_hosts=params.hosts_per_block,
                    iterations=3)
            for i in range(params.pods * params.blocks_per_pod)]


def run_flat(params, jobs, caps=None, faults=None):
    reset_flow_ids()
    return MultiJobRun(build_flat_fabric(params),
                       flat_job_configs(params, jobs, caps),
                       faults=faults).run()


def assert_bit_identical(folded, flat):
    assert set(folded) == set(flat)
    for name in flat:
        assert folded[name].iteration_times_s \
            == flat[name].iteration_times_s, name
        assert folded[name].expected_iteration_s \
            == flat[name].expected_iteration_s, name


def fault(cause, manifestation, target, **kw):
    return FaultSpec(cause=cause, manifestation=manifestation,
                     target=target, **kw)


#: in-certificate fault classes: (cause, manifestation, target maker).
#: Every one must plan "block" and stay bit-identical down the ladder.
IN_CERTIFICATE = [
    ("nic-hang", RootCause.NIC_ERROR, Manifestation.FAIL_HANG,
     "p0.b0.h1"),
    ("nic-stop", RootCause.NIC_ERROR, Manifestation.FAIL_STOP,
     "p0.b0.h1"),
    ("gpu-fatal", RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
     "p0.b0.h0"),
    ("ecc-fatal", RootCause.MEMORY, Manifestation.FAIL_STOP,
     "p0.b0.h2"),
    ("ccl-hang", RootCause.CCL_BUG, Manifestation.FAIL_HANG,
     "p0.b0.h3"),
    ("env-config", RootCause.HOST_ENV_CONFIG, Manifestation.FAIL_STOP,
     "p0.b0.h0"),
    ("tor-drops", RootCause.SWITCH_BUG, Manifestation.FAIL_SLOW,
     "p0.b0.r0.g0.tor"),
    ("user-code", RootCause.USER_CODE, Manifestation.FAIL_STOP, "j0"),
]


class TestLadderPlanning:
    """Assert the level and the reason, not just the result."""

    def _plans(self, faults, mode="bounded", params=None, jobs=None):
        params = params or tiny()
        run = HierarchicalRun(params, jobs or block_jobs(params),
                              faults=faults, refine=mode)
        run.run()
        return run, run.refine_plans

    @pytest.mark.parametrize(
        "label,cause,manifestation,target",
        IN_CERTIFICATE, ids=[row[0] for row in IN_CERTIFICATE])
    def test_certified_classes_plan_block(self, label, cause,
                                          manifestation, target):
        run, plans = self._plans(
            {"j0": fault(cause, manifestation, target)})
        assert [p.level for p in plans] == ["block"]
        assert plans[0].reasons == ()
        assert run.report.refine_levels == {"block": 1}

    def test_block_evidence_carries_the_probe(self):
        _, plans = self._plans(
            {"j0": fault(RootCause.NIC_ERROR, Manifestation.FAIL_HANG,
                         "p0.b0.h1")})
        evidence = plans[0].evidence[0]
        assert evidence.scope == "block"
        assert evidence.blocks == (0,)
        assert evidence.stranded_gpus == 0
        assert evidence.impacted_hosts >= 1

    def test_job_state_fault_has_no_cut_set(self):
        _, plans = self._plans(
            {"j0": fault(RootCause.USER_CODE, Manifestation.FAIL_STOP,
                         "j0")})
        assert plans[0].level == "block"
        assert plans[0].evidence[0].scope == "job"

    def test_hash_sensitive_effect_escalates_to_pod(self):
        run, plans = self._plans(
            {"j0": fault(RootCause.SWITCH_BUG, Manifestation.FAIL_STOP,
                         "p0.b0.r0.g0.tor")})
        assert plans[0].level == "pod"
        assert any("hash-sensitive" in reason
                   for reason in plans[0].reasons)
        assert run.report.refine_levels == {"pod": 1}

    def test_timestamp_fault_escalates_to_pod(self):
        _, plans = self._plans(
            {"j0": fault(RootCause.CCL_BUG, Manifestation.FAIL_HANG,
                         "p0.b0.h1", at_time_s=0.1)})
        assert plans[0].level == "pod"
        assert any("epoch-sensitive" in reason
                   for reason in plans[0].reasons)

    def test_capacity_degrading_fail_slow_escalates_to_pod(self):
        """The flaky-NIC crawl keeps transmitting below line rate,
        where co-resident solve epochs reschedule its flows — hash-free
        but still out of certificate."""
        run, plans = self._plans(
            {"j0": fault(RootCause.NIC_ERROR, Manifestation.FAIL_SLOW,
                         "p0.b0.h1")})
        assert plans[0].level == "pod"
        assert any("capacity-degrading" in reason
                   for reason in plans[0].reasons)
        assert run.report.refine_levels == {"pod": 1}

    def test_congestive_switch_config_escalates_to_pod(self):
        _, plans = self._plans(
            {"j0": fault(RootCause.SWITCH_CONFIG,
                         Manifestation.FAIL_SLOW,
                         "p0.b0.r0.g0.tor")})
        assert plans[0].level == "pod"

    def test_core_target_forces_flat(self):
        run, plans = self._plans(
            {"j0": fault(RootCause.SWITCH_BUG, Manifestation.FAIL_SLOW,
                         "cg0.c0.core")})
        assert run.symmetry.flat_fallback
        assert [p.level for p in plans] == ["flat"]
        assert run.report.refine_levels == {"flat": 1}

    def test_link_target_forces_flat(self):
        run, plans = self._plans(
            {"j0": fault(RootCause.OPTICAL_FIBER,
                         Manifestation.FAIL_STOP, "link:3")})
        assert run.symmetry.flat_fallback
        assert [p.level for p in plans] == ["flat"]

    def test_pod_mode_skips_the_block_rung(self):
        run, plans = self._plans(
            {"j0": fault(RootCause.GPU_HARDWARE,
                         Manifestation.FAIL_STOP, "p0.b0.h1")},
            mode="pod")
        assert plans[0].level == "pod"
        assert "refine mode forces pod-level unfolding" \
            in plans[0].reasons
        assert run.report.refine_mode == "pod"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="refine mode"):
            HierarchicalRun(tiny(), block_jobs(tiny()), refine="best")
        with pytest.raises(ValueError, match="refine mode"):
            plan_refined_group(tiny(), object(), mode="best")


class TestBoundedDifferential:
    """Bounded == pod == flat, bit for bit, whenever certified."""

    @pytest.mark.parametrize(
        "label,cause,manifestation,target",
        IN_CERTIFICATE, ids=[row[0] for row in IN_CERTIFICATE])
    def test_certified_classes_are_exact(self, label, cause,
                                         manifestation, target):
        params, jobs = tiny(), block_jobs(tiny())
        faults = {"j0": fault(cause, manifestation, target)}
        bounded = HierarchicalRun(params, jobs, faults=faults)
        pod = HierarchicalRun(params, jobs, faults=faults, refine="pod")
        flat = run_flat(params, jobs, faults=faults)
        assert_bit_identical(bounded.run(), flat)
        assert_bit_identical(pod.run(), flat)
        assert bounded.report.refine_levels == {"block": 1}
        assert pod.report.refine_levels == {"pod": 1}

    @pytest.mark.parametrize("cause,manifestation,target", [
        (RootCause.SWITCH_BUG, Manifestation.FAIL_STOP,
         "p0.b0.r0.g0.tor"),
        (RootCause.NIC_ERROR, Manifestation.FAIL_SLOW, "p0.b0.h1"),
    ], ids=["switch-stop", "nic-crawl"])
    def test_escalated_classes_still_match_flat(self, cause,
                                                manifestation, target):
        """Out of certificate means *dearer*, never *wrong*: the pod
        rung is still exact against the flat reference."""
        params, jobs = tiny(), block_jobs(tiny())
        faults = {"j0": fault(cause, manifestation, target)}
        bounded = HierarchicalRun(params, jobs, faults=faults)
        assert_bit_identical(bounded.run(),
                             run_flat(params, jobs, faults=faults))
        assert bounded.report.refine_levels == {"pod": 1}

    def test_domain_faults_are_exact_down_the_ladder(self):
        params, jobs = tiny(), block_jobs(tiny())
        run0 = HierarchicalRun(params, jobs)
        domain = FaultDomain("optics-batch", pod=0, block=0, size=2,
                             seed="bench")
        faults = expand_domains(params, run0.placed, [domain])
        assert faults
        bounded = HierarchicalRun(params, jobs, faults=faults)
        pod = HierarchicalRun(params, jobs, faults=faults, refine="pod")
        flat = run_flat(params, jobs, faults=faults)
        assert_bit_identical(bounded.run(), flat)
        assert_bit_identical(pod.run(), flat)
        assert bounded.report.refine_levels == {"block": 1}

    def test_gray_domain_is_exact_and_block_scoped(self):
        params, jobs = tiny(), block_jobs(tiny())
        run0 = HierarchicalRun(params, jobs)
        domain = FaultDomain("rack", pod=1, block=1, size=2,
                             mode="gray", seed=3)
        faults = expand_domains(params, run0.placed, [domain])
        bounded = HierarchicalRun(params, jobs, faults=faults)
        assert_bit_identical(bounded.run(),
                             run_flat(params, jobs, faults=faults))
        assert bounded.report.refine_levels == {"block": 1}

    def test_bounded_bills_fewer_engine_hosts(self):
        """The whole point: the faulted block runs exactly, the pod's
        healthy sibling blocks fold down to one representative, so the
        bounded bill undercuts the full-pod bill."""
        params = AstralParams(pods=2, blocks_per_pod=4,
                              hosts_per_block=4, gpus_per_host=2,
                              aggs_per_group=2, cores_per_group=2)
        jobs = block_jobs(params)
        faults = {"j0": fault(RootCause.NIC_ERROR,
                              Manifestation.FAIL_HANG, "p0.b0.h1")}
        bounded = HierarchicalRun(params, jobs, faults=faults)
        assert_bit_identical(bounded.run(),
                             run_flat(params, jobs, faults=faults))
        report = bounded.report
        # Full-pod scope: all 4 blocks (16 hosts).  Bounded: the
        # faulted block exactly (4) plus one healthy rep block (4).
        assert report.n_full_unfold_hosts == 4 * params.hosts_per_block
        assert report.n_refine_engine_hosts == 2 * params.hosts_per_block
        assert report.refine_levels == {"block": 1}

    def test_both_solver_backends_agree(self):
        params, jobs = tiny(), block_jobs(tiny())
        faults = {"j0": fault(RootCause.GPU_HARDWARE,
                              Manifestation.FAIL_STOP, "p0.b0.h0")}

        def _run():
            reset_flow_ids()
            return HierarchicalRun(params, jobs, faults=faults).run()

        with use_backend("python"):
            reference = _run()
        with use_backend("vector"):
            assert_bit_identical(_run(), reference)


class TestFaultThenHealAtScale:
    """The three issue scenarios: flap in the hold-down, heal-refold
    under the vector solver, double fault on a shared tenant."""

    def test_flap_inside_holddown_during_refined_group_run(self):
        """While a refined group's tenants are live on the engine, a
        member link flaps and asks to return *inside* the dampening
        window: readmission is deferred to the window end, the flows
        all finish, and the flap costs at most one reroute."""
        params, jobs = tiny(), block_jobs(tiny())
        run = HierarchicalRun(
            params, jobs,
            faults={"j0": fault(RootCause.SWITCH_BUG,
                                Manifestation.FAIL_SLOW,
                                "p0.b0.r0.g0.tor")})
        run.run()
        group = run.symmetry.refined[0]
        assert group.pods == (0,)

        # Re-drive the group's tenants as live flows with an injector.
        reset_flow_ids()
        engine = FabricEngine(Fabric(build_astral(params)))
        flows = []
        for placed in group.jobs:
            flow = make_flow(placed.hosts[0], placed.hosts[1], rail=0,
                             size_bits=4e12)
            engine.submit(flow)
            flows.append(flow)
        injector = FailureInjector(engine, dampening_s=10.0)
        victim = engine.fabric.router.path(flows[0]).link_ids[0]
        # Down at t=2, up requested at t=3 — still 9s inside the window.
        injector.flap_link(victim, at=2.0, down_s=1.0)
        result = engine.run()
        for flow in flows:
            assert flow.flow_id in result.finish_times_s
            assert engine.reroutes.get(flow.flow_id, 0) <= 1
        # Readmission happened, but only at the hold-down's end.
        restores = [e for e in injector.log
                    if e.action == "restore-link"]
        assert restores and restores[0].at_s == pytest.approx(12.0)
        assert engine.fabric.topology.links[victim].healthy

    def test_heal_triggered_refold_under_vector_solver(self):
        """Fault clears -> the next run folds back to one pod class,
        and the refolded result is bit-identical to flat, all on the
        vector backend."""
        params, jobs = tiny(), block_jobs(tiny())
        faults = {"j2": fault(RootCause.GPU_HARDWARE,
                              Manifestation.FAIL_STOP, "p1.b0.h0")}
        with use_backend("vector"):
            faulted = HierarchicalRun(params, jobs, faults=faults)
            faulted.run()
            assert faulted.report.n_refined_groups == 1
            assert faulted.report.refine_levels == {"block": 1}
            healed = HierarchicalRun(params, jobs)
            assert_bit_identical(healed.run(), run_flat(params, jobs))
            assert healed.report.n_refined_groups == 0
            assert healed.report.exact

    def test_double_fault_shared_tenant_merges_to_one_group(self):
        """Faults in two pods that share a cross-pod tenant must land
        in a single merged refinement group — two groups would split
        the tenant and double-simulate it."""
        params = tiny()
        jobs = [HierJob("j0", n_hosts=4, iterations=3),
                HierJob("wide", n_hosts=8, iterations=3),
                HierJob("j1", n_hosts=4, iterations=3)]
        faults = {
            "j0": fault(RootCause.NIC_ERROR, Manifestation.FAIL_SLOW,
                        "p0.b0.h0"),
            "j1": fault(RootCause.NIC_ERROR, Manifestation.FAIL_SLOW,
                        "p1.b1.h0"),
        }
        run = HierarchicalRun(params, jobs, faults=faults)
        wide = next(p for p in run.placed if p.name == "wide")
        assert wide.pods == (0, 1)        # the tenant really crosses
        assert len(run.symmetry.refined) == 1
        group = run.symmetry.refined[0]
        assert group.pods == (0, 1)
        assert {p.name for p in group.jobs} == {"j0", "wide", "j1"}
        assert set(group.faults) == {"j0", "j1"}
        run.run()
        # Cross-pod tenancy voids the block certificate: pod level,
        # with the reason on the record.
        assert run.report.refine_levels == {"pod": 1}
        assert any("cross-pod tenant" in reason
                   for reason in run.refine_plans[0].reasons)
        assert_bit_identical(run.report.outcomes,
                             run_flat(params, jobs, faults=faults))
