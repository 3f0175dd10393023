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
sharing a cross-pod tenant (one merged group, never two).  Pod-local
sub-simulations, which drop the tiers no same-rail leg inside a pod
can reach, are held ``==`` to the full-width sub-topology.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hierarchy import (HierJob, HierarchicalRun, build_flat_fabric,
                             flat_job_configs, plan_refined_group)
from repro.hierarchy.fold import EngineRunner, Window, pod_local_params
from repro.hierarchy.refine import _probe_evidence
from repro.monitoring import FaultSpec, Manifestation, RootCause
from repro.monitoring.jobsim import JobConfig
from repro.monitoring.multijob import MultiJobRun
from repro.network import Fabric, FabricEngine, make_flow
from repro.network.flows import reset_flow_ids
from repro.network.routing import EcmpRouter
from repro.network.solver import use_backend
from repro.resilience import FailureInjector, FaultDomain, expand_domains
from repro.topology import AstralParams, DeviceKind, build_astral
from repro.topology.blast_radius import device_blast_radius, impacted_hosts


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

    def test_agg_target_is_not_block_scoped(self):
        """An Agg name carries a pod but no block: the fault stays in
        its pod, at pod scope."""
        run, plans = self._plans(
            {"j0": fault(RootCause.SWITCH_BUG, Manifestation.FAIL_SLOW,
                         "p0.r0.g0.a0.agg")})
        assert not run.symmetry.flat_fallback
        assert [p.level for p in plans] == ["pod"]
        assert plans[0].evidence[0].scope == "pod"
        assert any("is not block-scoped" in reason
                   for reason in plans[0].reasons)

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


def _probe_triple(params, target):
    """(stranded_gpus, stranded_hosts, n_impacted) of failing *target*
    on ``build_astral(params)``, or ``"no probe host"`` when the target
    is the block's only host."""
    topology = build_astral(params)
    try:
        radius = device_blast_radius(topology, target)
    except StopIteration:
        return "no probe host"
    return (radius.stranded_gpus, radius.stranded_hosts,
            len(impacted_hosts(topology, target)))


class TestMinimalProbe:
    """The blast-radius probe runs on a minimal block (one Agg and one
    Core per group); its evidence must equal the full-width block's
    for every host and ToR target."""

    @settings(max_examples=40, deadline=None)
    @given(hosts=st.integers(1, 6), rails=st.integers(1, 4),
           nic_ports=st.integers(1, 3), aggs=st.integers(1, 4),
           cores=st.integers(1, 4))
    def test_minimal_probe_matches_full_width(self, hosts, rails,
                                              nic_ports, aggs, cores):
        full = AstralParams(pods=1, blocks_per_pod=1,
                            hosts_per_block=hosts, gpus_per_host=rails,
                            nic_ports=nic_ports, aggs_per_group=aggs,
                            cores_per_group=cores)
        # Pods and blocks beyond the first are never in the probe.
        minimal = pod_local_params(replace(full, pods=3, blocks_per_pod=2),
                                   1)
        assert (minimal.pods, minimal.blocks_per_pod) == (1, 1)
        targets = [device.name
                   for device in build_astral(full).devices.values()
                   if device.kind in (DeviceKind.HOST, DeviceKind.TOR)]
        for target in targets:
            expected = _probe_triple(full, target)
            assert _probe_triple(minimal, target) == expected, target
            if expected != "no probe host":
                assert _probe_evidence(minimal, target) \
                    == (expected[0], expected[2])

    def test_single_port_nics_strand_on_a_tor_failure(self):
        """The non-zero side of the evidence: with one NIC port a ToR
        failure strands its rail, and the minimal probe says so."""
        params = AstralParams(pods=1, blocks_per_pod=1, hosts_per_block=3,
                              gpus_per_host=2, nic_ports=1,
                              aggs_per_group=3, cores_per_group=2)
        triple = _probe_triple(pod_local_params(params, 1),
                               "p0.b0.r1.g0.tor")
        assert triple == _probe_triple(params, "p0.b0.r1.g0.tor")
        assert triple == (2, 2, 3)


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
            hosts = placed.host_names()
            flow = make_flow(hosts[0], hosts[1], rail=0,
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


@st.composite
def _pod_local_case(draw):
    """A pods=1 fabric, 1-3 same-rail jobs on disjoint hosts of it
    (single- or multi-block, ring or all-to-all), and in-certificate
    faults on some of them."""
    full = AstralParams(
        pods=1, blocks_per_pod=draw(st.integers(1, 3)),
        hosts_per_block=draw(st.integers(2, 6)),
        gpus_per_host=draw(st.integers(1, 3)),
        nic_ports=draw(st.integers(1, 2)),
        aggs_per_group=draw(st.integers(1, 4)),
        cores_per_group=draw(st.integers(1, 4)))
    free = [(block, host) for block in range(full.blocks_per_pod)
            for host in range(full.hosts_per_block)]
    configs, faults = [], {}
    for index in range(draw(st.integers(1, 3))):
        pool = free
        if pool and draw(st.booleans()):          # single-block job
            block = draw(st.sampled_from(sorted({b for b, _ in free})))
            pool = [slot for slot in free if slot[0] == block]
        if len(pool) < 2:
            break
        picked = draw(st.lists(st.sampled_from(pool), min_size=2,
                               max_size=min(6, len(pool)), unique=True))
        free = [slot for slot in free if slot not in picked]
        hosts = tuple(f"p0.b{block}.h{host}" for block, host in picked)
        name, rail = f"j{index}", draw(st.integers(0, full.rails - 1))
        configs.append(JobConfig(
            name=name, hosts=hosts, rail=rail, compute_time_s=0.01,
            comm_size_bits=draw(st.sampled_from([1e9, 4e9])),
            iterations=3, seed=index,
            collective=draw(st.sampled_from(["allreduce",
                                             "all_to_all"]))))
        if draw(st.booleans()):
            label, cause, manifestation, _ = draw(
                st.sampled_from(IN_CERTIFICATE))
            if label == "user-code":
                target = name
            elif label == "tor-drops":
                group = draw(st.integers(0, full.nic_ports - 1))
                target = f"p0.b{picked[0][0]}.r{rail}.g{group}.tor"
            else:
                target = draw(st.sampled_from(hosts))
            faults[name] = fault(cause, manifestation, target,
                                 at_iteration=draw(st.integers(1, 2)))
    return full, configs, faults


#: An all-to-all over two blocks offers each ToR twice its uplink
#: capacity at one Agg, but not at four: shrinking the Agg tier of a
#: multi-block pod must show.
_CROSS_BLOCK_A2A = (
    AstralParams(pods=1, blocks_per_pod=2, hosts_per_block=4,
                 gpus_per_host=1, nic_ports=1, aggs_per_group=4,
                 cores_per_group=2),
    [JobConfig(name="a2a", iterations=2, compute_time_s=0.01,
               collective="all_to_all",
               hosts=tuple(f"p0.b{block}.h{host}"
                           for block in range(2) for host in range(4)))],
    {})


def _outcome_bits(outcomes):
    return {name: (outcome.iteration_times_s,
                   outcome.expected_iteration_s)
            for name, outcome in outcomes.items()}


class TestPodLocalDifferential:
    """A pod-local sub-simulation on :func:`pod_local_params` (no Core
    tier; no Agg tier for one block) equals the same run on the
    full-width sub-topology, ``==`` on every float."""

    def test_shape_of_the_pod_local_topology(self):
        params = AstralParams()
        one = pod_local_params(params, 1)
        assert (one.pods, one.blocks_per_pod, one.aggs_per_group,
                one.cores_per_group) == (1, 1, 1, 1)
        many = pod_local_params(params, 3)
        assert (many.pods, many.blocks_per_pod, many.aggs_per_group,
                many.cores_per_group) == (1, 3, 64, 1)
        for sub in (one, many):
            assert replace(sub, pods=params.pods,
                           blocks_per_pod=params.blocks_per_pod,
                           aggs_per_group=params.aggs_per_group,
                           cores_per_group=params.cores_per_group) \
                == params

    @pytest.mark.parametrize("backend", ["python", "vector"])
    @settings(max_examples=60, deadline=None)
    @given(case=_pod_local_case())
    @example(case=_CROSS_BLOCK_A2A)
    def test_pod_local_equals_full_width(self, backend, case):
        full, configs, faults = case
        seen = []
        original = EcmpRouter.path

        def recording_path(router, flow, *args, **kwargs):
            route = original(router, flow, *args, **kwargs)
            seen.append(route.devices)
            return route

        with use_backend(backend):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(EcmpRouter, "path", recording_path)
                reference = EngineRunner().run(full, configs,
                                               faults=faults)
            local = EngineRunner().run(
                pod_local_params(full, full.blocks_per_pod), configs,
                faults=faults)
        assert _outcome_bits(local) == _outcome_bits(reference)
        # The premise: no walk on the full-width topology reaches a
        # Core, and inside one block none reaches an Agg.
        assert seen
        visited = {device for devices in seen for device in devices}
        assert not any(d.endswith(".core") for d in visited)
        if full.blocks_per_pod == 1:
            assert not any(d.endswith(".agg") for d in visited)

    def test_every_pod_local_caller_shrinks(self):
        """Each single-pod window with blocks — the block fold, the pod
        slice and bounded refinement's faulted component — runs on the
        pod-local topology."""
        params = AstralParams(pods=2, blocks_per_pod=4, hosts_per_block=4,
                              gpus_per_host=2, aggs_per_group=3,
                              cores_per_group=3)
        # Per pod: a two-block job, then two one-block jobs.  Pod 0's
        # faulted block refines bounded, its healthy two-block job runs
        # as a pod slice and its healthy lone block folds; pod 1 has a
        # multi-block job, so it pod-folds.
        jobs = [HierJob(f"j{i}", n_hosts=8 if i % 3 == 0 else 4,
                        iterations=3)
                for i in range(6)]
        faults = {"j1": fault(RootCause.GPU_HARDWARE,
                              Manifestation.FAIL_STOP, "p0.b2.h1")}
        windows = []     # [window, faulted, sub-params it ran on]
        window_run, engine_run = Window.run, EngineRunner.run

        def recording_window(window, *args, **kwargs):
            windows.append([window, bool(kwargs.get("faults")), None])
            return window_run(window, *args, **kwargs)

        def recording_engine(runner, sub, *args, **kwargs):
            windows[-1][2] = sub
            return engine_run(runner, sub, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Window, "run", recording_window)
            patch.setattr(EngineRunner, "run", recording_engine)
            run = HierarchicalRun(params, jobs, faults=faults)
            outcomes = run.run()
        assert run.report.refine_levels == {"block": 1}
        kinds = set()
        for window, faulted, sub in windows:
            assert window.blocks is not None, window.pods
            kinds.add("faulted" if faulted
                      else "block" if len(window.blocks) == 1
                      else "slice")
            where = (window.pods, window.blocks)
            assert sub == pod_local_params(params, len(window.blocks)), \
                where
            assert sub.cores_per_group == 1, where
            if len(window.blocks) == 1:
                assert sub.aggs_per_group == 1, where
        assert kinds == {"block", "slice", "faulted"}
        assert_bit_identical(outcomes,
                             run_flat(params, jobs, faults=faults))
