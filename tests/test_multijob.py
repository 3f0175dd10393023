"""Tests for multi-tenant co-scheduling, PFC congestion spreading, and
the parallelism sweep planner."""

import pytest

from repro.monitoring import (FaultSpec, JobConfig, MultiJobRun,
                              TelemetryStore)
from repro.network import (
    CongestionModel,
    Fabric,
    make_flow,
    reset_flow_ids,
)
from repro.seer import (
    LLAMA3_70B,
    HUNYUAN_MOE,
    NetworkSuite,
    Seer,
    sweep_parallelism,
)
from repro.topology import AstralParams, build_astral

HOSTS_A = ("p0.b0.h0", "p0.b0.h1", "p0.b1.h0", "p0.b1.h1")
HOSTS_B = ("p0.b0.h2", "p0.b0.h3", "p0.b1.h2", "p0.b1.h3")


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def _jobs(iterations=6):
    return [
        JobConfig(name="tenantA", hosts=HOSTS_A,
                  iterations=iterations),
        JobConfig(name="tenantB", hosts=HOSTS_B,
                  iterations=iterations),
    ]


class TestMultiJobRun:
    def test_healthy_tenants_run_at_nominal_efficiency(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        outcomes = MultiJobRun(fabric, _jobs()).run()
        for outcome in outcomes.values():
            assert outcome.efficiency > 0.95
            assert len(outcome.iteration_times_s) == 6

    def test_fault_degrades_owning_tenant(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        fault = FaultSpec.pcie_storm(HOSTS_A[1], at_iteration=1)
        outcomes = MultiJobRun(fabric, _jobs(),
                               faults={"tenantA": fault}).run()
        assert outcomes["tenantA"].efficiency < 0.7

    def test_disjoint_tenant_is_isolated(self):
        """When the tenants share no fabric hops, the storm stays
        contained — the architecture's isolation property."""
        fabric = Fabric(build_astral(AstralParams.small()))
        fault = FaultSpec.pcie_storm(HOSTS_A[1], at_iteration=1)
        outcomes = MultiJobRun(fabric, _jobs(),
                               faults={"tenantA": fault}).run()
        assert outcomes["tenantB"].efficiency > 0.9

    def test_duplicate_job_names_rejected(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        with pytest.raises(ValueError):
            MultiJobRun(fabric, [
                JobConfig(name="same", hosts=HOSTS_A),
                JobConfig(name="same", hosts=HOSTS_B),
            ])

    def test_empty_job_list_rejected(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        with pytest.raises(ValueError):
            MultiJobRun(fabric, [])

    def test_shared_store_carries_both_jobs(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        run = MultiJobRun(fabric, _jobs(iterations=2),
                          store=TelemetryStore())
        run.run()
        jobs_seen = {r.job for r in run.store.nccl_timeline}
        assert jobs_seen == {"tenantA", "tenantB"}


class TestPfcSpreading:
    """The §5 incident mechanism at flow level: a PFC-pausing device
    throttles innocent flows that traverse it."""

    def _setup(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        # Break the PCIe of h1: its access links crawl.
        for link in topology.links_of("p0.b0.h1"):
            topology.scale_link(link.link_id, 0.1)
        return topology, fabric

    def _victim_through(self, fabric, device):
        """A flow from h0 to another block routed through *device*."""
        for port in range(49152, 49152 + 256):
            reset_flow_ids()
            flow = make_flow("p0.b0.h0", "p0.b1.h3", rail=0,
                             size_bits=8e9, src_port=port)
            if device in fabric.router.path(flow).devices:
                return flow
        raise AssertionError(f"no victim path through {device}")

    def test_pause_factors_computed(self):
        topology, fabric = self._setup()
        # Saturating traffic into the broken host.
        flows = [
            make_flow(f"p0.b0.h{src}", "p0.b0.h1", rail=0,
                      size_bits=8e9, src_port=50_000 + src)
            for src in (0, 2, 3)
        ]
        loads = fabric.offered_loads(flows)
        factors = CongestionModel().pfc_capacity_factors(loads,
                                                         topology)
        assert factors
        assert all(0.0 < factor < 1.0 for factor in factors.values())

    def test_innocent_flow_throttled_via_shared_tor(self):
        topology, fabric = self._setup()
        storm_flows = [
            make_flow(f"p0.b0.h{src}", "p0.b0.h1", rail=0,
                      size_bits=64e9, src_port=50_000 + src)
            for src in (2, 3)
        ]
        # The pausing ToR is whichever receives the storm traffic.
        storm_path = fabric.router.path(storm_flows[0])
        pausing_tor = storm_path.devices[1]
        victim = self._victim_through(fabric, pausing_tor)
        flows = storm_flows + [victim]

        plain = fabric.complete(list(flows), pfc_spreading=False)
        for flow in flows:
            flow.rate_gbps = 0.0
        spread = fabric.complete(list(flows), pfc_spreading=True)
        assert spread.finish_times_s[victim.flow_id] \
            > plain.finish_times_s[victim.flow_id] * 1.2

    def test_no_pfc_no_factors(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        flow = make_flow("p0.b0.h0", "p0.b0.h1", rail=0,
                         size_bits=8e9)
        loads = fabric.offered_loads([flow])
        factors = CongestionModel().pfc_capacity_factors(loads,
                                                         topology)
        assert factors == {}


class TestSweep:
    @pytest.fixture(scope="class")
    def seer(self):
        return Seer(gpu="H800", network=NetworkSuite())

    def test_candidates_sorted_by_throughput(self, seer):
        candidates = sweep_parallelism(seer, LLAMA3_70B, 64,
                                       microbatches=8)
        assert candidates
        throughputs = [c.tokens_per_s for c in candidates]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_world_size_respected(self, seer):
        for candidate in sweep_parallelism(seer, LLAMA3_70B, 64,
                                           microbatches=8):
            assert candidate.parallel.world_size == 64

    def test_infeasible_layouts_excluded_by_default(self, seer):
        candidates = sweep_parallelism(seer, LLAMA3_70B, 64,
                                       microbatches=8)
        assert all(c.fits for c in candidates)

    def test_include_infeasible_ranks_them_last(self, seer):
        candidates = sweep_parallelism(seer, LLAMA3_70B, 64,
                                       microbatches=8,
                                       include_infeasible=True)
        fit_flags = [c.fits for c in candidates]
        # Once an infeasible layout appears, no feasible one follows.
        if False in fit_flags:
            first_bad = fit_flags.index(False)
            assert all(not flag for flag in fit_flags[first_bad:])

    def test_moe_sweep_considers_ep(self, seer):
        candidates = sweep_parallelism(seer, HUNYUAN_MOE, 64,
                                       microbatches=8,
                                       include_infeasible=True)
        assert any(c.parallel.ep > 1 for c in candidates)

    def test_invalid_budget(self, seer):
        with pytest.raises(ValueError):
            sweep_parallelism(seer, LLAMA3_70B, 0)

    def test_label(self, seer):
        candidates = sweep_parallelism(seer, LLAMA3_70B, 16,
                                       microbatches=4,
                                       include_infeasible=True)
        assert all("TP" in c.label and "PP" in c.label
                   for c in candidates)
