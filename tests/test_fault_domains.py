"""Correlated fault domains: deterministic expansion, the JSON front
door's structured errors, and the gray mode's detection-miss path.

The gray contract is the interesting one: a gray domain degrades link
*capacity* without touching carrier, so the pingmesh census — the
recovery pipeline's first detection signal — never moves and the
detect->localize loop provably misses, while the same domain in hard
mode is caught and repaired.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RecoveryManager
from repro.core.placement import GpuAllocator
from repro.hierarchy import HierJob, place_jobs
from repro.monitoring import Manifestation, RootCause
from repro.monitoring.pingmesh import Pingmesh
from repro.network import Fabric, FabricEngine
from repro.network.flows import reset_flow_ids
from repro.resilience import (
    DOMAIN_KINDS,
    FailureInjector,
    FaultDomain,
    RecoveryPipeline,
    domain_fault_specs,
    expand_domains,
    faults_from_document,
    inject_domain,
)
from repro.topology import AstralParams, build_astral


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def tiny() -> AstralParams:
    return AstralParams(pods=2, blocks_per_pod=2, hosts_per_block=4,
                        gpus_per_host=2, aggs_per_group=2,
                        cores_per_group=2)


def placed_jobs(params):
    jobs = [HierJob(f"j{i}", n_hosts=params.hosts_per_block,
                    iterations=3)
            for i in range(params.pods * params.blocks_per_pod)]
    return place_jobs(params, jobs)


class TestExpansion:
    @pytest.mark.parametrize("kind", DOMAIN_KINDS)
    @pytest.mark.parametrize("mode", ["hard", "gray"])
    def test_expansion_is_deterministic(self, kind, mode):
        params = tiny()
        domain = FaultDomain(kind, pod=1, block=1, size=2, mode=mode,
                             seed="incident-42")
        assert domain_fault_specs(params, domain) \
            == domain_fault_specs(params, domain)

    def test_contiguous_kinds_hit_adjacent_hosts(self):
        params = tiny()
        for kind in ("power-domain", "rack"):
            specs = domain_fault_specs(
                params, FaultDomain(kind, size=3, seed=9))
            hosts = sorted(int(s.target.rsplit("h", 1)[1])
                           for s in specs)
            assert hosts == list(range(hosts[0], hosts[0] + 3))

    def test_switch_asic_targets_tors(self):
        params = tiny()
        specs = domain_fault_specs(
            params, FaultDomain("switch-asic", size=2, seed=1))
        assert len(specs) == 2
        assert all(s.target.endswith(".tor") for s in specs)
        assert all(s.cause is RootCause.SWITCH_BUG for s in specs)

    def test_gray_mode_picks_the_alarm_free_manifestation(self):
        params = tiny()
        rack = domain_fault_specs(
            params, FaultDomain("rack", size=2, mode="gray"))
        assert all(s.manifestation is Manifestation.FAIL_HANG
                   for s in rack)
        optics = domain_fault_specs(
            params, FaultDomain("optics-batch", size=2, mode="gray"))
        assert all(s.manifestation is Manifestation.FAIL_SLOW
                   for s in optics)

    def test_onset_jitter_stays_in_bounds(self):
        params = tiny()
        specs = domain_fault_specs(
            params, FaultDomain("optics-batch", size=4, at_iteration=2,
                                jitter_iterations=1, seed=7))
        assert {s.at_iteration for s in specs} <= {2, 3}
        assert all(s.at_time_s is None for s in specs)

    def test_timestamp_onset_jitters_on_the_clock(self):
        params = tiny()
        specs = domain_fault_specs(
            params, FaultDomain("optics-batch", size=4, at_time_s=5.0,
                                jitter_s=0.5, seed=7))
        assert all(5.0 <= s.at_time_s < 5.5 for s in specs)

    def test_size_exceeding_the_block_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds the block's"):
            domain_fault_specs(
                tiny(), FaultDomain("power-domain", size=99))

    @pytest.mark.parametrize("kw,match", [
        ({"kind": "comet"}, "unknown fault-domain kind"),
        ({"kind": "rack", "mode": "soft"}, "unknown fault-domain mode"),
        ({"kind": "rack", "size": 0}, "size must be"),
        ({"kind": "rack", "gray_factor": 0.0}, "gray_factor"),
    ])
    def test_field_validation(self, kw, match):
        with pytest.raises(ValueError, match=match):
            FaultDomain(**kw)


class TestExpandDomains:
    def test_one_fault_per_job_keyed_to_the_occupant(self):
        params = tiny()
        placed = placed_jobs(params)
        domain = FaultDomain("power-domain", pod=1, block=0, size=3,
                             seed=5)
        faults = expand_domains(params, placed, [domain])
        # All three contiguous hosts belong to j2 (pod 1, block 0):
        # the first member wins, the job is already broken.
        assert list(faults) == ["j2"]
        assert faults["j2"].target.startswith("p1.b0.h")

    def test_idle_host_members_are_dropped(self):
        params = tiny()
        placed = placed_jobs(params)[:1]        # only j0 (p0.b0) placed
        domain = FaultDomain("rack", pod=0, block=1, size=2, seed=5)
        assert expand_domains(params, placed, [domain]) == {}

    def test_tor_members_ride_on_a_block_resident(self):
        params = tiny()
        placed = placed_jobs(params)
        domain = FaultDomain("switch-asic", pod=0, block=1, size=1,
                             seed=2)
        faults = expand_domains(params, placed, [domain])
        assert list(faults) == ["j1"]
        assert faults["j1"].target.endswith(".tor")


def _reference_expand_domains(params, placed, domains):
    """The expansion that indexed every host of the cluster, kept
    verbatim as the oracle for the block-restricted index."""
    owner: Dict[str, str] = {}
    by_block: Dict[tuple, List] = {}
    for placed_job in placed:
        for host in placed_job.host_names():
            owner[host] = placed_job.name
        for coord in placed_job.coords:
            by_block.setdefault((coord[0], coord[1]),
                                []).append(placed_job)
    faults = {}
    for domain in domains:
        for spec in domain_fault_specs(params, domain):
            if spec.target.endswith(".tor"):
                residents = by_block.get((domain.pod, domain.block), [])
                name = next((p.name for p in residents
                             if p.name not in faults), None)
            else:
                name = owner.get(spec.target)
            if name is None or name in faults:
                continue
            faults[name] = spec
    return faults


@st.composite
def _cluster_and_domains(draw):
    params = AstralParams(
        pods=draw(st.integers(1, 3)), blocks_per_pod=draw(st.integers(1, 3)),
        hosts_per_block=draw(st.integers(1, 6)),
        gpus_per_host=draw(st.integers(1, 3)),
        nic_ports=draw(st.integers(1, 2)), aggs_per_group=1,
        cores_per_group=1)
    every_host = [f"p{pod}.b{block}.h{host}"
                  for pod in range(params.pods)
                  for block in range(params.blocks_per_pod)
                  for host in range(params.hosts_per_block)]
    # Pinned jobs take explicit hosts (anywhere, any order); cursor
    # jobs fill what is left.  Leaving hosts idle is allowed.
    free = list(every_host)
    pinned = []
    for index in range(draw(st.integers(0, 3))):
        if not free:
            break
        hosts = draw(st.lists(st.sampled_from(free), min_size=1,
                              max_size=min(4, len(free)), unique=True))
        free = [h for h in free if h not in hosts]
        pinned.append(HierJob(f"pin{index}", n_hosts=len(hosts),
                              hosts=tuple(hosts)))
    budget = len(free)
    cursor = []
    for index in range(draw(st.integers(0, 6))):
        if budget == 0:
            break
        n_hosts = draw(st.integers(1, min(budget, 8)))
        budget -= n_hosts
        cursor.append(HierJob(f"cur{index}", n_hosts=n_hosts))
    jobs = draw(st.permutations(pinned + cursor))
    domains = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(DOMAIN_KINDS))
        pool = (params.gpus_per_host * params.nic_ports
                if kind == "switch-asic" else params.hosts_per_block)
        domains.append(FaultDomain(
            kind, pod=draw(st.integers(0, params.pods - 1)),
            block=draw(st.integers(0, params.blocks_per_pod - 1)),
            size=draw(st.integers(1, pool)),
            mode=draw(st.sampled_from(["hard", "gray"])),
            seed=draw(st.integers(0, 50))))
    return params, place_jobs(params, jobs), domains


class TestExpandDomainsOracle:
    """Indexing only the blocks a domain can hit changes no fault map."""

    @settings(max_examples=150, deadline=None)
    @given(case=_cluster_and_domains())
    def test_block_restricted_index_matches_full_index(self, case):
        params, placed, domains = case
        assert expand_domains(params, placed, domains) \
            == _reference_expand_domains(params, placed, domains)


class TestFaultDocument:
    def test_domains_and_explicit_faults_merge(self):
        params = tiny()
        placed = placed_jobs(params)
        document = {
            "domains": [{"kind": "optics-batch", "pod": 0, "block": 0,
                         "size": 2, "seed": 11}],
            "faults": [{"job": "j3", "cause": "user-code",
                        "manifestation": "fail-stop", "target": "j3"}],
        }
        faults = faults_from_document(params, placed, document)
        assert set(faults) == {"j0", "j3"}
        assert faults["j3"].cause is RootCause.USER_CODE

    def test_explicit_fault_overrides_domain_fault(self):
        params = tiny()
        placed = placed_jobs(params)
        document = {
            "domains": [{"kind": "optics-batch", "pod": 0, "block": 0,
                         "size": 2, "seed": 11}],
            "faults": [{"job": "j0", "cause": "ccl-bug",
                        "manifestation": "fail-hang",
                        "target": "p0.b0.h0"}],
        }
        faults = faults_from_document(params, placed, document)
        assert faults["j0"].cause is RootCause.CCL_BUG

    @pytest.mark.parametrize("document,match", [
        (["not-an-object"], "must be an object"),
        ({"domains": [], "typo": []}, "unknown keys"),
        ({"domains": ["x"]}, r"domains\[0\]: expected an object"),
        ({"domains": [{"kind": "comet"}]},
         r"domains\[0\]: unknown fault-domain kind"),
        ({"domains": [{"kind": "rack", "pod": 9}]},
         r"domains\[0\].*pod 9 out of range"),
        ({"domains": [{"kind": "rack", "frobnicate": 1}]},
         r"domains\[0\]"),
        ({"faults": [{"cause": "nic-error",
                      "manifestation": "fail-slow",
                      "target": "p0.b0.h0"}]},
         r"faults\[0\]: missing 'job'"),
        ({"faults": [{"job": "ghost", "cause": "nic-error",
                      "manifestation": "fail-slow",
                      "target": "p0.b0.h0"}]},
         r"faults\[0\]: job 'ghost' is not a placed tenant"),
        ({"faults": [{"job": "j0", "cause": "meteor-strike",
                      "manifestation": "fail-slow",
                      "target": "p0.b0.h0"}]},
         r"faults\[0\]: unknown rootcause"),
        ({"faults": [{"job": "j0", "cause": "nic-error",
                      "manifestation": "fail-slow",
                      "target": "p9.b0.h0"}]},
         r"faults\[0\].*names pod 9"),
        ({"faults": [{"job": "j0", "cause": "nic-error",
                      "manifestation": "fail-slow",
                      "target": "p0.b7.h0"}]},
         r"faults\[0\].*names block 7"),
        ({"faults": [{"job": "j0", "cause": "nic-error",
                      "manifestation": "fail-slow",
                      "target": "p0.b0.h44"}]},
         r"faults\[0\].*names host 44"),
        ({"faults": [{"job": "j0", "cause": "user-code",
                      "manifestation": "fail-stop",
                      "target": "j1"}]},
         r"faults\[0\].*targets the job itself"),
    ])
    def test_malformed_entries_name_the_offender(self, document, match):
        params = tiny()
        placed = placed_jobs(params)
        with pytest.raises(ValueError, match=match):
            faults_from_document(params, placed, document)


class TestGrayDetectionMiss:
    """Gray degrades capacity, not carrier: the census never moves."""

    def _rig(self):
        params = AstralParams.small()
        engine = FabricEngine(Fabric(build_astral(params)))
        injector = FailureInjector(engine)
        pipeline = RecoveryPipeline(
            engine, GpuAllocator(engine.fabric.topology),
            recovery=RecoveryManager(seed=5, ttr_hours=0.5),
            probe_interval_s=30.0)
        return params, engine, injector, pipeline

    def test_gray_domain_slips_past_the_pipeline(self):
        params, engine, injector, pipeline = self._rig()
        mesh = Pingmesh(engine.fabric)
        baseline = mesh.census()
        pipeline.start()
        domain = FaultDomain("optics-batch", size=2, mode="gray",
                             at_time_s=50.0, seed=8)
        specs = inject_domain(injector, params, domain)
        assert len(specs) == 2

        def stopper():
            yield engine.sim.timeout(1000.0)
            pipeline.stop()

        engine.sim.process(stopper(), name="stopper")
        engine.sim.run()
        # Capacity took the hit; carrier (and hence the census) did not.
        degrades = [e for e in injector.log
                    if e.action == "degrade-link"]
        assert degrades and all(e.at_s >= 50.0 for e in degrades)
        assert mesh.census() == baseline
        assert pipeline.records == []     # the miss path, by design

    def test_hard_domain_is_caught_and_repaired(self):
        params, engine, injector, pipeline = self._rig()
        pipeline.start()
        domain = FaultDomain("optics-batch", size=2, mode="hard",
                             at_time_s=50.0, seed=8)
        specs = inject_domain(injector, params, domain)

        def stopper():
            yield engine.sim.timeout(30_000.0)
            pipeline.stop()

        engine.sim.process(stopper(), name="stopper")
        engine.sim.run()
        # Same domain, loud manifestation: detected, localized to the
        # member hosts, cordoned and eventually repaired.
        assert pipeline.records
        cordoned = {host for r in pipeline.records
                    for host in r.cordoned_hosts}
        assert cordoned and cordoned <= {s.target for s in specs}
        assert all(r.repaired_s is not None for r in pipeline.records)

    def test_inject_returns_the_expanded_members(self):
        params, engine, injector, _ = self._rig()
        domain = FaultDomain("rack", size=2, mode="gray",
                             at_time_s=10.0, seed=3)
        assert inject_domain(injector, params, domain) \
            == domain_fault_specs(params, domain)
