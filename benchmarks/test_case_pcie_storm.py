"""§5 case study — PCIe issue causes PFC storms across the cluster.

"We encountered a dramatic drop in training efficiency to 50% when
multiple customers trained their models simultaneously ... the PCIe of
one machine was broken, which eventually triggered PFC and caused
congestion spreading."  Reproduced in three acts:

1. a broken-PCIe host halves its own tenant's training efficiency;
2. PFC backpressure throttles an innocent flow sharing the pausing
   ToR (the congestion-spreading mechanism);
3. the evolved monitoring system (with the post-incident PCIe detector
   patched in) pinpoints the root cause that the pre-incident system
   could not.
"""

from repro.monitoring import (
    FaultSpec,
    HierarchicalAnalyzer,
    JobConfig,
    Manifestation,
    MonitoredTrainingJob,
    MultiJobRun,
    default_registry,
    pre_incident_registry,
)
from repro.network import Fabric, make_flow, \
    reset_flow_ids
from repro.topology import AstralParams, build_astral

HOSTS_A = ("p0.b0.h0", "p0.b0.h1", "p0.b1.h0", "p0.b1.h1")
HOSTS_B = ("p0.b0.h2", "p0.b0.h3", "p0.b1.h2", "p0.b1.h3")
BROKEN = HOSTS_A[1]


def _co_run(with_fault: bool):
    reset_flow_ids()
    fabric = Fabric(build_astral(AstralParams.small()))
    jobs = [
        JobConfig(name="tenantA", hosts=HOSTS_A, iterations=6),
        JobConfig(name="tenantB", hosts=HOSTS_B, iterations=6),
    ]
    faults = {"tenantA": FaultSpec.pcie_storm(BROKEN, at_iteration=1)} \
        if with_fault else None
    return MultiJobRun(fabric, jobs, faults=faults).run()


def test_case_pcie_storm_halves_tenant(benchmark, series_printer):
    healthy = _co_run(with_fault=False)
    stormy = benchmark.pedantic(_co_run, args=(True,), rounds=1,
                                iterations=1)
    rows = [
        (name, f"{healthy[name].efficiency:.1%}",
         f"{stormy[name].efficiency:.1%}")
        for name in ("tenantA", "tenantB")
    ]
    series_printer(
        "S5 case: multi-tenant efficiency with a broken-PCIe host",
        rows, ["tenant", "healthy", "during PCIe storm"])

    # "Some customers reported their model training efficiency was
    # reduced by half."
    assert stormy["tenantA"].efficiency < 0.7
    assert healthy["tenantA"].efficiency > 0.95


def test_case_pfc_congestion_spreading(benchmark, series_printer):
    """The mechanism: the pausing ToR throttles an innocent flow."""
    reset_flow_ids()
    topology = build_astral(AstralParams.small())
    fabric = Fabric(topology)
    for link in topology.links_of(BROKEN):
        topology.scale_link(link.link_id, 0.1)

    storm = [
        make_flow(src, BROKEN, rail=0, size_bits=64e9,
                  src_port=50_000 + index)
        for index, src in enumerate(("p0.b0.h2", "p0.b0.h3"))
    ]
    pausing_tor = fabric.router.path(storm[0]).devices[1]
    victim = None
    for port in range(49152, 49152 + 256):
        candidate = make_flow("p0.b0.h0", "p0.b1.h3", rail=0,
                              size_bits=8e9, src_port=port)
        if pausing_tor in fabric.router.path(candidate).devices:
            victim = candidate
            break
    assert victim is not None

    flows = storm + [victim]
    plain = fabric.complete(list(flows), pfc_spreading=False)
    for flow in flows:
        flow.rate_gbps = 0.0
    spread = benchmark.pedantic(
        fabric.complete, args=(list(flows),),
        kwargs={"pfc_spreading": True}, rounds=1, iterations=1)

    slowdown = spread.finish_times_s[victim.flow_id] \
        / plain.finish_times_s[victim.flow_id]
    series_printer(
        "S5 case: innocent flow through the pausing ToR",
        [("without PFC spreading",
          plain.finish_times_s[victim.flow_id]),
         ("with PFC spreading",
          spread.finish_times_s[victim.flow_id]),
         ("slowdown", f"{slowdown:.2f}x")],
        ["scenario", "victim completion (s)"])
    assert slowdown > 1.2


def test_case_evolved_monitor_finds_root_cause(benchmark,
                                               series_printer):
    reset_flow_ids()
    fabric = Fabric(build_astral(AstralParams.small()))
    fault = FaultSpec.pcie_storm(BROKEN, at_iteration=2)
    result = MonitoredTrainingJob(
        fabric,
        JobConfig(hosts=HOSTS_A + HOSTS_B, iterations=5),
        fault=fault).run()

    def diagnose(registry):
        analyzer = HierarchicalAnalyzer(
            result.store, result.expected_compute_s,
            result.expected_comm_s, detectors=registry)
        return analyzer.diagnose("job0")

    before = diagnose(pre_incident_registry())
    after = benchmark.pedantic(diagnose, args=(default_registry(),),
                               rounds=1, iterations=1)
    series_printer(
        "S5 case: diagnosis before vs after the detector patch",
        [("pre-incident monitor", before.inferred_cause,
          str(before.root_cause_device)),
         ("post-incident monitor", after.inferred_cause,
          str(after.root_cause_device))],
        ["monitoring system", "cause", "device"])

    assert before.inferred_cause != "pcie-anomaly"
    assert after.inferred_cause == "pcie-anomaly"
    assert after.root_cause_device == BROKEN
    assert after.manifestation is Manifestation.FAIL_SLOW
