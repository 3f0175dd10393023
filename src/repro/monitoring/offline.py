"""Offline toolsets: pre-delivery checks and unhandled-failure fallback.

Paper §3.1/§5: 32% of failures stem from host environment and
configuration, so Astral runs systematic offline checks *before
delivering hosts to customers* and again when online monitoring cannot
resolve a failure.  Reproduced here:

* **Wiring verification** — collects each port's neighbor relationship
  (production: slot id + MAC + ARP via ``dmidecode``; here: the
  topology graph) and compares it with the architecture's wiring rules.
  This is the tool that ended the "stuck correcting wiring mistakes"
  phase of the deployment.
* **Configuration verification** — compares DCQCN/PFC parameters,
  NVIDIA driver and NCCL versions across hosts (production:
  ``nvidia-smi`` + NCCL logs); inconsistencies between customers'
  rented servers degraded training and caused failures.
* **Stress tests** — Hostping-style intra-host checks and GPU-burn
  runs against a host-health registry, reproducing hardware defects
  that online monitoring missed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.astral import AstralParams, host_name, tor_name
from ..topology.elements import DeviceKind, Topology

__all__ = [
    "WiringViolation",
    "verify_wiring",
    "HostConfig",
    "ConfigInconsistency",
    "verify_configs",
    "HostHealth",
    "StressTestReport",
    "OfflineToolset",
]


# --------------------------------------------------------------------------
# Wiring verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WiringViolation:
    """One link wired against the architecture's rules."""

    host: str
    link_id: int
    actual_neighbor: str
    reason: str


def expected_wiring_table(params: Optional[AstralParams] = None
                          ) -> List[Tuple[str, int, str]]:
    """The (host, NIC port, ToR) table the on-site staff cable from.

    Rows are (host name, host port index, expected ToR name) for every
    host uplink of an Astral deployment — the "network topology rules"
    the wiring-verify tool compares collected slot/MAC/ARP data
    against (§5).
    """
    params = params or AstralParams()
    rows: List[Tuple[str, int, str]] = []
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for host in range(params.hosts_per_block):
                name = host_name(pod, block, host)
                for rail in range(params.rails):
                    for group in range(params.tor_groups):
                        port = rail * params.nic_ports + group
                        rows.append((name, port,
                                     tor_name(pod, block, rail, group)))
    return rows


def verify_wiring(topology: Topology,
                  params: Optional[AstralParams] = None
                  ) -> List[WiringViolation]:
    """Check every host uplink against the Astral wiring rules.

    Rules (from the architecture, §2.1): the NIC for rail ``r`` must
    connect only to ToRs of rail ``r`` in the host's own block and pod,
    one per ToR group (P3).
    """
    params = params or AstralParams()
    violations: List[WiringViolation] = []
    for host in topology.hosts():
        seen_groups: Dict[int, set] = {}
        for link in topology.links_of(host.name):
            neighbor = topology.devices[link.other(host.name)]
            if neighbor.kind is not DeviceKind.TOR:
                violations.append(WiringViolation(
                    host.name, link.link_id, neighbor.name,
                    "host uplink must terminate on a ToR switch"))
                continue
            port = link.endpoint(host.name).port
            expected_rail = port // params.nic_ports
            if neighbor.rail != expected_rail:
                violations.append(WiringViolation(
                    host.name, link.link_id, neighbor.name,
                    f"port {port} belongs to rail {expected_rail} but "
                    f"reaches a rail-{neighbor.rail} ToR"))
            if neighbor.block != host.block or neighbor.pod != host.pod:
                violations.append(WiringViolation(
                    host.name, link.link_id, neighbor.name,
                    "uplink leaves the host's own block"))
            groups = seen_groups.setdefault(expected_rail, set())
            if neighbor.group in groups:
                violations.append(WiringViolation(
                    host.name, link.link_id, neighbor.name,
                    f"duplicate ToR group {neighbor.group} on rail "
                    f"{expected_rail} (dual-ToR rule P3 violated)"))
            groups.add(neighbor.group)
    return violations


# --------------------------------------------------------------------------
# Configuration verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HostConfig:
    """Delivery-relevant host software/NIC configuration."""

    nccl_version: str = "2.21.5"
    driver_version: str = "535.161.08"
    dcqcn_alpha_g: int = 1019
    dcqcn_rate_to_set_on_first_cnp: int = 85
    pfc_enabled: bool = True
    mtu: int = 4096


@dataclass(frozen=True)
class ConfigInconsistency:
    """A host disagreeing with the fleet majority on one field."""

    host: str
    fieldname: str
    value: object
    majority_value: object


def verify_configs(configs: Dict[str, HostConfig]
                   ) -> List[ConfigInconsistency]:
    """Majority-vote consistency check across hosts (§5 experience)."""
    if not configs:
        return []
    inconsistencies: List[ConfigInconsistency] = []
    fieldnames = [f for f in HostConfig.__dataclass_fields__]
    for fieldname in fieldnames:
        counts = Counter(getattr(cfg, fieldname)
                         for cfg in configs.values())
        majority, _ = counts.most_common(1)[0]
        for host, cfg in sorted(configs.items()):
            value = getattr(cfg, fieldname)
            if value != majority:
                inconsistencies.append(ConfigInconsistency(
                    host, fieldname, value, majority))
    return inconsistencies


# --------------------------------------------------------------------------
# Stress tests (Hostping / GPU Burn)
# --------------------------------------------------------------------------

@dataclass
class HostHealth:
    """Ground-truth hardware health used by the offline stress tools."""

    gpu_defect: bool = False
    memory_defect: bool = False
    pcie_degraded: bool = False
    nvlink_degraded: bool = False


@dataclass(frozen=True)
class StressTestReport:
    host: str
    tool: str
    passed: bool
    detail: str = ""


class OfflineToolset:
    """Pre-delivery / fallback test battery for a set of hosts."""

    def __init__(self, health: Optional[Dict[str, HostHealth]] = None):
        self.health = health or {}

    def _health(self, host: str) -> HostHealth:
        return self.health.get(host, HostHealth())

    def gpu_burn(self, host: str) -> StressTestReport:
        """Sustained-compute stress: catches GPU and memory defects."""
        health = self._health(host)
        if health.gpu_defect:
            return StressTestReport(host, "gpu-burn", False,
                                    "Xid error under sustained load")
        if health.memory_defect:
            return StressTestReport(host, "gpu-burn", False,
                                    "uncorrectable ECC during burn")
        return StressTestReport(host, "gpu-burn", True)

    def hostping(self, host: str) -> StressTestReport:
        """Intra-host interconnect check (PCIe/NVLink bandwidth)."""
        health = self._health(host)
        if health.pcie_degraded:
            return StressTestReport(host, "hostping", False,
                                    "GPU-NIC PCIe bandwidth below spec")
        if health.nvlink_degraded:
            return StressTestReport(host, "hostping", False,
                                    "NVLink lane degraded")
        return StressTestReport(host, "hostping", True)

    def run_all(self, hosts) -> List[StressTestReport]:
        reports = []
        for host in hosts:
            reports.append(self.gpu_burn(host))
            reports.append(self.hostping(host))
        return reports

    def defective_hosts(self, hosts) -> List[str]:
        return sorted({report.host for report in self.run_all(hosts)
                       if not report.passed})

    def template_model_test(self, fabric, hosts,
                            iterations: int = 3,
                            tolerance: float = 1.3
                            ) -> StressTestReport:
        """End-to-end template-model training on the suspect hosts.

        §3.2: "when encountering failures that cannot be resolved
        online, we conduct offline training on some template models to
        perform end-to-end testing."  A small training job runs on the
        isolated host set over the *current* fabric; its measured
        iteration time is compared against the Seer-style expectation
        computed for a healthy substrate, so silent degradations (a
        crawling NIC, a half-dead link) show up as a failed check even
        when every per-component probe passes.
        """
        from .jobsim import JobConfig, MonitoredTrainingJob
        config = JobConfig(name="template-test", hosts=tuple(hosts),
                           iterations=iterations,
                           compute_time_s=0.1, comm_size_bits=8e9)
        result = MonitoredTrainingJob(fabric, config).run()
        # Expectation for a *healthy* substrate: uncontended ring legs
        # at NIC line rate (the jobsim's own expectation would inherit
        # whatever degradation the fabric currently carries).
        n = max(2, len(hosts))
        wire_bits = 2.0 * (n - 1) / n * config.comm_size_bits
        expected = config.compute_time_s * 1.05 \
            + wire_bits / (fabric.host_line_rate_gbps * 1e9)
        measured = [snap.iteration_time_s for snap in result.snapshots]
        worst = max(measured) if measured else float("inf")
        label = ",".join(list(hosts)[:2]) + ("..." if len(hosts) > 2
                                             else "")
        if result.aborted or result.hung:
            return StressTestReport(
                label, "template-model", False,
                "template training did not complete")
        if result.store.err_cqes:
            return StressTestReport(
                label, "template-model", False,
                f"{len(result.store.err_cqes)} RDMA errors during "
                "template training (connectivity)")
        if worst > expected * tolerance:
            return StressTestReport(
                label, "template-model", False,
                f"iteration {worst:.3f}s vs expected "
                f"{expected:.3f}s")
        return StressTestReport(label, "template-model", True)
