"""The Astral infrastructure facade: network + monitoring + Seer.

One object wires the three pillars of the paper together the way
Figure 1 draws them:

* the **network architecture** is the foundation (topology + fabric);
* the **monitoring system** runs jobs on it, collects full-stack
  telemetry, and localizes failures;
* **Seer** forecasts operator timelines and supplies the job-level
  thresholds the monitoring analyzer checks against ("We use
  job-related thresholds obtained by fast forecasts using the Seer",
  §3.3) — closing the loop between the components.

Physical-deployment models (power, cooling, PUE) are exposed as
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..monitoring.analyzer.hierarchical import (
    Diagnosis,
    HierarchicalAnalyzer,
)
from ..monitoring.faults import FaultSpec
from ..monitoring.jobsim import JobConfig, JobResult, MonitoredTrainingJob
from ..monitoring.offline import (
    ConfigInconsistency,
    HostConfig,
    HostHealth,
    OfflineToolset,
    StressTestReport,
    WiringViolation,
    verify_configs,
    verify_wiring,
)
from ..network.fabric import Fabric
from ..power.pue import astral_vs_traditional, pue_evolution
from ..seer.forecaster import InferenceForecast, Seer, TrainingForecast
from ..seer.hardware import NetworkSuite
from ..seer.models.config import ModelConfig, ParallelismConfig
from ..topology.astral import AstralParams, build_astral
from .placement import Allocation, GpuAllocator, PlacementPolicy

__all__ = ["AstralInfrastructure", "CommissionReport"]


@dataclass
class CommissionReport:
    """Result of the pre-delivery offline checks (§5)."""

    wiring_violations: List[WiringViolation]
    config_inconsistencies: List[ConfigInconsistency]
    stress_failures: List[StressTestReport]

    @property
    def ready_for_delivery(self) -> bool:
        return not (self.wiring_violations
                    or self.config_inconsistencies
                    or self.stress_failures)


class AstralInfrastructure:
    """Top-level handle on a simulated Astral deployment."""

    def __init__(self, params: Optional[AstralParams] = None,
                 gpu: str = "H800", corrected_seer: bool = True,
                 seed: int = 0):
        self.params = params or AstralParams.small()
        self.topology = build_astral(self.params)
        self.fabric = Fabric(
            self.topology,
            host_line_rate_gbps=self.params.nic_port_gbps)
        self.allocator = GpuAllocator(self.topology)
        self.network_suite = NetworkSuite(
            intra_host_size=self.params.gpus_per_host,
            nic_gbps=self.params.nic_port_gbps * self.params.nic_ports,
            tier3_oversubscription=self.params.tier3_oversubscription,
        )
        self.seer = Seer(gpu=gpu, network=self.network_suite,
                         corrected=corrected_seer, seed=seed)
        self.seed = seed
        self._job_results: Dict[str, JobResult] = {}
        #: fleet change log; `diagnose` falls back to it for anomalies
        #: the hierarchical analyzer cannot pin to a device (§5's
        #: driver-rollout war story).
        from ..monitoring.changelog import MaintenanceLog
        self.maintenance = MaintenanceLog()

    # -- Seer entry points ------------------------------------------------------
    def forecast_training(self, model: ModelConfig,
                          parallel: ParallelismConfig,
                          detail: bool = False) -> TrainingForecast:
        return self.seer.forecast_training(model, parallel,
                                           detail=detail)

    def forecast_inference(self, model: ModelConfig,
                           parallel: ParallelismConfig,
                           batch: int = 8,
                           context_len: Optional[int] = None
                           ) -> InferenceForecast:
        return self.seer.forecast_inference(model, parallel,
                                            batch=batch,
                                            context_len=context_len)

    # -- job lifecycle ------------------------------------------------------------
    def allocate(self, job: str, n_hosts: int,
                 policy: PlacementPolicy = PlacementPolicy.PACKED
                 ) -> Allocation:
        return self.allocator.allocate(job, n_hosts, policy)

    def run_monitored_job(self, job: str,
                          fault: Optional[FaultSpec] = None,
                          iterations: int = 10,
                          collective: str = "allreduce",
                          compute_time_s: float = 0.5,
                          comm_size_bits: float = 8e9) -> JobResult:
        allocation = self.allocator.allocation(job)
        if allocation is None:
            raise ValueError(f"job {job!r} has no allocation")
        config = JobConfig(
            name=job,
            hosts=tuple(allocation.hosts),
            iterations=iterations,
            collective=collective,
            compute_time_s=compute_time_s,
            comm_size_bits=comm_size_bits,
            seed=self.seed,
        )
        result = MonitoredTrainingJob(self.fabric, config,
                                      fault=fault).run()
        self._job_results[job] = result
        return result

    def diagnose(self, job: str,
                 onset_s: Optional[float] = None) -> Diagnosis:
        """Run the hierarchical analyzer with Seer-derived thresholds.

        When the analyzer cannot pin a device root cause, the fleet
        maintenance log is consulted: a single dominant recent change
        covering the affected hosts is surfaced as the suspect
        (``inferred_cause = "suspect-change:<category>"``).
        """
        result = self._job_results.get(job)
        if result is None:
            raise ValueError(f"no monitored run recorded for {job!r}")
        analyzer = HierarchicalAnalyzer(
            result.store,
            expected_compute_s=result.expected_compute_s,
            expected_comm_s=result.expected_comm_s,
            nic_port_gbps=self.params.nic_port_gbps,
        )
        diagnosis = analyzer.diagnose(job)
        if diagnosis.root_cause_device is None \
                and diagnosis.manifestation is not None:
            affected = diagnosis.abnormal_hosts \
                or list(result.config.hosts)
            records = self.maintenance.records()
            if onset_s is None and records:
                # Default onset: just after the newest change, so every
                # logged change is a candidate with full recency.
                onset_s = max(r.time_s for r in records) + 1.0
            suspect = self.maintenance.only_suspicious_change(
                onset_s, affected_hosts=affected) if records else None
            if suspect is not None:
                diagnosis.inferred_cause = (
                    f"suspect-change:{suspect.change.category}")
                diagnosis.recommended_action = (
                    f"roll back / pin: {suspect.change.description}")
                diagnosis.note(
                    "maintenance-record correlation: "
                    + suspect.describe())
        return diagnosis

    # -- cluster scheduling -------------------------------------------------------
    def run_cluster(self, jobs: int = 50, policy: str = "topology",
                    seed: Optional[int] = None,
                    failure_scale: float = 1.0,
                    tidal_cap: bool = True,
                    workload=None,
                    until: Optional[float] = None):
        """Schedule a multi-tenant workload trace onto this fabric.

        Runs the :mod:`repro.cluster` scheduler end to end: a seeded
        arrival trace (``jobs`` jobs, or an explicit ``workload`` list
        of :class:`~repro.cluster.JobSpec`), MTBF-driven failures and
        checkpoint/restart recovery scaled by ``failure_scale`` (0
        disables), and tidal host-cap admission during the 22:00–08:00
        trough.  Same seed => an identical
        :class:`~repro.cluster.ClusterReport`.
        """
        from ..cluster import (
            ClusterScheduler,
            RecoveryManager,
            SchedulingPolicy,
            TidalHostCap,
            WorkloadGenerator,
        )
        seed = self.seed if seed is None else seed
        total_hosts = len(list(self.topology.hosts()))
        if workload is None:
            workload = WorkloadGenerator(seed=seed).generate(
                jobs, max_hosts=total_hosts)
        recovery = None
        if failure_scale > 0:
            recovery = RecoveryManager(
                gpus_per_host=self.params.gpus_per_host,
                failure_scale=failure_scale, seed=seed)
        cap = TidalHostCap(total_hosts=total_hosts) if tidal_cap \
            else None
        scheduler = ClusterScheduler(
            self.topology, workload,
            policy=SchedulingPolicy(policy),
            recovery=recovery, power_cap=cap, seed=seed)
        return scheduler.run(until=until)

    def cluster_contention(self, report, iterations: int = 4):
        """Fabric contention among the scheduler's busiest tenant set.

        Feeds the peak-concurrency placements of a
        :meth:`run_cluster` report into
        :class:`~repro.monitoring.multijob.MultiJobRun`, so the jobs the
        scheduler packed together actually share links; returns the
        per-job outcomes (efficiency < 1 means fabric interference).
        """
        from ..monitoring.multijob import MultiJobRun
        run = MultiJobRun.from_cluster(
            self.fabric, report.peak_concurrent(),
            iterations=iterations, seed=self.seed)
        return run.run()

    # -- offline commissioning ------------------------------------------------------
    def commission(self, hosts: List[str],
                   configs: Optional[Dict[str, HostConfig]] = None,
                   health: Optional[Dict[str, HostHealth]] = None
                   ) -> CommissionReport:
        """Pre-delivery checks: wiring, configuration, stress tests."""
        wiring = verify_wiring(self.topology, self.params)
        wiring = [v for v in wiring if v.host in set(hosts)]
        config_issues = verify_configs(configs or {})
        toolset = OfflineToolset(health or {})
        failures = [report for report in toolset.run_all(hosts)
                    if not report.passed]
        return CommissionReport(
            wiring_violations=wiring,
            config_inconsistencies=config_issues,
            stress_failures=failures,
        )

    # -- fleet health ------------------------------------------------------------
    def pingmesh_sweep(self, max_pairs: int = 200):
        """Active INT-ping sweep over the fabric (§3.2 network layer)."""
        from ..monitoring.pingmesh import Pingmesh
        return Pingmesh(self.fabric).sweep(max_pairs=max_pairs,
                                           seed=self.seed)

    def health_report(self, job: str):
        """Operator-facing roll-up of a monitored job's telemetry."""
        from ..monitoring.report import build_health_report
        result = self._job_results.get(job)
        if result is None:
            raise ValueError(f"no monitored run recorded for {job!r}")
        return build_health_report(result.store)

    def goodput(self, n_gpus: Optional[int] = None,
                localization: str = "automated"):
        """Training goodput at a scale, under a localization regime."""
        from .reliability import training_goodput
        return training_goodput(
            n_gpus if n_gpus is not None else self.params.total_gpus,
            localization=localization)

    # -- facility reports --------------------------------------------------------------
    @staticmethod
    def pue_report() -> dict:
        """Astral vs traditional PUE plus the Figure-6 evolution."""
        comparison = astral_vs_traditional()
        comparison["evolution"] = [
            (report.label, report.pue) for report in pue_evolution()
        ]
        return comparison

    def describe(self) -> dict:
        """Headline scale numbers of this deployment."""
        return {
            "total_gpus": self.params.total_gpus,
            "gpus_per_pod": self.params.gpus_per_pod,
            "rail_size": self.params.rail_size,
            "pods": self.params.pods,
            "devices": len(self.topology.devices),
            "links": len(self.topology.links),
            "tier3_oversubscription":
                self.params.tier3_oversubscription,
        }
