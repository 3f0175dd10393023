"""Multiple tenants sharing one fabric: congestion blast radius (§5).

"PCIe issue causes PFC storms, halving the performance of the entire
cluster running multiple jobs."  The failure mechanism is the shared
fabric: one host's PFC storm backs congestion up into links that other
customers' jobs also traverse.  :class:`MultiJobRun` co-schedules
several monitored jobs on one fabric: each job runs as its own process
on one shared :class:`~repro.simcore.Simulator`, all of their
collectives land on one :class:`~repro.network.engine.FabricEngine`,
and whenever two tenants are communicating *at the same simulated
time* their flows contend for bandwidth — so a fault injected into one
tenant's job measurably degrades the innocent tenants, for exactly as
long as the storm lasts.  The engine runs with ``pfc_spreading=True``,
the one PFC model: it re-derives the backpressure factors from the
flows in flight at every solve.

Telemetry is collected only where a store is named: a run given a
:class:`TelemetryStore` feeds every tenant's four-layer stack into it,
and a run given none (every hierarchy sub-simulation and flat
reference) computes only its per-job :class:`JobOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..simcore import Simulator
from .collectors.base import IterationSnapshot
from .collectors.layers import FullStackCollector
from .faults import FaultSpec
from .jobsim import JobConfig, MonitoredTrainingJob
from .telemetry import TelemetryStore

__all__ = ["MultiJobRun", "JobOutcome"]


@dataclass
class JobOutcome:
    """Per-job result of a co-scheduled run."""

    job: str
    iteration_times_s: List[float] = field(default_factory=list)
    expected_iteration_s: float = 0.0

    @property
    def mean_iteration_s(self) -> float:
        if not self.iteration_times_s:
            return 0.0
        return sum(self.iteration_times_s) \
            / len(self.iteration_times_s)

    @property
    def efficiency(self) -> float:
        """Achieved vs expected iteration throughput (1.0 = nominal)."""
        if self.mean_iteration_s <= 0:
            return 1.0
        return self.expected_iteration_s / self.mean_iteration_s


class MultiJobRun:
    """Co-schedule several monitored jobs on one shared fabric.

    *store*, when named, receives every tenant's telemetry as it is
    collected; with ``None`` (the default) the run collects none, and
    its outcomes are the same bit for bit.
    """

    @classmethod
    def from_cluster(cls, fabric: Fabric, records,
                     iterations: int = 4,
                     compute_time_s: float = 0.5,
                     comm_size_bits: float = 8e9,
                     faults: Optional[Dict[str, FaultSpec]] = None,
                     seed: int = 0) -> "MultiJobRun":
        """Build a contention run from cluster-scheduler placements.

        ``records`` are :class:`repro.cluster.JobRecord`-shaped objects
        (anything with ``name``, ``final_hosts`` and optionally
        ``first_start_s``), typically ``ClusterReport.peak_concurrent()``:
        the tenants the scheduler actually packed onto the fabric
        together.  Single-host records are skipped — they generate no
        fabric flows.

        The scheduler's start times carry over onto the fabric clock as
        *iteration phase*: tenants that started at different wall-clock
        moments have de-phased iteration boundaries (offset modulo the
        nominal iteration period), so their collectives overlap
        partially rather than in artificial lockstep.  The multi-hour
        absolute offsets themselves are folded away — the contention run
        reproduces the peak-concurrency window, not the calendar.
        """
        kept = [record for record in records
                if len(record.final_hosts) >= 2]
        starts = [getattr(record, "first_start_s", None) or 0.0
                  for record in kept]
        base = min(starts) if starts else 0.0
        period = max(compute_time_s, 1e-9)
        configs = [
            JobConfig(name=record.name,
                      hosts=tuple(record.final_hosts),
                      iterations=iterations,
                      compute_time_s=compute_time_s,
                      comm_size_bits=comm_size_bits,
                      seed=seed,
                      start_time_s=(start - base) % period)
            for record, start in zip(kept, starts)
        ]
        if not configs:
            raise ValueError(
                "no multi-host placements to co-schedule; run the "
                "cluster scheduler first (or with larger jobs)")
        return cls(fabric, configs, faults=faults)

    def __init__(self, fabric: Fabric, configs: List[JobConfig],
                 faults: Optional[Dict[str, FaultSpec]] = None,
                 store: Optional[TelemetryStore] = None):
        if not configs:
            raise ValueError("need at least one job")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.fabric = fabric
        self.store = store
        faults = faults or {}
        self._jobs = [
            MonitoredTrainingJob(fabric, config,
                                 fault=faults.get(config.name),
                                 store=self.store)
            for config in configs
        ]

    def run(self) -> Dict[str, JobOutcome]:
        """Run all jobs as processes on one shared clock and engine.

        PFC spreading is on and *dynamic*: the engine re-derives the
        backpressure multipliers from the flows actually in flight at
        each solve, so one tenant's storm backs up into the links the
        other tenants traverse exactly while the storm's traffic is on
        them (§5 incident).
        """
        collector = None if self.store is None \
            else FullStackCollector(self.fabric.topology)
        sim = Simulator()
        engine = FabricEngine(self.fabric, sim=sim, pfc_spreading=True)
        outcomes: Dict[str, JobOutcome] = {}
        snapshots: Dict[str, List[IterationSnapshot]] = {}
        metadata = {}
        for job in self._jobs:
            name = job.config.name
            outcomes[name] = JobOutcome(
                job=name,
                expected_iteration_s=(job.config.compute_time_s
                                      + job._expected_times()[1]))
            metadata[name] = job._register_metadata()
            snapshots[name] = []
        for job in self._jobs:
            name = job.config.name
            job._arm_timed_fault(sim, engine, metadata[name])
            sim.process(
                job.process(sim, engine, collector, metadata[name],
                            snapshots[name]),
                name=f"job-{name}")
        sim.run()
        for name, snaps in snapshots.items():
            outcomes[name].iteration_times_s = [
                snap.iteration_time_s for snap in snaps]
        return outcomes
