"""Seeded resilience campaigns: training jobs vs a fault schedule.

A :class:`ResilientJob` is the event-driven counterpart of the
duration-based jobs in :mod:`repro.cluster.scheduler`: it allocates
hosts, alternates compute phases with *real* ring collectives on the
:class:`~repro.network.engine.FabricEngine`, checkpoints on the clock,
and — when the recovery pipeline cordons its hosts or a flow is
stranded — rolls back to its last checkpoint, pays the
:class:`~repro.cluster.recovery.RecoveryManager` restart charge, and
re-places itself on surviving hosts.

:class:`ResilienceCampaign` runs the same seeded workload twice — once
clean, once through a :class:`~repro.resilience.injector.FailureInjector`
schedule with the :class:`~repro.resilience.pipeline.RecoveryPipeline`
closing the loop — and prices the measured goodput penalty against the
analytic :func:`~repro.core.reliability.failure_penalty_s` prediction,
the cross-check §4's goodput model is calibrated by.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.recovery import RecoveryManager
from ..core.placement import (AllocationError, GpuAllocator,
                              PlacementPolicy)
from ..core.reliability import CheckpointPolicy, failure_penalty_s
from ..monitoring.faults import FaultSpec, Manifestation
from ..monitoring.mttlf import MttlfModel
from ..network.collectives import (CollectiveConfig, Endpoint,
                                   ring_allreduce_flows)
from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..network.flows import reset_flow_ids
from ..network.routing import RoutingError
from ..topology.astral import AstralParams, build_astral, parse_device
from .injector import FailureInjector
from .pipeline import RecoveryPipeline

__all__ = ["ResilientJob", "JobOutcome", "ResilienceCampaign",
           "ResilienceReport", "default_tor_faults"]


def default_tor_faults(params: AstralParams, seed: int = 0,
                       n_faults: int = 1, first_at_s: float = 1800.0,
                       spacing_s: float = 1800.0,
                       manifestation: Manifestation =
                       Manifestation.FAIL_STOP) -> List[FaultSpec]:
    """Draw a deterministic ToR-kill schedule for a campaign.

    Contiguous placement fills the lowest block first, so faults are
    drawn from the ``p0.b0`` ToRs — the ones inside the first job's
    blast radius.  String seeding (``resilience-cli:<seed>``) keeps
    the draw identical across processes, which is what lets the farm
    reproduce a CLI campaign bit-for-bit from its spec.
    """
    from ..monitoring.faults import RootCause
    from ..topology.elements import DeviceKind
    tors = sorted(s.name for s in build_astral(params).switches(
        DeviceKind.TOR))
    in_first_block = [name for name in tors
                      if parse_device(name)[1:3] == (0, 0)]
    tors = in_first_block or tors
    rng = random.Random(f"resilience-cli:{seed}")
    return [
        FaultSpec(cause=RootCause.SWITCH_BUG,
                  manifestation=manifestation,
                  target=rng.choice(tors),
                  at_time_s=first_at_s + index * spacing_s)
        for index in range(n_faults)
    ]


@dataclass
class JobOutcome:
    """Roll-up of one job's run (all times in simulated seconds)."""

    name: str
    completed_s: Optional[float]
    iterations: int
    restarts: int
    checkpoints: int
    lost_s: float
    gave_up: bool
    timeline: List[Tuple[float, str]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "completed_s": self.completed_s,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "checkpoints": self.checkpoints,
            "lost_s": self.lost_s,
            "gave_up": self.gave_up,
            "timeline": [list(entry) for entry in self.timeline],
        }


class ResilientJob:
    """One training job as a simcore process with live collectives."""

    def __init__(self, name: str, engine: FabricEngine,
                 allocator: GpuAllocator, n_hosts: int,
                 n_iterations: int, compute_s: float,
                 collective_bits: float,
                 checkpoint_interval_s: float = 1200.0,
                 recovery: Optional[RecoveryManager] = None,
                 rail: int = 0,
                 placement: PlacementPolicy = PlacementPolicy.CONTIGUOUS,
                 alloc_retry_s: float = 60.0,
                 max_alloc_retries: int = 240):
        if n_iterations < 1:
            raise ValueError("job needs at least one iteration")
        self.name = name
        self.engine = engine
        self.sim = engine.sim
        self.allocator = allocator
        self.n_hosts = n_hosts
        self.n_iterations = n_iterations
        self.compute_s = compute_s
        self.collective_bits = collective_bits
        self.checkpoint_interval_s = checkpoint_interval_s
        self.recovery = recovery or RecoveryManager(
            checkpoint=CheckpointPolicy(
                interval_s=checkpoint_interval_s))
        self.rail = rail
        self.placement = placement
        self.alloc_retry_s = alloc_retry_s
        self.max_alloc_retries = max_alloc_retries

        self.hosts: List[str] = []
        self.finished = self.sim.event(f"{name}.finished")
        self.completed_s: Optional[float] = None
        self.iteration = 0
        self.checkpoint_iteration = 0
        self.last_checkpoint_s = 0.0
        self.restarts = 0
        self.checkpoints = 0
        self.lost_s = 0.0
        self.gave_up = False
        self.timeline: List[Tuple[float, str]] = []
        self._interrupt = None
        self._active_flow_ids: set = set()

    # -- external control ---------------------------------------------------
    def interrupt(self, reason: str = "cordoned") -> bool:
        """Fail the current attempt (recovery pipeline / strand handler)."""
        if self._interrupt is None or self._interrupt.triggered:
            return False
        self._interrupt.succeed(f"interrupt:{reason}")
        return True

    def outcome(self) -> JobOutcome:
        return JobOutcome(
            name=self.name, completed_s=self.completed_s,
            iterations=self.iteration, restarts=self.restarts,
            checkpoints=self.checkpoints, lost_s=self.lost_s,
            gave_up=self.gave_up, timeline=list(self.timeline))

    # -- the process --------------------------------------------------------
    def run(self):
        sim = self.sim
        self._mark("submitted")
        acquired = yield from self._acquire_hosts()
        if not acquired:
            return
        self.last_checkpoint_s = sim.now
        while self.iteration < self.n_iterations:
            self._interrupt = sim.event(
                f"{self.name}.interrupt.{self.restarts}."
                f"{self.iteration}")
            outcome = yield sim.any_of([
                sim.timeout(self.compute_s, value="step"),
                self._interrupt])
            if outcome != "step":
                ok = yield from self._restart(outcome)
                if not ok:
                    return
                continue
            flows = self._ring_flows()
            if flows:
                self._active_flow_ids = {f.flow_id for f in flows}
                done = self.engine.submit_many(flows)
                yield sim.any_of([done, self._interrupt])
                self._active_flow_ids = set()
                if self._interrupt.triggered:
                    ok = yield from self._restart(
                        self._interrupt.value, flows=flows)
                    if not ok:
                        return
                    continue
            self.iteration += 1
            if sim.now - self.last_checkpoint_s \
                    >= self.checkpoint_interval_s:
                self.checkpoint_iteration = self.iteration
                self.last_checkpoint_s = sim.now
                self.checkpoints += 1
                self._mark(f"checkpoint:{self.iteration}")
        self.allocator.release(self.name)
        self.hosts = []
        self.completed_s = sim.now
        self._mark("completed")
        self.finished.succeed(sim.now)

    # -- internals ----------------------------------------------------------
    def _mark(self, what: str) -> None:
        self.timeline.append((self.sim.now, what))

    def _acquire_hosts(self):
        """Allocate (retrying while the pool is cordoned-out); returns
        False — after finishing the job as given-up — when the cluster
        never frees enough healthy hosts."""
        for _ in range(self.max_alloc_retries):
            try:
                allocation = self.allocator.allocate(
                    self.name, self.n_hosts, self.placement)
            except AllocationError:
                yield self.sim.timeout(self.alloc_retry_s)
                continue
            self.hosts = list(allocation.hosts)
            self._mark(f"placed:{','.join(self.hosts)}")
            return True
        self.gave_up = True
        self._mark("gave-up:no-hosts")
        self.finished.succeed(None)
        return False

    def _ring_flows(self):
        endpoints = [Endpoint(host=h, rail=self.rail)
                     for h in self.hosts]
        return ring_allreduce_flows(
            endpoints, self.collective_bits,
            CollectiveConfig(job=self.name))

    def _restart(self, reason: str, flows=None):
        """Roll back to the last checkpoint and re-place the job."""
        sim = self.sim
        self.restarts += 1
        self._mark(f"{reason}@iter{self.iteration}")
        if flows is not None:
            for flow in flows:
                if self.engine.is_active(flow.flow_id):
                    self.engine.cancel(flow.flow_id)
        # Everything since the last checkpoint is lost — including the
        # progress made while the fault was being detected/localized.
        self.lost_s += sim.now - self.last_checkpoint_s
        self.iteration = self.checkpoint_iteration
        self.allocator.release(self.name)
        self.hosts = []
        if self.restarts > self.recovery.policy.max_restarts:
            self.gave_up = True
            self._mark("gave-up:max-restarts")
            self.finished.succeed(None)
            return False
        # Scheduling + checkpoint load + communicator re-init.
        yield sim.timeout(self.recovery.checkpoint.restart_s)
        acquired = yield from self._acquire_hosts()
        if not acquired:
            return False
        self.last_checkpoint_s = sim.now
        return True


@dataclass
class ResilienceReport:
    """Measured vs predicted cost of a fault campaign."""

    seed: int
    n_faults: int
    baseline_completion_s: Dict[str, float]
    faulted_completion_s: Dict[str, Optional[float]]
    predicted_penalty_s: float
    jobs: List[JobOutcome]
    recoveries: List[Dict[str, object]]
    reroutes: int
    stranded: int
    fault_log: List[Tuple[float, str, str]]

    @property
    def measured_penalty_s(self) -> float:
        """Extra wall-clock of the restarted jobs vs their clean runs."""
        penalties = [
            self.faulted_completion_s[job.name]
            - self.baseline_completion_s[job.name]
            for job in self.jobs
            if job.restarts > 0
            and self.faulted_completion_s.get(job.name) is not None
        ]
        return sum(penalties) / len(penalties) if penalties else 0.0

    @property
    def wedged_jobs(self) -> List[str]:
        """Jobs that neither completed nor cleanly gave up."""
        return [job.name for job in self.jobs
                if job.completed_s is None and not job.gave_up]

    @property
    def goodput_fraction(self) -> float:
        """Clean wall-clock over faulted wall-clock, averaged."""
        ratios = [
            self.baseline_completion_s[job.name]
            / self.faulted_completion_s[job.name]
            for job in self.jobs
            if self.faulted_completion_s.get(job.name)
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "n_faults": self.n_faults,
            "baseline_completion_s": dict(self.baseline_completion_s),
            "faulted_completion_s": dict(self.faulted_completion_s),
            "measured_penalty_s": self.measured_penalty_s,
            "predicted_penalty_s": self.predicted_penalty_s,
            "goodput_fraction": self.goodput_fraction,
            "wedged_jobs": self.wedged_jobs,
            "reroutes": self.reroutes,
            "stranded": self.stranded,
            "jobs": [job.as_dict() for job in self.jobs],
            "recoveries": list(self.recoveries),
            "fault_log": [list(entry) for entry in self.fault_log],
        }


class ResilienceCampaign:
    """One seeded workload, run clean and run through a fault schedule."""

    def __init__(self, params: Optional[AstralParams] = None,
                 faults: Optional[List[FaultSpec]] = None,
                 n_jobs: int = 1, hosts_per_job: int = 4,
                 n_iterations: int = 120, compute_s: float = 20.0,
                 collective_bits: float = 2e11,
                 checkpoint_interval_s: float = 1200.0,
                 probe_interval_s: float = 30.0,
                 dampening_s: float = 10.0,
                 manifestation: Manifestation = Manifestation.FAIL_STOP,
                 recovery: Optional[RecoveryManager] = None,
                 seed: int = 0):
        self.params = params or AstralParams.small()
        self.faults = list(faults or [])
        self.n_jobs = n_jobs
        self.hosts_per_job = hosts_per_job
        self.n_iterations = n_iterations
        self.compute_s = compute_s
        self.collective_bits = collective_bits
        self.checkpoint_interval_s = checkpoint_interval_s
        self.probe_interval_s = probe_interval_s
        self.dampening_s = dampening_s
        self.manifestation = manifestation
        self.seed = seed
        self.recovery = recovery or RecoveryManager(
            checkpoint=CheckpointPolicy(
                interval_s=checkpoint_interval_s),
            seed=seed)

    # -- analytic prediction ------------------------------------------------
    def predicted_penalty_s(self, n_hosts: int) -> float:
        """What :func:`training_goodput`'s model charges one failure."""
        mttlf = MttlfModel(n_hosts=max(2, n_hosts), jitter_frac=0.0)
        return failure_penalty_s(
            self.checkpoint_interval_s,
            mttlf.automated_hours(self.manifestation),
            self.recovery.checkpoint.restart_s)

    # -- execution ----------------------------------------------------------
    def run(self) -> ResilienceReport:
        baseline = self._run_once(inject=False)
        faulted = self._run_once(inject=True)
        topology_hosts = len(build_astral(self.params).hosts())
        return ResilienceReport(
            seed=self.seed,
            n_faults=len(self.faults),
            baseline_completion_s={
                job.name: job.completed_s
                for job in baseline["jobs"]},
            faulted_completion_s={
                job.name: job.completed_s
                for job in faulted["jobs"]},
            predicted_penalty_s=self.predicted_penalty_s(
                topology_hosts),
            jobs=[job for job in faulted["jobs"]],
            recoveries=faulted["recoveries"],
            reroutes=faulted["reroutes"],
            stranded=faulted["stranded"],
            fault_log=faulted["fault_log"],
        )

    def _make_jobs(self, engine: FabricEngine,
                   allocator: GpuAllocator) -> List[ResilientJob]:
        return [
            ResilientJob(
                name=f"job{index}", engine=engine, allocator=allocator,
                n_hosts=self.hosts_per_job,
                n_iterations=self.n_iterations,
                compute_s=self.compute_s,
                collective_bits=self.collective_bits,
                checkpoint_interval_s=self.checkpoint_interval_s,
                recovery=self.recovery)
            for index in range(self.n_jobs)
        ]

    def _run_once(self, inject: bool) -> Dict[str, object]:
        reset_flow_ids()
        topology = build_astral(self.params)
        fabric = Fabric(topology)
        engine = FabricEngine(fabric)
        allocator = GpuAllocator(topology)
        jobs = self._make_jobs(engine, allocator)
        by_name = {job.name: job for job in jobs}

        pipeline = None
        injector = None
        if inject:
            injector = FailureInjector(engine,
                                       dampening_s=self.dampening_s)
            for spec in self.faults:
                injector.schedule(spec)

            def on_cordon(record) -> List[str]:
                cordoned = set(record.cordoned_hosts)
                hit = []
                for job in jobs:
                    if cordoned & set(job.hosts) \
                            and job.interrupt("cordoned"):
                        hit.append(job.name)
                return hit

            pipeline = RecoveryPipeline(
                engine, allocator,
                mttlf=MttlfModel(
                    n_hosts=max(2, len(topology.hosts())),
                    jitter_frac=0.0),
                recovery=self.recovery,
                probe_interval_s=self.probe_interval_s,
                manifestation=self.manifestation,
                on_cordon=on_cordon)
            pipeline.start()

            def on_stranded(flow, exc: RoutingError) -> None:
                engine.cancel(flow.flow_id)
                owner = by_name.get(flow.job)
                if owner is not None:
                    owner.interrupt("stranded")

            engine.on_stranded(on_stranded)

        for job in jobs:
            engine.sim.process(job.run(), name=f"job:{job.name}")

        def supervisor():
            yield engine.sim.all_of([job.finished for job in jobs])
            if pipeline is not None:
                pipeline.stop()

        engine.sim.process(supervisor(), name="campaign-supervisor")
        engine.sim.run()
        return {
            "jobs": [job.outcome() for job in jobs],
            "recoveries": [record.as_dict()
                           for record in pipeline.records]
            if pipeline else [],
            "reroutes": sum(engine.reroutes.values()),
            "stranded": len(engine.stranded),
            "fault_log": [(event.at_s, event.action, event.target)
                          for event in injector.log]
            if injector else [],
        }
