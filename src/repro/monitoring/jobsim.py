"""Simulated monitored training job: the telemetry generator.

Runs a training job on the flow-level fabric with optional fault
injection, and drives the full-stack collectors into a named
:class:`TelemetryStore`.  This plays the role the *actual production
cluster* plays for the real Astral monitoring system: it is where
root-cause perturbations (a dead optical link, a misconfigured switch,
a broken PCIe) turn into the layered symptoms the analyzer has to
untangle.

The job runs as a *process* on the shared simcore clock: each iteration
is a compute timeout followed by a collective submitted to the
event-driven :class:`~repro.network.engine.FabricEngine`, so several
tenants genuinely overlap in time and faults can strike at timestamps
(mid-collective), not just at iteration boundaries.

The simulator keeps ground truth (the injected fault) strictly apart
from what it writes into the :class:`TelemetryStore`; the analyzer sees
only the store, so localization accuracy can be scored honestly.

Telemetry is collected only where a store is named.  A job given no
store still computes everything its iteration times, errCQEs and
abort/hang decisions read, but builds no offered-load map, evaluates
no congestion and feeds no collector: a sub-simulation that keeps only
iteration times (:class:`~repro.monitoring.multijob.MultiJobRun` with
no store) pays for none of the monitoring stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.collectives import (
    CollectiveConfig,
    Endpoint,
    all_to_all_flows,
    ring_allreduce_flows,
)
from ..network.congestion import CongestionModel, LinkCongestion
from ..network.engine import FabricEngine
from ..network.fabric import Fabric, LinkDir
from ..network.flows import Flow, FlowPath
from ..network.routing import RoutingError
from ..simcore import Simulator
from .collectors.base import HostState, IterationSnapshot
from .collectors.layers import FullStackCollector
from .faults import Effect, FaultSpec, Manifestation
from .telemetry import CommGroup, JobMetadata, QpMetadata, TelemetryStore

__all__ = ["JobConfig", "JobResult", "MonitoredTrainingJob"]

#: NCCL-style collective timeout: a hung iteration is cut off here.
_HANG_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class JobConfig:
    """Shape of a simulated training job."""

    name: str = "job0"
    hosts: Tuple[str, ...] = ()
    rail: int = 0
    compute_time_s: float = 0.5
    comm_size_bits: float = 8e9
    iterations: int = 10
    collective: str = "allreduce"
    compute_noise_frac: float = 0.01
    seed: int = 0
    #: offset of the job's first iteration on the shared clock —
    #: tenants launched by the cluster scheduler start when it placed
    #: them, not in lockstep.
    start_time_s: float = 0.0


@dataclass
class JobResult:
    """Outcome of a simulated job run."""

    config: JobConfig
    store: TelemetryStore
    snapshots: List[IterationSnapshot]
    aborted: bool
    hung: bool
    completed_iterations: int
    expected_compute_s: float
    expected_comm_s: float
    fault: Optional[FaultSpec] = None

    @property
    def manifestation(self) -> Optional[Manifestation]:
        return self.fault.manifestation if self.fault else None


class MonitoredTrainingJob:
    """Run a (possibly faulty) training job and collect full telemetry.

    *store* is where the job's telemetry goes; ``None`` collects none
    when the job runs as a :meth:`process` of someone else's clock.
    :meth:`run` names a fresh store when given none, because the
    :class:`JobResult` it returns *is* the telemetry.
    """

    def __init__(self, fabric: Fabric, config: JobConfig,
                 fault: Optional[FaultSpec] = None,
                 store: Optional[TelemetryStore] = None):
        if not config.hosts:
            raise ValueError("job needs at least one host")
        if fault is not None:
            # Fail fast with the offending field named, rather than
            # deep inside an iteration when the fault activates.
            fault.validate(topology=fabric.topology, job=config.name)
        self.fabric = fabric
        self.config = config
        self.fault = fault
        self.store = store
        self.congestion = CongestionModel()
        self._rng = random.Random(config.seed)
        self._fault_applied = False
        self._crashed_hosts: set = set()
        self._hung_hosts: set = set()
        self._slow_compute: Dict[str, float] = {}
        self._nic_error_hosts: set = set()
        self._drop_switches: set = set()
        self._pcie_hosts: set = set()
        #: five-tuples whose QPs die when a link goes down.
        self._link_down_victims: List[Flow] = []
        #: syslogs emitted by a timestamp fault between snapshots; they
        #: attach to the next collected snapshot.
        self._pending_syslogs: List[Tuple[str, str, str, bool]] = []
        # QPs are set up once per job (as NCCL does), so five-tuples are
        # stable across iterations — this is what makes the monitoring
        # join keys (QP <-> five-tuple <-> path) usable.
        self._flows = self._make_flows()

    # -- public API -----------------------------------------------------------
    def run(self) -> JobResult:
        """Run the job to completion on a private simulator clock."""
        if self.store is None:
            self.store = TelemetryStore()
        expected_compute, expected_comm = self._expected_times()
        metadata = self._register_metadata()
        collector = FullStackCollector(self.fabric.topology)

        sim = Simulator()
        engine = FabricEngine(self.fabric, sim=sim)
        snapshots: List[IterationSnapshot] = []
        self._arm_timed_fault(sim, engine, metadata)
        sim.process(
            self.process(sim, engine, collector, metadata, snapshots),
            name=f"job-{self.config.name}")
        sim.run()
        return JobResult(
            config=self.config,
            store=self.store,
            snapshots=snapshots,
            aborted=any(snap.aborted for snap in snapshots),
            hung=any(not snap.completed and not snap.aborted
                     for snap in snapshots),
            completed_iterations=sum(
                1 for snap in snapshots
                if snap.completed and not snap.aborted),
            expected_compute_s=expected_compute,
            expected_comm_s=expected_comm,
            fault=self.fault,
        )

    def process(self, sim: Simulator, engine: FabricEngine,
                collector: Optional[FullStackCollector],
                metadata: JobMetadata,
                snapshots: List[IterationSnapshot],
                start_time_s: Optional[float] = None):
        """The job as a simcore process generator.

        Per iteration: compute phase (a timeout for the slowest host's
        compute), then the collective submitted to the shared
        :class:`FabricEngine` — so co-scheduled tenants' flows contend
        for bandwidth exactly while both are communicating.  Snapshots
        are appended to *snapshots* as they happen; *collector* feeds
        each one into the job's store, and is ``None`` exactly when the
        job has no store.
        """
        start = self.config.start_time_s if start_time_s is None \
            else start_time_s
        if start > sim.now:
            yield sim.timeout(start - sim.now)
        for iteration in range(self.config.iterations):
            snap = self._begin_iteration(iteration, sim.now, metadata)

            compute = max(
                (state.compute_time_s
                 for state in snap.hosts.values() if not state.crashed),
                default=0.0)
            if compute > 0:
                yield sim.timeout(compute)

            flows = self._flows
            for flow in flows:
                flow.rate_gbps = 0.0
            routable, failed = self._route_flows(flows, snap)
            if routable:
                comm_start = sim.now
                done = engine.submit_many(routable)
                guard = sim.timeout(_HANG_TIMEOUT_S)
                yield sim.any_of([done, guard])
                self._record_comm(engine, snap, routable, comm_start)
                if not done.triggered:
                    # Starved mid-collective (e.g. a dead link zeroed
                    # every path): NCCL's watchdog fires.
                    snap.completed = False
            self._apply_flow_faults(flows, failed, snap, now=sim.now)

            self._finish_iteration(snap)
            if self.store is not None:
                collector.collect(snap, self.store)
            snapshots.append(snap)
            if snap.aborted or not snap.completed:
                break

    def _record_comm(self, engine: FabricEngine,
                     snap: IterationSnapshot, routable: List[Flow],
                     comm_start: float) -> None:
        """Fold the engine's finish times back into the snapshot.

        Paths always land in the snapshot (switch drops turn into
        errCQEs through them); congestion states only when a store will
        collect them.
        """
        paths = {}
        for flow in routable:
            path = engine.path_of(flow.flow_id)
            if path is not None:
                paths[flow.flow_id] = path
        if self.store is not None:
            snap.congestion = self._congestion_now(engine, routable,
                                                   paths)
        snap.flows.extend(routable)
        snap.paths.update(paths)
        for flow in routable:
            finish = engine.finish_time(flow.flow_id)
            if finish is None:
                continue  # still in flight: the hang guard fired
            comm = finish - comm_start
            for host in (flow.src_host, flow.dst_host):
                if host in snap.hosts:
                    snap.hosts[host].comm_time_s = max(
                        snap.hosts[host].comm_time_s, comm)

    def _congestion_now(self, engine: FabricEngine, routable: List[Flow],
                        paths: Dict[int, FlowPath]
                        ) -> Dict[LinkDir, LinkCongestion]:
        """What the switches observe *now*: this job's collective plus
        whatever other tenants still have in flight."""
        others = [flow for flow in engine.active_flows()
                  if flow.flow_id not in paths]
        all_paths = dict(paths)
        for flow in others:
            path = engine.path_of(flow.flow_id)
            if path is not None:
                all_paths[flow.flow_id] = path
        loads = self.fabric.offered_loads(
            routable + [flow for flow in others
                        if flow.flow_id in all_paths], all_paths)
        return self.congestion.evaluate_all(loads)

    def _arm_timed_fault(self, sim: Simulator, engine: FabricEngine,
                         metadata: JobMetadata) -> None:
        """Schedule a timestamp fault (``at_time_s``) on the clock.

        The structural effects land the instant the fault strikes —
        possibly mid-collective; the engine re-reads link capacities
        and re-solves the in-flight allocation immediately.
        """
        fault = self.fault
        if fault is None or fault.at_time_s is None:
            return

        def _proc():
            yield sim.timeout(max(0.0, fault.at_time_s - sim.now))
            shim = IterationSnapshot(
                time_s=sim.now, iteration=-1, job=metadata, hosts={})
            self._apply_structural_effects(shim)
            self._pending_syslogs.extend(shim.syslogs)
            engine.notify_topology_changed()

        sim.process(_proc(), name=f"fault-{fault.target}")

    # -- setup ------------------------------------------------------------------
    def _endpoints(self) -> List[Endpoint]:
        return [Endpoint(host, self.config.rail)
                for host in self.config.hosts]

    def _make_flows(self) -> List[Flow]:
        config = CollectiveConfig(job=self.config.name)
        if self.config.collective == "all_to_all":
            return all_to_all_flows(self._endpoints(),
                                    self.config.comm_size_bits, config)
        return ring_allreduce_flows(self._endpoints(),
                                    self.config.comm_size_bits, config)

    def _expected_times(self) -> Tuple[float, float]:
        """Fault-free baseline (what Seer would forecast, §3.3).

        Flows that cannot route at all (the job was launched onto an
        already-broken fabric) are excluded from the expectation; the
        run itself will surface them as errCQE connectivity failures.
        """
        routable = []
        for flow in self._flows:
            try:
                self.fabric.path(flow)
            except RoutingError:
                continue
            routable.append(flow)
        if not routable:
            return self.config.compute_time_s, 0.0
        run = self.fabric.complete(routable)
        return self.config.compute_time_s, run.total_time_s

    def _register_metadata(self) -> JobMetadata:
        flows = self._flows
        group = CommGroup(
            name=f"{self.config.name}.{self.config.collective}",
            kind=self.config.collective,
            hosts=list(self.config.hosts),
            qps=[QpMetadata(flow.qp, flow.src_host, flow.dst_host,
                            flow.five_tuple) for flow in flows],
        )
        metadata = JobMetadata(job=self.config.name,
                               hosts=list(self.config.hosts),
                               comm_groups=[group])
        if self.store is not None:
            self.store.register_job(metadata)
        return metadata

    # -- fault machinery ---------------------------------------------------------
    def _fault_active(self, iteration: int,
                      now: Optional[float] = None) -> bool:
        if self.fault is None:
            return False
        if self.fault.at_time_s is not None:
            # Timestamp faults strike on the clock (possibly armed as a
            # separate process); iteration indices are irrelevant.
            return now is not None and now >= self.fault.at_time_s
        return iteration >= self.fault.at_iteration

    def _apply_structural_effects(self, snap: IterationSnapshot) -> None:
        """One-time topology/state mutations when the fault activates."""
        if self._fault_applied or self.fault is None:
            return
        self._fault_applied = True
        fault = self.fault
        topo = self.fabric.topology
        effect = fault.effect

        if effect in (Effect.LINK_DOWN, Effect.LINK_DEGRADE):
            link_id = int(fault.target.split(":", 1)[1])
            if effect is Effect.LINK_DOWN:
                # In-flight QPs whose (pre-failure) path crossed the
                # link die with retry-exceeded errors.
                for flow in self._flows:
                    try:
                        path = self.fabric.path(flow)
                    except RoutingError:
                        continue
                    if link_id in path.link_ids:
                        self._link_down_victims.append(flow)
                topo.fail_link(link_id)
            else:
                # A flapping/degraded optical link loses most of its
                # effective capacity to retransmissions and down time.
                topo.scale_link(link_id, 0.15)
            device = topo.links[link_id].a.device
            snap.syslogs.append((device, "err", fault.syslog_message(),
                                 fault.profile.fatal_log))
        elif effect is Effect.SWITCH_ECN_STORM:
            snap.syslogs.append((fault.target, "warn",
                                 fault.syslog_message(), False))
            if fault.manifestation is Manifestation.FAIL_STOP:
                # A blackholing misconfiguration (wrong VLAN/route):
                # crossing flows die rather than crawl.
                self._drop_switches.add(fault.target)
            elif fault.manifestation is Manifestation.FAIL_HANG:
                # The miswired queue wedges a crossing collective: the
                # first host whose traffic traverses the switch hangs.
                for flow in self._flows:
                    try:
                        path = self.fabric.path(flow)
                    except RoutingError:
                        continue
                    if fault.target in path.devices:
                        self._hung_hosts.add(flow.src_host)
                        break
            else:
                for link in topo.links_of(fault.target):
                    topo.scale_link(link.link_id, 0.2)
        elif effect is Effect.SWITCH_DROPS:
            self._drop_switches.add(fault.target)
            snap.syslogs.append((fault.target, "warn",
                                 fault.syslog_message(), False))
        elif effect is Effect.NIC_ERRCQE:
            snap.syslogs.append((fault.target, "err",
                                 fault.syslog_message(), True))
            if fault.manifestation is Manifestation.FAIL_SLOW:
                # Flaky NIC: traffic still flows, at a crawl.
                for link in topo.links_of(fault.target):
                    topo.scale_link(link.link_id, 0.2)
            elif fault.manifestation is Manifestation.FAIL_HANG:
                self._hung_hosts.add(fault.target)
            else:
                self._nic_error_hosts.add(fault.target)
        elif effect is Effect.PCIE_PFC_STORM:
            self._pcie_hosts.add(fault.target)
            for link in topo.links_of(fault.target):
                topo.scale_link(link.link_id, 0.1)
            # A broken PCIe leaves no network-visible syslog at first —
            # the §5 incident took hours precisely because of that.
        elif effect is Effect.MISWIRE:
            self._apply_miswire(fault, snap)
        elif effect is Effect.HOST_HANG:
            if fault.manifestation is Manifestation.FAIL_STOP:
                self._crashed_hosts.add(fault.target)
            else:
                self._hung_hosts.add(fault.target)
        elif effect in (Effect.GPU_FATAL, Effect.ECC_FATAL):
            snap.syslogs.append((fault.target, "crit",
                                 fault.syslog_message(), True))
            if fault.manifestation is Manifestation.FAIL_STOP:
                self._crashed_hosts.add(fault.target)
            else:
                self._hung_hosts.add(fault.target)
        elif effect is Effect.CONFIG_ERROR:
            snap.syslogs.append((fault.target, "err",
                                 fault.syslog_message(), True))
            if fault.manifestation in (Manifestation.FAIL_ON_START,
                                       Manifestation.FAIL_STOP):
                self._crashed_hosts.add(fault.target)
            elif fault.manifestation is Manifestation.FAIL_HANG:
                self._hung_hosts.add(fault.target)
            else:
                self._slow_compute[fault.target] = 1.6
        elif effect is Effect.MULTI_HOST_SOFTWARE:
            affected = self._rng.sample(
                list(self.config.hosts),
                k=min(len(self.config.hosts),
                      max(2, len(self.config.hosts) // 2)))
            for host in affected:
                snap.syslogs.append((host, "error",
                                     fault.syslog_message(), False))
                if fault.manifestation is Manifestation.FAIL_SLOW:
                    self._slow_compute[host] = 1.8
                elif fault.manifestation is Manifestation.FAIL_HANG:
                    self._hung_hosts.add(host)
                else:
                    self._crashed_hosts.add(host)

    def _apply_miswire(self, fault: FaultSpec,
                       snap: IterationSnapshot) -> None:
        """Swap the switch ends of two host uplinks (cabling mistake)."""
        topo = self.fabric.topology
        link_id = int(fault.target.split(":", 1)[1])
        link = topo.links[link_id]
        # Find a partner link on the same host, different rail/switch.
        host = link.a.device if topo.devices[link.a.device].tier == 0 \
            else link.b.device
        link_rail = topo.devices[link.other(host)].rail
        partner = None
        for other in topo.links_of(host):
            if other.link_id == link.link_id:
                continue
            other_rail = topo.devices[other.other(host)].rail
            # A cross-rail swap is the observable cabling mistake; a
            # same-group swap within a rail is wiring-rule-equivalent.
            if other_rail != link_rail:
                partner = other
                break
        if partner is None:
            return
        topo.miswire(host, link.link_id, partner.link_id)
        snap.syslogs.append((host, "warn", fault.syslog_message(), False))

    # -- per-iteration dynamics -------------------------------------------------
    def _begin_iteration(self, iteration: int, now: float,
                         metadata: JobMetadata) -> IterationSnapshot:
        """Snapshot scaffolding at iteration start: host states, fault
        activation, structural/sensor evidence — everything that
        precedes the compute phase."""
        hosts = {
            host: HostState(
                host=host,
                compute_time_s=self._compute_time(host),
                comm_time_s=0.0,
            )
            for host in self.config.hosts
        }
        snap = IterationSnapshot(
            time_s=now, iteration=iteration, job=metadata, hosts=hosts)
        if self._pending_syslogs:
            snap.syslogs.extend(self._pending_syslogs)
            self._pending_syslogs.clear()

        if self._fault_active(iteration, now):
            self._apply_structural_effects(snap)

        # Crashed hosts end the job (fail-stop / fail-on-start).  A dead
        # process issues no work requests at all — started == 0 is the
        # timeline signature distinguishing a crash from a hang.
        for host in self._crashed_hosts:
            if host in hosts:
                hosts[host].crashed = True
                hosts[host].gpu_util = 0.0
                hosts[host].started = 0
                hosts[host].finished = 0
        if self._crashed_hosts:
            snap.aborted = True
            snap.completed = False

        # Apply slow-compute multipliers.
        for host, factor in self._slow_compute.items():
            if host in hosts:
                hosts[host].compute_time_s *= factor

        # Sensor-level evidence.
        for host in self._pcie_hosts:
            if host in hosts:
                hosts[host].pcie_errors = 12
                hosts[host].nic_pfc_rx = 5000.0
        return snap

    def _finish_iteration(self, snap: IterationSnapshot) -> None:
        """Post-communication bookkeeping: hung hosts never finish."""
        for host in self._hung_hosts:
            if host in snap.hosts:
                state = snap.hosts[host]
                state.hung = True
                state.started = 1
                state.finished = 0
                state.comm_time_s = _HANG_TIMEOUT_S
                state.gpu_util = 0.99  # busy-spinning in NCCL
        if self._hung_hosts:
            snap.completed = False

    def _compute_time(self, host: str) -> float:
        noise = self._rng.gauss(0.0, self.config.compute_noise_frac)
        return self.config.compute_time_s * max(0.1, 1.0 + noise)

    def _route_flows(self, flows: List[Flow], snap: IterationSnapshot
                     ) -> Tuple[List[Flow], List[Flow]]:
        """Split flows into routable and connectivity-failed sets."""
        routable, failed = [], []
        for flow in flows:
            if (flow.src_host in self._crashed_hosts
                    or flow.dst_host in self._crashed_hosts
                    or flow.src_host in self._nic_error_hosts
                    or flow.dst_host in self._nic_error_hosts):
                failed.append(flow)
                continue
            try:
                self.fabric.path(flow)
            except RoutingError:
                failed.append(flow)
                continue
            routable.append(flow)
        return routable, failed

    def _apply_flow_faults(self, flows: List[Flow], failed: List[Flow],
                           snap: IterationSnapshot,
                           now: Optional[float] = None) -> None:
        fault = self.fault
        # Connectivity-failed flows raise errCQE retry-exceeded events.
        for flow in failed:
            flow.rate_gbps = 0.0
            snap.err_cqes.append((flow.src_host, flow.qp,
                                  flow.five_tuple,
                                  "IBV_WC_RETRY_EXC_ERR"))
        if fault is None or not self._fault_active(snap.iteration, now):
            return
        if fault.effect is Effect.NIC_ERRCQE \
                and fault.manifestation is Manifestation.FAIL_STOP \
                and failed:
            snap.aborted = True
            snap.completed = False
        if self._drop_switches:
            for flow in snap.flows:
                path = snap.paths.get(flow.flow_id)
                if path and any(switch in path.devices
                                for switch in self._drop_switches):
                    snap.err_cqes.append((flow.src_host, flow.qp,
                                          flow.five_tuple,
                                          "IBV_WC_WR_FLUSH_ERR"))
            if fault.manifestation is Manifestation.FAIL_STOP \
                    and snap.err_cqes:
                snap.aborted = True
                snap.completed = False
        if fault.effect is Effect.LINK_DOWN and self._link_down_victims:
            # The break is noticed as the crossing QPs time out, once.
            for flow in self._link_down_victims:
                snap.err_cqes.append((flow.src_host, flow.qp,
                                      flow.five_tuple,
                                      "IBV_WC_RETRY_EXC_ERR"))
            self._link_down_victims = []
            if fault.manifestation is Manifestation.FAIL_STOP:
                snap.aborted = True
                snap.completed = False
