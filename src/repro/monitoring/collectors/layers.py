"""Per-layer telemetry collectors (paper Figure 8).

Each collector turns an :class:`IterationSnapshot` into the records its
production counterpart would emit:

* :class:`AppCollector` — NCCL timeline (per-host compute/communication
  time and work-request progress) and the per-iteration report.
* :class:`TransportCollector` — millisecond-level QP rate samples
  (RETH-parsed throughput) and errCQE events.
* :class:`NetworkCollector` — sFlow path reconstruction and INT-armed
  ping hop latencies.
* :class:`PhysicalCollector` — switch internal counters, host sensor
  readings, and device syslogs.

Collectors only read the parts of the snapshot their layer could see;
the cross-layer join keys (QP <-> five-tuple <-> path <-> devices) are
what the analyzer later uses to stitch them back together.
"""

from __future__ import annotations

from ..telemetry import (
    ErrCqeRecord,
    HostSensorRecord,
    IntPingRecord,
    IterationReport,
    NcclTimelineRecord,
    QpRateRecord,
    SflowPathRecord,
    SwitchCounterRecord,
    SyslogRecord,
    TelemetryStore,
)
from .base import IterationSnapshot

__all__ = [
    "AppCollector",
    "TransportCollector",
    "NetworkCollector",
    "PhysicalCollector",
    "FullStackCollector",
]


class AppCollector:
    """Application layer: training progress monitoring."""

    def collect(self, snap: IterationSnapshot,
                store: TelemetryStore) -> None:
        for state in snap.hosts.values():
            store.add(NcclTimelineRecord(
                time_s=snap.time_s,
                job=snap.job.job,
                host=state.host,
                iteration=snap.iteration,
                compute_time_s=state.compute_time_s,
                comm_time_s=state.comm_time_s,
                started=state.started,
                finished=state.finished,
            ))
        store.add(IterationReport(
            time_s=snap.time_s,
            job=snap.job.job,
            iteration=snap.iteration,
            iteration_time_s=snap.iteration_time_s,
            completed=snap.completed,
        ))


class TransportCollector:
    """Transport layer: ms-level QP rates and RDMA error events."""

    def collect(self, snap: IterationSnapshot,
                store: TelemetryStore) -> None:
        for flow in snap.flows:
            store.add(QpRateRecord(
                time_s=snap.time_s,
                host=flow.src_host,
                qp=flow.qp,
                five_tuple=flow.five_tuple,
                rate_gbps=flow.rate_gbps,
            ))
        for host, qp, five_tuple, error in snap.err_cqes:
            store.add(ErrCqeRecord(
                time_s=snap.time_s,
                host=host,
                qp=qp,
                five_tuple=five_tuple,
                error=error,
            ))


class NetworkCollector:
    """Network layer: sFlow path reconstruction + INT pingmesh."""

    def collect(self, snap: IterationSnapshot,
                store: TelemetryStore) -> None:
        for flow in snap.flows:
            path = snap.paths.get(flow.flow_id)
            if path is None:
                continue
            store.add(SflowPathRecord(
                time_s=snap.time_s,
                five_tuple=flow.five_tuple,
                devices=tuple(path.devices),
                link_ids=tuple(path.link_ids),
            ))
            latencies = []
            for device, link_id in zip(path.devices, path.link_ids):
                link_dir = self._link_dir(snap, device, link_id)
                state = snap.congestion.get(link_dir)
                latencies.append(
                    state.hop_latency_us if state is not None else 0.6)
            store.add(IntPingRecord(
                time_s=snap.time_s,
                five_tuple=flow.five_tuple,
                devices=tuple(path.devices),
                hop_latencies_us=tuple(latencies),
            ))

    @staticmethod
    def _link_dir(snap: IterationSnapshot, device: str, link_id: int):
        # Reconstruct the directed-hop key used by the fabric.
        for key in ((link_id, True), (link_id, False)):
            if key in snap.congestion:
                return key
        return (link_id, True)


class PhysicalCollector:
    """Physical layer: switch counters, host sensors, syslogs."""

    def __init__(self, topology) -> None:
        self.topology = topology

    def collect(self, snap: IterationSnapshot,
                store: TelemetryStore) -> None:
        for (link_id, forward), state in snap.congestion.items():
            link = self.topology.links[link_id]
            # The counter lives on the switch whose egress queue it is —
            # the upstream endpoint of the directed hop.
            device = link.a.device if forward else link.b.device
            store.add(SwitchCounterRecord(
                time_s=snap.time_s,
                device=device,
                link_id=link_id,
                ecn_marks=state.ecn_marks_per_poll,
                pfc_pause=state.pfc_pause_events,
                utilization=state.utilization,
            ))
        for state in snap.hosts.values():
            store.add(HostSensorRecord(
                time_s=snap.time_s,
                host=state.host,
                gpu_util=state.gpu_util,
                cpu_util=state.cpu_util,
                ecc_errors=state.ecc_errors,
                pcie_errors=state.pcie_errors,
                nic_pfc_rx=state.nic_pfc_rx,
            ))
        for device, severity, message, fatal in snap.syslogs:
            store.add(SyslogRecord(
                time_s=snap.time_s,
                device=device,
                severity=severity,
                message=message,
                fatal=fatal,
            ))


class FullStackCollector:
    """All four layers wired together (the Figure-8 stack)."""

    def __init__(self, topology) -> None:
        self.app = AppCollector()
        self.transport = TransportCollector()
        self.network = NetworkCollector()
        self.physical = PhysicalCollector(topology)

    def collect(self, snap: IterationSnapshot,
                store: TelemetryStore) -> None:
        self.app.collect(snap, store)
        self.transport.collect(snap, store)
        self.network.collect(snap, store)
        self.physical.collect(snap, store)
