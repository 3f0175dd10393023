"""Flow abstractions shared by the fabric simulator and monitoring.

A :class:`Flow` is one RDMA stream between two GPUs: it carries a QP
number and a five-tuple.  The five-tuple is what the Astral monitoring
system uses to join application-layer QP metadata with network-layer
path telemetry (§3.2), so it is preserved verbatim here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..topology.elements import nic_name
from .ecmp import FiveTuple

__all__ = ["Flow", "FlowPath", "make_flow", "reset_flow_ids"]

_flow_counter = itertools.count()


def reset_flow_ids() -> None:
    """Reset the global flow id counter (for reproducible tests)."""
    global _flow_counter
    _flow_counter = itertools.count()


@dataclass(slots=True)
class Flow:
    """One RDMA flow between a source and destination GPU.

    ``size_bits`` is the message size (demand);
    :meth:`Fabric.max_min_rates` fills in ``rate_gbps``.  ``job`` and ``collective`` tag the
    flow for monitoring and for the controller's reassignment rounds.
    ``rail`` is the source NIC's rail and ``dst_rail`` the destination
    NIC's; the router binds the first and last hop to them.
    """

    flow_id: int
    src_host: str
    dst_host: str
    rail: int
    dst_rail: int
    five_tuple: FiveTuple
    size_bits: float
    qp: int = 0
    job: str = ""
    collective: str = ""
    rate_gbps: float = 0.0
    #: when the transfer starts on the shared simulation clock.  The
    #: event-driven :class:`~repro.network.engine.FabricEngine`
    #: honours it; its batch wrapper :meth:`Fabric.complete` (and the
    #: batch oracle ``repro.validation.complete_batch``) starts every
    #: flow together at 0.0.
    start_time_s: float = 0.0

    @property
    def src_ip(self) -> str:
        return self.five_tuple.src_ip

    @property
    def dst_ip(self) -> str:
        return self.five_tuple.dst_ip


@dataclass
class FlowPath:
    """The resolved hop-by-hop route of a flow.

    ``link_ids`` are traversal order from source host to destination
    host; ``devices`` is the device sequence (len(link_ids) + 1).  The
    network-layer collectors (sFlow reconstruction, INT pingmesh)
    consume exactly this structure.
    """

    flow_id: int
    devices: List[str] = field(default_factory=list)
    link_ids: List[int] = field(default_factory=list)

    @property
    def hops(self) -> int:
        return len(self.link_ids)

    @property
    def switch_hops(self) -> int:
        """Number of intermediate switches on the path."""
        return max(0, len(self.devices) - 2)


def make_flow(src_host: str, dst_host: str, rail: int, size_bits: float,
              src_port: Optional[int] = None, qp: Optional[int] = None,
              job: str = "", collective: str = "",
              dst_rail: Optional[int] = None) -> Flow:
    """Create a flow with monitoring-compatible identifiers.

    The source "IP" encodes host + rail (one NIC per rail), matching how
    the monitoring join keys work; the default source port is derived
    deterministically from the flow id so repeated runs are stable.
    ``dst_rail`` defaults to the source rail (same-rail traffic dominates
    under PXN); cross-rail flows through the Core tier may differ.
    """
    flow_id = next(_flow_counter)
    port = src_port if src_port is not None else 49152 + (flow_id % 16384)
    if dst_rail is None:
        dst_rail = rail
    five_tuple = FiveTuple(
        src_ip=nic_name(src_host, rail),
        dst_ip=nic_name(dst_host, dst_rail),
        src_port=port,
    )
    return Flow(
        flow_id=flow_id,
        src_host=src_host,
        dst_host=dst_host,
        rail=rail,
        dst_rail=dst_rail,
        five_tuple=five_tuple,
        size_bits=size_bits,
        qp=qp if qp is not None else 1000 + flow_id,
        job=job,
        collective=collective,
    )
