"""Comparison architectures from the paper's related-work discussion.

Three production-ready designs Astral is evaluated against (§2.1,
"Advantages over other production-ready network architectures"):

* :func:`build_clos` — a 3-tier CLOS in the style of Meta [20] and
  ByteDance [27]: ToRs carry mixed rails, Aggs interconnect every ToR of
  the pod, and the Agg–Core tier is typically oversubscribed.
* :func:`build_full_interconnect_tier2` — rail-optimized ToRs but a fully
  interconnected tier 2, in the style of Alibaba HPN [39].  This is also
  the configuration Astral's own first attempt used and abandoned (§5),
  so it doubles as the tier-2 ablation baseline.
* :func:`build_rail_only` — Meta's rail-only design [46]: per-rail
  two-tier networks with no Core layer at all; cross-rail traffic must
  detour through the intra-host interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .astral import AstralParams, build_astral, host_name, tor_name
from .elements import (
    DeviceKind,
    PortRef,
    Switch,
    Topology,
    make_host,
)

__all__ = [
    "ClosParams",
    "build_clos",
    "build_full_interconnect_tier2",
    "build_rail_only",
]


# Names of the switches no Astral tier has, each written once: a
# rail-oblivious CLOS ToR, a pod-wide Agg and a core of one ungrouped
# Core layer.  Hosts and rail ToRs are named by repro.topology.astral.
def _clos_tor(pod: int, block: int, tor: int) -> str:
    return f"p{pod}.b{block}.t{tor}.tor"


def _pod_agg(pod: int, agg: int) -> str:
    return f"p{pod}.a{agg}.agg"


def _flat_core(core: int) -> str:
    return f"c{core}.core"


@dataclass(frozen=True)
class ClosParams:
    """Dimensions of a generic 3-tier CLOS fabric."""

    pods: int = 8
    blocks_per_pod: int = 64
    hosts_per_block: int = 128
    gpus_per_host: int = 8
    nic_ports: int = 2
    tors_per_block: int = 16
    aggs_per_pod: int = 64
    cores: int = 64
    nic_port_gbps: float = 200.0
    tor_agg_gbps: float = 400.0
    agg_core_gbps: float = 400.0
    tier3_oversubscription: float = 3.0   # typical production choice

    @classmethod
    def small(cls) -> "ClosParams":
        return cls(
            pods=2, blocks_per_pod=2, hosts_per_block=8, gpus_per_host=4,
            tors_per_block=8, aggs_per_pod=8, cores=4,
        )

    @classmethod
    def tiny(cls) -> "ClosParams":
        return cls(
            pods=2, blocks_per_pod=2, hosts_per_block=2, gpus_per_host=2,
            tors_per_block=4, aggs_per_pod=4, cores=2,
        )


def build_clos(params: ClosParams | None = None) -> Topology:
    """3-tier CLOS with rail-oblivious ToRs.

    Host NIC ports are striped across the block's ToRs so each ToR carries
    a mix of rails — the property that distinguishes CLOS from rail
    architectures: same-rail flows get no dedicated short paths and share
    the full Agg layer with all other traffic.
    """
    params = params or ClosParams()
    topo = Topology(name="clos")

    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                topo.add_device(make_host(
                    host_name(pod, block, index), pod, block, index,
                    params.gpus_per_host, params.nic_ports,
                    params.nic_port_gbps))
            for tor in range(params.tors_per_block):
                topo.add_device(Switch(
                    name=_clos_tor(pod, block, tor),
                    kind=DeviceKind.TOR, pod=pod, block=block, rank=tor))
        for agg in range(params.aggs_per_pod):
            topo.add_device(Switch(
                name=_pod_agg(pod, agg), kind=DeviceKind.AGG,
                pod=pod, rank=agg))
    for core in range(params.cores):
        topo.add_device(Switch(
            name=_flat_core(core), kind=DeviceKind.CORE, rank=core))

    # Host -> ToR: stripe NIC ports over the block's ToRs (rail-oblivious).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                host = host_name(pod, block, index)
                port_no = 0
                for rail in range(params.gpus_per_host):
                    for port in range(params.nic_ports):
                        tor = (rail * params.nic_ports + port) \
                            % params.tors_per_block
                        topo.add_link(
                            PortRef(host, port_no),
                            PortRef(_clos_tor(pod, block, tor),
                                    index * params.gpus_per_host + rail),
                            params.nic_port_gbps)
                        port_no += 1

    # ToR -> Agg: full mesh within the pod.
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for tor in range(params.tors_per_block):
                tor_ref = _clos_tor(pod, block, tor)
                for agg in range(params.aggs_per_pod):
                    topo.add_link(
                        PortRef(tor_ref, 10_000 + agg),
                        PortRef(_pod_agg(pod, agg),
                                block * params.tors_per_block + tor),
                        params.tor_agg_gbps)

    # Agg -> Core: full mesh, oversubscribed.  Uplink capacity is scaled
    # so the Agg tier's down/up ratio equals the requested ratio at any
    # parameter scale.
    agg_down = (params.blocks_per_pod * params.tors_per_block
                * params.tor_agg_gbps)
    uplink = agg_down / params.cores / params.tier3_oversubscription
    for pod in range(params.pods):
        for agg in range(params.aggs_per_pod):
            agg_ref = _pod_agg(pod, agg)
            for core in range(params.cores):
                topo.add_link(
                    PortRef(agg_ref, 10_000 + core),
                    PortRef(_flat_core(core),
                            pod * params.aggs_per_pod + agg),
                    uplink)
    return topo


def build_full_interconnect_tier2(params: AstralParams | None = None
                                  ) -> Topology:
    """Rail-optimized ToRs, fully interconnected tier 2 (HPN-style).

    Starts from the Astral wiring and replaces the per-rail Agg groups
    with pod-wide Aggs that every ToR (all rails) connects to.  Same-rail
    cross-block traffic therefore shares the Agg layer with cross-rail
    traffic — the hash-polarization-prone design Astral abandoned (§5).
    """
    params = params or AstralParams()
    params.validate()
    topo = Topology(name="tier2-full-interconnect")

    # Hosts, ToRs and the links between them, names included, come
    # from the Astral builder.
    astral = build_astral(params)
    for device in astral.devices.values():
        if device.kind in (DeviceKind.HOST, DeviceKind.TOR):
            topo.add_device(device)
    for link in astral.links.values():
        a_kind = astral.devices[link.a.device].kind
        b_kind = astral.devices[link.b.device].kind
        if {a_kind, b_kind} == {DeviceKind.HOST, DeviceKind.TOR}:
            topo.add_link(link.a, link.b, link.capacity_gbps)

    aggs_per_pod = params.rails * params.tor_groups * params.aggs_per_group
    tors_per_pod = (params.blocks_per_pod * params.rails
                    * params.tor_groups)
    # Preserve aggregate tier-2 capacity: each ToR still has
    # aggs_per_group uplinks' worth of bandwidth, now spread over all
    # pod Aggs.
    tor_uplink = (params.tor_agg_gbps * params.aggs_per_group
                  * params.rails * params.tor_groups) / aggs_per_pod

    for pod in range(params.pods):
        for agg in range(aggs_per_pod):
            topo.add_device(Switch(
                name=_pod_agg(pod, agg), kind=DeviceKind.AGG,
                pod=pod, rank=agg))
    core_count = params.core_groups * params.cores_per_group
    for core in range(core_count):
        topo.add_device(Switch(
            name=_flat_core(core), kind=DeviceKind.CORE, rank=core))

    for pod in range(params.pods):
        tor_index = 0
        for block in range(params.blocks_per_pod):
            for rail in range(params.rails):
                for group in range(params.tor_groups):
                    tor = tor_name(pod, block, rail, group)
                    for agg in range(aggs_per_pod):
                        topo.add_link(
                            PortRef(tor, 10_000 + agg),
                            PortRef(_pod_agg(pod, agg), tor_index),
                            tor_uplink)
                    tor_index += 1
        uplink = (params.agg_core_gbps / params.tier3_oversubscription
                  * params.cores_per_group * params.aggs_per_group
                  * params.rails * params.tor_groups
                  / (aggs_per_pod * core_count) * params.core_groups)
        for agg in range(aggs_per_pod):
            agg_ref = _pod_agg(pod, agg)
            for core in range(core_count):
                topo.add_link(
                    PortRef(agg_ref, 20_000 + core),
                    PortRef(_flat_core(core),
                            pod * aggs_per_pod + agg + tors_per_pod),
                    uplink)
    return topo


def build_rail_only(params: AstralParams | None = None) -> Topology:
    """Meta rail-only [46]: Astral wiring minus the Core layer.

    Cross-rail traffic cannot traverse this fabric at all; the collective
    models route it through the intra-host interconnect first (PXN-style
    forwarding), which is exactly the overhead the paper calls out.
    """
    params = params or AstralParams()
    astral = build_astral(params)
    topo = Topology(name="rail-only")
    for device in astral.devices.values():
        if device.kind is not DeviceKind.CORE:
            topo.add_device(device)
    for link in astral.links.values():
        kinds = {
            astral.devices[link.a.device].kind,
            astral.devices[link.b.device].kind,
        }
        if DeviceKind.CORE not in kinds:
            topo.add_link(link.a, link.b, link.capacity_gbps)
    return topo
