"""Builder for the Astral network architecture (paper §2.1, Figure 3).

Design principles implemented here:

* **P1** — same-rail ToR switches are aggregated at tier 2: every Agg
  switch serves exactly one rail, so a pod keeps up to
  ``blocks_per_pod * hosts_per_block`` GPUs reachable over same-rail
  (ToR–Agg–ToR) paths without touching Core switches.
* **P2** — identical aggregated bandwidth at every tier (the builder can
  deliberately violate this via ``tier3_oversubscription`` to reproduce
  the paper's Figure 2 oversubscription study).
* **P3** — the two ports of each dual-port NIC land on two *different*
  same-rail ToR switches (dual-ToR), so one optical module or ToR failure
  never strands a GPU.

At paper scale (8 pods x 64 blocks x 128 hosts x 8 GPUs = 512K GPUs) the
graph has ~78K devices; tests use scaled-down parameter sets, which the
construction supports uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .elements import (
    DeviceKind,
    Gpu,
    Host,
    Nic,
    PortRef,
    Switch,
    Topology,
    TopologyError,
)

__all__ = ["AstralParams", "build_astral"]


@dataclass(frozen=True)
class AstralParams:
    """Dimensions of an Astral fabric.

    Defaults are the paper's published values (Figure 3).  ``small()``
    and ``tiny()`` provide laptop-scale instances with the same shape.
    """

    pods: int = 8
    blocks_per_pod: int = 64
    hosts_per_block: int = 128
    gpus_per_host: int = 8          # = number of rails
    nic_ports: int = 2              # dual-port NIC => dual-ToR (P3)
    aggs_per_group: int = 64        # ToR uplink fan-out at tier 2
    cores_per_group: int = 64       # Agg uplink fan-out at tier 3
    nic_port_gbps: float = 200.0
    tor_agg_gbps: float = 400.0
    agg_core_gbps: float = 400.0
    tier3_oversubscription: float = 1.0
    #: always ``None``: kept only so stored reports and spec hashes
    #: that serialize it still load.  Pick a fill kernel with
    #: :func:`repro.network.solver.use_backend` instead.
    solver: "str | None" = None

    def __post_init__(self) -> None:
        if self.solver is not None:
            raise ValueError(
                f"AstralParams.solver must be None, got "
                f"{self.solver!r}; pick a fill kernel with "
                f"repro.network.solver.use_backend")

    @classmethod
    def small(cls) -> "AstralParams":
        """~2 pods of 2 blocks x 8 hosts x 4 rails — integration scale."""
        return cls(
            pods=2,
            blocks_per_pod=2,
            hosts_per_block=8,
            gpus_per_host=4,
            aggs_per_group=4,
            cores_per_group=4,
        )

    @classmethod
    def cluster(cls) -> "AstralParams":
        """256 hosts across 4 pods — the scheduler-scenario scale."""
        return cls(
            pods=4,
            blocks_per_pod=4,
            hosts_per_block=16,
            gpus_per_host=4,
            aggs_per_group=4,
            cores_per_group=4,
        )

    @classmethod
    def tiny(cls) -> "AstralParams":
        """Minimal structurally-complete instance for unit tests."""
        return cls(
            pods=2,
            blocks_per_pod=2,
            hosts_per_block=2,
            gpus_per_host=2,
            aggs_per_group=2,
            cores_per_group=2,
        )

    @classmethod
    def named(cls, scale: str) -> "AstralParams":
        """The laptop-scale instance called *scale*: ``tiny``,
        ``small`` or ``cluster``."""
        if scale not in ("tiny", "small", "cluster"):
            raise ValueError(f"unknown scale {scale!r}; expected one of "
                             f"('tiny', 'small', 'cluster')")
        return getattr(cls, scale)()

    def with_oversubscription(self, ratio: float) -> "AstralParams":
        if ratio < 1.0:
            raise ValueError(f"oversubscription ratio must be >= 1: {ratio}")
        return replace(self, tier3_oversubscription=ratio)

    # -- derived sizes ----------------------------------------------------
    @property
    def rails(self) -> int:
        return self.gpus_per_host

    @property
    def tor_groups(self) -> int:
        """Agg groups per rail == ToRs per rail per block == NIC ports."""
        return self.nic_ports

    @property
    def gpus_per_block(self) -> int:
        return self.hosts_per_block * self.gpus_per_host

    @property
    def gpus_per_pod(self) -> int:
        return self.blocks_per_pod * self.gpus_per_block

    @property
    def total_gpus(self) -> int:
        return self.pods * self.gpus_per_pod

    @property
    def rail_size(self) -> int:
        """GPUs reachable on one rail within a pod (8K at paper scale)."""
        return self.blocks_per_pod * self.hosts_per_block

    @property
    def core_groups(self) -> int:
        """One core group per Agg rank (identity mapping, §2.1 cluster)."""
        return self.aggs_per_group

    def validate(self) -> None:
        if self.pods < 1 or self.blocks_per_pod < 1:
            raise TopologyError("need at least one pod and block")
        if self.nic_ports < 1:
            raise TopologyError("NICs need at least one port")
        if self.tier3_oversubscription < 1.0:
            raise TopologyError("tier-3 oversubscription must be >= 1")


def _host_name(pod: int, block: int, host: int) -> str:
    return f"p{pod}.b{block}.h{host}"


def _tor_name(pod: int, block: int, rail: int, group: int) -> str:
    return f"p{pod}.b{block}.r{rail}.g{group}.tor"


def _agg_name(pod: int, rail: int, group: int, rank: int) -> str:
    return f"p{pod}.r{rail}.g{group}.a{rank}.agg"


def _core_name(core_group: int, index: int) -> str:
    return f"cg{core_group}.c{index}.core"


def build_astral(params: AstralParams | None = None) -> Topology:
    """Construct an Astral fabric.

    Wiring, mirroring Figure 3:

    * host NIC (rail ``r``) port ``g`` -> ToR(pod, block, r, g);
    * ToR(pod, block, r, g) uplink ``a`` -> Agg(pod, r, g, a) — one link to
      every Agg of its group, for every block in the pod (P1);
    * Agg(pod, r, g, rank) uplink ``c`` -> Core(core_group=rank, c), so all
      same-rank Aggs across rails, groups, and pods meet at one core group.

    Tier-3 oversubscription is modelled by scaling each Agg–Core link
    capacity down by the requested ratio (same aggregate effect as
    removing uplinks, without changing path diversity).
    """
    params = params or AstralParams()
    params.validate()
    topo = Topology(name="astral")

    # Hosts with GPUs and rail NICs.
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                name = _host_name(pod, block, index)
                host = Host(
                    name=name, kind=DeviceKind.HOST, pod=pod, block=block,
                    rank=index,
                )
                for rail in range(params.rails):
                    host.gpus.append(
                        Gpu(name=f"{name}.gpu{rail}", host=name, rail=rail)
                    )
                    host.nics.append(
                        Nic(
                            name=f"{name}.nic{rail}",
                            host=name,
                            rail=rail,
                            ports=params.nic_ports,
                            port_gbps=params.nic_port_gbps,
                        )
                    )
                topo.add_device(host)

    # ToR switches (tier 1): one per (pod, block, rail, group).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for rail in range(params.rails):
                for group in range(params.tor_groups):
                    topo.add_device(Switch(
                        name=_tor_name(pod, block, rail, group),
                        kind=DeviceKind.TOR,
                        pod=pod, block=block, rail=rail, group=group,
                    ))

    # Agg switches (tier 2): one per (pod, rail, group, rank) — P1.
    for pod in range(params.pods):
        for rail in range(params.rails):
            for group in range(params.tor_groups):
                for rank in range(params.aggs_per_group):
                    topo.add_device(Switch(
                        name=_agg_name(pod, rail, group, rank),
                        kind=DeviceKind.AGG,
                        pod=pod, rail=rail, group=group, rank=rank,
                    ))

    # Core switches (tier 3): one group per Agg rank.
    for core_group in range(params.core_groups):
        for index in range(params.cores_per_group):
            topo.add_device(Switch(
                name=_core_name(core_group, index),
                kind=DeviceKind.CORE,
                group=core_group, rank=index,
            ))

    # Host -> ToR links (P3: port g of rail-r NIC to group-g ToR).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                host = _host_name(pod, block, index)
                for rail in range(params.rails):
                    for group in range(params.tor_groups):
                        topo.add_link(
                            PortRef(host, rail * params.nic_ports + group),
                            PortRef(_tor_name(pod, block, rail, group),
                                    index),
                            params.nic_port_gbps,
                        )

    # ToR -> Agg links (every ToR reaches every Agg of its group).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for rail in range(params.rails):
                for group in range(params.tor_groups):
                    tor = _tor_name(pod, block, rail, group)
                    for rank in range(params.aggs_per_group):
                        topo.add_link(
                            PortRef(tor, params.hosts_per_block + rank),
                            PortRef(_agg_name(pod, rail, group, rank),
                                    block),
                            params.tor_agg_gbps,
                        )

    # Agg -> Core links (same-rank Aggs share a core group).  The uplink
    # capacity is scaled so total Agg up-capacity equals its down-capacity
    # divided by the requested tier-3 oversubscription; at paper scale
    # (64 blocks, 64 cores/group, 400G everywhere) this is exactly
    # ``agg_core_gbps``.
    uplink_gbps = (
        params.blocks_per_pod * params.tor_agg_gbps
        / params.cores_per_group / params.tier3_oversubscription
    )
    for pod in range(params.pods):
        for rail in range(params.rails):
            for group in range(params.tor_groups):
                for rank in range(params.aggs_per_group):
                    agg = _agg_name(pod, rail, group, rank)
                    agg_index = (
                        (pod * params.rails + rail) * params.tor_groups
                        + group
                    )
                    for core in range(params.cores_per_group):
                        topo.add_link(
                            PortRef(agg, params.blocks_per_pod + core),
                            PortRef(_core_name(rank, core), agg_index),
                            uplink_gbps,
                        )
    return topo
