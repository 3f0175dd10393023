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
construction supports uniformly.  Device names are computed once per
builder call and shared by devices and links; every link is streamed
through :meth:`~repro.topology.elements.Topology.add_links` in link-id
order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, Iterator, List, Tuple

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

__all__ = ["AstralParams", "NAMED_SCALES", "build_astral"]

#: the laptop-scale instances :meth:`AstralParams.named` accepts.
NAMED_SCALES = ("tiny", "small", "cluster")


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
        if scale not in NAMED_SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of "
                             f"{NAMED_SCALES}")
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
        for name in ("hosts_per_block", "gpus_per_host",
                     "aggs_per_group", "cores_per_group"):
            value = getattr(self, name)
            if value < 1:
                raise TopologyError(f"{name} must be >= 1: {value}")
        for name in ("nic_port_gbps", "tor_agg_gbps", "agg_core_gbps"):
            value = getattr(self, name)
            if not value > 0:      # also rejects NaN
                raise TopologyError(f"{name} must be > 0: {value}")
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
    pods, blocks = range(params.pods), range(params.blocks_per_pod)
    rails, groups = range(params.rails), range(params.tor_groups)
    ranks = range(params.aggs_per_group)
    # Name tables, shared by the devices and their links.
    tors = {(pod, block): [_tor_name(pod, block, rail, group)
                           for rail in rails for group in groups]
            for pod in pods for block in blocks}
    aggs = {pod: [[_agg_name(pod, rail, group, rank) for rank in ranks]
                  for rail in rails for group in groups]
            for pod in pods}
    cores = [[_core_name(core_group, index)
              for index in range(params.cores_per_group)]
             for core_group in range(params.core_groups)]

    # Hosts with GPUs and rail NICs.
    for pod in pods:
        for block in blocks:
            for index in range(params.hosts_per_block):
                name = _host_name(pod, block, index)
                host = Host(
                    name=name, kind=DeviceKind.HOST, pod=pod, block=block,
                    rank=index,
                )
                for rail in rails:
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
    for (pod, block), names in tors.items():
        for name, (rail, group) in zip(names, product(rails, groups)):
            topo.add_device(Switch(
                name=name, kind=DeviceKind.TOR,
                pod=pod, block=block, rail=rail, group=group,
            ))

    # Agg switches (tier 2): one per (pod, rail, group, rank) — P1.
    for pod, per_group in aggs.items():
        for names, (rail, group) in zip(per_group,
                                        product(rails, groups)):
            for rank, name in enumerate(names):
                topo.add_device(Switch(
                    name=name, kind=DeviceKind.AGG,
                    pod=pod, rail=rail, group=group, rank=rank,
                ))

    # Core switches (tier 3): one group per Agg rank.
    for core_group, names in enumerate(cores):
        for index, name in enumerate(names):
            topo.add_device(Switch(
                name=name, kind=DeviceKind.CORE,
                group=core_group, rank=index,
            ))

    topo.add_links(_astral_links(params, tors, aggs, cores))
    return topo


def _astral_links(params: AstralParams,
                  tors: Dict[Tuple[int, int], List[str]],
                  aggs: Dict[int, List[List[str]]],
                  cores: List[List[str]],
                  ) -> Iterator[Tuple[PortRef, PortRef, float]]:
    """Every link of :func:`build_astral`'s fabric as ``(a, b, gbps)``,
    in link-id order.  The name tables are indexed as built there:
    ``tors[pod, block]`` and ``aggs[pod]`` by ``rail * tor_groups +
    group`` (which is also the host NIC port number), and
    ``cores[rank]`` by core index."""
    hosts_per_block = params.hosts_per_block

    # Host -> ToR links (P3: port g of rail-r NIC to group-g ToR).
    gbps = params.nic_port_gbps
    for (pod, block), tor_row in tors.items():
        for index in range(hosts_per_block):
            host = _host_name(pod, block, index)
            for port, tor in enumerate(tor_row):
                yield PortRef(host, port), PortRef(tor, index), gbps

    # ToR -> Agg links (every ToR reaches every Agg of its group).
    gbps = params.tor_agg_gbps
    for (pod, block), tor_row in tors.items():
        for tor, agg_row in zip(tor_row, aggs[pod]):
            for rank, agg in enumerate(agg_row):
                yield (PortRef(tor, hosts_per_block + rank),
                       PortRef(agg, block), gbps)

    # Agg -> Core links (same-rank Aggs share a core group).  The uplink
    # capacity is scaled so total Agg up-capacity equals its down-capacity
    # divided by the requested tier-3 oversubscription; at paper scale
    # (64 blocks, 64 cores/group, 400G everywhere) this is exactly
    # ``agg_core_gbps``.  An Agg's port on a core is its flat
    # (pod, rail, group) index.
    uplink_gbps = (
        params.blocks_per_pod * params.tor_agg_gbps
        / params.cores_per_group / params.tier3_oversubscription
    )
    agg_index = 0
    for per_group in aggs.values():
        for agg_row in per_group:
            for agg, core_row in zip(agg_row, cores):
                for core, name in enumerate(core_row):
                    yield (PortRef(agg, params.blocks_per_pod + core),
                           PortRef(name, agg_index), uplink_gbps)
            agg_index += 1
