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

import re
from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from .elements import (
    DeviceKind,
    PortRef,
    Switch,
    Topology,
    TopologyError,
    make_host,
)

__all__ = [
    "AstralParams",
    "NAMED_SCALES",
    "agg_name",
    "build_astral",
    "core_name",
    "host_name",
    "parse_device",
    "rename_device",
    "tor_name",
]

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


# -- device names ----------------------------------------------------------
# The one codec for Astral device names: the four builders below, and
# ``parse_device``/``rename_device``, which accept exactly the names
# the builders produce (decimal fields, no sign, no leading zero).

def host_name(pod: int, block: int, host: int) -> str:
    return f"p{pod}.b{block}.h{host}"


def tor_name(pod: int, block: int, rail: int, group: int) -> str:
    return f"p{pod}.b{block}.r{rail}.g{group}.tor"


def agg_name(pod: int, rail: int, group: int, rank: int) -> str:
    return f"p{pod}.r{rail}.g{group}.a{rank}.agg"


def core_name(core_group: int, index: int) -> str:
    return f"cg{core_group}.c{index}.core"


_N = "(0|[1-9][0-9]*)"
#: (kind, pattern, the Device field each group fills), one per builder.
_NAME_PATTERNS = (
    (DeviceKind.HOST, re.compile(rf"p{_N}\.b{_N}\.h{_N}"),
     ("pod", "block", "rank")),
    (DeviceKind.TOR, re.compile(rf"p{_N}\.b{_N}\.r{_N}\.g{_N}\.tor"),
     ("pod", "block", "rail", "group")),
    (DeviceKind.AGG, re.compile(rf"p{_N}\.r{_N}\.g{_N}\.a{_N}\.agg"),
     ("pod", "rail", "group", "rank")),
    (DeviceKind.CORE, re.compile(rf"cg{_N}\.c{_N}\.core"),
     ("group", "rank")),
)
_POSITION = ("pod", "block", "rail", "group", "rank")

#: ``(kind, pod, block, rail, group, rank)`` of a parsed device name.
DeviceName = Tuple[DeviceKind, Optional[int], Optional[int],
                   Optional[int], Optional[int], Optional[int]]


def parse_device(name: str) -> Optional[DeviceName]:
    """``(kind, pod, block, rail, group, rank)`` of an Astral host or
    switch name — the position fields its :class:`Device` carries, with
    ``None`` where the kind has none (a host's index is its ``rank``) —
    or ``None`` for any string no builder above produces (``link:``
    ids, job names, GPU/NIC names, non-canonical numbers)."""
    for kind, pattern, fields in _NAME_PATTERNS:
        match = pattern.fullmatch(name)
        if match is not None:
            position = dict(zip(fields, map(int, match.groups())))
            return (kind, *(position.get(key) for key in _POSITION))
    return None


def rename_device(name: str, pod_map: Dict[int, int],
                  block_map: Optional[Dict[int, int]] = None) -> str:
    """*name* moved into a sub-simulation's coordinates: its pod through
    *pod_map* and, when given, its block through *block_map*.

    Names without a pod in *pod_map* pass through unchanged: cores
    (shared and pod-free by construction), other pods' devices, and
    strings :func:`parse_device` rejects.  A block missing from
    *block_map* raises ``KeyError``.
    """
    parsed = parse_device(name)
    if parsed is None or parsed[1] not in pod_map:
        return name
    kind, pod, block, rail, group, rank = parsed
    pod = pod_map[pod]
    if block is not None and block_map is not None:
        block = block_map[block]
    if kind is DeviceKind.HOST:
        return host_name(pod, block, rank)
    if kind is DeviceKind.TOR:
        return tor_name(pod, block, rail, group)
    return agg_name(pod, rail, group, rank)


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
    tors = {(pod, block): [tor_name(pod, block, rail, group)
                           for rail in rails for group in groups]
            for pod in pods for block in blocks}
    aggs = {pod: [[agg_name(pod, rail, group, rank) for rank in ranks]
                  for rail in rails for group in groups]
            for pod in pods}
    cores = [[core_name(core_group, index)
              for index in range(params.cores_per_group)]
             for core_group in range(params.core_groups)]

    # Hosts with GPUs and rail NICs.
    for pod in pods:
        for block in blocks:
            for index in range(params.hosts_per_block):
                topo.add_device(make_host(
                    host_name(pod, block, index), pod, block, index,
                    params.rails, params.nic_ports, params.nic_port_gbps))

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
            host = host_name(pod, block, index)
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
