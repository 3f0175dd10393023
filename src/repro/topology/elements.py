"""Network element model shared by all topology builders.

The reproduction models a datacenter fabric as an explicit graph of
*devices* (hosts and switches) joined by *links*.  Every architectural
claim in the paper — pod scale, same-rail hop counts, oversubscription
ratios, dual-ToR redundancy — is a property of this graph, so the model
keeps exactly the attributes those claims depend on:

* devices carry their tier (host / ToR / Agg / Core) and their position
  (pod, block, rail, group, rank);
* links carry capacity and direction-of-climb (host→ToR→Agg→Core is "up");
* hosts carry GPUs and NICs, with each NIC bound to one GPU rail and
  exposing two ports (the paper's 2x200G dual-port NIC).

Links and their endpoints are by far the most numerous records (a
paper-scale block alone has ~68K links), so :class:`Link` and
:class:`PortRef` are slotted: no per-instance ``__dict__``, and no
attribute beyond their declared fields.  Builders that emit many links
hand them to :meth:`Topology.add_links` in one call.

This module owns two things every builder and consumer share: the NIC
name ``<host>.nic<rail>`` (:func:`nic_name`, :func:`parse_nic`), which
flows also use as their five-tuple IPs, and every change to a link
after it is built (:meth:`Topology.fail_link`,
:meth:`Topology.scale_link`, :meth:`Topology.miswire`), so the
``version`` counter routers key their caches on cannot be skipped.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DeviceKind",
    "Device",
    "Host",
    "Switch",
    "Nic",
    "Gpu",
    "Link",
    "PortRef",
    "Topology",
    "TopologyError",
    "make_host",
    "nic_name",
    "parse_nic",
]


class TopologyError(ValueError):
    """Raised for structurally invalid topology operations."""


class DeviceKind(enum.Enum):
    HOST = "host"
    TOR = "tor"
    AGG = "agg"
    CORE = "core"
    DCI = "dci"  # cross-datacenter interconnect router (Appendix B)

    @property
    def tier(self) -> int:
        """Switching tier: hosts are tier 0, ToR 1, Agg 2, Core 3, DCI 4."""
        return {
            DeviceKind.HOST: 0,
            DeviceKind.TOR: 1,
            DeviceKind.AGG: 2,
            DeviceKind.CORE: 3,
            DeviceKind.DCI: 4,
        }[self]


@dataclass(frozen=True, slots=True)
class PortRef:
    """A (device, port index) endpoint of a link."""

    device: str
    port: int


@dataclass
class Gpu:
    """One GPU in a host; ``rail`` is its rank within the host (0..7)."""

    name: str
    host: str
    rail: int


@dataclass
class Nic:
    """A dual-port NIC dedicated to one GPU rail (paper §2.1 host side)."""

    name: str
    host: str
    rail: int
    ports: int = 2
    port_gbps: float = 200.0

    @property
    def total_gbps(self) -> float:
        return self.ports * self.port_gbps


def nic_name(host: str, rail: int) -> str:
    """The name of *host*'s rail-*rail* NIC, which is also the "IP" a
    flow's five-tuple carries for that end."""
    return f"{host}.nic{rail}"


_RAIL = re.compile("0|[1-9][0-9]*")


def parse_nic(name: str) -> Optional[Tuple[str, int]]:
    """``(host, rail)`` of a :func:`nic_name`, or ``None`` when *name*
    does not end in ``.nic`` and a canonical rail number (decimal, no
    sign, no leading zero).  Any host string is accepted, so prefixed
    copies (``dc1.p0.b0.h0.nic3``) parse too."""
    host, marker, rail = name.rpartition(".nic")
    if not marker or _RAIL.fullmatch(rail) is None:
        return None
    return host, int(rail)


@dataclass
class Device:
    """Base device record. Position attributes are None when inapplicable."""

    name: str
    kind: DeviceKind
    pod: Optional[int] = None
    block: Optional[int] = None
    rail: Optional[int] = None
    group: Optional[int] = None
    rank: Optional[int] = None
    datacenter: int = 0

    @property
    def tier(self) -> int:
        return self.kind.tier


@dataclass
class Host(Device):
    """A GPU server: 8 GPUs and 8 dual-port NICs by default."""

    gpus: List[Gpu] = field(default_factory=list)
    nics: List[Nic] = field(default_factory=list)


def make_host(name: str, pod: int, block: int, rank: int, rails: int,
              nic_ports: int, nic_port_gbps: float) -> Host:
    """A host with one GPU and one ``nic_ports``-port NIC per rail."""
    host = Host(name=name, kind=DeviceKind.HOST, pod=pod, block=block,
                rank=rank)
    for rail in range(rails):
        host.gpus.append(Gpu(name=f"{name}.gpu{rail}", host=name,
                             rail=rail))
        host.nics.append(Nic(name=nic_name(name, rail), host=name,
                             rail=rail, ports=nic_ports,
                             port_gbps=nic_port_gbps))
    return host


@dataclass
class Switch(Device):
    """A switch with a total forwarding capacity (e.g. 51.2 Tbps ASICs)."""

    capacity_tbps: float = 51.2
    radix: int = 128


@dataclass(slots=True)
class Link:
    """A bidirectional link between two device ports.

    ``capacity_gbps`` is the per-direction capacity.  ``healthy`` supports
    the monitoring fault-injection campaigns (optical module damage, link
    flap, miswiring all toggle or rewire links).
    """

    link_id: int
    a: PortRef
    b: PortRef
    capacity_gbps: float
    healthy: bool = True

    def other(self, device: str) -> str:
        if device == self.a.device:
            return self.b.device
        if device == self.b.device:
            return self.a.device
        raise TopologyError(f"device {device} is not on link {self.link_id}")

    def endpoint(self, device: str) -> PortRef:
        if device == self.a.device:
            return self.a
        if device == self.b.device:
            return self.b
        raise TopologyError(f"device {device} is not on link {self.link_id}")


class Topology:
    """A fabric graph with tier-aware queries.

    Devices are indexed by name; links by integer id.  Adjacency maps each
    device to its incident links.  Builders in this package (Astral, CLOS,
    HPN, rail-only) all emit this structure, so the fabric simulator and
    the monitoring system are architecture-agnostic.
    """

    def __init__(self, name: str = "fabric"):
        self.name = name
        self.devices: Dict[str, Device] = {}
        self.links: Dict[int, Link] = {}
        self._adjacency: Dict[str, List[int]] = {}
        self._next_link_id = 0
        #: bumped on any structural or health change; routers use this to
        #: invalidate their cached reachability state.
        self.version = 0

    # -- construction ----------------------------------------------------
    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise TopologyError(f"duplicate device name: {device.name}")
        self.devices[device.name] = device
        self._adjacency[device.name] = []
        self.version += 1
        return device

    def _check_link(self, a: PortRef, b: PortRef) -> None:
        for ref in (a, b):
            if ref.device not in self.devices:
                raise TopologyError(f"unknown device in link: {ref.device}")
        if a.device == b.device:
            raise TopologyError(f"self-link on {a.device}")

    def add_link(self, a: PortRef, b: PortRef, capacity_gbps: float) -> Link:
        return self.add_links(((a, b, capacity_gbps),))[0]

    def add_links(self, specs: Iterable[Tuple[PortRef, PortRef, float]]
                  ) -> List[Link]:
        """Add every ``(a, b, capacity_gbps)`` of *specs*, in order,
        with consecutive ids, one ``version`` bump per link.

        It is all or nothing: every spec is checked before the topology
        changes, so a failing call adds no link.
        """
        devices = self.devices
        new: List[Link] = []
        link_id = self._next_link_id
        for a, b, capacity_gbps in specs:
            a_device, b_device = a.device, b.device
            # Inline test; _check_link raises the exact error.
            if (a_device not in devices or b_device not in devices
                    or a_device == b_device):
                self._check_link(a, b)
            new.append(Link(link_id, a, b, capacity_gbps))
            link_id += 1
        adjacency = self._adjacency
        self.links.update((link.link_id, link) for link in new)
        for link in new:
            adjacency[link.a.device].append(link.link_id)
            adjacency[link.b.device].append(link.link_id)
        self._next_link_id = link_id
        self.version += len(new)
        return new

    # -- queries ---------------------------------------------------------
    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise TopologyError(f"unknown device: {name}") from None

    def links_of(self, device: str) -> List[Link]:
        return [self.links[lid] for lid in self._adjacency[device]]

    def neighbors(self, device: str, healthy_only: bool = True
                  ) -> Iterator[Tuple[Link, Device]]:
        for link in self.links_of(device):
            if healthy_only and not link.healthy:
                continue
            yield link, self.devices[link.other(device)]

    def hosts(self) -> List[Host]:
        return [d for d in self.devices.values() if isinstance(d, Host)]

    def switches(self, kind: Optional[DeviceKind] = None) -> List[Switch]:
        result = [d for d in self.devices.values() if isinstance(d, Switch)]
        if kind is not None:
            result = [s for s in result if s.kind is kind]
        return result

    def gpu_count(self) -> int:
        return sum(len(h.gpus) for h in self.hosts())

    def link_between(self, a: str, b: str) -> List[Link]:
        """All (parallel) links between two devices."""
        return [
            link for link in self.links_of(a)
            if link.other(a) == b
        ]

    # -- health / fault hooks ---------------------------------------------
    def fail_link(self, link_id: int) -> None:
        self.links[link_id].healthy = False
        self.version += 1

    def restore_link(self, link_id: int) -> None:
        self.links[link_id].healthy = True
        self.version += 1

    def scale_link(self, link_id: int, factor: float) -> None:
        """Multiply one link's capacity by *factor* (a flapping optic or
        a crawling NIC keeps its carrier but loses bandwidth)."""
        self.links[link_id].capacity_gbps *= factor
        self.version += 1

    def miswire(self, host: str, link_id: int, other_id: int) -> None:
        """Swap the far ends of two of *host*'s links in place (a
        cabling mistake): each link keeps its id and its host end.

        Each far device's adjacency list drops the link it had and
        appends the one it now has; ``version`` bumps once per link.
        """
        link, other = self.links[link_id], self.links[other_id]
        link_far = link.endpoint(link.other(host))
        other_far = other.endpoint(other.other(host))
        for swapped, new_end in ((link, other_far), (other, link_far)):
            if swapped.a.device == host:
                swapped.b = new_end
            else:
                swapped.a = new_end
        adjacency = self._adjacency
        adjacency[link_far.device].remove(link_id)
        adjacency[link_far.device].append(other_id)
        adjacency[other_far.device].remove(other_id)
        adjacency[other_far.device].append(link_id)
        self.version += 2

    def fail_device(self, device: str) -> List[int]:
        """Fail every healthy link of *device* (a dead switch, host or
        NIC takes all its ports down at once); returns the failed link
        ids so the caller can restore exactly what it broke."""
        failed = []
        for link in self.links_of(device):
            if link.healthy:
                self.fail_link(link.link_id)
                failed.append(link.link_id)
        return failed

    def restore_links(self, link_ids: Iterable[int]) -> None:
        for link_id in link_ids:
            self.restore_link(link_id)

    def attached_hosts(self, device: str) -> List[str]:
        """Hosts wired (healthy or not) to *device* — its potential
        blast radius at tier 1, the set operators cordon when the
        device is diagnosed as a fault's root cause."""
        names = []
        for link in self.links_of(device):
            other = self.devices[link.other(device)]
            if other.kind is DeviceKind.HOST:
                names.append(other.name)
        return sorted(set(names))

    # -- aggregate properties ---------------------------------------------
    def tier_bandwidth_gbps(self, lower: DeviceKind, upper: DeviceKind
                            ) -> float:
        """Total one-direction capacity between two adjacent tiers."""
        total = 0.0
        for link in self.links.values():
            kinds = {
                self.devices[link.a.device].kind,
                self.devices[link.b.device].kind,
            }
            if kinds == {lower, upper}:
                total += link.capacity_gbps
        return total

    def oversubscription(self, kind: DeviceKind) -> float:
        """Down-capacity / up-capacity ratio at a switching tier.

        1.0 means non-blocking; >1.0 means the tier is oversubscribed.
        The paper's P2 requires this to be 1.0 at every tier of Astral.
        """
        down = up = 0.0
        for switch in self.switches(kind):
            for link in self.links_of(switch.name):
                other = self.devices[link.other(switch.name)]
                if other.tier < switch.tier:
                    down += link.capacity_gbps
                elif other.tier > switch.tier:
                    up += link.capacity_gbps
        if up == 0.0:
            return float("inf") if down > 0 else 1.0
        return down / up
