"""INT-armed pingmesh: active all-pairs probing (§3.2, network layer).

Astral combines passive sFlow with INT-armed ping packets that measure
hop-by-hop connectivity and latency (after Pingmesh [23] and
R-Pingmesh [31]).  :class:`Pingmesh` probes a (sampled) set of host
pairs over the simulated fabric: each probe resolves the ECMP path and
reads per-hop forwarding latency from the congestion state, yielding a
connectivity/latency matrix that flags black holes and hotspots
before any training job trips over them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..network.congestion import CongestionModel
from ..network.fabric import Fabric, LinkDir
from ..network.flows import Flow, make_flow
from ..network.routing import RoutingError

__all__ = ["ProbeResult", "PingmeshReport", "Pingmesh"]


@dataclass(frozen=True)
class ProbeResult:
    """One src-rail->dst probe."""

    src: str
    dst: str
    rail: int
    reachable: bool
    rtt_us: float = float("inf")
    hops: int = 0
    worst_hop_us: float = 0.0
    worst_hop_device: Optional[str] = None


@dataclass
class PingmeshReport:
    """All probes of one sweep."""

    probes: List[ProbeResult] = field(default_factory=list)

    @property
    def unreachable(self) -> List[ProbeResult]:
        return [p for p in self.probes if not p.reachable]

    def hotspots(self, latency_threshold_us: float = 50.0
                 ) -> List[ProbeResult]:
        return sorted(
            (p for p in self.probes
             if p.reachable and p.worst_hop_us > latency_threshold_us),
            key=lambda p: -p.worst_hop_us)

    @property
    def reachability(self) -> float:
        if not self.probes:
            return 1.0
        return sum(p.reachable for p in self.probes) / len(self.probes)

    def mean_rtt_us(self) -> float:
        values = [p.rtt_us for p in self.probes if p.reachable]
        return sum(values) / len(values) if values else float("inf")


class Pingmesh:
    """Active prober over a fabric."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.congestion = CongestionModel()

    def probe(self, src: str, dst: str, rail: int = 0,
              background: Optional[List[Flow]] = None) -> ProbeResult:
        """One INT ping; hop latencies reflect the background load."""
        flow = make_flow(src, dst, rail=rail, size_bits=1.0)
        try:
            path = self.fabric.router.path(flow)
        except RoutingError:
            return ProbeResult(src=src, dst=dst, rail=rail,
                               reachable=False)
        hop_states: Dict[LinkDir, float] = {}
        if background:
            loads = self.fabric.offered_loads(background)
            for key, state in self.congestion.evaluate_all(
                    loads).items():
                hop_states[key] = state.hop_latency_us
        base = self.congestion.config.base_hop_latency_us
        latencies = []
        worst_device = None
        worst = 0.0
        for device, link_id in zip(path.devices, path.link_ids):
            link = self.fabric.topology.links[link_id]
            key = (link_id, link.a.device == device)
            latency = hop_states.get(key, base)
            latencies.append(latency)
            if latency > worst:
                worst = latency
                worst_device = device
        return ProbeResult(
            src=src, dst=dst, rail=rail, reachable=True,
            rtt_us=2.0 * sum(latencies), hops=path.hops,
            worst_hop_us=worst, worst_hop_device=worst_device)

    def census(self, hosts: Optional[List[str]] = None
               ) -> Dict[str, int]:
        """Healthy fabric uplinks per host (NIC carrier sensing).

        A NIC whose link dies reports loss-of-carrier immediately —
        the host-side telemetry that, compared against a baseline
        census, is the recovery pipeline's first detection signal for
        structural faults (a dead ToR drops one uplink on every
        attached host at once; a dead NIC drops only its own).
        """
        topo = self.fabric.topology
        if hosts is None:
            hosts = [h.name for h in topo.hosts()]
        return {
            host: sum(1 for link in topo.links_of(host) if link.healthy)
            for host in hosts
        }

    def sweep(self, hosts: Optional[List[str]] = None, rail: int = 0,
              max_pairs: int = 200, seed: int = 0,
              background: Optional[List[Flow]] = None
              ) -> PingmeshReport:
        """Probe (a sample of) all host pairs."""
        if hosts is None:
            hosts = [h.name for h in self.fabric.topology.hosts()]
        pairs = [(a, b) for a, b in itertools.permutations(hosts, 2)]
        if len(pairs) > max_pairs:
            rng = random.Random(seed)
            pairs = rng.sample(pairs, max_pairs)
        report = PingmeshReport()
        for src, dst in pairs:
            report.probes.append(
                self.probe(src, dst, rail=rail, background=background))
        return report
