"""Per-hop ECMP routing over a topology graph.

Routing is destination-based up-down shortest path, as in production
datacenter fabrics: every device holds a set of equal-cost next hops
toward each destination, and the switch hashes the flow's five-tuple to
pick one.  All switches share one hash function (operational reality in
Astral's fleet), which is what makes *hash polarization* emerge on
multi-hop paths — the phenomenon principles P1/P2 are designed to limit
and the optimized ECMP controller corrects.

Implementation notes:

* Next-hop sets come from a BFS over healthy links, seeded at the
  destination.  Hosts never transit traffic, so BFS does not expand
  through them.
* Rail binding: on rail-aware fabrics the first hop must use the flow's
  source rail and the last hop the destination rail.  The BFS is seeded
  only through destination links whose ToR matches the destination rail,
  and the source host filters its candidate links by source rail.
* Seed-set sharing: a destination's *seed set* is its tuple of healthy,
  rail-matching neighbours.  Under P3 wiring every host of a block has
  the same seed set on a rail (its dual-ToR pair), so one BFS from the
  seed set serves them all: a host's distance map is that shared map
  with its own entry set to 0.  This is exact because the destination
  is a host, and a host never expands in either BFS, so no other entry
  can differ.  A switch destination would expand inside a shared BFS,
  so it gets a BFS of its own.
* Every (destination, rail) gets a distance map of its own (a copy of
  the shared one plus one write), so no two destinations share a
  mutable map.  Both caches are dropped whenever the topology's version
  counter changes (link failures, rewiring).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..topology.elements import Device, DeviceKind, Link, Topology
from .ecmp import EcmpHasher
from .flows import Flow, FlowPath

__all__ = ["EcmpRouter", "RoutingError", "PartitionError"]


class RoutingError(RuntimeError):
    """Raised when no route exists for a flow."""


class PartitionError(RoutingError):
    """No surviving path: the source is cut off from the destination.

    Unlike a plain :class:`RoutingError` (which can also mean a
    rail-binding dead end on an otherwise connected fabric), a
    partition is structural — every path is severed by failed links.
    ``cut`` names the failed link ids on the frontier of the source's
    connected component, i.e. the cut set whose repair would reconnect
    the flow.
    """

    def __init__(self, src: str, dst: str, rail: Optional[int],
                 cut: Tuple[int, ...], flow_id: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.rail = rail
        self.cut = tuple(sorted(cut))
        self.flow_id = flow_id
        super().__init__(
            f"{dst} partitioned from {src}"
            + (f" on rail {rail}" if rail is not None else "")
            + (f" (flow {flow_id})" if flow_id is not None else "")
            + f"; cut links: {list(self.cut)}")


def _rail_of(device: Device) -> Optional[int]:
    return device.rail


class EcmpRouter:
    """Destination-based ECMP router with per-hop hashing."""

    def __init__(self, topology: Topology,
                 hasher: Optional[EcmpHasher] = None):
        self.topology = topology
        self.hasher = hasher or EcmpHasher()
        self._dist_cache: Dict[Tuple[str, Optional[int]],
                               Dict[str, int]] = {}
        #: seed set -> BFS distances from it, shared by every host
        #: destination with that seed set (see the module notes).
        self._seed_cache: Dict[Tuple[str, ...], Dict[str, int]] = {}
        self._cache_version = topology.version
        #: work counters: BFS runs (distance maps and partition floods),
        #: and distance-map cache hits/misses.
        self.bfs_runs = 0
        self.dist_cache_hits = 0
        self.dist_cache_misses = 0

    # -- distance maps -----------------------------------------------------
    def _invalidate_if_stale(self) -> None:
        if self._cache_version != self.topology.version:
            self._dist_cache.clear()
            self._seed_cache.clear()
            self._cache_version = self.topology.version

    def _seeds(self, device: str, rail: Optional[int]) -> Tuple[str, ...]:
        """*device*'s healthy, rail-matching neighbours, in link order."""
        seeds: Dict[str, None] = {}
        for link, neighbor in self.topology.neighbors(device):
            neighbor_rail = _rail_of(neighbor)
            if (rail is not None and neighbor_rail is not None
                    and neighbor_rail != rail):
                continue
            seeds[neighbor.name] = None
        return tuple(seeds)

    def _bfs(self, dist: Dict[str, int], seeds: Tuple[str, ...]
             ) -> Dict[str, int]:
        """Extend *dist* breadth-first from *seeds*, each at hop 1."""
        self.bfs_runs += 1
        topo = self.topology
        frontier: deque[str] = deque()
        for name in seeds:
            if name not in dist:
                dist[name] = 1
                frontier.append(name)
        while frontier:
            current = frontier.popleft()
            device = topo.devices[current]
            if device.kind is DeviceKind.HOST:
                continue  # hosts never transit traffic
            next_hops = dist[current] + 1
            for link, neighbor in topo.neighbors(current):
                if neighbor.name not in dist:
                    dist[neighbor.name] = next_hops
                    frontier.append(neighbor.name)
        return dist

    def distances_to(self, dst_host: str, dst_rail: Optional[int]
                     ) -> Dict[str, int]:
        """Hop counts from every device to *dst_host* via *dst_rail*."""
        self._invalidate_if_stale()
        key = (dst_host, dst_rail)
        cached = self._dist_cache.get(key)
        if cached is not None:
            self.dist_cache_hits += 1
            return cached
        self.dist_cache_misses += 1
        # Seed only through the destination's rail-matching ToR links.
        seeds = self._seeds(dst_host, dst_rail)
        if self.topology.devices[dst_host].kind is DeviceKind.HOST:
            shared = self._seed_cache.get(seeds)
            if shared is None:
                shared = self._seed_cache[seeds] = self._bfs({}, seeds)
            dist = dict(shared)
            dist[dst_host] = 0
        else:
            dist = self._bfs({dst_host: 0}, seeds)
        self._dist_cache[key] = dist
        return dist

    # -- next hops and path walks -------------------------------------------
    def next_hop_links(self, device: str, flow: Flow) -> List[Link]:
        """Equal-cost candidate links from *device* toward the flow's dst.

        At the source host the candidate set is restricted to the flow's
        source rail and the equal-cost criterion is "minimal distance
        among rail-matching neighbours" — the cached distance map is
        rail-agnostic at the source, so a plain ``dist - 1`` descent
        would wrongly assume the host may inject on any rail.
        """
        topo = self.topology
        dst_rail = self._dst_rail(flow)
        dist = self.distances_to(flow.dst_host, dst_rail)

        if device == flow.src_host:
            rail_neighbors = []
            for link, neighbor in topo.neighbors(device):
                neighbor_rail = _rail_of(neighbor)
                if neighbor_rail is not None and neighbor_rail != flow.rail:
                    continue
                neighbor_dist = dist.get(neighbor.name)
                if neighbor_dist is not None:
                    rail_neighbors.append((neighbor_dist, link))
            if not rail_neighbors:
                return []
            best = min(d for d, _ in rail_neighbors)
            candidates = [link for d, link in rail_neighbors if d == best]
            candidates.sort(key=lambda link: link.link_id)
            return candidates

        here = dist.get(device)
        if here is None:
            return []
        candidates = []
        for link, neighbor in topo.neighbors(device):
            if dist.get(neighbor.name, float("inf")) == here - 1:
                candidates.append(link)
        candidates.sort(key=lambda link: link.link_id)
        return candidates

    def partition_cut(self, src: str, dst: str,
                      src_rail: Optional[int] = None
                      ) -> Optional[Tuple[int, ...]]:
        """The failed-link cut isolating *src* from *dst*, if any.

        Floods from *src* over healthy links (hosts do not transit; the
        first hop honours *src_rail* when given, mirroring the router's
        rail binding).  Returns None when *dst* is still reachable, else
        the sorted ids of unhealthy links on the reachable component's
        frontier — the cut whose repair would reconnect the pair.
        """
        reached = self._bfs({src: 0}, self._seeds(src, src_rail))
        if dst in reached:
            return None
        topo = self.topology
        cut = {
            link.link_id
            for device in reached
            for link in topo.links_of(device)
            if not link.healthy
        }
        return tuple(sorted(cut))

    def _no_route(self, device: str, flow: Flow) -> RoutingError:
        """Classify a routing dead end: partition vs rail dead end."""
        cut = self.partition_cut(flow.src_host, flow.dst_host,
                                 src_rail=flow.rail)
        if cut is not None:
            return PartitionError(flow.src_host, flow.dst_host,
                                  flow.rail, cut, flow_id=flow.flow_id)
        return RoutingError(
            f"no route from {device} to {flow.dst_host} "
            f"(flow {flow.flow_id}, rail {flow.rail})")

    def path(self, flow: Flow, max_hops: int = 16) -> FlowPath:
        """Walk the flow hop by hop, hashing at each device.

        Raises :class:`PartitionError` when the destination is cut off
        entirely, :class:`RoutingError` for any other dead end.
        """
        device = flow.src_host
        route = FlowPath(flow_id=flow.flow_id, devices=[device])
        for _ in range(max_hops):
            if device == flow.dst_host:
                return route
            candidates = self.next_hop_links(device, flow)
            if not candidates:
                raise self._no_route(device, flow)
            index = self.hasher.select(flow.five_tuple, len(candidates),
                                       salt=device)
            link = candidates[index]
            device = link.other(device)
            route.devices.append(device)
            route.link_ids.append(link.link_id)
        raise RoutingError(
            f"path exceeded {max_hops} hops for flow {flow.flow_id}")

    def reachable(self, flow: Flow) -> bool:
        if flow.src_host == flow.dst_host:
            return True
        return bool(self.next_hop_links(flow.src_host, flow))

    def min_hops(self, flow: Flow) -> int:
        """Shortest hop count for the flow (link count, not switches)."""
        if flow.src_host == flow.dst_host:
            return 0
        dist = self.distances_to(flow.dst_host, self._dst_rail(flow))
        candidates = self.next_hop_links(flow.src_host, flow)
        if not candidates:
            raise RoutingError(
                f"{flow.dst_host} unreachable from {flow.src_host} "
                f"on rail {flow.rail}")
        first = candidates[0]
        return dist[first.other(flow.src_host)] + 1

    @staticmethod
    def _dst_rail(flow: Flow) -> Optional[int]:
        # The destination NIC rail is encoded in the five-tuple dst ip
        # ("<host>.nic<rail>"), written by flows.make_flow.
        dst_ip = flow.five_tuple.dst_ip
        marker = ".nic"
        if marker in dst_ip:
            try:
                return int(dst_ip.rsplit(marker, 1)[1])
            except ValueError:
                return None
        return None
