"""Per-hop ECMP routing over a topology graph.

Routing is destination-based up-down shortest path, as in production
datacenter fabrics: every device holds a set of equal-cost next hops
toward each destination, and the switch hashes the flow's five-tuple to
pick one.  All switches share one hash function (operational reality in
Astral's fleet), which is what makes *hash polarization* emerge on
multi-hop paths — the phenomenon principles P1/P2 are designed to limit
and the optimized ECMP controller corrects.

Implementation notes:

* Compiled adjacency: once per ``topology.version`` the router compiles
  the healthy links into CSR arrays — ``indptr``, an int32 neighbour
  index per entry, and one object array holding each entry's
  :class:`Link` — in ascending link id within each device.  It reads
  the links' endpoints, not the topology's adjacency lists, so a link
  rewired in place (a miswire) is followed.
* Next-hop sets come from a BFS over the compiled adjacency, seeded at
  the destination.  The BFS is level-synchronous numpy: each level
  gathers the frontier's neighbour slices and keeps the unvisited ones.
  Hosts never transit traffic, so it never expands them.  It yields an
  int32 distance per device, -1 where unreached.  BFS distances do not
  depend on visit order, so they equal a FIFO BFS's.
* Rail binding: on rail-aware fabrics the first hop must use the flow's
  source rail and the last hop the destination rail.  The BFS is seeded
  only through destination links whose ToR matches the destination rail,
  and the source host filters its candidate links by source rail.
* Seed-set sharing: a destination's *seed set* is its set of healthy,
  rail-matching neighbours.  Under P3 wiring every host of a block has
  the same seed set on a rail (its dual-ToR pair), so one BFS from the
  seed set serves them all: a host destination's distances are that
  shared array with its own entry read as 0.  This is exact because the
  destination is a host, and a host never expands in either BFS, so no
  other entry can differ.  A switch destination would expand inside a
  shared BFS, so it gets a BFS of its own, with itself marked 0.
* The destination rule: next-hop sets (the neighbours one hop closer)
  are memoised per (seed set, device) from the shared array.  Only the
  destination's own entry differs from the array, so at a device at
  distance ``h``:

  - ``h == 1``: the one device at distance 0 is the destination, so the
    candidates are the device's links to it;
  - ``h >= 2``: every other neighbour keeps its distance, and the
    destination (read as 0, never ``h - 1``) is never a candidate; so
    links to it are dropped exactly when its shared distance is
    ``h - 1``.

  Candidates stay in ascending link id.  The compiled adjacency and
  both caches are rebuilt whenever the topology's version counter
  changes (link failures, rewiring).
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..topology.elements import DeviceKind, Link, Topology
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


#: an empty next-hop set (CSR positions)
_NO_HOPS = np.empty(0, np.int64)
_NO_HOPS.flags.writeable = False


class _Routes:
    """One BFS's distances and the next-hop sets memoised from them."""

    __slots__ = ("dist", "hops")

    def __init__(self, dist: np.ndarray):
        #: hop count per device index, -1 where unreached
        self.dist = dist
        #: device index -> CSR positions of the neighbours one hop
        #: closer in ``dist`` (before the destination rule)
        self.hops: Dict[int, np.ndarray] = {}


class EcmpRouter:
    """Destination-based ECMP router with per-hop hashing."""

    def __init__(self, topology: Topology,
                 hasher: Optional[EcmpHasher] = None):
        self.topology = topology
        self.hasher = hasher or EcmpHasher()
        #: (destination, rail) -> (its routes, its device index)
        self._dist_cache: Dict[Tuple[str, Optional[int]],
                               Tuple[_Routes, int]] = {}
        #: seed set -> routes from it, shared by every host destination
        #: with that seed set (see the module notes).
        self._seed_cache: Dict[Tuple[int, ...], _Routes] = {}
        #: the topology version the arrays and caches were built for
        self._cache_version: Optional[int] = None
        #: work counters: BFS runs (distance maps and partition floods),
        #: and distance-map cache hits/misses.
        self.bfs_runs = 0
        self.dist_cache_hits = 0
        self.dist_cache_misses = 0

    # -- compiled adjacency ------------------------------------------------
    def _compile(self) -> None:
        """Rebuild the CSR adjacency and drop the caches if stale."""
        topo = self.topology
        if self._cache_version == topo.version:
            return
        self._dist_cache.clear()
        self._seed_cache.clear()
        self._names = list(topo.devices)
        self._index = {name: i for i, name in enumerate(self._names)}
        devices = topo.devices.values()
        self._rails = [device.rail for device in devices]
        self._is_host = np.fromiter(
            (device.kind is DeviceKind.HOST for device in devices),
            bool, len(self._names))
        index = self._index
        links = sorted((link for link in topo.links.values()
                        if link.healthy), key=attrgetter("link_id"))
        # Entry 2i is link i seen from its a end, 2i + 1 from its b end;
        # a stable sort by device keeps each device's links in id order.
        ends = np.fromiter(
            (index[ref.device] for link in links
             for ref in (link.a, link.b)), np.int32, 2 * len(links))
        order = np.argsort(ends, kind="stable")
        self._nbr = ends.reshape(-1, 2)[:, ::-1].ravel()[order]
        link_of = np.empty(len(links), object)
        link_of[:] = links
        self._link = link_of[order // 2]
        self._indptr = np.zeros(len(self._names) + 1, np.int32)
        np.cumsum(np.bincount(ends, minlength=len(self._names)),
                  out=self._indptr[1:])
        self._cache_version = topo.version

    def _seeds(self, device: int, rail: Optional[int]) -> Tuple[int, ...]:
        """*device*'s healthy, rail-matching neighbours, sorted."""
        rails = self._rails
        lo, hi = self._indptr[device], self._indptr[device + 1]
        return tuple(sorted({
            j for j in self._nbr[lo:hi].tolist()
            if rail is None or rails[j] is None or rails[j] == rail}))

    def _bfs(self, seeds: Tuple[int, ...],
             origin: Optional[int] = None) -> np.ndarray:
        """Hop counts from *seeds* (each at hop 1), -1 where unreached.

        *origin*, when given, is marked 0 and never expanded."""
        self.bfs_runs += 1
        indptr, nbr, is_host = self._indptr, self._nbr, self._is_host
        dist = np.full(len(is_host), -1, np.int32)
        if origin is not None:
            dist[origin] = 0
        frontier = np.array(seeds, np.int32)
        frontier = frontier[dist[frontier] < 0]
        hops = 1
        while frontier.size:
            dist[frontier] = hops
            frontier = frontier[~is_host[frontier]]  # hosts never transit
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            # Every entry of every frontier device's slice.
            entries = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                       + np.arange(counts.sum()))
            reached = nbr[entries]
            frontier = np.unique(reached[dist[reached] < 0])
            hops += 1
        return dist

    def _routes(self, dst_host: str, dst_rail: Optional[int]
                ) -> Tuple[_Routes, int]:
        """The routes toward *dst_host* via *dst_rail*, and its index."""
        self._compile()
        key = (dst_host, dst_rail)
        cached = self._dist_cache.get(key)
        if cached is not None:
            self.dist_cache_hits += 1
            return cached
        self.dist_cache_misses += 1
        target = self._index[dst_host]
        # Seed only through the destination's rail-matching ToR links.
        seeds = self._seeds(target, dst_rail)
        if self._is_host[target]:
            routes = self._seed_cache.get(seeds)
            if routes is None:
                routes = self._seed_cache[seeds] = _Routes(self._bfs(seeds))
        else:
            routes = _Routes(self._bfs(seeds, origin=target))
        cached = self._dist_cache[key] = (routes, target)
        return cached

    def distances_to(self, dst_host: str, dst_rail: Optional[int]
                     ) -> Dict[str, int]:
        """Hop counts from every device to *dst_host* via *dst_rail*."""
        routes, _ = self._routes(dst_host, dst_rail)
        reached = np.flatnonzero(routes.dist >= 0)
        names = self._names
        dist = {names[i]: d for i, d in zip(reached.tolist(),
                                            routes.dist[reached].tolist())}
        dist[dst_host] = 0
        return dist

    # -- next hops and path walks -------------------------------------------
    def _next_hops(self, device: int, flow: Flow) -> np.ndarray:
        """CSR positions of the equal-cost next hops from *device*.

        At the source host the candidate set is restricted to the flow's
        source rail and the equal-cost criterion is "minimal distance
        among rail-matching neighbours" — the distances are rail-agnostic
        at the source, so a plain ``dist - 1`` descent would wrongly
        assume the host may inject on any rail.
        """
        routes, target = self._routes(flow.dst_host, flow.dst_rail)
        dist, nbr = routes.dist, self._nbr
        lo, hi = self._indptr[device], self._indptr[device + 1]

        if device == self._index[flow.src_host]:
            rails = self._rails
            neighbors = nbr[lo:hi]
            rail_neighbors = []
            for entry, j, d in zip(count(lo), neighbors.tolist(),
                                   dist[neighbors].tolist()):
                if rails[j] is not None and rails[j] != flow.rail:
                    continue
                if j == target:
                    d = 0
                if d >= 0:
                    rail_neighbors.append((d, entry))
            if not rail_neighbors:
                return _NO_HOPS
            best = min(d for d, _ in rail_neighbors)
            return np.array([entry for d, entry in rail_neighbors
                             if d == best], np.int64)

        # The destination rule (module notes): only the destination's
        # own entry differs from the shared array; it reads as 0.
        if device == target:
            return _NO_HOPS
        here = dist[device]
        if here < 0:
            return _NO_HOPS
        if here == 1:
            return lo + np.flatnonzero(nbr[lo:hi] == target)
        hops = routes.hops.get(device)
        if hops is None:
            hops = routes.hops[device] = lo + np.flatnonzero(
                dist[nbr[lo:hi]] == here - 1)
        if dist[target] == here - 1:
            hops = hops[nbr[hops] != target]
        return hops

    def next_hop_links(self, device: str, flow: Flow) -> List[Link]:
        """Equal-cost candidate links from *device* toward the flow's
        dst, in ascending link id."""
        self._compile()
        return list(self._link[self._next_hops(self._index[device], flow)])

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
        self._compile()
        index = self._index
        origin = index[src]
        reached = self._bfs(self._seeds(origin, src_rail), origin) >= 0
        if reached[index[dst]]:
            return None
        return tuple(sorted(
            link.link_id for link in self.topology.links.values()
            if not link.healthy and (reached[index[link.a.device]]
                                     or reached[index[link.b.device]])))

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
        self._compile()
        names, nbr, link_of = self._names, self._nbr, self._link
        device = self._index[flow.src_host]
        target = self._index[flow.dst_host]
        route = FlowPath(flow_id=flow.flow_id, devices=[flow.src_host])
        for _ in range(max_hops):
            if device == target:
                return route
            candidates = self._next_hops(device, flow)
            if not len(candidates):
                raise self._no_route(names[device], flow)
            entry = candidates[self.hasher.select(
                flow.five_tuple, len(candidates), salt=names[device])]
            device = int(nbr[entry])
            route.devices.append(names[device])
            route.link_ids.append(link_of[entry].link_id)
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
        dist = self.distances_to(flow.dst_host, flow.dst_rail)
        candidates = self.next_hop_links(flow.src_host, flow)
        if not candidates:
            raise RoutingError(
                f"{flow.dst_host} unreachable from {flow.src_host} "
                f"on rail {flow.rail}")
        first = candidates[0]
        return dist[first.other(flow.src_host)] + 1
