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
  index per entry, each entry's *twin* (the same link seen from its
  other end), and a list of each entry's link id — in ascending link id
  within each device.  It reads the links' endpoints, not the
  topology's adjacency lists, so a link rewired in place (a miswire) is
  followed.  It also keeps each device's hash salt bytes
  (:meth:`EcmpHasher.salt_bytes`), and each device's neighbours as a
  plain list for the BFS (empty for a host: hosts never transit).
* Next-hop sets come from a BFS over the compiled adjacency, seeded at
  the destination.  The BFS is level by level in plain Python over the
  neighbour lists: the sub-topologies a folded run builds have a few
  hundred devices, where numpy's fixed cost per level would dominate.
  It yields an int32 distance per device, -1 where unreached.  BFS
  distances do not depend on visit order, so they equal a FIFO BFS's.
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
* The destination rule: only the destination's own entry differs from
  the shared array, so at a device at distance ``h``:

  - ``h == 1``: the one device at distance 0 is the destination, so the
    candidates are the device's links to it;
  - ``h >= 2``: every other neighbour keeps its distance, and the
    destination (read as 0, never ``h - 1``) is never a candidate; so
    links to it are dropped exactly when its shared distance is
    ``h - 1``.

* The next-hop memo: every next-hop set (CSR entries, in ascending link
  id) is memoised on the routes it was computed from, keyed by what it
  depends on and by the role the walk visits the device in:

  - the flow's source, ``(device, rail, None)``: the rail-matching
    neighbours at the least distance.  It depends on the destination
    only when that is a neighbour (read as 0), which only a host
    neighbour can be; then the key holds ``_BY_TARGET`` and the set is
    kept under ``(device, rail, destination)``.  The flow's own source
    is always visited in this role, never as a transit device;
  - any other device, ``device``: at ``h >= 2`` the neighbours at
    ``h - 1``.  If one of them is a host, the destination rule may drop
    it: the key holds ``_BY_TARGET`` and the set is kept under
    ``(device, destination)``;
  - at ``h == 1`` the key holds ``_TO_TARGET``: the set depends on the
    destination, and is read from the destination's own few links
    through their twins instead of being memoised per destination.

  The memo lives on the routes, so it is dropped with them.
* The cost of one walk: one routes lookup, then per hop one memo lookup
  and two scalar reads (neighbour and link id); the last hop scans the
  destination's links.  The hash is computed in two steps
  (:meth:`EcmpHasher.flow_hash`, :meth:`EcmpHasher.hop_hash`): the
  five-tuple's CRC once per walk, continued over each hop's salt bytes,
  and only if some hop has more than one candidate; a hop with one
  candidate takes it without hashing.

The compiled adjacency, both caches and the memo are rebuilt whenever
the topology's version counter changes (link failures, rewiring).
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


#: memo value of a set that depends on the flow's destination: the set
#: itself is memoised again under a key that names the destination.
_BY_TARGET = object()
#: memo value at distance 1: the set is the device's links to the
#: destination, read from the destination's side.
_TO_TARGET = object()


class _Routes:
    """One BFS's distances and the next-hop sets memoised from them."""

    __slots__ = ("dist", "hops")

    def __init__(self, dist: np.ndarray):
        #: hop count per device index, -1 where unreached
        self.dist = dist
        #: next-hop memo: key (see the module notes) -> CSR entries of
        #: the candidates, in ascending link id, or a marker
        self.hops: Dict[object, object] = {}


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
        #: next-hop memo hits and misses (sets computed)
        self.hops_memo_hits = 0
        self.hops_memo_misses = 0

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
        self._salts = [self.hasher.salt_bytes(name) for name in self._names]
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
        # The entry of the same link seen from its other end.
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        self._twin = position[order ^ 1].astype(np.int32)
        # The links' own id objects, so a path holds no copies.
        self._link_id = [links[i].link_id for i in (order // 2).tolist()]
        self._indptr = np.zeros(len(self._names) + 1, np.int32)
        np.cumsum(np.bincount(ends, minlength=len(self._names)),
                  out=self._indptr[1:])
        # The BFS's neighbour lists; a host's is empty (no transit).
        nbr, bounds = self._nbr.tolist(), self._indptr.tolist()
        self._transit = [
            [] if host else nbr[lo:hi] for host, lo, hi in zip(
                self._is_host.tolist(), bounds, bounds[1:])]
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
        transit = self._transit
        dist = [-1] * len(transit)
        if origin is not None:
            dist[origin] = 0
        frontier = [seed for seed in seeds if dist[seed] < 0]
        for seed in frontier:
            dist[seed] = 1
        hops = 1
        while frontier:
            hops += 1
            reached = []
            for device in frontier:
                for j in transit[device]:
                    if dist[j] < 0:
                        dist[j] = hops
                        reached.append(j)
            frontier = reached
        return np.array(dist, np.int32)

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
    def _next_hops(self, routes: _Routes, device: int, src: int,
                   target: int, rail: int) -> Tuple[int, ...]:
        """CSR entries of the equal-cost next hops from *device*, in
        ascending link id, through the memo (see the module notes)."""
        source = device == src
        if not source and device == target:
            return ()
        hops = self._memo(routes, device, source, rail, None)
        if hops is _BY_TARGET:
            hops = self._memo(routes, device, source, rail, target)
        elif hops is _TO_TARGET:
            hops = self._links_to(device, target)
        return hops

    def _links_to(self, device: int, target: int) -> Tuple[int, ...]:
        """CSR entries of *device*'s links to *target*, in ascending
        link id, found among the target's own links."""
        lo, hi = self._indptr.item(target), self._indptr.item(target + 1)
        row, twin = self._nbr[lo:hi].tolist(), self._twin
        if row.count(device) == 1:  # the common case: one link
            return (twin.item(lo + row.index(device)),)
        return tuple([twin.item(lo + k) for k, j in enumerate(row)
                      if j == device])

    def _memo(self, routes: _Routes, device: int, source: bool,
              rail: int, target: Optional[int]) -> object:
        """The memoised set of *device* in its role, computed on a miss;
        *target* is None for the key that does not name it."""
        if source:
            key = (device, rail, target)
        else:
            key = device if target is None else (device, target)
        hops = routes.hops.get(key)
        if hops is None:
            self.hops_memo_misses += 1
            fill = self._source_hops if source else self._transit_hops
            hops = routes.hops[key] = fill(routes, device, rail, target)
        else:
            self.hops_memo_hits += 1
        return hops

    def _source_hops(self, routes: _Routes, device: int, rail: int,
                     target: Optional[int]) -> object:
        """The source set: the neighbours on the flow's source *rail*
        at the least distance among them.  The distances are
        rail-agnostic at the source, so a plain ``dist - 1`` descent
        would wrongly assume the host may inject on any rail.

        ``_BY_TARGET`` when *target* is None and a rail-matching
        neighbour is a host, which a host destination reads as 0."""
        lo, hi = self._indptr.item(device), self._indptr.item(device + 1)
        rails, is_host, dist = self._rails, self._is_host, routes.dist
        rail_neighbors = []
        for entry, j in zip(count(lo), self._nbr[lo:hi].tolist()):
            if rails[j] is not None and rails[j] != rail:
                continue
            if target is None and is_host[j]:
                return _BY_TARGET
            d = 0 if j == target else dist.item(j)
            if d >= 0:
                rail_neighbors.append((d, entry))
        if not rail_neighbors:
            return ()
        best = min(d for d, _ in rail_neighbors)
        return tuple(entry for d, entry in rail_neighbors if d == best)

    def _transit_hops(self, routes: _Routes, device: int, rail: int,
                      target: Optional[int]) -> object:
        """The set at a device the walk passes through, by the
        destination rule; ``_BY_TARGET`` when *target* is None and the
        rule may depend on it."""
        dist, nbr = routes.dist, self._nbr
        lo, hi = self._indptr.item(device), self._indptr.item(device + 1)
        here = dist.item(device)
        if here < 0:
            return ()
        if here == 1:
            return _TO_TARGET
        hops = lo + np.flatnonzero(dist[nbr[lo:hi]] == here - 1)
        if target is None:
            if self._is_host[nbr[hops]].any():
                return _BY_TARGET
            return tuple(hops.tolist())
        return tuple(hops[nbr[hops] != target].tolist())

    def next_hop_links(self, device: str, flow: Flow) -> List[Link]:
        """Equal-cost candidate links from *device* toward the flow's
        dst, in ascending link id."""
        routes, target = self._routes(flow.dst_host, flow.dst_rail)
        links, link_id = self.topology.links, self._link_id
        return [links[link_id[entry]] for entry in self._next_hops(
            routes, self._index[device], self._index[flow.src_host],
            target, flow.rail)]

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
        routes, target = self._routes(flow.dst_host, flow.dst_rail)
        memo, names, salts = routes.hops, self._names, self._salts
        nbr, link_id, hasher = self._nbr, self._link_id, self.hasher
        rail = flow.rail
        src = device = self._index[flow.src_host]
        src_key = (src, rail, None)
        route = FlowPath(flow_id=flow.flow_id, devices=[flow.src_host])
        devices, link_ids = route.devices, route.link_ids
        flow_hash = None
        hits = 0
        try:
            for _ in range(max_hops):
                if device == target:
                    return route
                hops = memo.get(src_key if device == src else device)
                if hops is None:
                    hops = self._next_hops(routes, device, src, target, rail)
                else:
                    hits += 1
                    if hops is _TO_TARGET:
                        hops = self._links_to(device, target)
                    elif hops is _BY_TARGET:
                        hops = self._memo(routes, device, device == src,
                                          rail, target)
                n = len(hops)
                if n == 1:
                    entry = hops[0]
                elif n:
                    if flow_hash is None:
                        flow_hash = hasher.flow_hash(flow.five_tuple)
                    entry = hops[hasher.hop_hash(flow_hash, salts[device]) % n]
                else:
                    raise self._no_route(names[device], flow)
                device = nbr.item(entry)
                devices.append(names[device])
                link_ids.append(link_id[entry])
            raise RoutingError(
                f"path exceeded {max_hops} hops for flow {flow.flow_id}")
        finally:
            self.hops_memo_hits += hits

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
