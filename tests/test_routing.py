"""Tests for ECMP routing over the fabric graphs."""

import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import TaskSpec, execute_spec
from repro.hierarchy import preset_params
from repro.hierarchy.fold import pod_local_params
from repro.network import (
    EcmpController,
    EcmpHasher,
    EcmpRouter,
    Fabric,
    FlowPath,
    RoutingError,
    make_flow,
    reset_flow_ids,
)
from repro.network.routing import PartitionError
from repro.topology import (
    AstralParams,
    CrossDcParams,
    DeviceKind,
    Host,
    PortRef,
    Switch,
    Topology,
    build_astral,
    build_clos,
    build_cross_dc,
    build_rail_only,
    ClosParams,
)
from repro.topology.baselines import build_full_interconnect_tier2
from repro.topology.elements import parse_nic


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@pytest.fixture(scope="module")
def astral_small():
    return build_astral(AstralParams.small())


@pytest.fixture()
def router(astral_small):
    return EcmpRouter(astral_small)


def _host(pod, block, host):
    return f"p{pod}.b{block}.h{host}"


class TestAstralPathShapes:
    def test_same_block_same_rail_one_switch(self, router):
        """Intra-block same-rail: host -> ToR -> host (1 switch hop)."""
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        assert path.switch_hops == 1
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert kinds == [DeviceKind.HOST, DeviceKind.TOR, DeviceKind.HOST]

    def test_cross_block_same_rail_stays_below_core(self, router):
        """Same-rail cross-block: ToR -> Agg -> ToR, never Core (P1)."""
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=1,
                         size_bits=8e9)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE not in kinds
        assert kinds == [DeviceKind.HOST, DeviceKind.TOR, DeviceKind.AGG,
                         DeviceKind.TOR, DeviceKind.HOST]

    def test_cross_pod_traverses_core(self, router):
        flow = make_flow(_host(0, 0, 0), _host(1, 0, 0), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE in kinds
        assert path.switch_hops == 5  # ToR-Agg-Core-Agg-ToR

    def test_cross_rail_same_block_traverses_core(self, router):
        """Without PXN, cross-rail traffic must climb to the Core tier."""
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9, dst_rail=2)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE in kinds

    def test_path_respects_source_rail(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=3,
                         size_bits=8e9)
        path = router.path(flow)
        first_tor = router.topology.devices[path.devices[1]]
        assert first_tor.rail == 3

    def test_path_respects_destination_rail(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=2,
                         size_bits=8e9)
        path = router.path(flow)
        last_tor = router.topology.devices[path.devices[-2]]
        assert last_tor.rail == 2

    def test_path_never_transits_hosts(self, router):
        flow = make_flow(_host(0, 0, 0), _host(1, 1, 3), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        for name in path.devices[1:-1]:
            assert router.topology.devices[name].kind is not DeviceKind.HOST

    def test_deterministic_paths(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        assert router.path(flow).devices == router.path(flow).devices

    def test_different_src_ports_spread_paths(self, router):
        """ECMP: varying the source port changes the chosen Agg."""
        aggs = set()
        for port in range(49152, 49152 + 64):
            flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                             size_bits=8e9, src_port=port)
            path = router.path(flow)
            aggs.add(path.devices[2])
        assert len(aggs) > 1


class TestFailureRerouting:
    def test_reroutes_around_failed_tor_uplink(self):
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        # Fail the first ToR->Agg link on the path.
        failed = path.link_ids[1]
        topo.fail_link(failed)
        new_path = router.path(flow)
        assert failed not in new_path.link_ids

    def test_dual_tor_survives_tor_isolation(self):
        """P3: with one ToR's host links all failed, the other carries."""
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        tor0 = "p0.b0.r0.g0.tor"
        for link in topo.links_of(tor0):
            topo.fail_link(link.link_id)
        path = router.path(flow)
        assert tor0 not in path.devices

    def test_unreachable_raises(self):
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        # Sever the destination host from rail 0 completely.
        dst = _host(0, 0, 1)
        for link in topo.links_of(dst):
            other = topo.devices[link.other(dst)]
            if other.rail == 0:
                topo.fail_link(link.link_id)
        with pytest.raises(RoutingError):
            router.path(flow)

    def test_min_hops_unreachable_raises(self):
        topo = build_rail_only(AstralParams.tiny())
        router = EcmpRouter(topo)
        # Cross-rail flow on a rail-only fabric has no route at all.
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9, dst_rail=1)
        assert not router.reachable(flow)
        with pytest.raises(RoutingError):
            router.min_hops(flow)


class TestClosRouting:
    def test_any_pair_routes(self):
        topo = build_clos(ClosParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow("p0.b0.h0", "p1.b1.h1", rail=0, size_bits=8e9)
        path = router.path(flow)
        assert path.devices[0] == "p0.b0.h0"
        assert path.devices[-1] == "p1.b1.h1"

    def test_same_rail_gets_no_shortcut(self):
        """In CLOS, same-rail cross-block still climbs to the Agg tier
        shared by all rails (no same-rail dedication)."""
        topo = build_clos(ClosParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow("p0.b0.h0", "p0.b1.h0", rail=0, size_bits=8e9)
        path = router.path(flow)
        kinds = [topo.devices[d].kind for d in path.devices]
        assert DeviceKind.AGG in kinds
        aggs = [topo.devices[d] for d in path.devices
                if topo.devices[d].kind is DeviceKind.AGG]
        assert all(agg.rail is None for agg in aggs)


class TestRouterCaching:
    def test_cache_invalidated_on_failure(self):
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        router.path(flow)
        key = (flow.dst_host, 0)
        routes, _ = router._dist_cache[key]
        assert list(router._seed_cache.values()) == [routes]
        runs = router.bfs_runs
        topo.fail_link(0)
        router.path(flow)
        assert router._cache_version == topo.version
        # The version bump dropped both caches: fresh routes, one BFS.
        assert router._dist_cache[key][0] is not routes
        assert routes not in router._seed_cache.values()
        assert router.bfs_runs == runs + 1

    @staticmethod
    def _all_to_all(topo):
        hosts = sorted(host.name for host in topo.hosts())
        return [make_flow(src, dst, rail=rail, size_bits=8e9)
                for rail in range(AstralParams.tiny().rails)
                for src in hosts for dst in hosts if src != dst]

    def test_one_bfs_per_block_and_rail(self):
        """Every host of a block shares its dual-ToR pair on a rail, so
        an all-to-all runs one BFS per (block, rail) seed set, not one
        per (host, rail) destination."""
        params = AstralParams.tiny()
        topo = build_astral(params)
        fabric = Fabric(topo)
        fabric.resolve_paths(self._all_to_all(topo))
        router = fabric.router
        blocks = params.pods * params.blocks_per_pod
        hosts = blocks * params.hosts_per_block
        assert router.bfs_runs == blocks * params.rails
        assert router.dist_cache_misses == hosts * params.rails
        assert router.dist_cache_hits > router.dist_cache_misses
        assert len(router._seed_cache) == blocks * params.rails
        # No per-destination copies: every host destination holds its
        # seed set's one shared routes object.
        assert {id(routes) for routes, _ in router._dist_cache.values()} \
            == {id(routes) for routes in router._seed_cache.values()}

    def test_fail_link_clears_both_caches(self):
        topo = build_astral(AstralParams.tiny())
        fabric = Fabric(topo)
        fabric.resolve_paths(self._all_to_all(topo))
        router = fabric.router
        runs = router.bfs_runs
        topo.fail_link(0)
        router.distances_to(_host(0, 0, 0), 0)
        assert router.bfs_runs == runs + 1
        assert list(router._dist_cache) == [(_host(0, 0, 0), 0)]
        assert len(router._seed_cache) == 1

    @staticmethod
    def _by_value(router):
        """Both caches by value: per (destination, rail) its distances
        and index; per seed set its distances and memoised next hops."""
        maps = {key: (routes.dist.tolist(), target)
                for key, (routes, target) in router._dist_cache.items()}
        shared = {seeds: (routes.dist.tolist(), dict(routes.hops))
                  for seeds, routes in router._seed_cache.items()}
        return maps, shared

    def test_restore_link_rebuilds_both_caches(self):
        topo = build_astral(AstralParams.tiny())
        flows = self._all_to_all(topo)
        fabric = Fabric(topo)
        healthy = fabric.resolve_paths(flows)
        router = fabric.router
        maps, shared = self._by_value(router)
        runs = router.bfs_runs
        topo.fail_link(0)
        fabric.resolve_paths(flows)
        topo.restore_link(0)
        assert fabric.resolve_paths(flows) == healthy
        assert self._by_value(router) == (maps, shared)
        # A failed host link splits its block's seed set: one more BFS.
        assert router.bfs_runs == 3 * runs + 1

    def test_reused_router_matches_fresh_router(self):
        """The memo lives and dies with the routes: after a failure, a
        restore and a miswire, the router that walked every flow before
        the change walks each one as a fresh router does."""
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flows = self._all_to_all(topo)

        def check():
            walked = [_route(router, flow) for flow in flows]
            assert walked == [_route(EcmpRouter(topo), flow)
                              for flow in flows]

        check()
        uplink = router.path(flows[0]).link_ids[1]
        topo.fail_link(uplink)
        check()
        topo.restore_link(uplink)
        check()
        TestSharedDistanceOracle._miswire(topo, random.Random("memo"))
        check()

    def test_second_walk_adds_no_misses(self):
        """Walking the same flows again costs one memo hit per hop and
        no miss, and finds the same paths."""
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flows = self._all_to_all(topo)
        first = [router.path(flow) for flow in flows]
        hits, misses = router.hops_memo_hits, router.hops_memo_misses
        assert misses > 0
        assert [router.path(flow) for flow in flows] == first
        assert router.hops_memo_misses == misses
        assert router.hops_memo_hits - hits == sum(p.hops for p in first)

    def test_source_of_one_flow_transits_another(self):
        """Host ``x`` is the source of one flow and a transit device of
        another toward the same destination, so both walks share one
        memo; each matches the oracle in either order."""
        topo = _host_transit_topology()
        oracle = _OracleRouter(topo)
        ports = range(49152, 49152 + 64)
        through_x = [make_flow("s", "d", rail=1, size_bits=8e9,
                               src_port=port, dst_rail=0)
                     for port in ports]
        through_x = [flow for flow in through_x
                     if "x" in oracle.path(flow).devices]
        assert through_x
        from_x = [make_flow("x", "d", rail=1, size_bits=8e9,
                            src_port=port, dst_rail=0) for port in ports]
        for order in (through_x + from_x, from_x + through_x):
            router = EcmpRouter(topo)
            for flow in order:
                assert _route(router, flow) == _route(oracle, flow), flow
        _check_against_oracle(topo, EcmpRouter(topo), ports=ports[:16])


def _oracle_distances(topo, dst_host, dst_rail):
    """The per-destination BFS the shared seed-set maps replaced, kept
    verbatim as an independent oracle."""
    dist = {dst_host: 0}
    frontier = deque()
    # Seed only through the destination's rail-matching ToR links.
    for link, neighbor in topo.neighbors(dst_host):
        neighbor_rail = neighbor.rail
        if (dst_rail is not None and neighbor_rail is not None
                and neighbor_rail != dst_rail):
            continue
        if neighbor.name not in dist:
            dist[neighbor.name] = 1
            frontier.append(neighbor.name)
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


class _OracleRouter:
    """The dict router the compiled one replaced, kept verbatim as an
    independent oracle: per-destination BFS maps, next hops by dict
    lookups over ``Topology.neighbors``, and a dict partition flood.
    Build one per topology state."""

    def __init__(self, topology, hasher=None):
        self.topology = topology
        self.hasher = hasher or EcmpHasher()
        self._maps = {}

    def distances_to(self, dst_host, dst_rail):
        key = (dst_host, dst_rail)
        if key not in self._maps:
            self._maps[key] = _oracle_distances(
                self.topology, dst_host, dst_rail)
        return self._maps[key]

    def next_hop_links(self, device, flow):
        topo = self.topology
        dst_rail = parse_nic(flow.five_tuple.dst_ip)[1]
        dist = self.distances_to(flow.dst_host, dst_rail)

        if device == flow.src_host:
            rail_neighbors = []
            for link, neighbor in topo.neighbors(device):
                neighbor_rail = neighbor.rail
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

    def partition_cut(self, src, dst, src_rail=None):
        # The flood from src is the per-destination BFS toward src.
        reached = _oracle_distances(self.topology, src, src_rail)
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

    def _no_route(self, device, flow):
        cut = self.partition_cut(flow.src_host, flow.dst_host,
                                 src_rail=flow.rail)
        if cut is not None:
            return PartitionError(flow.src_host, flow.dst_host,
                                  flow.rail, cut, flow_id=flow.flow_id)
        return RoutingError(
            f"no route from {device} to {flow.dst_host} "
            f"(flow {flow.flow_id}, rail {flow.rail})")

    def path(self, flow, max_hops=16):
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


TOPOLOGIES = {
    "astral": lambda: build_astral(AstralParams.tiny()),
    "clos": lambda: build_clos(ClosParams.tiny()),
    "rail_only": lambda: build_rail_only(AstralParams.tiny()),
    "tier2_full": lambda: build_full_interconnect_tier2(
        AstralParams.tiny()),
    "cross_dc": lambda: build_cross_dc(CrossDcParams()),
}


def _route(router, flow):
    try:
        return router.path(flow)
    except RoutingError as exc:
        return type(exc), getattr(exc, "cut", None), str(exc)


def _check_against_oracle(topo, router, ports=(None,)):
    """Distances, paths, error types and partition cuts all `==` the
    oracle's, for every host pair and (source, destination) rail."""
    rails = sorted({d.rail for d in topo.devices.values()
                    if d.rail is not None})
    for name in topo.devices:
        for rail in [None] + rails:
            assert router.distances_to(name, rail) \
                == _oracle_distances(topo, name, rail), (name, rail)
    oracle = _OracleRouter(topo, router.hasher)
    hosts = sorted(host.name for host in topo.hosts())
    for rail in rails or [0]:
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                assert router.partition_cut(src, dst, rail) \
                    == oracle.partition_cut(src, dst, rail), (src, dst)
                for dst_rail in rails or [0]:
                    for port in ports:
                        flow = make_flow(src, dst, rail=rail,
                                         size_bits=8e9, src_port=port,
                                         dst_rail=dst_rail)
                        assert _route(router, flow) \
                            == _route(oracle, flow), flow


class TestSharedDistanceOracle:
    """The compiled router must reproduce the dict router exactly, under
    random link failures and a miswire, for host and switch
    destinations."""

    @staticmethod
    def _miswire(topo, rng):
        """Swap the switch ends of two of a host's uplinks in place, as
        a cabling fault in ``monitoring.jobsim`` does."""
        host = rng.choice(sorted(h.name for h in topo.hosts()))
        link, *others = topo.links_of(host)
        partner = next(other for other in others
                       if other.other(host) != link.other(host))
        topo.miswire(host, link.link_id, partner.link_id)

    @classmethod
    def _fail_links(cls, topo, rng):
        # One of a host's rail-0 links: that host gets a seed set of
        # its own while its block peers keep the shared one.
        host = rng.choice(sorted(h.name for h in topo.hosts()))
        rail0 = [link for link, neighbor in topo.neighbors(host)
                 if neighbor.rail in (0, None)]
        assert len(rail0) >= 2
        topo.fail_link(rail0[0].link_id)
        cls._miswire(topo, rng)
        links = sorted(topo.links)
        for link_id in rng.sample(links, len(links) // 10):
            topo.fail_link(link_id)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_matches_per_destination_bfs(self, name, seed):
        topo = TOPOLOGIES[name]()
        router = EcmpRouter(topo)
        _check_against_oracle(topo, router)
        self._fail_links(topo, random.Random(f"{name}-{seed}"))
        _check_against_oracle(topo, router)


HASHERS = {
    "seed-1d0f": lambda: EcmpHasher(seed=0x1D0F),
    "unsalted": lambda: EcmpHasher(per_device_salt=False),
}


class TestHasherVariants:
    """The walk's two-step hash against the oracle's one-shot
    ``EcmpHasher.select``, for a non-default seed and with the per-hop
    salt off, before and after link failures and a miswire."""

    @pytest.mark.parametrize("hasher", sorted(HASHERS))
    @pytest.mark.parametrize("name", ["astral", "clos"])
    def test_matches_oracle(self, name, hasher):
        topo = TOPOLOGIES[name]()
        router = EcmpRouter(topo, HASHERS[hasher]())
        ports = range(49152, 49152 + 4)
        _check_against_oracle(topo, router, ports)
        TestSharedDistanceOracle._fail_links(
            topo, random.Random(f"{name}-{hasher}"))
        _check_against_oracle(topo, router, ports)


def _beyond_destination_topology():
    """Host ``dst`` on rail-0 ToR ``t0`` and rail-1 ToR ``t1``; host
    ``src`` on ``t1`` only; both ToRs under one Agg.

    Toward ``dst`` on rail 0 the seed set is ``{t0}``.  Its BFS reaches
    ``dst`` and the Agg at 2 and ``t1`` at 3, so at ``t1`` the shared
    distances offer both the Agg and ``dst`` (a non-rail-matching
    neighbour of the destination, one hop beyond it) as one hop
    closer.  Only the destination rule, which reads ``dst`` as 0,
    drops the ``t1``-``dst`` link.  No fabric family has this shape.
    """
    topo = Topology("beyond-destination")
    topo.add_device(Host("dst", DeviceKind.HOST))
    topo.add_device(Host("src", DeviceKind.HOST))
    topo.add_device(Switch("t0", DeviceKind.TOR, rail=0))
    topo.add_device(Switch("t1", DeviceKind.TOR, rail=1))
    topo.add_device(Switch("agg", DeviceKind.AGG))
    for a, b in (("dst", "t0"), ("dst", "t1"), ("src", "t1"),
                 ("t0", "agg"), ("t1", "agg")):
        topo.add_link(PortRef(a, 0), PortRef(b, 0), 400.0)
    return topo


def _host_transit_topology():
    """Host ``d`` on rail-0 ToR ``t0``; host ``s`` on rail-1 ToR ``t1``;
    host ``x`` on both ToRs; both ToRs under one Agg.

    Toward ``d`` on rail 0, ``t1`` is at 3 and both the Agg and ``x``
    are at 2, so a flow from ``s`` may pass through ``x``.  A flow from
    ``x`` on rail 1 starts at ``t1`` instead: ``x`` as a source and
    ``x`` as a transit device have different next-hop sets.
    """
    topo = Topology("host-transit")
    for name in ("d", "s", "x"):
        topo.add_device(Host(name, DeviceKind.HOST))
    topo.add_device(Switch("t0", DeviceKind.TOR, rail=0))
    topo.add_device(Switch("t1", DeviceKind.TOR, rail=1))
    topo.add_device(Switch("agg", DeviceKind.AGG))
    for a, b in (("d", "t0"), ("x", "t0"), ("x", "t1"), ("s", "t1"),
                 ("t0", "agg"), ("t1", "agg")):
        topo.add_link(PortRef(a, 0), PortRef(b, 0), 400.0)
    return topo


def _adjacent_hosts_topology():
    """Hosts ``s`` and ``d`` linked directly, and both on rail-0 ToR
    ``t0`` under an Agg.

    Toward ``d`` the shared distances put ``t0`` at 1 and ``d`` at 2,
    but at the source ``d`` reads as 0, so a flow from ``s`` takes the
    direct link.  No fabric family links two hosts.
    """
    topo = Topology("adjacent-hosts")
    topo.add_device(Host("s", DeviceKind.HOST))
    topo.add_device(Host("d", DeviceKind.HOST))
    topo.add_device(Switch("t0", DeviceKind.TOR, rail=0))
    topo.add_device(Switch("agg", DeviceKind.AGG))
    for a, b in (("s", "d"), ("s", "t0"), ("d", "t0"), ("t0", "agg")):
        topo.add_link(PortRef(a, 0), PortRef(b, 0), 400.0)
    return topo


class TestDestinationRule:
    def test_link_to_destination_beyond_it_is_dropped(self):
        topo = _beyond_destination_topology()
        router, oracle = EcmpRouter(topo), _OracleRouter(topo)
        assert topo.link_between("t1", "dst")
        flow = make_flow("src", "dst", rail=1, size_bits=8e9, dst_rail=0)
        assert router.distances_to("dst", 0)["t1"] == 3
        assert router.next_hop_links("t1", flow) \
            == oracle.next_hop_links("t1", flow) \
            == topo.link_between("t1", "agg")
        assert router.path(flow).devices == ["src", "t1", "agg", "t0", "dst"]
        _check_against_oracle(topo, router, ports=range(49152, 49152 + 16))

    def test_source_next_to_destination_goes_direct(self):
        topo = _adjacent_hosts_topology()
        router = EcmpRouter(topo)
        flow = make_flow("s", "d", rail=0, size_bits=8e9)
        assert router.distances_to("d", 0)["t0"] == 1
        assert router.path(flow).devices == ["s", "d"]
        _check_against_oracle(topo, router, ports=range(49152, 49152 + 16))


class TestPodLocalBfs:
    """The BFS on the sub-topology a 512K pod-local run builds (161
    devices), with a tenth of its links failed: distances for every
    destination and rail, and sampled paths and partition cuts, `==`
    the dict router's."""

    def test_matches_oracle_with_failed_links(self):
        topo = build_astral(pod_local_params(preset_params("512k"), 1))
        assert len(topo.devices) == 161
        router = EcmpRouter(topo)
        rng = random.Random("pod-local-bfs")
        links = sorted(topo.links)
        for link_id in rng.sample(links, len(links) // 10):
            topo.fail_link(link_id)
        rails = sorted({d.rail for d in topo.devices.values()
                        if d.rail is not None})
        for name in topo.devices:
            for rail in [None] + rails:
                assert router.distances_to(name, rail) \
                    == _oracle_distances(topo, name, rail), (name, rail)
        oracle = _OracleRouter(topo, router.hasher)
        hosts = sorted(host.name for host in topo.hosts())
        for _ in range(200):
            src, dst = rng.sample(hosts, 2)
            rail = rng.choice(rails)
            assert router.partition_cut(src, dst, rail) \
                == oracle.partition_cut(src, dst, rail)
            flow = make_flow(src, dst, rail=rail, size_bits=8e9,
                             dst_rail=rng.choice(rails))
            assert _route(router, flow) == _route(oracle, flow), flow


class TestFabricPathCache:
    """``Fabric.path`` memoises each flow's walk per topology version
    and routing inputs.  Under random link failures, restores,
    miswires, re-hashed source ports (by hand and by the controller)
    and reused flow ids, it must return what a fresh router walks, the
    same error type included, and walk again exactly when the version
    or an input changed since its last successful walk."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(TOPOLOGIES)),
           seed=st.integers(0, 2 ** 16),
           ops=st.lists(st.sampled_from(
               ["fail", "restore", "miswire", "rehash", "balance",
                "reuse", "none"]), min_size=1, max_size=8))
    def test_matches_fresh_router(self, name, seed, ops):
        topo = TOPOLOGIES[name]()
        rng = random.Random(seed)
        hosts = sorted(host.name for host in topo.hosts())
        rails = sorted({d.rail for d in topo.devices.values()
                        if d.rail is not None}) or [0]

        def new_flow():
            src, dst = rng.sample(hosts, 2)
            return make_flow(src, dst, rail=rng.choice(rails),
                             size_bits=8e9, dst_rail=rng.choice(rails))

        flows = [new_flow() for _ in range(6)]
        fabric = Fabric(topo)
        walks = []
        walk = fabric.router.path

        def spy(flow, *args, **kwargs):
            walks.append(flow.flow_id)
            return walk(flow, *args, **kwargs)

        fabric.router.path = spy
        walked = {}     # flow id -> inputs of its last successful walk

        def query(op):
            fresh = EcmpRouter(topo)
            for flow in flows:
                inputs = (topo.version, flow.src_host, flow.dst_host,
                          flow.rail, flow.dst_rail, flow.five_tuple)
                before = len(walks)
                got = _route(fabric, flow)
                assert got == _route(fresh, flow), (op, flow)
                assert (len(walks) > before) \
                    == (walked.get(flow.flow_id) != inputs), (op, flow)
                if isinstance(got, FlowPath):
                    walked[flow.flow_id] = inputs
                else:
                    walked.pop(flow.flow_id, None)

        query("start")
        for op in ops:
            if op == "fail":
                topo.fail_link(rng.choice(sorted(topo.links)))
            elif op == "restore":
                failed = sorted(link_id for link_id, link in
                                topo.links.items() if not link.healthy)
                if failed:
                    topo.restore_link(rng.choice(failed))
            elif op == "miswire":
                TestSharedDistanceOracle._miswire(topo, rng)
            elif op == "rehash":
                flow = rng.choice(flows)
                flow.five_tuple = flow.five_tuple.with_src_port(
                    49152 + rng.randrange(16384))
            elif op == "balance":
                try:
                    EcmpController(fabric).balance_source_ports(flows)
                except RoutingError:
                    pass
            elif op == "reuse":
                index = rng.randrange(len(flows))
                reused = new_flow()
                reused.flow_id = flows[index].flow_id
                flows[index] = reused
            query(op)


class TestWalkCountGuard:
    """QPs are set up once per job, so a flow's path is walked once per
    topology version: a 4k hierarchy run (allreduce, one optics-batch
    fault document) walks no flow id twice on one router under one
    version."""

    def test_each_flow_walked_once_per_version(self, monkeypatch):
        walks = Counter()
        routers = []        # kept alive, so no id() is reused
        walk = EcmpRouter.path

        def spy(router, flow, *args, **kwargs):
            routers.append(router)
            walks[id(router), router.topology.version, flow.flow_id] += 1
            return walk(router, flow, *args, **kwargs)

        monkeypatch.setattr(EcmpRouter, "path", spy)
        params = preset_params("4k")
        domain = {"kind": "optics-batch", "pod": 0, "block": 1,
                  "size": 1, "mode": "hard", "seed": 0}
        report = execute_spec(TaskSpec("hierarchy-run", {
            "scale": "4k", "hosts_per_job": params.hosts_per_block,
            "iterations": 4, "compute_s": 0.5, "comm_bits": 8e9,
            "collective": "allreduce", "seed": 0, "tail_shapes": 1,
            "refine": "bounded", "faults": 0,
            "fault_document": {"domains": [domain]}}))
        assert report["fold"]["n_engine_sims"] > 1
        assert walks
        twice = {key: n for key, n in walks.items() if n > 1}
        assert not twice, f"{len(twice)} flows walked again"
