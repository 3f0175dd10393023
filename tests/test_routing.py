"""Tests for ECMP routing over the fabric graphs."""

import random
from collections import deque

import pytest

from repro.network import (
    EcmpRouter,
    Fabric,
    RoutingError,
    make_flow,
    reset_flow_ids,
)
from repro.topology import (
    AstralParams,
    CrossDcParams,
    DeviceKind,
    build_astral,
    build_clos,
    build_cross_dc,
    build_rail_only,
    ClosParams,
)
from repro.topology.baselines import build_full_interconnect_tier2


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
        assert router._dist_cache
        topo.fail_link(0)
        router.path(flow)
        assert router._cache_version == topo.version

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

    def test_restore_link_rebuilds_both_caches(self):
        topo = build_astral(AstralParams.tiny())
        flows = self._all_to_all(topo)
        fabric = Fabric(topo)
        healthy = fabric.resolve_paths(flows)
        router = fabric.router
        maps = dict(router._dist_cache)
        shared = dict(router._seed_cache)
        runs = router.bfs_runs
        topo.fail_link(0)
        fabric.resolve_paths(flows)
        topo.restore_link(0)
        assert fabric.resolve_paths(flows) == healthy
        assert router._dist_cache == maps
        assert router._seed_cache == shared
        # A failed host link splits its block's seed set: one more BFS.
        assert router.bfs_runs == 3 * runs + 1


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


class _OracleRouter(EcmpRouter):
    """Routes with oracle maps; build one per topology state."""

    def distances_to(self, dst_host, dst_rail):
        key = (dst_host, dst_rail)
        if key not in self._dist_cache:
            self._dist_cache[key] = _oracle_distances(
                self.topology, dst_host, dst_rail)
        return self._dist_cache[key]


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
        return type(exc), str(exc)


class TestSharedDistanceOracle:
    """Seed-set sharing must reproduce the per-destination BFS exactly,
    under random link failures, for host and switch destinations."""

    @staticmethod
    def _fail_links(topo, rng):
        # One of a host's rail-0 links: that host gets a seed set of
        # its own while its block peers keep the shared one.
        host = rng.choice(sorted(h.name for h in topo.hosts()))
        rail0 = [link for link, neighbor in topo.neighbors(host)
                 if neighbor.rail in (0, None)]
        assert len(rail0) >= 2
        topo.fail_link(rail0[0].link_id)
        links = sorted(topo.links)
        for link_id in rng.sample(links, len(links) // 10):
            topo.fail_link(link_id)

    @staticmethod
    def _check(topo, router):
        rails = sorted({d.rail for d in topo.devices.values()
                        if d.rail is not None})
        for name in topo.devices:
            for rail in [None] + rails:
                assert router.distances_to(name, rail) \
                    == _oracle_distances(topo, name, rail), (name, rail)
        oracle = _OracleRouter(topo)
        hosts = sorted(host.name for host in topo.hosts())
        for rail in rails:
            for src in hosts:
                for dst in hosts:
                    if src != dst:
                        flow = make_flow(src, dst, rail=rail,
                                         size_bits=8e9)
                        assert _route(router, flow) \
                            == _route(oracle, flow)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_matches_per_destination_bfs(self, name, seed):
        topo = TOPOLOGIES[name]()
        router = EcmpRouter(topo)
        self._check(topo, router)
        self._fail_links(topo, random.Random(f"{name}-{seed}"))
        self._check(topo, router)
