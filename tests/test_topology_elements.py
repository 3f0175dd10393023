"""The topology package owns NIC names and every change to a link.

``repro.topology.elements`` builds and parses ``<host>.nic<rail>``;
flows carry their destination rail as a field and as that name, and
the two must agree.  Links change only through :class:`Topology`
methods, which bump ``version`` so routers cannot miss a change.  The
last class scans the source so that stays true.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.monitoring.pingmesh import Pingmesh
from repro.network import EcmpRouter, Fabric, make_flow
from repro.network.collectives import (
    CollectiveConfig,
    Endpoint,
    all_gather_flows,
    all_to_all_flows,
    reduce_scatter_flows,
    ring_allreduce_flows,
    send_recv_flows,
)
from repro.topology import (
    AstralParams,
    ClosParams,
    CrossDcParams,
    PortRef,
    build_astral,
    build_clos,
    build_cross_dc,
)
from repro.topology.elements import nic_name, parse_nic
from repro.validation import ScenarioGenerator
from repro.validation.scenarios import build_flows

NIC_TOPOLOGIES = {
    "astral-tiny": lambda: build_astral(AstralParams.tiny()),
    "astral-3-ports": lambda: build_astral(AstralParams(
        pods=1, blocks_per_pod=2, hosts_per_block=3, gpus_per_host=3,
        nic_ports=3, aggs_per_group=1, cores_per_group=1)),
    "clos-tiny": lambda: build_clos(ClosParams.tiny()),
    "cross-dc": lambda: build_cross_dc(CrossDcParams()),
}


class TestNicNames:
    @pytest.mark.parametrize("name", sorted(NIC_TOPOLOGIES))
    def test_every_nic_round_trips(self, name):
        hosts = NIC_TOPOLOGIES[name]().hosts()
        assert hosts
        for host in hosts:
            assert [nic.rail for nic in host.nics] \
                == list(range(len(host.gpus)))
            for nic in host.nics:
                assert nic.host == host.name
                assert nic.name == nic_name(host.name, nic.rail)
                assert parse_nic(nic.name) == (host.name, nic.rail)

    def test_names_keep_their_layout(self):
        assert nic_name("p1.b2.h3", 7) == "p1.b2.h3.nic7"
        assert parse_nic("dc1.p0.b0.h0.nic3") == ("dc1.p0.b0.h0", 3)
        assert parse_nic("a.nic1.nic0") == ("a.nic1", 0)

    @settings(max_examples=200, deadline=None)
    @given(host=st.text(max_size=20), rail=st.integers(0, 10**6))
    def test_any_host_round_trips(self, host, rail):
        assert parse_nic(nic_name(host, rail)) == (host, rail)

    @pytest.mark.parametrize("name", [
        "p0.b0.h0", "p0.b0.h0.nic", "p0.b0.h0.nic01", "p0.b0.h0.nic-1",
        "p0.b0.h0.nic+1", "p0.b0.h0.nic 1", "p0.b0.h0.nic1 ",
        "p0.b0.h0.nic٣", "p0.b0.h0.nicx", "p0.b0.h0.NIC1",
        "p0.b0.h0.nic1.gpu0", "p0.b0.h0:r0", ""])
    def test_non_canonical_names_do_not_parse(self, name):
        assert parse_nic(name) is None

    @settings(max_examples=200, deadline=None)
    @given(name=st.one_of(
        st.from_regex(r"[a-z0-9.]{0,8}\.nic[-+0-9a-z]{0,4}",
                      fullmatch=True),
        st.text(alphabet="hnic.0123456789", max_size=16)))
    def test_parse_accepts_exactly_rendered_names(self, name):
        parsed = parse_nic(name)
        assert parsed is None or nic_name(*parsed) == name


def _assert_rails_on_the_wire(flows):
    for flow in flows:
        assert parse_nic(flow.five_tuple.src_ip) \
            == (flow.src_host, flow.rail)
        assert parse_nic(flow.five_tuple.dst_ip) \
            == (flow.dst_host, flow.dst_rail)


class TestFlowsCarryTheirDestinationRail:
    """The field the router reads and the five-tuple the monitoring
    joins on name the same destination NIC."""

    @settings(max_examples=60, deadline=None)
    @given(endpoints=st.lists(
        st.builds(Endpoint, st.sampled_from(["p0.b0.h0", "p0.b1.h1",
                                             "p1.b0.h0", "src"]),
                  st.integers(0, 7)),
        min_size=2, max_size=6),
        pxn=st.booleans())
    def test_collective_generators(self, endpoints, pxn):
        config = CollectiveConfig(pxn=pxn)
        flows = []
        for generate in (ring_allreduce_flows, reduce_scatter_flows,
                         all_gather_flows, all_to_all_flows):
            flows += generate(endpoints, 8e9, config)
        flows += send_recv_flows(list(zip(endpoints, endpoints[1:])),
                                 8e9, config)
        _assert_rails_on_the_wire(flows)

    def test_default_destination_rail_is_the_source_rail(self):
        flow = make_flow("a", "b", rail=3, size_bits=1.0)
        assert flow.dst_rail == 3
        assert flow.five_tuple.dst_ip == "b.nic3"

    @settings(max_examples=20, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                    st.integers(0, 1)),
                          min_size=1, max_size=6))
    def test_pingmesh_probes(self, pairs):
        fabric = Fabric(build_astral(AstralParams.tiny()))
        hosts = sorted(host.name for host in fabric.topology.hosts())
        probed = []
        route = fabric.router.path

        def spy(flow, *args, **kwargs):
            probed.append(flow)
            return route(flow, *args, **kwargs)

        fabric.router.path = spy
        mesh = Pingmesh(fabric)
        for src, dst, rail in pairs:
            mesh.probe(hosts[src], hosts[dst], rail=rail)
        assert len(probed) == len(pairs)
        _assert_rails_on_the_wire(probed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 200), index=st.integers(0, 40))
    def test_validation_scenarios(self, seed, index):
        _assert_rails_on_the_wire(
            build_flows(ScenarioGenerator(seed).spec(index)))


class TestLinkMutation:
    def test_scale_link_multiplies_and_bumps_version(self):
        topo = build_astral(AstralParams.tiny())
        link = topo.links_of("p0.b0.h0")[0]
        before = topo.version
        topo.scale_link(link.link_id, 0.15)
        assert link.capacity_gbps == 200.0 * 0.15
        assert topo.version == before + 1

    def test_miswire_swaps_far_ends_in_adjacency_order(self):
        """A cross-rail swap of two of ``p0.b0.h0``'s uplinks: ends,
        adjacency order, version, and the route that follows it."""
        topo = build_astral(AstralParams.tiny())
        host = "p0.b0.h0"
        link, _, partner, _ = topo.links_of(host)
        tor_a, tor_b = "p0.b0.r0.g0.tor", "p0.b0.r1.g0.tor"
        assert (link.other(host), partner.other(host)) == (tor_a, tor_b)
        far_a, far_b = link.b, partner.b
        adjacency_a = [lid for lid in topo._adjacency[tor_a]
                       if lid != link.link_id] + [partner.link_id]
        adjacency_b = [lid for lid in topo._adjacency[tor_b]
                       if lid != partner.link_id] + [link.link_id]
        adjacency_host = list(topo._adjacency[host])
        router = EcmpRouter(topo)
        flow = next(
            flow for flow in (make_flow("p0.b0.h1", host, rail=0,
                                        size_bits=8e9, src_port=port)
                              for port in range(49152, 49408))
            if router.path(flow).devices[1] == tor_a)
        assert router.path(flow).link_ids[-1] == link.link_id
        before = topo.version

        topo.miswire(host, link.link_id, partner.link_id)

        assert (link.a, link.b) == (PortRef(host, 0), far_b)
        assert (partner.a, partner.b) == (PortRef(host, 2), far_a)
        assert topo._adjacency[tor_a] == adjacency_a
        assert topo._adjacency[tor_b] == adjacency_b
        assert topo._adjacency[host] == adjacency_host
        assert topo.version == before + 2
        # The rail-0 ToR now reaches the host over the partner link.
        path = router.path(flow)
        assert path.devices == ["p0.b0.h1", tor_a, host]
        assert path.link_ids[-1] == partner.link_id


#: what only ``repro/topology`` may write: NIC-name literals, a
#: topology's adjacency lists, its version counter, link capacities.
OWNED_BY_TOPOLOGY = ('".nic"', ".nic{", "_adjacency", "version +=",
                     "capacity_gbps *=")


class TestOwnership:
    def test_only_the_topology_package_names_nics_and_changes_links(self):
        src = Path(repro.__file__).parent
        modules = sorted(src.rglob("*.py"))
        assert len(modules) > 100
        found = []
        for module in modules:
            relative = module.relative_to(src)
            text = module.read_text(encoding="utf-8")
            if relative.parts[0] == "topology":
                continue
            found += [f"{relative}: {token}"
                      for token in OWNED_BY_TOPOLOGY if token in text]
        assert found == []

    def test_only_the_astral_codec_writes_host_names(self):
        src = Path(repro.__file__).parent
        writers = sorted(module.relative_to(src).as_posix()
                         for module in src.rglob("*.py")
                         if ".h{" in module.read_text(encoding="utf-8"))
        assert writers == ["topology/astral.py"]

    def test_the_scan_sees_the_owner(self):
        text = (Path(repro.__file__).parent / "topology"
                / "elements.py").read_text(encoding="utf-8")
        for token in (".nic{", "_adjacency", "version +=",
                      "capacity_gbps *="):
            assert token in text
