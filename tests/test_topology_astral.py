"""Tests for the Astral topology builder (paper §2.1, Figure 3)."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import make_flow
from repro.topology import (
    AstralParams,
    DeviceKind,
    TopologyError,
    build_astral,
)
from repro.topology.astral import (
    agg_name,
    core_name,
    host_name,
    parse_device,
    rename_device,
    tor_name,
)
from repro.topology.elements import (
    Gpu,
    Host,
    Link,
    Nic,
    PortRef,
    Switch,
    Topology,
)


@pytest.fixture(scope="module")
def tiny():
    return build_astral(AstralParams.tiny())


@pytest.fixture(scope="module")
def small():
    return build_astral(AstralParams.small())


class TestParams:
    def test_paper_scale_totals(self):
        params = AstralParams()
        assert params.total_gpus == 512 * 1024
        assert params.gpus_per_pod == 64 * 1024
        assert params.gpus_per_block == 1024
        assert params.rail_size == 8 * 1024

    def test_rail_size_is_8k_at_paper_scale(self):
        # §2.1: "currently supporting up to 8K GPUs within a single rail".
        assert AstralParams().rail_size == 8192

    def test_oversubscription_builder(self):
        params = AstralParams.tiny().with_oversubscription(3.0)
        assert params.tier3_oversubscription == 3.0

    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            AstralParams.tiny().with_oversubscription(0.5)

    @pytest.mark.parametrize("field", [
        "hosts_per_block", "gpus_per_host", "aggs_per_group",
        "cores_per_group"])
    def test_empty_tier_rejected_by_name(self, field):
        params = replace(AstralParams.tiny(), **{field: 0})
        with pytest.raises(TopologyError, match=field):
            params.validate()
        with pytest.raises(TopologyError, match=field):
            build_astral(params)

    @pytest.mark.parametrize("field", [
        "nic_port_gbps", "tor_agg_gbps", "agg_core_gbps"])
    @pytest.mark.parametrize("gbps", [0.0, -100.0, float("nan")])
    def test_non_positive_capacity_rejected_by_name(self, field, gbps):
        params = replace(AstralParams.tiny(), **{field: gbps})
        with pytest.raises(TopologyError, match=field):
            build_astral(params)

    def test_minimal_shape_still_builds(self):
        params = AstralParams(pods=1, blocks_per_pod=1, hosts_per_block=1,
                              gpus_per_host=1, nic_ports=1,
                              aggs_per_group=1, cores_per_group=1)
        topo = build_astral(params)
        assert len(topo.hosts()) == 1
        assert len(topo.links) == 3      # host-ToR, ToR-Agg, Agg-Core


class TestStructure:
    def test_device_counts(self, tiny):
        params = AstralParams.tiny()
        hosts = tiny.hosts()
        assert len(hosts) == params.pods * params.blocks_per_pod \
            * params.hosts_per_block
        tors = tiny.switches(DeviceKind.TOR)
        assert len(tors) == params.pods * params.blocks_per_pod \
            * params.rails * params.tor_groups
        aggs = tiny.switches(DeviceKind.AGG)
        assert len(aggs) == params.pods * params.rails \
            * params.tor_groups * params.aggs_per_group
        cores = tiny.switches(DeviceKind.CORE)
        assert len(cores) == params.core_groups * params.cores_per_group

    def test_gpu_count(self, tiny):
        assert tiny.gpu_count() == AstralParams.tiny().total_gpus

    def test_host_has_one_nic_per_rail(self, tiny):
        host = tiny.hosts()[0]
        rails = sorted(nic.rail for nic in host.nics)
        assert rails == list(range(AstralParams.tiny().gpus_per_host))

    def test_p3_dual_tor_nic_wiring(self, tiny):
        """Each host reaches two *different* ToRs per rail (P3)."""
        params = AstralParams.tiny()
        host = tiny.hosts()[0]
        for rail in range(params.rails):
            tors = {
                neighbor.name
                for _, neighbor in tiny.neighbors(host.name)
                if neighbor.rail == rail
            }
            assert len(tors) == params.nic_ports

    def test_tor_is_rail_dedicated(self, tiny):
        """All hosts below a ToR connect on the same rail (P1 substrate)."""
        for tor in tiny.switches(DeviceKind.TOR):
            assert tor.rail is not None

    def test_agg_serves_one_rail(self, tiny):
        """Tier-2 aggregation is same-rail (P1)."""
        for agg in tiny.switches(DeviceKind.AGG):
            downstream_rails = {
                neighbor.rail
                for _, neighbor in tiny.neighbors(agg.name)
                if neighbor.kind is DeviceKind.TOR
            }
            assert downstream_rails == {agg.rail}

    def test_agg_reaches_every_block_of_pod(self, tiny):
        params = AstralParams.tiny()
        agg = tiny.switches(DeviceKind.AGG)[0]
        blocks = {
            neighbor.block
            for _, neighbor in tiny.neighbors(agg.name)
            if neighbor.kind is DeviceKind.TOR
        }
        assert blocks == set(range(params.blocks_per_pod))

    def test_same_rank_aggs_share_core_group(self, tiny):
        """§2.1 cluster side: same-rank Aggs meet at one core group."""
        for core in tiny.switches(DeviceKind.CORE):
            ranks = {
                neighbor.rank
                for _, neighbor in tiny.neighbors(core.name)
                if neighbor.kind is DeviceKind.AGG
            }
            assert len(ranks) == 1
            assert ranks == {core.group}


class TestBandwidth:
    def test_p2_no_oversubscription_by_default(self, small):
        """P2: identical aggregated bandwidth at every switching tier."""
        for kind in (DeviceKind.TOR, DeviceKind.AGG):
            assert small.oversubscription(kind) == pytest.approx(1.0)

    def test_tier3_oversubscription_applied(self):
        topo = build_astral(
            AstralParams.tiny().with_oversubscription(4.0))
        assert topo.oversubscription(DeviceKind.AGG) == pytest.approx(4.0)

    def test_core_has_no_uplinks(self, tiny):
        assert tiny.oversubscription(DeviceKind.CORE) == float("inf")

    def test_host_tor_tier_capacity(self, tiny):
        params = AstralParams.tiny()
        expected = (len(tiny.hosts()) * params.rails * params.nic_ports
                    * params.nic_port_gbps)
        got = tiny.tier_bandwidth_gbps(DeviceKind.HOST, DeviceKind.TOR)
        assert got == pytest.approx(expected)


class TestTopologyPrimitives:
    def test_duplicate_device_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny_copy = build_astral(AstralParams.tiny())
            device = tiny_copy.hosts()[0]
            tiny_copy.add_device(device)

    def test_unknown_device_lookup_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.device("nonexistent")

    def test_fail_link_bumps_version_and_hides_link(self):
        topo = build_astral(AstralParams.tiny())
        version = topo.version
        host = topo.hosts()[0]
        link = topo.links_of(host.name)[0]
        topo.fail_link(link.link_id)
        assert topo.version == version + 1
        neighbor_links = [l for l, _ in topo.neighbors(host.name)]
        assert link.link_id not in [l.link_id for l in neighbor_links]
        topo.restore_link(link.link_id)
        assert topo.links[link.link_id].healthy

    def test_link_other_endpoint(self, tiny):
        link = next(iter(tiny.links.values()))
        assert link.other(link.a.device) == link.b.device
        assert link.other(link.b.device) == link.a.device
        with pytest.raises(TopologyError):
            link.other("nope")


def _reference_build_astral(params: AstralParams) -> Topology:
    """The per-link builder ``build_astral`` replaced, kept verbatim as
    the wiring oracle: one ``add_link`` call per link."""
    params.validate()
    topo = Topology(name="astral")

    # Hosts with GPUs and rail NICs.
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                name = host_name(pod, block, index)
                host = Host(
                    name=name, kind=DeviceKind.HOST, pod=pod, block=block,
                    rank=index,
                )
                for rail in range(params.rails):
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
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for rail in range(params.rails):
                for group in range(params.tor_groups):
                    topo.add_device(Switch(
                        name=tor_name(pod, block, rail, group),
                        kind=DeviceKind.TOR,
                        pod=pod, block=block, rail=rail, group=group,
                    ))

    # Agg switches (tier 2): one per (pod, rail, group, rank) — P1.
    for pod in range(params.pods):
        for rail in range(params.rails):
            for group in range(params.tor_groups):
                for rank in range(params.aggs_per_group):
                    topo.add_device(Switch(
                        name=agg_name(pod, rail, group, rank),
                        kind=DeviceKind.AGG,
                        pod=pod, rail=rail, group=group, rank=rank,
                    ))

    # Core switches (tier 3): one group per Agg rank.
    for core_group in range(params.core_groups):
        for index in range(params.cores_per_group):
            topo.add_device(Switch(
                name=core_name(core_group, index),
                kind=DeviceKind.CORE,
                group=core_group, rank=index,
            ))

    # Host -> ToR links (P3: port g of rail-r NIC to group-g ToR).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for index in range(params.hosts_per_block):
                host = host_name(pod, block, index)
                for rail in range(params.rails):
                    for group in range(params.tor_groups):
                        topo.add_link(
                            PortRef(host, rail * params.nic_ports + group),
                            PortRef(tor_name(pod, block, rail, group),
                                    index),
                            params.nic_port_gbps,
                        )

    # ToR -> Agg links (every ToR reaches every Agg of its group).
    for pod in range(params.pods):
        for block in range(params.blocks_per_pod):
            for rail in range(params.rails):
                for group in range(params.tor_groups):
                    tor = tor_name(pod, block, rail, group)
                    for rank in range(params.aggs_per_group):
                        topo.add_link(
                            PortRef(tor, params.hosts_per_block + rank),
                            PortRef(agg_name(pod, rail, group, rank),
                                    block),
                            params.tor_agg_gbps,
                        )

    # Agg -> Core links (same-rank Aggs share a core group).
    uplink_gbps = (
        params.blocks_per_pod * params.tor_agg_gbps
        / params.cores_per_group / params.tier3_oversubscription
    )
    for pod in range(params.pods):
        for rail in range(params.rails):
            for group in range(params.tor_groups):
                for rank in range(params.aggs_per_group):
                    agg = agg_name(pod, rail, group, rank)
                    agg_index = (
                        (pod * params.rails + rail) * params.tor_groups
                        + group
                    )
                    for core in range(params.cores_per_group):
                        topo.add_link(
                            PortRef(agg, params.blocks_per_pod + core),
                            PortRef(core_name(rank, core), agg_index),
                            uplink_gbps,
                        )
    return topo


def _wiring(topo: Topology):
    """Everything the builder decides about links, as plain values."""
    return (
        [(link_id, link.link_id, link.a, link.b, link.capacity_gbps,
          link.healthy) for link_id, link in topo.links.items()],
        topo._adjacency,
        topo.version,
        topo._next_link_id,
    )


WIRING_PARAMS = {
    "tiny": AstralParams.tiny(),
    "small": AstralParams.small(),
    "cluster": AstralParams.cluster(),
    "nic_ports=1": replace(AstralParams.small(), nic_ports=1),
    "nic_ports=3": replace(AstralParams.small(), nic_ports=3),
    "oversubscribed": AstralParams.small().with_oversubscription(2.0),
}


class TestWiringIdentity:
    """``build_astral`` wires in bulk through ``Topology.add_links``;
    the result must be the per-link builder's, id for id."""

    @pytest.mark.parametrize("label", sorted(WIRING_PARAMS))
    def test_links_adjacency_and_version_match_reference(self, label):
        params = WIRING_PARAMS[label]
        built = build_astral(params)
        reference = _reference_build_astral(params)
        assert list(built.devices) == list(reference.devices)
        assert built.devices == reference.devices     # GPUs and NICs too
        assert _wiring(built) == _wiring(reference)

    def _pair(self):
        return (_reference_build_astral(AstralParams.tiny()),
                build_astral(AstralParams.tiny()))

    @pytest.mark.parametrize("a, b", [
        (PortRef("nope", 0), PortRef("p0.b0.h0", 0)),
        (PortRef("p0.b0.h0", 0), PortRef("nope", 0)),
        (PortRef("p0.b0.h0", 0), PortRef("p0.b0.h0", 1)),
        (PortRef("nope", 0), PortRef("nope", 1)),
    ], ids=["unknown-a", "unknown-b", "self-link", "unknown-self"])
    def test_add_links_raises_add_link_text_and_adds_nothing(self, a, b):
        one_by_one, bulk = self._pair()
        with pytest.raises(TopologyError) as single:
            one_by_one.add_link(a, b, 1.0)
        before = _wiring(bulk)
        good = (PortRef("p0.b0.h0", 99), PortRef("p0.b0.h1", 99), 1.0)
        with pytest.raises(TopologyError) as batch:
            bulk.add_links([good, (a, b, 1.0), good])
        assert str(batch.value) == str(single.value)
        # All or nothing: the good spec before the bad one is not kept.
        assert _wiring(bulk) == before

    def test_add_links_returns_links_in_id_order(self):
        topo = build_astral(AstralParams.tiny())
        first = topo._next_link_id
        specs = [(PortRef("p0.b0.h0", 90 + i), PortRef("p0.b0.h1", 90 + i),
                  float(i)) for i in range(3)]
        added = topo.add_links(iter(specs))
        assert [link.link_id for link in added] == [first, first + 1,
                                                    first + 2]
        assert [topo.links[link.link_id] for link in added] == added


class TestSlottedRecords:
    """Links and ports are slotted records: they pickle by value and
    refuse undeclared attributes."""

    def test_topology_pickle_round_trip(self):
        topo = build_astral(AstralParams.tiny())
        topo.fail_link(3)
        clone = pickle.loads(pickle.dumps(topo))
        assert clone.links == topo.links
        assert clone._adjacency == topo._adjacency
        assert clone.version == topo.version
        assert not clone.links[3].healthy

    def test_undeclared_link_attribute_rejected(self):
        link = Link(0, PortRef("a", 0), PortRef("b", 0), 100.0)
        assert not hasattr(link, "__dict__")
        with pytest.raises(AttributeError):
            link.note = "state hung on a link"
        link.healthy = False        # declared fields stay writable

    def test_undeclared_port_attribute_rejected(self):
        port = PortRef("a", 0)
        assert not hasattr(port, "__dict__")
        # A frozen slotted dataclass's __setattr__ raises TypeError
        # rather than AttributeError for an undeclared name on some
        # CPython versions; either way nothing can be attached.
        with pytest.raises((AttributeError, TypeError)):
            port.note = "state hung on a port"
        assert not hasattr(port, "note")
        with pytest.raises(AttributeError):
            port.port = 1

    def test_undeclared_flow_attribute_rejected(self):
        flow = make_flow("p0.b0.h0", "p0.b0.h1", 0, 8e9)
        assert not hasattr(flow, "__dict__")
        with pytest.raises(AttributeError):
            flow.note = "state hung on a flow"
        flow.rate_gbps = 100.0      # declared fields stay writable


# -- the device-name codec ---------------------------------------------------

#: Two shapes: the smallest, and one with two-digit blocks, hosts and
#: Agg ranks.
NAMING_SHAPES = {
    "tiny": AstralParams.tiny(),
    "wide": AstralParams(pods=3, blocks_per_pod=11, hosts_per_block=12,
                         gpus_per_host=2, aggs_per_group=10,
                         cores_per_group=2),
}
_NAMING_TOPOLOGIES = {}


def _devices(shape):
    if shape not in _NAMING_TOPOLOGIES:
        _NAMING_TOPOLOGIES[shape] = build_astral(NAMING_SHAPES[shape])
    return list(_NAMING_TOPOLOGIES[shape].devices.values())


def _position(device):
    return (device.kind, device.pod, device.block, device.rail,
            device.group, device.rank)


def _rebuild(parsed):
    """The builder call a parsed name stands for."""
    kind, pod, block, rail, group, rank = parsed
    if kind is DeviceKind.HOST:
        return host_name(pod, block, rank)
    if kind is DeviceKind.TOR:
        return tor_name(pod, block, rail, group)
    if kind is DeviceKind.AGG:
        return agg_name(pod, rail, group, rank)
    return core_name(group, rank)


class TestDeviceNames:
    """``topology.astral`` owns the names: every built device parses to
    its own position fields, and the rewrite moves pods and blocks."""

    @pytest.mark.parametrize("shape", sorted(NAMING_SHAPES))
    def test_every_device_parses_to_its_fields(self, shape):
        for device in _devices(shape):
            parsed = parse_device(device.name)
            assert parsed == _position(device), device.name
            assert _rebuild(parsed) == device.name

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(sorted(NAMING_SHAPES)),
           pods=st.lists(st.integers(0, 40), min_size=3, max_size=3),
           keep=st.lists(st.booleans(), min_size=3, max_size=3),
           blocks=st.lists(st.integers(0, 40), min_size=11,
                           max_size=11),
           with_blocks=st.booleans())
    def test_rename_maps_pod_and_block(self, shape, pods, keep, blocks,
                                       with_blocks):
        pod_map = {pod: new for pod, (new, kept)
                   in enumerate(zip(pods, keep)) if kept}
        block_map = dict(enumerate(blocks)) if with_blocks else None
        for device in _devices(shape):
            renamed = rename_device(device.name, pod_map, block_map)
            if device.pod not in pod_map:     # cores, unmapped pods
                assert renamed == device.name
                continue
            block = device.block
            if block is not None and block_map is not None:
                block = block_map[block]
            assert parse_device(renamed) == (
                device.kind, pod_map[device.pod], block, device.rail,
                device.group, device.rank)

    def test_rename_needs_every_named_block(self):
        with pytest.raises(KeyError):
            rename_device("p0.b3.h1", {0: 0}, {0: 0})
        assert rename_device("p0.r1.g0.a2.agg", {0: 5}, {}) \
            == "p5.r1.g0.a2.agg"

    @pytest.mark.parametrize("name", [
        "p01.b0.h0", "p0.b00.h0", "p-1.b0.h0", "p+1.b0.h0", "p 1.b0.h0",
        "p1_0.b0.h0", "p0.b0.h0.gpu1", "p0.b0.h0.nic0", "p0.b0",
        "p0.b0.r0.g0.agg", "p0.r0.g0.a0.tor", "c0.core", "cg0.c0",
        "link:12", "job0", "", "p٣.b0.h0", "P0.B0.H0"])
    def test_only_builder_output_parses(self, name):
        assert parse_device(name) is None

    @settings(max_examples=200, deadline=None)
    @given(name=st.one_of(
        st.from_regex(r"(p|cg)[0-9]{1,3}(\.[abcghr][0-9]{1,3}){1,3}"
                      r"(\.(tor|agg|core))?", fullmatch=True),
        st.text(alphabet="pbhrgacore.0123456789", max_size=24)))
    def test_parse_accepts_exactly_the_builders_names(self, name):
        parsed = parse_device(name)
        assert parsed is None or _rebuild(parsed) == name
