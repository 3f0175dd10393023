"""Tests for the flow-level fabric simulator (max-min sharing, fluid
completion) and the congestion observables built on it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    CongestionConfig,
    CongestionModel,
    Fabric,
    make_flow,
    reset_flow_ids,
)
from repro.network.fabric import LinkLoad
from repro.topology import AstralParams, build_astral


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@pytest.fixture(scope="module")
def topo():
    return build_astral(AstralParams.small())


@pytest.fixture()
def fabric(topo):
    return Fabric(topo)


def _host(pod, block, host):
    return f"p{pod}.b{block}.h{host}"


class TestMaxMinRates:
    def test_single_flow_gets_line_rate(self, fabric):
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        rates = fabric.max_min_rates([flow])
        assert rates[flow.flow_id] == pytest.approx(200.0)
        assert flow.rate_gbps == pytest.approx(200.0)

    def test_two_flows_sharing_one_port_split_evenly(self, fabric):
        # Same src/dst pair, same src port => same path; they share the
        # 200G host uplink max-min fairly.
        f1 = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                       size_bits=8e9, src_port=50000)
        f2 = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                       size_bits=8e9, src_port=50000)
        rates = fabric.max_min_rates([f1, f2])
        assert rates[f1.flow_id] == pytest.approx(100.0)
        assert rates[f2.flow_id] == pytest.approx(100.0)

    def test_disjoint_flows_both_get_line_rate(self, fabric):
        f1 = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                       size_bits=8e9)
        f2 = make_flow(_host(0, 0, 2), _host(0, 0, 3), rail=1,
                       size_bits=8e9)
        rates = fabric.max_min_rates([f1, f2])
        assert all(r == pytest.approx(200.0) for r in rates.values())

    def test_rates_never_exceed_line_rate(self, fabric):
        flows = [
            make_flow(_host(0, 0, i), _host(0, 1, i), rail=0,
                      size_bits=8e9)
            for i in range(4)
        ]
        rates = fabric.max_min_rates(flows)
        assert all(r <= 200.0 + 1e-9 for r in rates.values())

    @given(n_flows=st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_no_link_oversubscribed_after_allocation(self, topo, n_flows):
        """Invariant: allocated rates never exceed any link capacity."""
        reset_flow_ids()
        fabric = Fabric(topo)
        flows = [
            make_flow(_host(0, 0, i % 8), _host(0, 1, (i * 3) % 8),
                      rail=i % 4, size_bits=8e9, src_port=50000 + i)
            for i in range(n_flows)
        ]
        paths = fabric.resolve_paths(flows)
        rates = fabric.max_min_rates(flows, paths)
        usage = {}
        for flow in flows:
            for hop in fabric.directed_hops(paths[flow.flow_id]):
                usage[hop] = usage.get(hop, 0.0) + rates[flow.flow_id]
        for (link_id, _), used in usage.items():
            assert used <= topo.links[link_id].capacity_gbps + 1e-6


class TestCompletion:
    def test_single_flow_completion_time(self, fabric):
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=200e9)  # 1 second at 200G
        run = fabric.complete([flow])
        assert run.total_time_s == pytest.approx(1.0)

    def test_zero_size_flow_finishes_immediately(self, fabric):
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=0)
        run = fabric.complete([flow])
        assert run.finish_times_s[flow.flow_id] == 0.0

    def test_shared_then_released_bandwidth(self, fabric):
        """A short flow finishes first; the long one then speeds up."""
        short = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                          size_bits=100e9, src_port=50000)
        long = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=300e9, src_port=50000)
        run = fabric.complete([short, long])
        # Sharing 200G: both at 100G. Short (100Gb) done at 1s. Long has
        # 200Gb left, now at 200G: +1s => 2s total.
        assert run.finish_times_s[short.flow_id] == pytest.approx(1.0)
        assert run.finish_times_s[long.flow_id] == pytest.approx(2.0)

    def test_throughput_helper(self, fabric):
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=200e9)
        run = fabric.complete([flow])
        assert run.throughput_gbps(200e9) == pytest.approx(200.0)

    def test_finish_times_monotone_with_size(self, fabric):
        flows = [
            make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                      size_bits=s, src_port=50000)
            for s in (50e9, 100e9, 150e9)
        ]
        run = fabric.complete(flows)
        times = [run.finish_times_s[f.flow_id] for f in flows]
        assert times == sorted(times)


class TestLinkLoads:
    def test_offered_loads_account_all_hops(self, fabric):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        paths = fabric.resolve_paths([flow])
        loads = fabric.offered_loads([flow], paths)
        assert len(loads) == paths[flow.flow_id].hops
        for load in loads.values():
            assert load.offered_gbps == pytest.approx(200.0)
            assert flow.flow_id in load.flow_ids

    def test_utilization_property(self):
        load = LinkLoad(link_dir=(0, True), capacity_gbps=400.0,
                        offered_gbps=600.0)
        assert load.utilization == pytest.approx(1.5)


class TestCongestionModel:
    def test_idle_link_base_latency(self):
        model = CongestionModel()
        load = LinkLoad(link_dir=(0, True), capacity_gbps=400.0,
                        offered_gbps=100.0, carried_gbps=100.0)
        state = model.evaluate(load)
        assert state.hop_latency_us == pytest.approx(0.6)
        assert state.ecn_marks_per_poll == 0.0
        assert state.pfc_pause_events == 0.0

    def test_overloaded_link_has_hundreds_of_us_latency(self):
        """Persistent overload pins the queue: ~320 us at 400G/16MB,
        the magnitude of the paper's INT heatmap (179/266 us)."""
        model = CongestionModel()
        load = LinkLoad(link_dir=(0, True), capacity_gbps=400.0,
                        offered_gbps=800.0, carried_gbps=400.0)
        state = model.evaluate(load)
        assert 100.0 < state.hop_latency_us < 1000.0
        assert state.ecn_marks_per_poll > 0
        assert state.pfc_pause_events > 0

    def test_queue_fill_monotone_in_utilization(self):
        model = CongestionModel()
        fills = [model.queue_fill(u) for u in (0.5, 0.8, 0.9, 1.0, 1.5)]
        assert fills == sorted(fills)
        assert fills[0] == 0.0
        assert fills[-1] == 1.0

    def test_ecn_before_pfc(self):
        """ECN marking must onset at lower load than PFC pausing."""
        model = CongestionModel()
        cfg = CongestionConfig()
        mid = LinkLoad(link_dir=(0, True), capacity_gbps=400.0,
                       offered_gbps=400.0 * (cfg.ecn_onset_util + 0.9) / 2,
                       carried_gbps=380.0)
        state = model.evaluate(mid)
        if state.ecn_marks_per_poll > 0:
            assert state.pfc_pause_events >= 0

    def test_total_ecn_marks_sums(self, fabric):
        flows = [
            make_flow(_host(0, 0, i), _host(0, 1, i), rail=0,
                      size_bits=8e9, src_port=50000)
            for i in range(8)
        ]
        loads = fabric.offered_loads(flows)
        model = CongestionModel()
        total = model.total_ecn_marks(loads)
        assert total >= 0.0
