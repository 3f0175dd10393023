"""Scale check — a multi-thousand-GPU pod is buildable and routable.

The paper's headline is scale (64K GPUs per pod, 512K per cluster).
The builders are exercised here at a 4096-GPU single-pod configuration
(the same construction, two orders of magnitude below paper scale but
two above the unit-test fixtures) to show the graph model, routing, and
fabric allocation stay fast and structurally correct as dimensions
grow.
"""

import pytest

from repro.core import GpuAllocator, PlacementPolicy
from repro.network import (Fabric, all_to_all_flows, reset_flow_ids,
                           run_collective)
from repro.topology import AstralParams, DeviceKind, build_astral

#: 1 pod x 16 blocks x 32 hosts x 8 GPUs = 4096 GPUs.
SCALE_PARAMS = AstralParams(
    pods=1, blocks_per_pod=16, hosts_per_block=32, gpus_per_host=8,
    aggs_per_group=16, cores_per_group=16)


@pytest.fixture(scope="module")
def topo():
    return build_astral(SCALE_PARAMS)


def test_scale_build(benchmark, series_printer):
    built = benchmark.pedantic(build_astral, args=(SCALE_PARAMS,),
                               rounds=1, iterations=1)
    series_printer(
        "Scale: 4096-GPU pod construction",
        [("GPUs", built.gpu_count()),
         ("hosts", len(built.hosts())),
         ("ToR switches", len(built.switches(DeviceKind.TOR))),
         ("Agg switches", len(built.switches(DeviceKind.AGG))),
         ("Core switches", len(built.switches(DeviceKind.CORE))),
         ("links", len(built.links))],
        ["element", "count"])
    assert built.gpu_count() == 4096
    # P2 holds at this scale too.
    assert built.oversubscription(DeviceKind.TOR) == pytest.approx(1.0)
    assert built.oversubscription(DeviceKind.AGG) == pytest.approx(1.0)


def test_scale_collective(benchmark, topo, series_printer):
    """A 64-host same-rail all-to-all routes and completes quickly."""
    def run():
        reset_flow_ids()
        fabric = Fabric(topo)
        endpoints = GpuAllocator(topo).allocate(
            "big", 64, PlacementPolicy.FRAGMENTED).endpoints(rail=0)
        return fabric, endpoints, run_collective(fabric, endpoints, 64e9,
                                                 "all_to_all")

    fabric, endpoints, result = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    series_printer(
        "Scale: 64-host all-to-all on the 4096-GPU pod",
        [("flows", 64 * 63),
         ("network time (s)", result.network_time_s),
         ("algo bandwidth (Gbps)", result.algo_bandwidth_gbps)],
        ["metric", "value"])
    assert result.network_time_s > 0
    # The same flows again (same ids), loaded onto the paths they took.
    reset_flow_ids()
    flows = all_to_all_flows(endpoints, 64e9)
    assert set(result.run.paths) == {flow.flow_id for flow in flows}
    loads = fabric.offered_loads(flows, result.run.paths)
    assert max(load.utilization for load in loads.values()) > 0
