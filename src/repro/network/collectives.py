"""Collective-communication traffic models.

NCCL-style collectives are mapped onto sets of concurrent flows, which
the fabric simulator then completes under max-min sharing.  This is the
granularity the paper's own analysis operates at: Figure 2 compares
all-to-all throughput under different placements/architectures; the
Seer communication operators (AllReduce from DP, Send/Recv from PP,
All-to-All from EP) are backed by the same traffic shapes.

PXN (NVLink-optimized rail transfer, [2, 46]) is modelled explicitly:
with PXN enabled, data destined to rail ``r`` of a remote host is first
staged over the intra-host interconnect to the local rail-``r`` GPU and
leaves through the rail-``r`` NIC, so *all inter-host traffic becomes
same-rail*.  Without PXN, flows cross rails and (on Astral) must climb
to the Core tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fabric import Fabric, FabricRun
from .flows import Flow, make_flow

__all__ = [
    "Endpoint",
    "CollectiveConfig",
    "CollectiveResult",
    "TimedCollectiveResult",
    "repair_ring",
    "ring_allreduce_flows",
    "reduce_scatter_flows",
    "all_gather_flows",
    "all_to_all_flows",
    "send_recv_flows",
    "send_recv_chain",
    "collective_schedule",
    "run_collective",
    "run_collective_timed",
]


@dataclass(frozen=True)
class Endpoint:
    """One participating GPU, identified by host and rail (= GPU rank)."""

    host: str
    rail: int


@dataclass(frozen=True)
class CollectiveConfig:
    """Knobs shared by the collective generators."""

    pxn: bool = True
    #: intra-host interconnect per-GPU bandwidth, Gbps (NVLink-class:
    #: 400-900 GBps bidirectional per the paper => 3200+ Gbps each way).
    nvlink_gbps: float = 3200.0
    job: str = "job0"


@dataclass
class CollectiveResult:
    """Timing of one collective on the fabric."""

    name: str
    size_bits: float
    network_time_s: float
    intra_host_time_s: float
    run: Optional[FabricRun]
    n_endpoints: int

    @property
    def total_time_s(self) -> float:
        # Intra-host staging overlaps poorly with the network phase for
        # the same data, so the conservative model sums them.
        return self.network_time_s + self.intra_host_time_s

    @property
    def algo_bandwidth_gbps(self) -> float:
        """Algorithm bandwidth: collective size / completion time."""
        if self.total_time_s <= 0:
            return float("inf")
        return self.size_bits / self.total_time_s / 1e9


def _inter_host_pairs(endpoints: Sequence[Endpoint]
                      ) -> List[Tuple[Endpoint, Endpoint]]:
    return [
        (src, dst)
        for src in endpoints for dst in endpoints
        if src != dst
    ]


def topology_ordered(endpoints: Sequence[Endpoint],
                     topology) -> List[Endpoint]:
    """Order endpoints for topology-aware rings (NCCL ring ordering).

    Sorting by (pod, block, host rank, rail) keeps ring neighbours
    physically adjacent, so most ring legs ride single-ToR (1-switch)
    paths and only block/pod boundaries climb higher — the placement
    property Astral's packed allocation exists to provide.  Endpoints
    whose host is unknown to the topology sort last, by name.
    """
    def key(endpoint: Endpoint):
        device = topology.devices.get(endpoint.host)
        if device is None:
            return (1, 0, 0, 0, endpoint.host, endpoint.rail)
        return (0, device.pod or 0, device.block or 0,
                device.rank or 0, endpoint.host, endpoint.rail)

    return sorted(endpoints, key=key)


def repair_ring(endpoints: Sequence[Endpoint],
                dead_hosts: Sequence[str]) -> List[Endpoint]:
    """Splice dead members out of a ring, preserving survivor order.

    NCCL-style ring repair: when a member dies mid-collective its two
    neighbours connect directly, so the collective degrades (fewer
    shards, smaller aggregate bandwidth) instead of wedging.  Order is
    preserved, so the surviving ring keeps the topology-aware adjacency
    the original ordering provided.
    """
    dead = set(dead_hosts)
    return [ep for ep in endpoints if ep.host not in dead]


def ring_allreduce_flows(endpoints: Sequence[Endpoint], size_bits: float,
                         config: CollectiveConfig | None = None
                         ) -> List[Flow]:
    """Ring AllReduce: each rank ships ``2(n-1)/n * size`` to its neighbor.

    The ring is ordered as given; NCCL orders rings to keep neighbours
    topologically close, so callers should pass endpoints in placement
    order (the job-placement helpers do).
    """
    config = config or CollectiveConfig()
    n = len(endpoints)
    if n < 2:
        return []
    per_neighbor_bits = 2.0 * (n - 1) / n * size_bits
    flows = []
    for index, src in enumerate(endpoints):
        dst = endpoints[(index + 1) % n]
        if src.host == dst.host:
            continue  # NVLink leg, no fabric flow
        rail = dst.rail if config.pxn else src.rail
        flows.append(make_flow(
            src.host, dst.host, rail, per_neighbor_bits,
            dst_rail=dst.rail, job=config.job, collective="allreduce"))
    return flows


def reduce_scatter_flows(endpoints: Sequence[Endpoint], size_bits: float,
                         config: CollectiveConfig | None = None
                         ) -> List[Flow]:
    """Ring ReduceScatter: ``(n-1)/n * size`` per neighbor link."""
    config = config or CollectiveConfig()
    n = len(endpoints)
    if n < 2:
        return []
    per_neighbor_bits = (n - 1) / n * size_bits
    flows = []
    for index, src in enumerate(endpoints):
        dst = endpoints[(index + 1) % n]
        if src.host == dst.host:
            continue
        rail = dst.rail if config.pxn else src.rail
        flows.append(make_flow(
            src.host, dst.host, rail, per_neighbor_bits,
            dst_rail=dst.rail, job=config.job,
            collective="reduce_scatter"))
    return flows


def all_gather_flows(endpoints: Sequence[Endpoint], size_bits: float,
                     config: CollectiveConfig | None = None) -> List[Flow]:
    """Ring AllGather has the same traffic shape as ReduceScatter."""
    flows = reduce_scatter_flows(endpoints, size_bits, config)
    for flow in flows:
        flow.collective = "all_gather"
    return flows


def all_to_all_flows(endpoints: Sequence[Endpoint], size_bits: float,
                     config: CollectiveConfig | None = None) -> List[Flow]:
    """All-to-All: every pair exchanges ``size / n`` bits.

    With PXN the flow for (src -> dst) leaves the source host through the
    NIC on the *destination's* rail, so it stays same-rail end to end.
    """
    config = config or CollectiveConfig()
    n = len(endpoints)
    if n < 2:
        return []
    per_pair_bits = size_bits / n
    flows = []
    for src, dst in _inter_host_pairs(endpoints):
        if src.host == dst.host:
            continue
        rail = dst.rail if config.pxn else src.rail
        flows.append(make_flow(
            src.host, dst.host, rail, per_pair_bits,
            dst_rail=dst.rail, job=config.job, collective="all_to_all"))
    return flows


def send_recv_flows(pairs: Sequence[Tuple[Endpoint, Endpoint]],
                    size_bits: float,
                    config: CollectiveConfig | None = None) -> List[Flow]:
    """Point-to-point Send/Recv legs (pipeline parallelism)."""
    config = config or CollectiveConfig()
    flows = []
    for src, dst in pairs:
        if src.host == dst.host:
            continue
        rail = dst.rail if config.pxn else src.rail
        flows.append(make_flow(
            src.host, dst.host, rail, size_bits,
            dst_rail=dst.rail, job=config.job, collective="send_recv"))
    return flows


def send_recv_chain(stages: Sequence[Tuple[Endpoint, Endpoint]],
                    size_bits: float,
                    config: CollectiveConfig | None = None
                    ) -> List[List[Flow]]:
    """Pipeline-parallel chain: each stage's Send must finish before the
    next stage can forward — one single-flow wave per hop."""
    config = config or CollectiveConfig()
    waves: List[List[Flow]] = []
    for pair in stages:
        waves.append(send_recv_flows([pair], size_bits, config))
    return [wave for wave in waves if wave]


def collective_schedule(endpoints: Sequence[Endpoint], size_bits: float,
                        collective: str = "all_to_all",
                        config: CollectiveConfig | None = None
                        ) -> List[List[Flow]]:
    """Dependency-aware schedule: the collective as sequenced flow waves.

    Each wave is a list of flows that may run concurrently; wave *k+1*
    must not start before wave *k* has completed (the ring step
    dependency NCCL enforces).  Ring collectives decompose into their
    per-step shard exchanges — ``n-1`` waves of ``size/n`` per neighbor
    for ReduceScatter/AllGather, ``2(n-1)`` for AllReduce — while
    All-to-All stays a single flat wave (no inter-step dependency).
    The per-neighbor bits summed over waves equal the flat generators',
    so batch totals are preserved; only the temporal structure differs.
    """
    config = config or CollectiveConfig()
    n = len(endpoints)
    if n < 2:
        return []
    if collective == "all_to_all":
        return [all_to_all_flows(endpoints, size_bits, config)]
    if collective not in ("allreduce", "reduce_scatter", "all_gather"):
        raise ValueError(f"unknown collective: {collective}")
    steps = 2 * (n - 1) if collective == "allreduce" else n - 1
    # One ring step ships size/n per neighbor; reuse the ring generator
    # with the size that makes its per-neighbor payload exactly that.
    step_size = size_bits / (n - 1)
    waves = []
    for _step in range(steps):
        wave = reduce_scatter_flows(endpoints, step_size, config)
        for flow in wave:
            flow.collective = collective
        waves.append(wave)
    return [wave for wave in waves if wave]


def _intra_host_bits(endpoints: Sequence[Endpoint], size_bits: float,
                     collective: str, config: CollectiveConfig) -> float:
    """Bits staged over NVLink per GPU (PXN forwarding + local legs)."""
    n = len(endpoints)
    if n < 2 or not config.pxn:
        return 0.0
    if collective == "all_to_all":
        # Each GPU forwards the shards whose destination rail differs
        # from its own: (n-1)/n of its data in the worst case.
        return size_bits * (n - 1) / n
    # Ring collectives choose rings that keep PXN staging minimal; model
    # a single staging pass of the per-neighbor payload.
    return 0.0


def run_collective(fabric: Fabric, endpoints: Sequence[Endpoint],
                   size_bits: float, collective: str = "all_to_all",
                   config: CollectiveConfig | None = None
                   ) -> CollectiveResult:
    """Generate, route, and complete one collective on the fabric as
    one flat flow set; :func:`run_collective_timed` runs its
    dependency-aware wave schedule on an engine's clock instead."""
    config = config or CollectiveConfig()
    generators = {
        "allreduce": ring_allreduce_flows,
        "reduce_scatter": reduce_scatter_flows,
        "all_gather": all_gather_flows,
        "all_to_all": all_to_all_flows,
    }
    if collective not in generators:
        raise ValueError(f"unknown collective: {collective}")
    flows = generators[collective](endpoints, size_bits, config)
    if not flows:
        return CollectiveResult(
            name=collective, size_bits=size_bits, network_time_s=0.0,
            intra_host_time_s=0.0, run=None, n_endpoints=len(endpoints))
    run = fabric.complete(flows)
    staged_bits = _intra_host_bits(endpoints, size_bits, collective,
                                   config)
    intra_time = staged_bits / (config.nvlink_gbps * 1e9) \
        if staged_bits else 0.0
    return CollectiveResult(
        name=collective,
        size_bits=size_bits,
        network_time_s=run.total_time_s,
        intra_host_time_s=intra_time,
        run=run,
        n_endpoints=len(endpoints),
    )


@dataclass
class TimedCollectiveResult:
    """Timing of one wave-scheduled collective on the shared clock."""

    name: str
    size_bits: float
    start_time_s: float
    network_time_s: float
    intra_host_time_s: float
    n_endpoints: int
    n_waves: int
    flow_ids: List[int]
    #: ring repairs performed mid-collective (members dropped because
    #: the ``alive`` predicate declared their host dead).
    repairs: int = 0

    @property
    def total_time_s(self) -> float:
        return self.network_time_s + self.intra_host_time_s


def run_collective_timed(engine, endpoints: Sequence[Endpoint],
                         size_bits: float,
                         collective: str = "all_to_all",
                         config: CollectiveConfig | None = None,
                         start_time_s: float = 0.0,
                         alive=None):
    """Run one collective as sequenced waves on a :class:`FabricEngine`.

    Returns a :class:`repro.simcore.Process` whose value is a
    :class:`TimedCollectiveResult`; wave *k+1* is submitted only once
    every flow of wave *k* has completed, so ring steps serialize the
    way NCCL's do while other tenants' flows contend in between.

    ``alive`` (optional ``host -> bool`` predicate) enables graceful
    degradation: at every wave boundary members whose host died are
    spliced out (:func:`repair_ring`) and the *remaining* payload is
    re-scheduled over the survivor ring — a bandwidth-reduced wave
    schedule instead of a wedged collective.  The collective aborts
    (result records the waves that did run) if fewer than two members
    survive.
    """
    config = config or CollectiveConfig()
    sim = engine.sim

    def _proc():
        if start_time_s > sim.now:
            yield sim.timeout(start_time_s - sim.now)
        began = sim.now
        flow_ids: List[int] = []
        members = list(endpoints)
        waves = collective_schedule(members, size_bits, collective,
                                    config)
        total_waves = len(waves)
        index = 0
        repairs = 0
        while index < len(waves):
            if alive is not None:
                survivors = repair_ring(
                    members, [ep.host for ep in members
                              if not alive(ep.host)])
                if len(survivors) != len(members):
                    repairs += 1
                    remaining_frac = (len(waves) - index) \
                        / max(1, len(waves))
                    members = survivors
                    if len(members) < 2:
                        break
                    waves = collective_schedule(
                        members, size_bits * remaining_frac,
                        collective, config)
                    total_waves = index + len(waves)
                    index = 0
                    if not waves:
                        break
            wave = waves[index]
            index += 1
            flow_ids.extend(flow.flow_id for flow in wave)
            yield engine.submit_many(wave)
        staged_bits = _intra_host_bits(endpoints, size_bits, collective,
                                       config)
        intra_time = staged_bits / (config.nvlink_gbps * 1e9) \
            if staged_bits else 0.0
        return TimedCollectiveResult(
            name=collective,
            size_bits=size_bits,
            start_time_s=began,
            network_time_s=sim.now - began,
            intra_host_time_s=intra_time,
            n_endpoints=len(members),
            n_waves=total_waves,
            flow_ids=flow_ids,
            repairs=repairs,
        )

    return sim.process(_proc(), name=f"collective-{collective}")
