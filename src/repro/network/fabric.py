"""Flow-level fabric simulator.

Models the Astral fabric at flow granularity: every flow is pinned to a
hop-by-hop ECMP path (per-flow ECMP, Appendix A), link bandwidth is
shared max-min fairly among the flows crossing it, and transfers are
completed by the event-driven fluid engine.  This is the level of
detail the paper's own Seer operates at — packet-level behaviour enters
only through calibration — and it is sufficient to reproduce the
architecture studies (Figure 2, 17, 19): hash collisions and
oversubscription determine which links bottleneck, and max-min sharing
determines by how much.

A :class:`Fabric` resolves paths and directed hops, both memoized per
flow id (:meth:`Fabric.path`, :meth:`Fabric.directed_hops`), accounts
offered link loads, solves one max-min allocation
(:meth:`Fabric.max_min_rates`) and completes a flow set through the
engine (:meth:`Fabric.complete`).  It holds no integrator of its own:
the epoch-global batch loop the engine is checked against lives in
:mod:`repro.validation.differential`.

A fabric holds no solver setting: :meth:`Fabric.max_min_rates` runs the
fill kernel of the :func:`~repro.network.solver.use_backend` scope it is
called in, and each :class:`~repro.network.engine.FabricEngine` over it
keeps the kernel of the scope it was built in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..topology.elements import Topology
from .flows import Flow, FlowPath
from .routing import EcmpRouter
from .solver import solve_incidence

__all__ = ["Fabric", "FabricRun", "LinkDir", "LinkLoad"]

#: A directed traversal of a link: (link_id, forward) where forward means
#: the flow enters at endpoint ``a`` and exits at endpoint ``b``.
LinkDir = Tuple[int, bool]


@dataclass
class LinkLoad:
    """Aggregate load on one link direction."""

    link_dir: LinkDir
    capacity_gbps: float
    flow_ids: List[int] = field(default_factory=list)
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0

    @property
    def utilization(self) -> float:
        return self.offered_gbps / self.capacity_gbps \
            if self.capacity_gbps > 0 else float("inf")


@dataclass
class FabricRun:
    """Result of completing a set of flows on the fabric."""

    total_time_s: float
    finish_times_s: Dict[int, float]
    paths: Dict[int, FlowPath]
    link_loads: Dict[LinkDir, LinkLoad]

    def throughput_gbps(self, total_bits: float) -> float:
        """Aggregate goodput of the whole transfer set."""
        if self.total_time_s <= 0:
            return float("inf")
        return total_bits / self.total_time_s / 1e9

    def max_link_utilization(self) -> float:
        if not self.link_loads:
            return 0.0
        return max(load.utilization for load in self.link_loads.values())


class Fabric:
    """Flow-level simulator over a :class:`Topology`, one per
    simulation: its engines and jobs ask :meth:`path` for every path,
    so each flow is walked once per topology version."""

    def __init__(self, topology: Topology,
                 router: Optional[EcmpRouter] = None,
                 host_line_rate_gbps: float = 200.0):
        self.topology = topology
        self.router = router or EcmpRouter(topology)
        #: per-port NIC line rate; flows never exceed this at the source.
        self.host_line_rate_gbps = host_line_rate_gbps
        #: path memo per flow id: ((topology version, src host, dst
        #: host, rail, dst rail, five-tuple), path).  Invalidated when
        #: the topology changes or the flow's routing inputs do (a
        #: re-hashed source port, a reused flow id).
        self._path_cache: Dict[int, Tuple[tuple, FlowPath]] = {}
        #: directed-hop memo per flow id: (topology version, link ids,
        #: hops).  Invalidated when the topology is rewired or the flow
        #: is re-hashed onto a different path.
        self._hops_cache: Dict[
            int, Tuple[int, Tuple[int, ...], List[LinkDir]]] = {}
        self.hops_cache_hits = 0
        self.hops_cache_misses = 0

    # -- path resolution -----------------------------------------------------
    def path(self, flow: Flow) -> FlowPath:
        """The flow's path on the topology as it is now, memoized per
        flow id.

        A QP's five-tuple, and so its ECMP walk, stays fixed until the
        fabric changes, so the walk is redone only when the topology
        version or one of the flow's routing inputs (hosts, rails,
        five-tuple) differs from the memoized one.  A
        :class:`~repro.network.routing.RoutingError` is never memoized.
        The memo lives on the fabric, not on the router, which may
        outlive many fabrics.
        """
        key = (self.topology.version, flow.src_host, flow.dst_host,
               flow.rail, flow.dst_rail, flow.five_tuple)
        cached = self._path_cache.get(flow.flow_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        path = self.router.path(flow)
        self._path_cache[flow.flow_id] = (key, path)
        return path

    def resolve_paths(self, flows: Iterable[Flow]) -> Dict[int, FlowPath]:
        return {flow.flow_id: self.path(flow) for flow in flows}

    def directed_hops(self, path: FlowPath) -> List[LinkDir]:
        """Directed traversal of *path*, memoized per flow id.

        The hop list used to be recomputed from the topology for every
        flow on every fluid epoch; it only changes when the topology is
        rewired (version bump) or the flow is reassigned (different
        link ids), so it is cached against both.
        """
        version = self.topology.version
        link_ids = tuple(path.link_ids)
        cached = self._hops_cache.get(path.flow_id)
        if cached is not None and cached[0] == version \
                and cached[1] == link_ids:
            self.hops_cache_hits += 1
            return cached[2]
        self.hops_cache_misses += 1
        hops: List[LinkDir] = []
        for device, link_id in zip(path.devices, path.link_ids):
            link = self.topology.links[link_id]
            hops.append((link_id, link.a.device == device))
        self._hops_cache[path.flow_id] = (version, link_ids, hops)
        return hops

    # -- bandwidth allocation --------------------------------------------------
    def max_min_rates(self, flows: List[Flow],
                      paths: Optional[Dict[int, FlowPath]] = None,
                      capacity_factors: Optional[Dict[LinkDir, float]]
                      = None, stats=None) -> Dict[int, float]:
        """Max-min fair rate (Gbps) per flow; also sets ``flow.rate_gbps``.

        Progressive filling: repeatedly find the tightest link (smallest
        fair share for its unfrozen flows), freeze its flows at that
        share, remove the consumed capacity, and continue.  The loop
        itself lives in :mod:`repro.network.solver`; this adapter
        gathers the flows' hops and link capacities, and
        :func:`~repro.network.solver.solve_incidence` compiles them
        into one CSR problem for the fill kernel of the current
        :func:`~repro.network.solver.use_backend` scope (both kernels
        return bit-identical rates).
        ``capacity_factors`` scales individual directed links
        (e.g. PFC backpressure shrinking a hop's effective capacity).
        *stats*, a :class:`~repro.network.solver.SolverStats`, counts
        the per-link work for comparison against the incremental
        engine.
        """
        if paths is None:
            paths = self.resolve_paths(flows)
        flow_by_id = {flow.flow_id: flow for flow in flows}
        hops_of: Dict[int, List[LinkDir]] = {
            fid: self.directed_hops(path) for fid, path in paths.items()
        }

        remaining: Dict[LinkDir, float] = {}
        for hops in hops_of.values():
            for hop in hops:
                if hop not in remaining:
                    link = self.topology.links[hop[0]]
                    factor = 1.0
                    if capacity_factors is not None:
                        factor = capacity_factors.get(hop, 1.0)
                    remaining[hop] = link.capacity_gbps * factor
        if stats is not None:
            stats.solves += 1
            stats.flows_resolved += len(flow_by_id)
            # Memberships materialized + capacities loaded — the same
            # ruler the engine path uses (see repro.network.solver).
            stats.link_visits += sum(
                len(hops) for hops in hops_of.values())
            stats.link_visits += len(remaining)

        # Source line-rate cap is modelled as a virtual per-flow link.
        rates = solve_incidence(hops_of, remaining,
                                self.host_line_rate_gbps, stats)
        for fid, rate in rates.items():
            flow_by_id[fid].rate_gbps = rate
        return rates

    # -- completion ------------------------------------------------------------
    def complete(self, flows: List[Flow],
                 paths: Optional[Dict[int, FlowPath]] = None,
                 pfc_spreading: bool = False) -> FabricRun:
        """Fluid completion of *flows*, all starting at t=0.

        Thin batch wrapper over the event-driven
        :class:`~repro.network.engine.FabricEngine`: every flow is
        submitted at time zero onto a private simulator and run to
        completion.  For simultaneous starts this reproduces the
        classic epoch-global fluid loop exactly — same epochs and
        bit-identical finish times, a property the validation harness
        asserts on fuzzed scenarios against its batch oracle
        (``repro.validation.differential.complete_batch``) — while
        sharing one code path with the timed simulator.

        With ``pfc_spreading``, PFC backpressure multipliers (computed
        from the initial offered loads) shrink effective link
        capacities — the lossless-fabric congestion-spreading effect.
        """
        from .engine import FabricEngine

        # The legacy loop keyed everything by flow id, so duplicate ids
        # collapsed (last wins); preserve that for the batch API.
        flows = list({flow.flow_id: flow for flow in flows}.values())
        if paths is None:
            paths = self.resolve_paths(flows)
        capacity_factors = None
        if pfc_spreading:
            from .congestion import CongestionModel
            capacity_factors = CongestionModel().pfc_capacity_factors(
                self._loads_for([flow for flow in flows
                                 if flow.size_bits > 0], paths),
                self.topology)

        engine = FabricEngine(self, capacity_factors=capacity_factors)
        engine.submit_many(flows, paths=paths, start_time_s=0.0)
        run = engine.run()
        # The engine's offered loads are those of every sized flow on
        # its given path: the peak, first-epoch loads the congestion
        # monitor reads (every flow is still active then).
        return FabricRun(
            total_time_s=run.total_time_s,
            finish_times_s=run.finish_times_s,
            paths=paths,
            link_loads=run.link_loads,
        )

    # -- load accounting ---------------------------------------------------------
    def _loads_for(self, flows: List[Flow],
                   paths: Dict[int, FlowPath]) -> Dict[LinkDir, LinkLoad]:
        loads: Dict[LinkDir, LinkLoad] = {}
        for flow in flows:
            # Offered load is the *unthrottled* demand (the NIC line
            # rate): congestion-controlled senders keep pressure on a
            # bottleneck, so its queue and ECN/PFC signals persist even
            # though the carried rate is capped — the behaviour the
            # monitoring system observes in Figure 9.
            demand = self.host_line_rate_gbps
            for hop in self.directed_hops(paths[flow.flow_id]):
                load = loads.get(hop)
                if load is None:
                    link = self.topology.links[hop[0]]
                    load = LinkLoad(link_dir=hop,
                                    capacity_gbps=link.capacity_gbps)
                    loads[hop] = load
                load.flow_ids.append(flow.flow_id)
                load.offered_gbps += demand
        for load in loads.values():
            load.carried_gbps = min(load.offered_gbps, load.capacity_gbps)
        return loads

    def offered_loads(self, flows: List[Flow],
                      paths: Optional[Dict[int, FlowPath]] = None
                      ) -> Dict[LinkDir, LinkLoad]:
        """Offered (pre-allocation) load per link direction."""
        if paths is None:
            paths = self.resolve_paths(flows)
        return self._loads_for(flows, paths)
