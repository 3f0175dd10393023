"""Flow-level fabric simulator.

Models the Astral fabric at flow granularity: every flow is pinned to a
hop-by-hop ECMP path (per-flow ECMP, Appendix A), link bandwidth is
shared max-min fairly among the flows crossing it, and transfers are
completed with a fluid progressive-filling loop.  This is the level of
detail the paper's own Seer operates at — packet-level behaviour enters
only through calibration — and it is sufficient to reproduce the
architecture studies (Figure 2, 17, 19): hash collisions and
oversubscription determine which links bottleneck, and max-min sharing
determines by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..simcore import SimulationError
from ..topology.elements import Topology
from .flows import Flow, FlowPath
from .routing import EcmpRouter
from .solver import solve_incidence

__all__ = ["DONE_BITS", "Fabric", "FabricRun", "LinkDir", "LinkLoad"]

#: A directed traversal of a link: (link_id, forward) where forward means
#: the flow enters at endpoint ``a`` and exits at endpoint ``b``.
LinkDir = Tuple[int, bool]

#: A flow is complete once its residue drops below this many bits.
#: Shared by the event-driven engine and the batch loop: both integrate
#: in floats, so exact zero is unreachable, and using one threshold is a
#: precondition for their finish times being bit-identical.
DONE_BITS = 1e-6


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
    """Flow-level simulator over a :class:`Topology`."""

    def __init__(self, topology: Topology,
                 router: Optional[EcmpRouter] = None,
                 host_line_rate_gbps: float = 200.0,
                 solver: Optional[str] = None):
        self.topology = topology
        self.router = router or EcmpRouter(topology)
        #: per-port NIC line rate; flows never exceed this at the source.
        self.host_line_rate_gbps = host_line_rate_gbps
        #: max-min solver backend: "python", "vector", "auto", or None
        #: to follow the process default at each solve (so a scoped
        #: ``use_backend`` override applies to already-built fabrics).
        self.solver = solver
        #: directed-hop memo per flow id: (topology version, link ids,
        #: hops).  Invalidated when the topology is rewired or the flow
        #: is re-hashed onto a different path.
        self._hops_cache: Dict[
            int, Tuple[int, Tuple[int, ...], List[LinkDir]]] = {}
        self.hops_cache_hits = 0
        self.hops_cache_misses = 0

    # -- path resolution -----------------------------------------------------
    def resolve_paths(self, flows: Iterable[Flow]) -> Dict[int, FlowPath]:
        return {flow.flow_id: self.router.path(flow) for flow in flows}

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
        into one CSR problem for the fill kernel selected by
        ``self.solver`` (both kernels return bit-identical rates).
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
                                self.host_line_rate_gbps, stats,
                                backend=self.solver)
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
        classic epoch-global fluid loop (kept as
        :meth:`complete_batch`) exactly — same epochs and
        bit-identical finish times, a property the validation harness
        (``repro.validation.differential``) asserts on fuzzed
        scenarios — while sharing one code path with the timed
        simulator.

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
        sized = [flow for flow in flows if flow.size_bits > 0]
        # Record peak loads for the congestion monitor (first epoch is
        # the most loaded: every flow still active).
        link_loads = self._loads_for(sized, paths)
        capacity_factors = None
        if pfc_spreading:
            from .congestion import CongestionModel
            capacity_factors = CongestionModel().pfc_capacity_factors(
                link_loads, self.topology)

        engine = FabricEngine(self, capacity_factors=capacity_factors)
        for flow in flows:
            engine.submit(flow, path=paths.get(flow.flow_id),
                          start_time_s=0.0)
        run = engine.run()
        return FabricRun(
            total_time_s=run.total_time_s,
            finish_times_s=run.finish_times_s,
            paths=paths,
            link_loads=link_loads,
        )

    def complete_batch(self, flows: List[Flow],
                       paths: Optional[Dict[int, FlowPath]] = None,
                       pfc_spreading: bool = False,
                       stats=None) -> FabricRun:
        """Epoch-global fluid loop: re-run max-min whenever a flow
        finishes.

        Reference implementation the event-driven engine is verified
        against (``tests/test_fabric_engine.py`` and the
        ``repro.validation`` differential oracles); *stats* counts its
        solver work for the incremental-vs-global benchmark.

        Integration uses the same absolute-deadline arithmetic as the
        engine: each flow's finish deadline ``fl(now + rem / rate)`` is
        computed once when its rate changes and only re-aimed on rate
        changes, never re-split per epoch.  Accumulating relative steps
        (``now += step``; ``rem -= rate * step``) instead drifts the
        finish times by 1-2 ulp from the engine's — float addition is
        not associative — which is exactly the epoch-tolerance bug the
        validation oracles surfaced.
        """
        if paths is None:
            paths = self.resolve_paths(flows)
        remaining_bits = {flow.flow_id: float(flow.size_bits)
                          for flow in flows}
        finish: Dict[int, float] = {}
        active = {flow.flow_id: flow for flow in flows
                  if flow.size_bits > 0}
        for flow in flows:
            if flow.size_bits <= 0:
                finish[flow.flow_id] = 0.0
        now = 0.0

        link_loads = self._loads_for(list(active.values()), paths)
        capacity_factors = None
        if pfc_spreading:
            from .congestion import CongestionModel
            capacity_factors = CongestionModel().pfc_capacity_factors(
                link_loads, self.topology)

        deadlines: Dict[int, float] = {}
        prev_rates: Dict[int, float] = {}
        stalls = 0
        while active:
            rates = self.max_min_rates(
                list(active.values()),
                {fid: paths[fid] for fid in active},
                capacity_factors=capacity_factors,
                stats=stats)
            if not any(rates[fid] > 0 for fid in active):
                starved = sorted(active)
                raise SimulationError(
                    "fluid completion starved: every active flow has "
                    f"rate 0 (flows {starved}); a capacity factor or "
                    "link failure zeroed every path")
            for fid in active:
                rate = rates[fid]
                if rate > 0 and rate != prev_rates.get(fid):
                    deadlines[fid] = now + \
                        remaining_bits[fid] / (rate * 1e9)
            prev_rates = dict(rates)
            t_next = min(deadlines[fid] for fid in active
                         if rates[fid] > 0)
            elapsed = t_next - now
            now = t_next
            done = []
            for fid in list(active):
                if rates[fid] > 0:
                    remaining_bits[fid] -= rates[fid] * 1e9 * elapsed
                if remaining_bits[fid] <= DONE_BITS:
                    finish[fid] = now
                    done.append(fid)
            for fid in done:
                del active[fid]
                deadlines.pop(fid, None)
                prev_rates.pop(fid, None)
            if done:
                stalls = 0
                continue
            # Advancing to the earliest deadline completed nothing:
            # subtracting rate*elapsed rounded the residue one ulp
            # above the done threshold.  Re-aim the expired deadlines
            # from the surviving residue; when the residual delay is
            # below the clock resolution (now + delay == now) the flow
            # completes here.  Repeated stalls indicate a real wedge.
            stalls += 1
            if stalls >= 8:
                raise RuntimeError(
                    "fluid completion made no progress")
            for fid in list(active):
                if rates[fid] > 0 and deadlines[fid] <= now:
                    delay = remaining_bits[fid] / (rates[fid] * 1e9)
                    if now + delay == now:
                        finish[fid] = now
                        del active[fid]
                        deadlines.pop(fid, None)
                        prev_rates.pop(fid, None)
                    else:
                        deadlines[fid] = now + delay

        return FabricRun(
            total_time_s=now,
            finish_times_s=finish,
            paths=paths,
            link_loads=link_loads,
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
