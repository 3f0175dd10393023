"""Optimized ECMP: source-port balancing plus a centralized controller.

Reproduces the two-step scheme of §2.1 footnote 1:

* **Step 1** (sender-side, :meth:`EcmpController.balance_source_ports`):
  when a collective's flows are created, each source-destination pair
  picks UDP source ports so its flows spread evenly over the equal-cost
  paths, exploiting hash linearity — the sender simulates the switch
  hash and searches ports until the desired index comes out.
* **Step 2** (controller-side, :meth:`EcmpController.reassignment_round`):
  switches report ECN counters every five seconds; the controller runs a
  hash simulator *identical to the production switches'* (here: the very
  same :class:`~repro.network.ecmp.EcmpHasher`) to find new source ports
  for flows crossing congested links, taking effect on the next round of
  collective communication.  Figure 17 shows ECN counters decreasing and
  stabilizing over rounds; ``run()`` reproduces that series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .congestion import CongestionModel
from .fabric import Fabric, LinkDir
from .flows import Flow
from .routing import RoutingError

__all__ = ["EcmpController", "ReassignmentReport"]


@dataclass
class ReassignmentReport:
    """Outcome of one controller round."""

    round_index: int
    total_ecn_marks_before: float
    total_ecn_marks_after: float
    congested_links_before: int
    congested_links_after: int
    flows_moved: int
    #: simulated time of the round (0.0 for untimed batch rounds).
    at_time_s: float = 0.0

    @property
    def improved(self) -> bool:
        return self.total_ecn_marks_after < self.total_ecn_marks_before


class EcmpController:
    """Centralized load-balancing controller over a :class:`Fabric`."""

    def __init__(self, fabric: Fabric, port_candidates: int = 64):
        self.fabric = fabric
        self.router = fabric.router
        self.hasher = fabric.router.hasher
        self.congestion = CongestionModel()
        #: how many candidate source ports the hash simulator tries per
        #: congested flow before giving up on improving it.
        self.port_candidates = port_candidates

    # -- step 1: sender-side even spreading ---------------------------------
    def balance_source_ports(self, flows: List[Flow],
                             search_ports: int = 512) -> int:
        """Spread each src-dst pair's flows over distinct end-to-end paths.

        For every flow whose hash lands on a path already used by an
        earlier flow of the same pair, the sender simulates the switch
        hash over candidate source ports until a fresh path comes out
        (hash linearity makes this cheap in hardware; here we replay the
        very same hash).  Returns the number of flows whose source port
        changed.  The spreading is best-effort from the *pair's*
        perspective (as the paper notes): collisions between different
        pairs remain, which is exactly why step 2 exists.
        """
        pairs: Dict[tuple, List[Flow]] = {}
        for flow in flows:
            pairs.setdefault((flow.src_host, flow.dst_host, flow.rail),
                             []).append(flow)
        changed = 0
        for pair_flows in pairs.values():
            used_paths: set = set()
            for flow in pair_flows:
                current = tuple(self.router.path(flow).link_ids)
                if current not in used_paths:
                    used_paths.add(current)
                    continue
                adopted = None
                for offset in range(search_ports):
                    port = 49152 + (flow.five_tuple.src_port + offset + 1) \
                        % 16384
                    trial = flow.five_tuple.with_src_port(port)
                    original = flow.five_tuple
                    flow.five_tuple = trial
                    try:
                        candidate = tuple(self.router.path(flow).link_ids)
                    finally:
                        flow.five_tuple = original
                    if candidate not in used_paths:
                        adopted = (port, candidate)
                        break
                if adopted is None:
                    used_paths.add(current)  # no free path left
                    continue
                flow.five_tuple = flow.five_tuple.with_src_port(adopted[0])
                used_paths.add(adopted[1])
                changed += 1
        return changed

    # -- step 2: ECN-driven reassignment -------------------------------------
    def _congestion_snapshot(self, flows: List[Flow]
                             ) -> Dict[LinkDir, float]:
        loads = self.fabric.offered_loads(flows)
        states = self.congestion.evaluate_all(loads)
        return {key: state.ecn_marks_per_poll
                for key, state in states.items()}

    def reassignment_round(self, flows: List[Flow], round_index: int = 0
                           ) -> ReassignmentReport:
        """One polling round: move flows off ECN-marked links.

        A running offered-load map is kept incrementally: each candidate
        move is evaluated against the map with the flow's own
        contribution removed, and accepted moves update it in place —
        matching a controller that reasons over its global view rather
        than re-measuring the fabric per decision.
        """
        # Flows that lost every path (mid-campaign fault) are not the
        # controller's to fix: drop them from this round.
        routable = []
        paths = {}
        for flow in flows:
            try:
                paths[flow.flow_id] = self.router.path(flow)
            except RoutingError:
                continue
            routable.append(flow)
        flows = routable

        marks = self._congestion_snapshot(flows)
        ecn_before = sum(marks.values())
        congested_before = sum(1 for value in marks.values() if value > 0)
        # Every marked link is a candidate: fabric collisions, host
        # egress-port collisions, and dual-ToR ingress imbalance are all
        # re-hashable.  Truly unavoidable congestion (aggregate demand
        # above the endpoint's total capacity) simply yields no
        # improving move.
        congested_links = {key for key, value in marks.items()
                           if value > 0}
        demand = self.fabric.host_line_rate_gbps
        # offered gbps per directed link, maintained incrementally.
        offered: Dict[LinkDir, float] = {}
        for flow in flows:
            for hop in self.fabric.directed_hops(paths[flow.flow_id]):
                offered[hop] = offered.get(hop, 0.0) + demand

        def capacity(hop: LinkDir) -> float:
            return self.fabric.topology.links[hop[0]].capacity_gbps

        def cost_of(hops: List[LinkDir]) -> float:
            """Worst utilization along *hops*, this flow's demand
            included, summed with a small total-load tiebreak so moves
            that relieve several hops win over single-hop swaps."""
            worst = max(
                (offered.get(hop, 0.0) + demand) / capacity(hop)
                for hop in hops
            )
            total = sum(
                (offered.get(hop, 0.0) + demand) / capacity(hop)
                for hop in hops
            )
            return worst + 1e-3 * total

        moved = 0
        for flow in flows:
            current_hops = self.fabric.directed_hops(paths[flow.flow_id])
            if not set(current_hops) & congested_links:
                continue
            # Remove this flow's contribution while evaluating.
            for hop in current_hops:
                offered[hop] -= demand
            best_port = None
            best_hops = current_hops
            best_cost = cost_of(current_hops)
            base_port = flow.five_tuple.src_port
            for offset in range(1, self.port_candidates + 1):
                port = 49152 + (base_port + offset * 131) % 16384
                original = flow.five_tuple
                flow.five_tuple = original.with_src_port(port)
                try:
                    trial_hops = self.fabric.directed_hops(
                        self.router.path(flow))
                finally:
                    flow.five_tuple = original
                trial_cost = cost_of(trial_hops)
                if trial_cost < best_cost - 1e-9:
                    best_cost = trial_cost
                    best_port = port
                    best_hops = trial_hops
            if best_port is not None:
                flow.five_tuple = flow.five_tuple.with_src_port(best_port)
                paths[flow.flow_id] = self.router.path(flow)
                moved += 1
            for hop in best_hops:
                offered[hop] = offered.get(hop, 0.0) + demand

        marks_after = self._congestion_snapshot(flows)
        return ReassignmentReport(
            round_index=round_index,
            total_ecn_marks_before=ecn_before,
            total_ecn_marks_after=sum(marks_after.values()),
            congested_links_before=congested_before,
            congested_links_after=sum(
                1 for value in marks_after.values() if value > 0),
            flows_moved=moved,
        )

    def run(self, flows: List[Flow], rounds: int = 8
            ) -> List[ReassignmentReport]:
        """Run several polling rounds; stop early once nothing moves."""
        reports = []
        for index in range(rounds):
            report = self.reassignment_round(flows, round_index=index)
            reports.append(report)
            if report.flows_moved == 0:
                break
        return reports

    def run_timed(self, engine, flows: List[Flow],
                  interval_s: float = 5.0, rounds: int = 8
                  ) -> List[ReassignmentReport]:
        """Polling rounds as timed events on a :class:`FabricEngine`.

        Every ``interval_s`` of simulated time (the switches' ECN poll
        period, §2.1) the controller re-hashes the still-in-flight flows
        and retargets them *mid-transfer* on the engine: the touched
        components re-solve, so a move changes the moved flow's finish
        time and relieves the flows it was colliding with.  Returns the
        (live, in-place growing) report list; final contents are ready
        once ``engine.run()`` / ``sim.run()`` has drained.
        """
        reports: List[ReassignmentReport] = []
        sim = engine.sim

        def _rounds():
            for index in range(rounds):
                yield sim.timeout(interval_s)
                live = [flow for flow in flows
                        if engine.is_active(flow.flow_id)]
                if not live:
                    break
                report = self.reassignment_round(live, round_index=index)
                report.at_time_s = sim.now
                engine.retarget(live)
                reports.append(report)
                if report.flows_moved == 0:
                    break

        sim.process(_rounds(), name="ecmp-controller")
        return reports
