"""Differential checkers: one scenario, two independent models.

Differential validation against a second implementation is what makes
reproduction numbers trustworthy (ASTRA-sim2.0 does exactly this for
its network backends):

* **engine vs batch** — the event-driven :class:`FabricEngine` and the
  epoch-global :func:`complete_batch` loop kept here as its oracle
  share the solver but disagree on everything else (incremental
  component solves vs global re-solves, deadline events vs epoch
  stepping).  For simultaneous starts their finish times must be
  *bit-identical* — both integrate with the same absolute-deadline
  arithmetic, so any mismatch is a logic bug, not float noise.
* **flow-mapped vs analytic collectives** — Seer's calibrated
  effective-bandwidth model (§4.3) against the same collective run as
  explicit flows on the fabric, within a bounded relative error; plus
  the wire-byte identity AllReduce = ReduceScatter + AllGather.
* **fluid vs packet** — the fluid congestion observables against a
  packet-granular queue simulation of one egress port, regime by
  regime (both quiet when underloaded, both marking with a
  buffer-pinned queue when overloaded).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..network.collectives import (
    Endpoint,
    all_gather_flows,
    reduce_scatter_flows,
    ring_allreduce_flows,
    run_collective,
)
from ..network.congestion import CongestionModel
from ..network.engine import DONE_BITS, MAX_STALLS
from ..network.fabric import Fabric, FabricRun, LinkLoad
from ..network.flows import Flow, FlowPath, reset_flow_ids
from ..network.packetsim import PacketQueueSim
from ..simcore import SimulationError
from .oracles import Violation

__all__ = [
    "check_engine_vs_batch",
    "check_fluid_vs_packet",
    "check_ring_vs_analytic",
    "check_rs_ag_composition",
    "complete_batch",
    "ring_busbw_gbps",
]


def _ulp_distance(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b))) or 1.0
    return abs(a - b) / scale


def complete_batch(fabric: Fabric, flows: List[Flow],
                   paths: Optional[Dict[int, FlowPath]] = None,
                   stats=None) -> FabricRun:
    """Epoch-global fluid loop: re-run max-min whenever a flow
    finishes.

    The reference implementation the event-driven engine
    (:meth:`Fabric.complete`) is verified against; *stats* counts its
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
        paths = fabric.resolve_paths(flows)
    remaining_bits = {flow.flow_id: float(flow.size_bits)
                      for flow in flows}
    finish: Dict[int, float] = {}
    active = {flow.flow_id: flow for flow in flows
              if flow.size_bits > 0}
    for flow in flows:
        if flow.size_bits <= 0:
            finish[flow.flow_id] = 0.0
    now = 0.0
    deadlines: Dict[int, float] = {}
    prev_rates: Dict[int, float] = {}
    stalls = 0
    while active:
        rates = fabric.max_min_rates(
            list(active.values()),
            {fid: paths[fid] for fid in active},
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
        # subtracting rate*elapsed rounded the residue one ulp above
        # the done threshold.  Re-aim the expired deadlines from the
        # surviving residue; when the residual delay is below the
        # clock resolution (now + delay == now) the flow completes
        # here.  Repeated stalls indicate a real wedge.
        stalls += 1
        if stalls >= MAX_STALLS:
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
    )


def check_engine_vs_batch(fabric: Fabric, flows: Sequence[Flow],
                          paths: Optional[Dict[int, FlowPath]] = None
                          ) -> List[Violation]:
    """Engine and batch finish times must agree bit-for-bit.

    Both paths resolve the same max-min allocation and integrate it
    with cached absolute deadlines, so equality here is exact ``==``
    on floats — the regression the epoch-drift fix in
    :func:`complete_batch` is pinned by.
    """
    flows = list(flows)
    if paths is None:
        paths = fabric.resolve_paths(flows)
    engine_run = fabric.complete(flows, paths=paths)
    batch_run = complete_batch(fabric, flows, paths=paths)
    violations = []
    all_ids = set(engine_run.finish_times_s) \
        | set(batch_run.finish_times_s)
    for fid in sorted(all_ids):
        engine_t = engine_run.finish_times_s.get(fid)
        batch_t = batch_run.finish_times_s.get(fid)
        if engine_t != batch_t:
            distance = (_ulp_distance(engine_t, batch_t)
                        if engine_t is not None and batch_t is not None
                        else float("inf"))
            violations.append(Violation(
                "engine-vs-batch",
                f"flow {fid}: engine finished at {engine_t!r}, batch "
                f"at {batch_t!r} ({distance:.0f} ulp apart)"))
    return violations


# --------------------------------------------------------------------------
# Flow-mapped vs analytic collectives
# --------------------------------------------------------------------------

def ring_busbw_gbps(fabric: Fabric, hosts: Sequence[str], rail: int,
                    size_bits: float) -> float:
    """Per-link (bus) bandwidth of a ring AllReduce on the fabric."""
    reset_flow_ids()
    endpoints = [Endpoint(host, rail) for host in hosts]
    result = run_collective(fabric, endpoints, size_bits, "allreduce")
    n = len(hosts)
    wire_bits = 2 * (n - 1) / n * size_bits
    return wire_bits / result.network_time_s / 1e9


def check_ring_vs_analytic(fabric: Fabric, hosts: Sequence[str],
                           rail: int, size_bits: float,
                           rel_tol: float = 0.15) -> List[Violation]:
    """Fabric ring busbw vs Seer's analytic effective bandwidth.

    The analytic per-GPU inter-host bandwidth models both 200G NIC
    ports at the calibrated network efficiency; the flow-level ring
    pins each leg to one port, so ``analytic ~= 2 * busbw *
    efficiency`` within the asymptotic-regime tolerance.
    """
    from ..seer import NetworkSuite
    suite = NetworkSuite()
    busbw = ring_busbw_gbps(fabric, hosts, rail, size_bits)
    analytic = suite.effective_gbps(size_bits / 8, "inter_host")
    expected = 2 * busbw * suite.network_efficiency
    if expected <= 0:
        return [Violation("flow-vs-analytic",
                          f"non-positive fabric busbw {busbw!r}")]
    rel_err = abs(analytic - expected) / expected
    if rel_err > rel_tol:
        return [Violation(
            "flow-vs-analytic",
            f"ring busbw {busbw:.3f} Gbps implies analytic "
            f"{expected:.3f} Gbps but the suite reports "
            f"{analytic:.3f} Gbps (rel err {rel_err:.3f} > "
            f"{rel_tol})")]
    return []


def check_rs_ag_composition(fabric: Fabric, hosts: Sequence[str],
                            rail: int, size_bits: float,
                            rel_tol: float = 0.01) -> List[Violation]:
    """AllReduce time must equal ReduceScatter + AllGather time.

    The ring wire-byte identity ``2(n-1)/n == (n-1)/n + (n-1)/n``
    must survive the flow generators and the fluid completion.
    """
    endpoints = [Endpoint(host, rail) for host in hosts]
    reset_flow_ids()
    ar = fabric.complete(
        ring_allreduce_flows(endpoints, size_bits)).total_time_s
    reset_flow_ids()
    rs = fabric.complete(
        reduce_scatter_flows(endpoints, size_bits)).total_time_s
    reset_flow_ids()
    ag = fabric.complete(
        all_gather_flows(endpoints, size_bits)).total_time_s
    if ar <= 0:
        return [Violation("rs-ag-composition",
                          f"allreduce finished in {ar!r} s")]
    rel_err = abs((rs + ag) - ar) / ar
    if rel_err > rel_tol:
        return [Violation(
            "rs-ag-composition",
            f"RS {rs:.6g} s + AG {ag:.6g} s != AR {ar:.6g} s "
            f"(rel err {rel_err:.3g} > {rel_tol})")]
    return []


# --------------------------------------------------------------------------
# Fluid vs packet-granular congestion
# --------------------------------------------------------------------------

def check_fluid_vs_packet(capacity_gbps: float, offered_gbps: float,
                          seed: int = 0,
                          duration_s: float = 0.02) -> List[Violation]:
    """One egress port, two abstraction levels, same regime verdict.

    Underloaded (< 90% of capacity): neither level marks and neither
    builds a standing queue.  Persistently overloaded (> 130%): both
    mark and both pin the queue at the configured buffer.  The band in
    between is transient-dominated and intentionally not judged.
    """
    violations = []
    utilization = offered_gbps / capacity_gbps
    if 0.9 <= utilization <= 1.3:
        return violations  # boundary regime: neither model is crisp
    packet = PacketQueueSim(capacity_gbps, offered_gbps,
                            seed=seed).run(duration_s)
    load = LinkLoad(link_dir=(0, True), capacity_gbps=capacity_gbps,
                    offered_gbps=offered_gbps,
                    carried_gbps=min(offered_gbps, capacity_gbps))
    fluid = CongestionModel().evaluate(load)
    buffer_bytes = CongestionModel().config.buffer_bytes
    if utilization < 0.9:
        if packet.mark_fraction > 0.02:
            violations.append(Violation(
                "fluid-vs-packet",
                f"underloaded ({utilization:.2f}x) but packet level "
                f"marks {packet.mark_fraction:.3f} of packets"))
        if fluid.ecn_marks_per_poll > 0:
            violations.append(Violation(
                "fluid-vs-packet",
                f"underloaded ({utilization:.2f}x) but fluid level "
                f"marks {fluid.ecn_marks_per_poll:.3f}/poll"))
        if packet.mean_queue_bytes > 0.05 * buffer_bytes:
            violations.append(Violation(
                "fluid-vs-packet",
                f"underloaded ({utilization:.2f}x) but packet queue "
                f"averages {packet.mean_queue_bytes:.0f} B"))
    else:
        if packet.mark_fraction <= 0.0:
            violations.append(Violation(
                "fluid-vs-packet",
                f"overloaded ({utilization:.2f}x) but packet level "
                "never marks"))
        if fluid.ecn_marks_per_poll <= 0.0:
            violations.append(Violation(
                "fluid-vs-packet",
                f"overloaded ({utilization:.2f}x) but fluid level "
                "never marks"))
        if abs(packet.max_queue_bytes - buffer_bytes) \
                > 0.10 * buffer_bytes:
            violations.append(Violation(
                "fluid-vs-packet",
                f"overloaded ({utilization:.2f}x) but packet queue "
                f"peaks at {packet.max_queue_bytes:.0f} B, not the "
                f"{buffer_bytes:.0f} B buffer"))
        if abs(fluid.queue_bytes - buffer_bytes) \
                > 0.10 * buffer_bytes:
            violations.append(Violation(
                "fluid-vs-packet",
                f"overloaded ({utilization:.2f}x) but fluid queue is "
                f"{fluid.queue_bytes:.0f} B, not the buffer"))
    return violations
