"""Analytic per-tier models stitched to the event-driven tiers.

ASTRA-sim 2.0's hierarchical trick: tiers whose behaviour has a closed
form don't need events.  Here the Core tier is that tier — healthy
cross-pod jobs ride analytic ring/all-to-all forms (the same per-leg
payloads ``network.collectives`` generates: ``2(n-1)/n * size`` per
ring neighbour, ``size/n`` per all-to-all pair) under two first-order
capacity constraints:

* the host NIC: each endpoint drains its per-iteration payload at most
  at ``nic_port_gbps``;
* pod egress: all analytic legs leaving a pod on one rail share that
  pod's aggregate uplink capacity, max-min style — every saturating
  tenant sees the same drain time ``total_bits / capacity``.

Ingress is assumed symmetric with egress (true for rings and uniform
all-to-all) and is not double-counted.  This tier is deliberately
*tolerance-bounded*, never exact: flat runs hash cross-pod flows over
Core paths we do not model per-link.  Exactness claims live entirely
with the certificate in ``symmetry.py``.

Compute, by contrast, is replayed **bit-for-bit**: the same
``random.Random(seed)`` gauss stream :class:`MonitoredTrainingJob`
draws, host-count x iterations, so the compute component of an
analytic job's iteration times is identical to what the engine tier
would have produced.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..monitoring.multijob import JobOutcome
from ..topology.astral import AstralParams
from .virtual import PlacedJob

__all__ = [
    "analytic_outcomes",
    "compute_draws",
    "pod_egress_gbps",
    "scaled_compute_s",
]


def compute_draws(compute_time_s: float, noise_frac: float, seed: int,
                  n_hosts: int, iterations: int) -> List[float]:
    """Per-iteration slowest-host compute time, replaying the job RNG.

    Mirrors ``MonitoredTrainingJob._compute_time`` exactly: one
    ``gauss(0, noise_frac)`` draw per host per iteration, in host
    order, floored at 10% of nominal; the iteration's compute phase is
    the max across hosts.
    """
    rng = random.Random(seed)
    draws = []
    for _ in range(iterations):
        worst = 0.0
        for _ in range(n_hosts):
            sample = compute_time_s \
                * max(0.1, 1.0 + rng.gauss(0.0, noise_frac))
            if sample > worst:
                worst = sample
        draws.append(worst)
    return draws


def scaled_compute_s(job, pods: Sequence[int],
                     power_caps: Dict[int, float]) -> float:
    """Nominal compute under tidal power caps: the slowest pod rules.

    A cap factor ``f`` in (0, 1] stretches compute by ``1/f`` (GPUs
    clock down; NICs do not).  A job spanning several capped pods runs
    at the pace of its most-capped pod.
    """
    factor = min((power_caps.get(pod, 1.0) for pod in pods),
                 default=1.0)
    return job.compute_time_s / factor


def pod_egress_gbps(params: AstralParams) -> float:
    """Aggregate Core-bound capacity of one pod on one rail, Gbps."""
    uplink = (params.blocks_per_pod * params.tor_agg_gbps
              / params.cores_per_group / params.tier3_oversubscription)
    return (params.tor_groups * params.aggs_per_group
            * params.cores_per_group * uplink)


def _egress_bits_by_pod(placed: PlacedJob) -> Dict[int, float]:
    """Bits one iteration of *placed* pushes out of each pod it spans."""
    job = placed.job
    n = placed.n_hosts
    out: Dict[int, float] = {}
    if n < 2:
        return out
    spans = placed.spans
    if job.collective == "all_to_all":
        per_pod = {}
        for pod, _, _, count in spans:
            per_pod[pod] = per_pod.get(pod, 0) + count
        for pod, members in per_pod.items():
            out[pod] = members * (n - members) * job.comm_size_bits / n
        return out
    # Only a span boundary (or the wrap-around leg) can cross pods.
    per_neighbor = 2.0 * (n - 1) / n * job.comm_size_bits
    for index, src in enumerate(spans):
        dst = spans[(index + 1) % len(spans)]
        if src[0] != dst[0]:
            out[src[0]] = out.get(src[0], 0.0) + per_neighbor
    return out


def _host_bottleneck_bits(placed: PlacedJob) -> float:
    """Bits the busiest endpoint must push per iteration."""
    job = placed.job
    n = placed.n_hosts
    if n < 2:
        return 0.0
    if job.collective == "all_to_all":
        return (n - 1) / n * job.comm_size_bits
    return 2.0 * (n - 1) / n * job.comm_size_bits


def analytic_outcomes(params: AstralParams,
                      jobs: Sequence[PlacedJob],
                      power_caps: Optional[Dict[int, float]] = None
                      ) -> Dict[str, JobOutcome]:
    """Closed-form outcomes for the healthy cross-pod tier.

    Shared comm time per job is ``max(NIC drain, worst shared pod
    egress drain)``; expected (solo) time replaces the shared egress
    totals with the job's own bits, so ``efficiency <= 1`` by
    construction whenever other tenants contend for the same pod
    uplinks.
    """
    power_caps = power_caps or {}
    nic_bps = params.nic_port_gbps * 1e9
    egress_bps = pod_egress_gbps(params) * 1e9

    per_job_bits: Dict[str, Dict[int, float]] = {}
    totals: Dict[int, float] = {}
    for placed in jobs:
        bits = _egress_bits_by_pod(placed)
        per_job_bits[placed.name] = bits
        for pod, amount in bits.items():
            totals[pod] = totals.get(pod, 0.0) + amount

    outcomes: Dict[str, JobOutcome] = {}
    for placed in jobs:
        job = placed.job
        host_term = _host_bottleneck_bits(placed) / nic_bps
        own = per_job_bits[placed.name]
        shared = max([host_term]
                     + [totals[pod] / egress_bps for pod in own])
        solo = max([host_term]
                   + [bits / egress_bps for bits in own.values()])
        compute = scaled_compute_s(job, placed.pods, power_caps)
        draws = compute_draws(compute, job.compute_noise_frac,
                              job.seed, placed.n_hosts,
                              job.iterations)
        outcomes[placed.name] = JobOutcome(
            job=placed.name,
            iteration_times_s=[draw + shared for draw in draws],
            expected_iteration_s=compute + solo)
    return outcomes
