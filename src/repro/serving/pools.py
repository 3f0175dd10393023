"""Prefill/decode disaggregation: pool sizing and pod placement.

Disaggregated serving splits each request across two pools — a
compute-bound prefill pool and a memory-bound decode pool — with the
KV cache shipped between them over the fabric.  On an Astral cluster
the natural unit is a *pod pair*: prefill pools fill one pod, decode
replicas the next, so every KV transfer crosses the Agg/Core tiers and
contends with whatever training traffic shares them (the "99 Problems"
observation that serving and training stress different tiers).

Two views are produced:

* :func:`plan_pools` — full-scale arithmetic over ``AstralParams``:
  how many identical pod pairs the cluster folds into, host budgets per
  pool, and the residual training fleet.  All pairs are symmetric by
  construction, so per-pair simulation results replicate exactly — the
  same folding argument :mod:`repro.hierarchy` proves for training.
* :func:`place_slice` — an operator-faithful placement of one
  *representative* pair on a small 2-pod slice topology via
  :class:`~repro.core.placement.GpuAllocator` (packed prefill, cordon
  the remainder, packed decode into the far pod, fragmented training
  tenant spanning both), producing the concrete host names the KV
  co-simulation injects flows between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.placement import GpuAllocator, PlacementPolicy
from ..topology.astral import AstralParams, build_astral
from ..topology.elements import Topology

__all__ = ["PoolPlan", "SlicePlacement", "plan_pools", "place_slice",
           "slice_params"]


@dataclass(frozen=True)
class PoolPlan:
    """Full-scale pool accounting over one cluster."""

    n_pairs: int                     # identical (prefill, decode) pod pairs
    prefill_hosts_per_pair: int
    decode_hosts_per_pair: int       # decode pool ceiling per pair
    replica_hosts: int               # hosts per decode replica
    train_hosts: int                 # residual training fleet
    total_hosts: int

    @property
    def max_replicas_per_pair(self) -> int:
        return self.decode_hosts_per_pair // self.replica_hosts

    def serving_hosts_at(self, replicas_per_pair: int) -> int:
        """Hosts powered for serving at a given replica count."""
        return self.n_pairs * (self.prefill_hosts_per_pair
                               + replicas_per_pair * self.replica_hosts)

    def to_dict(self) -> Dict:
        return {
            "n_pairs": self.n_pairs,
            "prefill_hosts_per_pair": self.prefill_hosts_per_pair,
            "decode_hosts_per_pair": self.decode_hosts_per_pair,
            "replica_hosts": self.replica_hosts,
            "max_replicas_per_pair": self.max_replicas_per_pair,
            "train_hosts": self.train_hosts,
            "total_hosts": self.total_hosts,
        }


def plan_pools(params: AstralParams,
               prefill_hosts_per_pair: Optional[int] = None,
               decode_hosts_per_pair: Optional[int] = None,
               replica_hosts: int = 2) -> PoolPlan:
    """Carve a cluster into symmetric serving pod pairs plus training.

    Defaults scale with the pod: the decode pool may grow to half a
    pod, prefill to 1/32nd (prefill is compute-dense; one prefill host
    feeds many decode replicas).
    """
    if params.pods < 2:
        raise ValueError("disaggregated serving needs at least 2 pods")
    hosts_per_pod = params.blocks_per_pod * params.hosts_per_block
    total_hosts = params.pods * hosts_per_pod
    if prefill_hosts_per_pair is None:
        prefill_hosts_per_pair = max(1, hosts_per_pod // 32)
    if decode_hosts_per_pair is None:
        decode_hosts_per_pair = hosts_per_pod // 2
    if replica_hosts < 1:
        raise ValueError("replica_hosts must be positive")
    if prefill_hosts_per_pair > hosts_per_pod \
            or decode_hosts_per_pair > hosts_per_pod:
        raise ValueError("pool does not fit in one pod")
    if decode_hosts_per_pair < replica_hosts:
        raise ValueError("decode pool smaller than one replica")
    n_pairs = params.pods // 2
    train_hosts = total_hosts - n_pairs * (
        prefill_hosts_per_pair + decode_hosts_per_pair)
    return PoolPlan(
        n_pairs=n_pairs,
        prefill_hosts_per_pair=prefill_hosts_per_pair,
        decode_hosts_per_pair=decode_hosts_per_pair,
        replica_hosts=replica_hosts,
        train_hosts=max(0, train_hosts),
        total_hosts=total_hosts,
    )


def slice_params(params: AstralParams,
                 hosts_per_block: int = 16,
                 gpus_per_host: int = 2) -> AstralParams:
    """A 2-pod, 1-block representative slice of ``params``.

    Small enough to flow-simulate in milliseconds, shaped enough that
    prefill→decode KV transfers genuinely climb the Agg/Core tiers.
    """
    return AstralParams(
        pods=2,
        blocks_per_pod=1,
        hosts_per_block=min(params.hosts_per_block, hosts_per_block),
        gpus_per_host=min(params.gpus_per_host, gpus_per_host),
        aggs_per_group=min(params.aggs_per_group, 4),
        cores_per_group=min(params.cores_per_group, 4),
        tier3_oversubscription=params.tier3_oversubscription,
    )


@dataclass
class SlicePlacement:
    """One representative pod pair placed on a slice topology."""

    topology: Topology
    prefill_hosts: List[str]         # pod 0
    decode_hosts: List[str]          # pod 1
    train_hosts: List[str]           # spans both pods

    def to_dict(self) -> Dict:
        return {
            "prefill_hosts": list(self.prefill_hosts),
            "decode_hosts": list(self.decode_hosts),
            "train_hosts": list(self.train_hosts),
        }


def place_slice(params: AstralParams,
                prefill_hosts: int = 2,
                decode_hosts: int = 4,
                train_hosts: int = 8) -> SlicePlacement:
    """Place prefill / decode / training on a 2-pod slice via the allocator.

    The operator runbook: pack the prefill pool into pod 0, cordon the
    rest of pod 0 so the decode pool packs into pod 1 (pools must not
    share a pod — that is the disaggregation), uncordon, then admit a
    training tenant fragmented across both pods (the production
    fragmentation Figure 2 studies), so training collectives share
    uplinks with the KV path.
    """
    if params.pods != 2:
        raise ValueError("slice placement expects a 2-pod slice")
    topology = build_astral(params)
    allocator = GpuAllocator(topology)
    prefill = allocator.allocate("serve-prefill", prefill_hosts,
                                 PlacementPolicy.PACKED)
    pod0_free = [
        name for pod, names in allocator.free_hosts_by_pod().items()
        if pod == 0 for name in names
    ]
    allocator.cordon(pod0_free)
    decode = allocator.allocate("serve-decode", decode_hosts,
                                PlacementPolicy.PACKED)
    allocator.uncordon(pod0_free)
    train = allocator.allocate("train", train_hosts,
                               PlacementPolicy.FRAGMENTED)
    if allocator.pods_spanned("serve-decode") != 1:
        raise AssertionError("decode pool leaked out of its pod")
    return SlicePlacement(
        topology=topology,
        prefill_hosts=list(prefill.hosts),
        decode_hosts=list(decode.hosts),
        train_hosts=list(train.hosts),
    )
