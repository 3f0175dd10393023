"""Solve one representative, replicate to the class — the fold itself.

Two granularities, chosen per pod class:

* **Block fold** — when every local job of the class fits in a single
  block, blocks within the representative pod are themselves grouped
  by signature and one representative *block* is engine-simulated on a
  minimal 1-pod/1-block topology — at paper scale this turns a
  8192-host pod into one 128-host simulation.
* **Pod fold** — otherwise the representative pod runs whole, on a
  1-pod topology containing only the blocks its jobs occupy
  (compacted, order-preserving).  ToR->Agg wiring and capacities are
  invariant under block compaction, which is what the line-rate
  certificate's boundary-leg analysis relies on.

Both build their sub-topology with :func:`pod_local_params`, which
keeps full width only in the tiers a pod-local flow can route over:
the Core tier shrinks to one switch per group always, and the Agg
tier too for a single block.

Replication is pure bookkeeping: member jobs are matched to rep jobs
k-th to k-th under the canonical (shape, positions, name) sort that
the signatures are built from, and receive copies of the rep's
iteration times.  Device renaming (pod -> 0, block -> 0/compacted)
re-salts ECMP hashes, so replicated results are bit-exact exactly when
the class is certified hash-independent; otherwise they are
tolerance-bounded — ``SymmetryMap.exact`` tracks which claim holds.

An :class:`EngineRunner` memoises sub-simulations on their full input
(sub-params + configs): identical block classes recurring across pod
classes (e.g. pods that differ only in cross-pod footprint) are solved
once per process.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..monitoring.faults import FaultSpec
from ..monitoring.jobsim import JobConfig
from ..monitoring.multijob import JobOutcome, MultiJobRun
from ..network.fabric import Fabric
from ..network.flows import reset_flow_ids
from ..topology.astral import AstralParams, build_astral
from .symmetry import PodClass, block_signature, job_shape
from .virtual import PlacedJob

__all__ = ["EngineRunner", "fold_pod_class", "pod_local_params"]


def pod_local_params(params: AstralParams, n_blocks: int) -> AstralParams:
    """The sub-topology of a pod-local sub-simulation over *n_blocks*
    (compacted) blocks: one pod, one Core per core group, and — for a
    single block — one Agg per ToR group.  Rails, NIC ports, hosts per
    block, capacities and (across blocks) the Agg width are kept.

    Exact, never approximate:

    * Every flow of a pod-local sub-simulation is a same-rail leg
      between two hosts of its one pod: ``JobSim._endpoints`` puts
      every endpoint on ``config.rail``, and jobs are renamed into
      pod 0.
    * Such a path is host–ToR–host (same block) or host–ToR–Agg–ToR–
      host.  A Core detour is at least 2 hops longer, so no shortest
      path, no ECMP candidate set and no hashed walk reaches a Core;
      inside a single block none reaches an Agg either.
    * Cores are added last and Agg->Core links are wired last
      (:func:`~repro.topology.astral.build_astral`), so every other
      device index, link id and capacity is unchanged.  Shrinking the
      Aggs of one block moves only devices and links no walk visits.

    The Agg width stays across blocks: it sets the ToR's ECMP
    candidate sets, hence which uplink each cross-block leg hashes
    onto.
    """
    aggs = 1 if n_blocks == 1 else params.aggs_per_group
    return replace(params, pods=1, blocks_per_pod=n_blocks,
                   aggs_per_group=aggs, cores_per_group=1)


class EngineRunner:
    """Runs (and memoises) exact sub-simulations; tracks fold stats."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple, Dict[str, JobOutcome]] = {}
        self.n_sims = 0
        self.n_memo_hits = 0
        self.engine_hosts = 0

    def run(self, params: AstralParams,
            configs: Sequence[JobConfig],
            faults: Optional[Dict[str, FaultSpec]] = None
            ) -> Dict[str, JobOutcome]:
        configs = tuple(configs)
        key = None
        if not faults:
            key = (params, configs)
            cached = self._memo.get(key)
            if cached is not None:
                self.n_memo_hits += 1
                return cached
        # Fresh flow ids per sub-simulation: flow-id-derived source
        # ports feed the ECMP hash, so every group must start from the
        # same counter regardless of how many groups ran before it.
        reset_flow_ids()
        topology = build_astral(params)
        fabric = Fabric(topology,
                        host_line_rate_gbps=params.nic_port_gbps)
        outcomes = MultiJobRun(fabric, list(configs),
                               faults=faults or None).run()
        self.n_sims += 1
        self.engine_hosts += sum(len(c.hosts) for c in configs)
        if key is not None:
            self._memo[key] = outcomes
        return outcomes


def _copy_outcome(name: str, rep: JobOutcome) -> JobOutcome:
    return JobOutcome(job=name,
                      iteration_times_s=list(rep.iteration_times_s),
                      expected_iteration_s=rep.expected_iteration_s)


def _config_for(placed: PlacedJob, hosts: Tuple[str, ...],
                compute_time_s: float) -> JobConfig:
    job = placed.job
    return JobConfig(
        name=placed.name, hosts=hosts, rail=job.rail,
        compute_time_s=compute_time_s,
        comm_size_bits=job.comm_size_bits,
        iterations=job.iterations, collective=job.collective,
        compute_noise_frac=job.compute_noise_frac, seed=job.seed,
        start_time_s=job.start_time_s)


def _block_sort_key(placed: PlacedJob):
    return (job_shape(placed.job),
            tuple(h for _, _, h in placed.coords), placed.name)


def _fold_rep_blocks(params: AstralParams, rep_jobs: List[PlacedJob],
                     rep_pod: int, compute_scale: float,
                     runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Solve the representative pod by folding its identical blocks."""
    by_block: Dict[int, List[PlacedJob]] = {}
    for placed in rep_jobs:
        by_block.setdefault(placed.blocks[0], []).append(placed)

    block_classes: Dict[Tuple, List[int]] = {}
    for block in sorted(by_block):
        block_classes.setdefault(
            block_signature(by_block[block]), []).append(block)

    sub = pod_local_params(params, 1)
    outcomes: Dict[str, JobOutcome] = {}
    for blocks in block_classes.values():
        rep_block = blocks[0]
        rep_sorted = sorted(by_block[rep_block], key=_block_sort_key)
        configs = [
            _config_for(
                placed,
                placed.host_names({rep_pod: 0}, {rep_block: 0}),
                placed.job.compute_time_s / compute_scale)
            for placed in rep_sorted
        ]
        solved = runner.run(sub, configs)
        for block in blocks:
            members = sorted(by_block[block], key=_block_sort_key)
            for member, rep in zip(members, rep_sorted):
                outcomes[member.name] = _copy_outcome(
                    member.name, solved[rep.name])
    return outcomes


def _solve_rep_pod(params: AstralParams, rep_jobs: List[PlacedJob],
                   rep_pod: int, compute_scale: float,
                   runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Engine-simulate the whole representative pod (multi-block jobs)."""
    used_blocks = sorted({b for placed in rep_jobs
                          for b in placed.blocks})
    block_map = {block: index
                 for index, block in enumerate(used_blocks)}
    sub = pod_local_params(params, len(used_blocks))
    configs = [
        _config_for(
            placed,
            placed.host_names({rep_pod: 0}, block_map),
            placed.job.compute_time_s / compute_scale)
        for placed in rep_jobs
    ]
    return runner.run(sub, configs)


def fold_pod_class(params: AstralParams, cls: PodClass,
                   power_caps: Dict[int, float],
                   runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Solve the class representative once, replicate to every member."""
    rep_jobs = cls.jobs_by_pod[cls.rep]
    if not rep_jobs:
        return {}
    # A cap factor f stretches compute by 1/f; members share the rep's
    # factor by signature, and x/1.0 == x keeps the uncapped path
    # bit-identical to an unscaled config.
    compute_scale = power_caps.get(cls.rep, 1.0)
    if cls.foldable_by_block:
        rep_outcomes = _fold_rep_blocks(params, rep_jobs, cls.rep,
                                        compute_scale, runner)
    else:
        rep_outcomes = _solve_rep_pod(params, rep_jobs, cls.rep,
                                      compute_scale, runner)
    outcomes = dict(rep_outcomes)
    for member in cls.members:
        if member == cls.rep:
            continue
        for member_job, rep_job in zip(cls.jobs_by_pod[member],
                                       rep_jobs):
            outcomes[member_job.name] = _copy_outcome(
                member_job.name, rep_outcomes[rep_job.name])
    return outcomes
