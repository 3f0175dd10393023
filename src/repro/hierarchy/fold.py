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

Every sub-simulation of the hierarchy — both folds here, and every
refinement level and the blast-radius probe in ``refine`` — runs on a
:class:`Window`, the one place a sub-topology is sized, its hosts and
fault targets renamed, and its compute power-capped.  A window of one
pod and some blocks builds its sub-topology with
:func:`pod_local_params`, which keeps full width only in the tiers a
pod-local flow can route over: the Core tier shrinks to one switch per
group always, and the Agg tier too for a single block.

Replication is pure bookkeeping: member jobs are matched to rep jobs
k-th to k-th under the canonical (shape, positions, name) sort that
the signatures are built from, and receive copies of the rep's
iteration times.  Device renaming (pod -> 0, block -> 0/compacted)
re-salts ECMP hashes, so replicated results are bit-exact exactly when
the class is certified hash-independent; otherwise they are
tolerance-bounded — ``SymmetryMap.exact`` tracks which claim holds.

An :class:`EngineRunner` memoises unfaulted sub-simulations on their
full input (sub-params + configs).  A :class:`JobConfig` carries its
job's name, so the key recurs only when the same jobs run again on the
same window, which one run never does: identical block classes of
different pod classes are each solved, and every ``repro scale`` preset
reports ``n_memo_hits`` 0.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..monitoring.faults import FaultSpec
from ..monitoring.jobsim import JobConfig
from ..monitoring.multijob import JobOutcome, MultiJobRun
from ..network.fabric import Fabric
from ..network.flows import reset_flow_ids
from ..topology.astral import AstralParams, build_astral, rename_device
from .compose import scaled_compute_s
from .symmetry import PodClass, block_signature, job_shape
from .virtual import PlacedJob

__all__ = ["EngineRunner", "Window", "build_flat_fabric",
           "fold_pod_class", "pod_local_params"]


def build_flat_fabric(params: AstralParams) -> Fabric:
    """The fabric of *params*, as every sub-simulation and the flat
    reference build it (host line rate = NIC port rate)."""
    return Fabric(build_astral(params),
                  host_line_rate_gbps=params.nic_port_gbps)


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
    """Runs (and memoises) exact sub-simulations; tracks fold stats.

    A sub-simulation keeps only its per-job outcomes, so its
    :class:`MultiJobRun` names no telemetry store and collects none.
    """

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
        outcomes = MultiJobRun(build_flat_fabric(params), list(configs),
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
            tuple(span[2:] for span in placed.spans), placed.name)


class Window:
    """A coordinate window: the one place a sub-simulation's topology
    is sized, its devices named and its compute power-capped.

    *pods* are renamed 0, 1, … in the order given.  With a single pod
    the window may also hold *blocks*, compacted the same way onto
    :func:`pod_local_params`; without blocks every block of each pod
    is kept and only the pod count shrinks.

    A window without blocks keeps the Agg and Core widths, unlike
    :func:`pod_local_params`: an escalated switch fail-stop can leave
    two hosts with no live ToR group in common, and then their path
    climbs to the Core tier.  Keeping the full block range also keeps
    every block-level device an escalated fault's blast radius may
    reach.  Core switch names are pod-free and pass through renaming
    untouched.  When the window holds every pod the pod map is the
    identity and the sub-topology equals the flat one; jobs keep their
    placement order, hence their flow ids, so the run is bit-identical
    to a flat :class:`MultiJobRun`: a full unfold degenerates to flat
    by construction, not by approximation.
    """

    def __init__(self, pods: Sequence[int],
                 blocks: Optional[Sequence[int]] = None) -> None:
        self.pods = tuple(pods)
        self.blocks = None if blocks is None else tuple(blocks)
        self._pod_map = {pod: index
                         for index, pod in enumerate(self.pods)}
        self._block_map = None if self.blocks is None else {
            block: index for index, block in enumerate(self.blocks)}

    def params(self, params: AstralParams) -> AstralParams:
        """The window's sub-topology."""
        if self.blocks is None:
            return replace(params, pods=len(self.pods))
        return pod_local_params(params, len(self.blocks))

    def rename(self, name: str) -> str:
        """A device name moved into the window's coordinates."""
        return rename_device(name, self._pod_map, self._block_map)

    def run(self, params: AstralParams, jobs: Sequence[PlacedJob],
            power_caps: Dict[int, float], runner: EngineRunner,
            faults: Optional[Dict[str, FaultSpec]] = None
            ) -> Dict[str, JobOutcome]:
        """Engine-simulate *jobs*, in order, exactly on the window.

        A cap factor ``f`` stretches a job's compute by ``1/f``
        (:func:`~repro.hierarchy.compose.scaled_compute_s`, the
        arithmetic the flat bridge uses); ``x / 1.0 == x`` keeps the
        uncapped path bit-identical to an unscaled config.
        """
        configs = [
            _config_for(
                placed,
                placed.host_names(self._pod_map, self._block_map),
                scaled_compute_s(placed.job, placed.pods, power_caps))
            for placed in jobs
        ]
        renamed = {name: replace(fault, target=self.rename(fault.target))
                   for name, fault in (faults or {}).items()}
        return runner.run(self.params(params), configs,
                          faults=renamed or None)


def _fold_rep_blocks(params: AstralParams, rep_jobs: List[PlacedJob],
                     rep_pod: int, power_caps: Dict[int, float],
                     runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Solve single-block jobs of one pod by folding identical blocks:
    one window of one block per block class."""
    by_block: Dict[int, List[PlacedJob]] = {}
    for placed in rep_jobs:
        by_block.setdefault(placed.blocks[0], []).append(placed)

    block_classes: Dict[Tuple, List[int]] = {}
    for block in sorted(by_block):
        block_classes.setdefault(
            block_signature(by_block[block]), []).append(block)

    outcomes: Dict[str, JobOutcome] = {}
    for blocks in block_classes.values():
        rep_block = blocks[0]
        rep_sorted = sorted(by_block[rep_block], key=_block_sort_key)
        solved = Window((rep_pod,), (rep_block,)).run(
            params, rep_sorted, power_caps, runner)
        for block in blocks:
            members = sorted(by_block[block], key=_block_sort_key)
            for member, rep in zip(members, rep_sorted):
                outcomes[member.name] = _copy_outcome(
                    member.name, solved[rep.name])
    return outcomes


def fold_pod_class(params: AstralParams, cls: PodClass,
                   power_caps: Dict[int, float],
                   runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Solve the class representative once, replicate to every member."""
    rep_jobs = cls.jobs_by_pod[cls.rep]
    if not rep_jobs:
        return {}
    # Members share the rep's power cap by signature.
    if cls.foldable_by_block:
        rep_outcomes = _fold_rep_blocks(params, rep_jobs, cls.rep,
                                        power_caps, runner)
    else:
        # The whole pod, compacted onto the blocks its jobs occupy.
        blocks = sorted({b for placed in rep_jobs for b in placed.blocks})
        rep_outcomes = Window((cls.rep,), blocks).run(
            params, rep_jobs, power_caps, runner)
    outcomes = dict(rep_outcomes)
    for member in cls.members:
        if member == cls.rep:
            continue
        for member_job, rep_job in zip(cls.jobs_by_pod[member],
                                       rep_jobs):
            outcomes[member_job.name] = _copy_outcome(
                member_job.name, rep_outcomes[rep_job.name])
    return outcomes
