"""Bounded unfolding: broken symmetry re-simulated at the smallest
exact scope.

A fault — from ``repro.resilience``'s campaigns, a monitoring fault
spec, anything carrying a :class:`FaultSpec` — breaks the symmetry of
every pod it touches.  Refinement answers *how much* of the broken pod
must be simulated exactly, walking an escalation ladder:

* **block** — the fault's cut set stays inside a known block set, so
  only the touched blocks (plus, across blocks, the shared ToR->Agg
  uplink tier at full width) run on the engine;
  the pod's healthy blocks keep folding through the same
  representative-block path the pod classes use, one sub-simulation
  per block class of the broken pod.
* **pod** — the whole broken pod (or transitively-merged pod group)
  runs exactly, faults armed, as one sub-simulation.  This is the
  pre-bounded behaviour and the fallback whenever the block-level
  certificate is void.
* **flat** — an unlocatable or globally-coupled target (``link:<id>``
  ids shift under renaming; core switches are shared by every pod)
  forces the identity-mapped full-cluster refinement group that
  degenerates to a flat :class:`MultiJobRun` bit-identically.

The **block-level certificate** is the exactness proof: bounded
results must equal full-pod refinement ``==``, never approximately.
It holds when every group fault's *effect* is hash-free (its outcome
cannot depend on ECMP hash draws, which renaming re-salts), every
fault is iteration-indexed (a timestamp fault lands mid-flight, where
remaining-bits re-integration splits at whatever solve epochs the
sub-simulation's co-residents generate), every fault target resolves
to a block (host or ToR name) or to its own job,
the group's pods are a single pod of pod-local ring tenants, the
line-rate certificate pins every healthy flow to the host line rate,
and a blast-radius probe confirms the target's cut set strands nothing
beyond the block
(:func:`repro.topology.blast_radius.device_blast_radius` /
:func:`~repro.topology.blast_radius.impacted_hosts`).  The probe runs
on a minimal block (one pod, one block, one Agg per group, one Core
per group), whose evidence provably equals the full-width block's:
see :func:`_probe_evidence`.  Hash-free
effects are the host-scoped ones (crash / hang / compute-only config
error), job-state faults (which pick victims by position, not name),
and telemetry-only switch drops; congestive effects (ECN storms, PFC
spreading, switch fail-stop) route damage through hash-dependent paths
and escalate to **pod** — as does the flaky-NIC crawl (NIC_ERRCQE
fail-slow), which keeps transmitting below line rate where co-resident
solve epochs reschedule its flows.

Every level runs on a :class:`~repro.hierarchy.fold.Window`, the one
place a sub-topology is sized, its hosts and fault targets renamed and
its compute power-capped; the probe takes its params and renamed
target from the same window.  Pod and flat levels run a window of the
group's pods with all their blocks.  Within a bounded pod, blocks are
grouped into connected components (jobs union the blocks they span;
each fault unions its target block with its job's blocks).  Components
containing a fault run exactly on a window of their blocks (one Core
per group, and full Agg width only when the component spans blocks);
healthy single-block components fold by block signature; healthy
multi-block components run as compacted pod slices.
Per-component simulation is exact for the same reason the fold is:
certified traffic never contends across components, so separate clocks
observe identical allocations.

Every group decision is recorded in a :class:`RefinePlan` — the ladder
level, why, per-fault blast evidence, and the engine-host bill versus
what a full-pod unfold would have paid — so callers can assert the
ladder, not just the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Dict, List, Tuple

from ..monitoring.faults import Effect, FaultSpec, Manifestation
from ..monitoring.multijob import JobOutcome
from ..topology.astral import AstralParams, build_astral, parse_device
from ..topology.blast_radius import device_blast_radius, impacted_hosts
from .fold import EngineRunner, Window, _fold_rep_blocks
from .symmetry import (RefinedGroup, SymmetryMap, line_rate_certificate,
                       uf_find, uf_union)
from .virtual import PlacedJob

__all__ = [
    "REFINE_MODES",
    "FaultEvidence",
    "RefinePlan",
    "plan_refined_group",
    "run_refined_group",
    "run_refined_groups",
]

#: ``bounded`` walks the full ladder; ``pod`` skips the block rung —
#: the knob the differential oracle uses to compare both paths ``==``.
REFINE_MODES = ("bounded", "pod")

#: Effects whose simulated outcome is provably independent of ECMP
#: hash draws, hence invariant under the device renaming a bounded
#: sub-topology performs.  Host crashes/hangs mutate job state keyed
#: by config position; NIC_ERRCQE degrades *all* of one host's links
#: symmetrically (its flows bottleneck on their own dedicated host
#: links, whatever the uplink hash); CONFIG_ERROR is compute-only;
#: MULTI_HOST_SOFTWARE samples victims by position from the config
#: host list.  Everything else — congestion storms, switch fail-stop,
#: PFC spreading — damages whichever paths the hash picked.
#: Hash-freedom is necessary but not sufficient: see the
#: capacity-degrading check in :func:`_fault_evidence`.
_HASH_FREE_EFFECTS = frozenset({
    Effect.CONFIG_ERROR,
    Effect.NIC_ERRCQE,
    Effect.GPU_FATAL,
    Effect.ECC_FATAL,
    Effect.HOST_HANG,
    Effect.MULTI_HOST_SOFTWARE,
})


@dataclass(frozen=True)
class FaultEvidence:
    """Blast-radius evidence for one group fault."""

    name: str                 # job the fault is keyed to
    target: str               # original (unrenamed) target
    scope: str                # "block" | "job" | "pod"
    blocks: Tuple[int, ...]   # touched blocks, original indices
    stranded_gpus: int = 0    # probe: GPU-rails stranded beyond target
    impacted_hosts: int = 0   # probe: conservative cordon set size
    note: str = ""            # why scope escalated, when it did


@dataclass(frozen=True)
class RefinePlan:
    """What one refinement group cost and why — the assertable ladder."""

    pods: Tuple[int, ...]
    level: str                      # "block" | "pod" | "flat"
    reasons: Tuple[str, ...]
    evidence: Tuple[FaultEvidence, ...]
    #: hosts a full-pod unfold would engine-simulate for this group.
    n_full_hosts: int = 0
    #: hosts actually billed to the engine (after fold memo hits).
    n_engine_hosts: int = 0


@lru_cache(maxsize=256)
def _probe_evidence(probe_params: AstralParams,
                    target: str) -> Tuple[int, int]:
    """(stranded_gpus, n_impacted_hosts) of *target* failing on the
    minimal probe block, the window of the target's pod and block
    (``pod_local_params(params, 1)``): one pod, one block, one Agg per
    ToR group and one Core per core group, while rails, NIC ports and
    hosts per block keep their full width.

    The probe is the same blast-radius measurement the topology layer
    publishes, run in block-relative coordinates: it proves the
    device's cut set (host links, or ToR host-links plus its uplinks —
    both present in every bounded sub-topology) strands nothing beyond
    the block.

    The minimal block gives exactly the full-width block's evidence.
    The target is a host or a ToR, the names that carry a block.  The
    minimal block is a subgraph of the full-width one, with the same hosts, the
    same host–ToR wiring and the same failed links, so any path it has
    the full block has too.  Conversely, mapping Agg(r, g, k) to
    Agg(r, g, 0) and Core(k, c) to Core(0, 0) sends every healthy
    full-width path to a healthy minimal one, because failing a host or
    a ToR never removes an Agg–Core link or another ToR's uplinks.  So
    every host reaches the probe host on a rail in one block exactly
    when it does in the other: stranded GPUs and hosts are equal.  The
    cordon set (hosts wired to the target) depends only on the
    host–ToR wiring, and the default probe host is the same because
    hosts are built first.  NIC ports must not shrink: they set the
    ToR groups, hence whether a ToR failure strands its hosts.

    Cached per (probe params, renamed target); the topology is rebuilt
    per entry and mutations are restore-on-exit.
    """
    topology = build_astral(probe_params)
    radius = device_blast_radius(topology, target)
    return radius.stranded_gpus, len(impacted_hosts(topology, target))


def _fault_evidence(params: AstralParams, name: str, fault: FaultSpec,
                    job: PlacedJob) -> FaultEvidence:
    """Classify one fault: block-scoped (with probe evidence) or not."""
    effect = fault.effect
    hash_free = effect in _HASH_FREE_EFFECTS or (
        effect is Effect.SWITCH_DROPS
        and fault.manifestation is Manifestation.FAIL_SLOW)
    if not hash_free:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"effect {effect.value}/{fault.manifestation.value} "
                 "is hash-sensitive")
    if (effect is Effect.NIC_ERRCQE
            and fault.manifestation is Manifestation.FAIL_SLOW):
        # The flaky-NIC crawl scales the host's link capacities while
        # the job keeps transmitting: its flows run *below* line rate,
        # where every co-resident solve epoch re-integrates and
        # reschedules them — epochs the block scope excludes.  Every
        # other certified effect leaves surviving flows pinned at line
        # rate (their scheduled deadlines stand across solves).
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note="capacity-degrading fail-slow leaves flows off line "
                 "rate: co-resident solve epochs reschedule them")
    if fault.at_time_s is not None:
        # A timestamp fault lands mid-flight; mid-flight re-integration
        # splits at whatever solve epochs co-resident tenants generate,
        # so the result is only reproducible at the full refinement
        # scope, not in a smaller sub-simulation.
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"timestamp fault (at_time_s={fault.at_time_s}) "
                 "lands mid-flight: epoch-sensitive")
    if fault.target == job.name:
        # Job-state fault: victims picked by config position, no
        # device cut set at all — touched blocks are the job's own.
        return FaultEvidence(name=name, target=fault.target,
                             scope="job", blocks=job.blocks)
    # Hosts and ToRs name a block; Aggs carry only a pod, cores none,
    # ``link:`` ids none: all of those are outside block scope.
    located = parse_device(fault.target)
    if located is None or located[2] is None:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"target {fault.target!r} is not block-scoped")
    _, pod, block = located[:3]
    if pod not in job.pods:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"target pod {pod} is outside job {job.name!r}'s "
                 "placement")
    probe = Window((pod,), (block,))
    stranded, impacted = _probe_evidence(probe.params(params),
                                          probe.rename(fault.target))
    if stranded:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=tuple(sorted({block, *job.blocks})),
            stranded_gpus=stranded, impacted_hosts=impacted,
            note=f"cut set strands {stranded} GPU-rails beyond "
                 f"{fault.target}")
    return FaultEvidence(
        name=name, target=fault.target, scope="block",
        blocks=tuple(sorted({block, *job.blocks})),
        stranded_gpus=stranded, impacted_hosts=impacted)


def plan_refined_group(params: AstralParams, group: RefinedGroup,
                       mode: str = "bounded",
                       flat: bool = False) -> RefinePlan:
    """Decide the ladder level for one group and collect the evidence."""
    if mode not in REFINE_MODES:
        raise ValueError(
            f"unknown refine mode {mode!r}; expected one of "
            f"{REFINE_MODES}")
    n_full = sum(p.n_hosts for p in group.jobs)
    if flat:
        return RefinePlan(
            pods=group.pods, level="flat",
            reasons=tuple(group.reasons), evidence=(),
            n_full_hosts=n_full)
    by_name = {p.name: p for p in group.jobs}
    evidence = tuple(
        _fault_evidence(params, name, fault, by_name[name])
        for name, fault in sorted(group.faults.items()))
    reasons: List[str] = []
    if mode == "pod":
        reasons.append("refine mode forces pod-level unfolding")
    if len(group.pods) != 1 or not all(p.pod_local for p in group.jobs):
        reasons.append("group spans pods (cross-pod tenant): "
                       "bounded certificate void")
    if not line_rate_certificate(params, group.jobs):
        reasons.append("line-rate certificate void for group traffic")
    reasons.extend(f"fault {ev.name}: {ev.note}"
                   for ev in evidence if ev.scope == "pod")
    if reasons:
        return RefinePlan(pods=group.pods, level="pod",
                          reasons=tuple(reasons), evidence=evidence,
                          n_full_hosts=n_full)
    return RefinePlan(pods=group.pods, level="block", reasons=(),
                      evidence=evidence, n_full_hosts=n_full)


def _run_group_bounded(params: AstralParams, group: RefinedGroup,
                       plan: RefinePlan, power_caps: Dict[int, float],
                       runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Block-bounded exact refinement of a single broken pod."""
    pod = group.pods[0]
    by_name = {p.name: p for p in group.jobs}
    evidence_blocks = {ev.name: ev.blocks for ev in plan.evidence}

    # Connected components over blocks: jobs union the blocks they
    # span; faults union their touched blocks with their job's.
    parent: Dict[int, int] = {}
    for placed in group.jobs:
        blocks = placed.blocks
        for block in blocks:
            uf_union(parent, blocks[0], block)
    for name in group.faults:
        touched = evidence_blocks[name]
        anchor = by_name[name].blocks[0]
        for block in touched:
            uf_union(parent, anchor, block)

    faulted_roots = {uf_find(parent, by_name[name].blocks[0])
                     for name in group.faults}
    comp_jobs: Dict[int, List[PlacedJob]] = {}
    for placed in group.jobs:            # original placement order
        root = uf_find(parent, placed.blocks[0])
        comp_jobs.setdefault(root, []).append(placed)
    comp_blocks: Dict[int, List[int]] = {}
    for block in parent:
        comp_blocks.setdefault(uf_find(parent, block), []).append(block)

    outcomes: Dict[str, JobOutcome] = {}
    healthy_single: List[PlacedJob] = []
    for root in sorted(comp_jobs):
        jobs = comp_jobs[root]
        blocks = sorted(comp_blocks[root])
        if root not in faulted_roots and len(blocks) == 1:
            # Healthy lone blocks fold by signature, the path the
            # healthy pod classes take.
            healthy_single.extend(jobs)
            continue
        # A faulted component, or a healthy multi-block slice: its
        # blocks only (a healthy component's are its jobs' blocks).
        names = {placed.name for placed in jobs}
        faults = {name: fault for name, fault in group.faults.items()
                  if name in names}
        outcomes.update(Window((pod,), blocks).run(
            params, jobs, power_caps, runner, faults=faults))
    if healthy_single:
        outcomes.update(_fold_rep_blocks(
            params, healthy_single, pod, power_caps, runner))
    return outcomes


def run_refined_group(params: AstralParams, group: RefinedGroup,
                      power_caps: Dict[int, float],
                      runner: EngineRunner, mode: str = "bounded",
                      flat: bool = False
                      ) -> Tuple[Dict[str, JobOutcome], RefinePlan]:
    """Refine one group at the cheapest certified ladder level."""
    plan = plan_refined_group(params, group, mode=mode, flat=flat)
    hosts_before = runner.engine_hosts
    if plan.level == "block":
        outcomes = _run_group_bounded(params, group, plan, power_caps,
                                      runner)
    else:
        # Pod and flat level: the group's pods, all their blocks.
        outcomes = Window(group.pods).run(
            params, group.jobs, power_caps, runner, faults=group.faults)
    plan = dc_replace(plan,
                      n_engine_hosts=runner.engine_hosts - hosts_before)
    return outcomes, plan


def run_refined_groups(params: AstralParams, symmetry: SymmetryMap,
                       runner: EngineRunner, mode: str = "bounded"
                       ) -> Tuple[Dict[str, JobOutcome],
                                  List[RefinePlan]]:
    outcomes: Dict[str, JobOutcome] = {}
    plans: List[RefinePlan] = []
    for group in symmetry.refined:
        solved, plan = run_refined_group(
            params, group, symmetry.power_caps, runner, mode=mode,
            flat=symmetry.flat_fallback)
        outcomes.update(solved)
        plans.append(plan)
    return outcomes, plans
