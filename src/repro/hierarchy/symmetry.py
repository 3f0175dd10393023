"""Equivalence classes of identical pods — what makes folding legal.

Astral's allocation discipline (packed, rail-aligned, pod-major) means
a large cluster is mostly *copies*: pods running the same mix of
identically-shaped tenants at the same pod-relative slots.  Two pods
whose **signatures** match produce identical simulation results, so the
folded runner solves one representative and replicates (``fold.py``).

A pod signature captures everything its local simulation can depend
on:

* the sorted multiset of (job shape, pod-relative block slices) of
  its pod-local jobs — shape includes the RNG ``seed``, because compute
  noise must replicate bit-for-bit;
* the pod's power-cap factor (tidal capping rescales compute);
* the pod-relative footprint of any cross-pod job passing through
  (analytic today, but pods with different cross footprints must not
  share a class).

Slices are the placement's maximal runs ``(block, first, count)``,
never per-host slots: runs are canonical, so two signatures are equal
exactly when the per-host slots are, and a pod costs its jobs' spans.

Symmetry *breaks* per pod: a fault pins every pod its job touches (and
the pod named by the fault target) into exact refinement
(``refine.py``); cross-pod jobs touching a refined pod drag their other
pods in transitively, closing refinement under shared tenancy.

The **line-rate certificate** is the exactness proof: when it holds for
a class, every flow of the representative is allocated exactly the
host line rate at every instant *regardless of ECMP hash outcomes*, so
renaming devices (which re-salts the hashes) cannot change any finish
time and folded results equal flat results ``==``, not approximately.
The certificate requires ring collectives (out-degree 1 per host per
rail) and, per (block, rail), that even if every block-boundary ring
leg hashed onto one ToR->Agg uplink it still could not saturate it:
``legs * nic_port_gbps <= tor_agg_gbps``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..monitoring.faults import FaultSpec
from ..topology.astral import AstralParams, parse_device
from ..topology.elements import DeviceKind
from .virtual import PlacedJob, pod_of_device

__all__ = [
    "PodClass",
    "RefinedGroup",
    "SymmetryMap",
    "block_signature",
    "detect_symmetry",
    "job_shape",
    "line_rate_certificate",
    "pod_signature",
]


def job_shape(job) -> Tuple:
    """Everything about a job that affects its simulation, minus identity.

    ``name`` and concrete hosts are excluded; ``seed`` is *included*
    (folded copies must replay the same compute-noise stream).
    """
    return (job.rail, job.compute_time_s, job.comm_size_bits,
            job.iterations, job.collective, job.compute_noise_frac,
            job.seed, job.start_time_s)


def pod_signature(pod: int, local: Sequence[PlacedJob],
                  cross: Sequence[PlacedJob],
                  power_cap: float = 1.0) -> Tuple:
    """The pod's signature, built from block slices: each job's shape
    and pod-relative spans ``(block, first, count)``, which equal
    exactly when its per-host slots do (see :class:`PlacedJob`)."""
    local_part = tuple(sorted(
        (job_shape(p.job), p.positions_in_pod()) for p in local))
    cross_part = tuple(sorted(
        (job_shape(p.job), p.positions_in_pod(pod), p.n_hosts,
         p.pods.index(pod))
        for p in cross))
    return (local_part, cross_part, power_cap)


def block_signature(block_jobs: Sequence[PlacedJob]) -> Tuple:
    """Signature of one block's (single-block) jobs, block-relative:
    each job's shape and host runs ``(first, count)``."""
    return tuple(sorted(
        (job_shape(p.job), tuple(span[2:] for span in p.spans))
        for p in block_jobs))


def line_rate_certificate(params: AstralParams,
                          jobs: Sequence[PlacedJob]) -> bool:
    """True when every flow is pinned to exactly the host line rate.

    Holds when (a) every job is a ring collective, so each host has one
    outgoing and one incoming flow per rail — the dedicated host<->ToR
    links carry exactly one flow each; and (b) for every (block, rail),
    the count of ring legs exiting (or entering) the block cannot
    oversubscribe a single ToR->Agg uplink even in the worst hash
    placement.  Then no ECMP-ambiguous hop is ever a bottleneck, the
    max-min allocation is ``nic_port_gbps`` for every flow at every
    solve, and finish times are invariant under device renaming —
    folding is exact.  Pod-crossing legs (which climb to the Core tier)
    void the certificate.
    """
    enter: Counter = Counter()
    exits: Counter = Counter()
    for placed in jobs:
        if placed.job.collective != "allreduce":
            return False
        if placed.n_hosts < 2:
            continue
        rail = placed.job.rail
        # Legs inside a span stay in one block; only the leg from each
        # span's last host to the next span's first (wrapping round)
        # can leave it.
        spans = placed.spans
        for index, src in enumerate(spans):
            dst = spans[(index + 1) % len(spans)]
            if src[0] != dst[0]:
                return False          # pod-crossing leg: core tier
            if src[1] == dst[1]:
                continue              # same block: ToR-local, dedicated
            exits[(src[0], src[1], rail)] += 1
            enter[(dst[0], dst[1], rail)] += 1
    limit = params.tor_agg_gbps / params.nic_port_gbps
    worst = max(list(enter.values()) + list(exits.values()), default=0)
    return worst <= limit


@dataclass
class PodClass:
    """Healthy pods sharing one signature; the rep is solved once."""

    signature: Tuple
    rep: int
    members: List[int]
    #: pod -> its local jobs, sorted by (shape, positions, name) — the
    #: k-th job of any member maps onto the k-th job of the rep.
    jobs_by_pod: Dict[int, List[PlacedJob]]
    certified: bool = False

    @property
    def foldable_by_block(self) -> bool:
        """All local jobs single-block: the rep itself sub-folds."""
        return all(len(p.blocks) == 1
                   for p in self.jobs_by_pod[self.rep])


@dataclass
class RefinedGroup:
    """Pods whose symmetry is broken, simulated together exactly."""

    pods: Tuple[int, ...]
    jobs: List[PlacedJob]               # in original placement order
    faults: Dict[str, FaultSpec] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)


@dataclass
class SymmetryMap:
    """The fold/refine plan for one scenario."""

    params: AstralParams
    placed: List[PlacedJob]
    classes: List[PodClass]
    refined: List[RefinedGroup]
    analytic: List[PlacedJob]           # healthy cross-pod jobs
    broken: Dict[int, List[str]]
    power_caps: Dict[int, float]
    #: an unlocatable fault target (e.g. ``link:<id>``) forced a full
    #: flat fallback: one identity-mapped refined group of every pod.
    flat_fallback: bool = False

    @property
    def exact(self) -> bool:
        """Folded results provably equal flat results bit-for-bit."""
        return (not self.refined and not self.analytic
                and all(cls.certified for cls in self.classes))


def uf_find(parent: Dict[int, int], item: int) -> int:
    """Root of *item* in the union-find forest *parent*, halving its
    path; an item not yet in *parent* becomes a set of its own."""
    parent.setdefault(item, item)
    while parent[item] != item:
        parent[item] = parent[parent[item]]
        item = parent[item]
    return item


def uf_union(parent: Dict[int, int], a: int, b: int) -> None:
    """Merge the sets of *a* and *b*; the smaller root stays root."""
    ra, rb = uf_find(parent, a), uf_find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def _sort_key(placed: PlacedJob):
    return (job_shape(placed.job), placed.positions_in_pod(),
            placed.name)


def detect_symmetry(params: AstralParams, placed: Sequence[PlacedJob],
                    faults: Optional[Dict[str, FaultSpec]] = None,
                    power_caps: Optional[Dict[int, float]] = None
                    ) -> SymmetryMap:
    """Partition pods into foldable classes, refined groups, and the
    analytic cross-pod tier."""
    faults = dict(faults or {})
    power_caps = dict(power_caps or {})
    for pod, factor in power_caps.items():
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"power cap for pod {pod} must be in (0, 1]: {factor}")
    by_name = {p.name: p for p in placed}
    for name in faults:
        if name not in by_name:
            raise ValueError(f"fault names unknown job {name!r}")

    local_by_pod: Dict[int, List[PlacedJob]] = {}
    cross_jobs: List[PlacedJob] = []
    for p in placed:
        if p.pod_local:
            local_by_pod.setdefault(p.pod, []).append(p)
        else:
            cross_jobs.append(p)

    # -- which pods does each fault break? -----------------------------
    broken: Dict[int, List[str]] = {}
    flat_fallback = False

    def _break(pod: int, reason: str) -> None:
        broken.setdefault(pod, []).append(reason)

    for name, fault in faults.items():
        job = by_name[name]
        target_pod = pod_of_device(fault.target)
        if target_pod is None and not job.pod_local:
            flat_fallback = True
        elif target_pod is None:
            # An unlocatable target (link id, opaque name) on a
            # pod-local job still pins at least that job's pod; link
            # ids shift under renaming and core switches are shared by
            # every pod, so both escalate straight to flat.
            parsed = parse_device(fault.target)
            if (fault.target.startswith("link:")
                    or (parsed is not None
                        and parsed[0] is DeviceKind.CORE)):
                flat_fallback = True
            else:
                _break(job.pod, f"fault {name}: {fault.target}")
        else:
            _break(target_pod, f"fault {name}: {fault.target}")
            for pod in job.pods:
                if pod != target_pod:
                    _break(pod, f"fault {name} on co-tenant pod")

    if flat_fallback:
        group = RefinedGroup(
            pods=tuple(range(params.pods)),
            jobs=list(placed),
            faults=faults,
            reasons=["unlocatable fault target: flat fallback"])
        return SymmetryMap(
            params=params, placed=list(placed), classes=[],
            refined=[group], analytic=[], broken=broken,
            power_caps=power_caps, flat_fallback=True)

    # Close refinement under shared cross-pod tenancy: a cross job with
    # one broken pod must be simulated whole, so its other pods break.
    changed = True
    while changed:
        changed = False
        for p in cross_jobs:
            pods = p.pods
            if any(pod in broken for pod in pods):
                for pod in pods:
                    if pod not in broken:
                        _break(pod, f"cross job {p.name} spans a "
                                    "refined pod")
                        changed = True

    # -- refined groups: union-find over broken pods via cross jobs ---
    parent: Dict[int, int] = {pod: pod for pod in broken}
    refined_cross: List[PlacedJob] = []
    analytic: List[PlacedJob] = []
    for p in cross_jobs:
        if any(pod in broken for pod in p.pods):
            refined_cross.append(p)
            pods = p.pods
            for pod in pods[1:]:
                uf_union(parent, pods[0], pod)
        else:
            analytic.append(p)

    groups: Dict[int, List[int]] = {}
    for pod in sorted(broken):
        groups.setdefault(uf_find(parent, pod), []).append(pod)

    refined: List[RefinedGroup] = []
    for root in sorted(groups):
        pods = tuple(sorted(groups[root]))
        pod_set = set(pods)
        jobs = [p for p in placed
                if (p.pod_local and p.pod in pod_set)
                or (not p.pod_local and p in refined_cross
                    and p.pods[0] in pod_set)]
        group_faults = {name: fault for name, fault in faults.items()
                        if any(pod in pod_set
                               for pod in by_name[name].pods)}
        refined.append(RefinedGroup(
            pods=pods, jobs=jobs, faults=group_faults,
            reasons=sorted({reason for pod in pods
                            for reason in broken[pod]})))

    # -- fold the healthy pods by signature ----------------------------
    cross_by_pod: Dict[int, List[PlacedJob]] = {}
    for p in analytic:
        for pod in p.pods:
            cross_by_pod.setdefault(pod, []).append(p)

    classes: Dict[Tuple, PodClass] = {}
    for pod in sorted(local_by_pod):
        if pod in broken:
            continue
        jobs = sorted(local_by_pod[pod], key=_sort_key)
        signature = pod_signature(
            pod, jobs, cross_by_pod.get(pod, ()),
            power_caps.get(pod, 1.0))
        cls = classes.get(signature)
        if cls is None:
            classes[signature] = PodClass(
                signature=signature, rep=pod, members=[pod],
                jobs_by_pod={pod: jobs},
                certified=line_rate_certificate(params, jobs))
        else:
            cls.members.append(pod)
            cls.jobs_by_pod[pod] = jobs

    return SymmetryMap(
        params=params, placed=list(placed),
        classes=sorted(classes.values(), key=lambda cls: cls.rep),
        refined=refined, analytic=analytic, broken=broken,
        power_caps=power_caps)
