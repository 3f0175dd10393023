"""Arithmetic view of an Astral fabric: coordinates without objects.

The flat builder (:func:`repro.topology.astral.build_astral`)
instantiates every host, switch, and link as a Python object — ~78K
devices at paper scale, which is exactly what the hierarchical layer
must avoid.  This module works purely in *coordinates*: a host is a
``(pod, block, host)`` triple, devices are names derived from the same
formulas the builder uses, and placement is integer arithmetic over
:class:`~repro.topology.astral.AstralParams`.  Nothing here allocates
per-device state, so a 512K-GPU cluster costs a dataclass.

A placement is its block slices: a :class:`PlacedJob` holds maximal
runs ``(pod, block, first, count)`` of hosts, one per slice of a block
it occupies, so placing, signing and folding a tenant costs its slices,
not its hosts.  Per-host coordinates are expanded on demand
(:attr:`PlacedJob.coords`, never cached) only where hosts are named:
:meth:`PlacedJob.host_names` renders them through
:mod:`repro.topology.astral`'s codec, the same functions the builder
uses, so folded sub-simulations and flat reference runs agree on every
identifier.  A name is parsed only where it comes in from outside: a
job's pinned ``hosts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..topology.astral import AstralParams, host_name, parse_device
from ..topology.elements import DeviceKind

__all__ = [
    "Coord",
    "HierJob",
    "PlacedJob",
    "Span",
    "parse_host",
    "pod_of_device",
    "place_jobs",
]

#: (pod, block, host) — one host's coordinates in the fabric.
Coord = Tuple[int, int, int]

#: (pod, block, first, count) — hosts ``first .. first + count - 1`` of
#: one block, a slice of a placement.
Span = Tuple[int, int, int, int]


def parse_host(name: str) -> Coord:
    """``p1.b2.h3`` -> ``(1, 2, 3)``; raises ValueError otherwise."""
    parsed = parse_device(name)
    if parsed is None or parsed[0] is not DeviceKind.HOST:
        raise ValueError(f"not an Astral host name: {name!r}")
    return parsed[1], parsed[2], parsed[5]


def pod_of_device(name: str) -> Optional[int]:
    """Pod index of a host, ToR or Agg name, or None (core tier,
    ``link:`` ids and other opaque targets)."""
    parsed = parse_device(name)
    return None if parsed is None else parsed[1]


def _runs(spans: Iterable[Span]) -> Tuple[Span, ...]:
    """*spans* with each one that continues the one before it (same pod
    and block, next host) merged into it: the maximal runs of the same
    host sequence.  Maximal runs are canonical — two host sequences are
    equal exactly when their runs are."""
    merged: List[List[int]] = []
    for pod, block, first, count in spans:
        if merged:
            last = merged[-1]
            if (last[0] == pod and last[1] == block
                    and last[2] + last[3] == first):
                last[3] += count
                continue
        merged.append([pod, block, first, count])
    return tuple(tuple(span) for span in merged)


@dataclass(frozen=True)
class HierJob:
    """Shape of one tenant in a hierarchical scenario.

    Mirrors :class:`repro.monitoring.jobsim.JobConfig`, minus concrete
    host names: jobs are placed by the contiguous virtual placer unless
    ``hosts`` pins them explicitly.  Identically-shaped jobs (same
    field values except ``name``/``hosts``) at identical pod-relative
    positions are what the symmetry detector folds together — note
    ``seed`` is part of the shape, because the compute-noise draws it
    feeds must replicate bit-for-bit.
    """

    name: str
    n_hosts: int = 0
    hosts: Tuple[str, ...] = ()
    rail: int = 0
    compute_time_s: float = 0.5
    comm_size_bits: float = 8e9
    iterations: int = 4
    collective: str = "allreduce"
    compute_noise_frac: float = 0.01
    seed: int = 0
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.hosts and self.n_hosts < 1:
            raise ValueError(
                f"job {self.name!r} needs n_hosts >= 1 or explicit hosts")


@dataclass(frozen=True)
class PlacedJob:
    """A job bound to block slices of the fabric.

    ``spans`` are the maximal runs :func:`_runs` makes of its hosts, in
    placement (ring) order.  Because runs are canonical, two jobs of
    one pod hold the same pod-relative host slots exactly when their
    spans minus the pod are equal, which is what a signature compares;
    and two jobs never share a host, so jobs of one pod (or block)
    differ in their first slot and sort the same by spans as by hosts.
    """

    job: HierJob
    spans: Tuple[Span, ...]

    @property
    def name(self) -> str:
        return self.job.name

    @property
    def n_hosts(self) -> int:
        return sum(span[3] for span in self.spans)

    @property
    def coords(self) -> Tuple[Coord, ...]:
        """Per-host coordinates, in placement order: expanded from the
        spans on every call, for code that names hosts."""
        return tuple((pod, block, host)
                     for pod, block, first, count in self.spans
                     for host in range(first, first + count))

    def host_names(self, pod_map: Optional[Dict[int, int]] = None,
                   block_map: Optional[Dict[int, int]] = None
                   ) -> Tuple[str, ...]:
        """Its hosts' names, in placement order.  *pod_map* and
        *block_map*, when given, move each host's pod and block into a
        sub-simulation's coordinates; one missing from its map raises
        ``KeyError``."""
        return tuple(
            host_name(pod if pod_map is None else pod_map[pod],
                      block if block_map is None else block_map[block],
                      host)
            for pod, block, host in self.coords)

    @property
    def pods(self) -> Tuple[int, ...]:
        return tuple(sorted({span[0] for span in self.spans}))

    @property
    def pod_local(self) -> bool:
        return len(self.pods) == 1

    @property
    def pod(self) -> int:
        """The single pod of a pod-local job."""
        pods = self.pods
        if len(pods) != 1:
            raise ValueError(f"job {self.name!r} spans pods {pods}")
        return pods[0]

    @property
    def blocks(self) -> Tuple[int, ...]:
        return tuple(sorted({span[1] for span in self.spans}))

    def positions_in_pod(self, pod: Optional[int] = None
                         ) -> Tuple[Tuple[int, int, int], ...]:
        """Pod-relative slices ``(block, first, count)``, in ring
        (placement) order: of the hosts in *pod* when given (merged
        into maximal runs again), of every host otherwise."""
        spans = self.spans if pod is None else _runs(
            span for span in self.spans if span[0] == pod)
        return tuple(span[1:] for span in spans)


def place_jobs(params: AstralParams,
               jobs: Sequence[HierJob]) -> List[PlacedJob]:
    """Contiguously place *jobs* on the virtual fabric, in order.

    The cursor walks hosts pod-major (pod, block, host) — the same
    order a contiguous flat allocator fills — so identical job
    sequences land at identical pod-relative slots in every pod, which
    is what gives the symmetry detector something to fold.  Jobs with
    explicit ``hosts`` are honoured verbatim (and may overlap the
    cursor only if the caller wants them to: explicitly-placed hosts
    are reserved before the cursor starts).

    The cursor takes a whole slice of a block per step, up to the
    block's end, the job's size or the next reserved host, so a job
    costs its spans, not its hosts.
    """
    per_block = params.hosts_per_block
    n_blocks = params.pods * params.blocks_per_pod
    total = n_blocks * per_block
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError("job names must be unique")
    reserved: Dict[Tuple[int, int], set] = {}
    for job in jobs:
        for host in job.hosts:
            pod, block, index = parse_host(host)
            taken = reserved.setdefault((pod, block), set())
            if index in taken:
                raise ValueError(
                    f"host {host} pinned by more than one job")
            taken.add(index)
    placed: List[PlacedJob] = []
    block_cursor = offset = 0      # next block (pod-major), host in it
    for job in jobs:
        if job.hosts:
            placed.append(PlacedJob(job, _runs(
                (*parse_host(host), 1) for host in job.hosts)))
            continue
        spans: List[Span] = []
        need = job.n_hosts
        while need:
            if block_cursor >= n_blocks:
                raise ValueError(
                    f"cluster exhausted placing job {job.name!r}: "
                    f"{total} hosts, need {job.n_hosts} more")
            pod, block = divmod(block_cursor, params.blocks_per_pod)
            taken = reserved.get((pod, block), ())
            while need and offset < per_block:
                if offset in taken:
                    offset += 1
                    continue
                stop = min([per_block, offset + need]
                           + [index for index in taken if index > offset])
                spans.append((pod, block, offset, stop - offset))
                need -= stop - offset
                offset = stop
            if offset >= per_block:
                block_cursor += 1
                offset = 0
        placed.append(PlacedJob(job, tuple(spans)))
    return placed
