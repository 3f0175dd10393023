"""Scale presets and scenario builders for hierarchical runs.

The three named scales ladder up to the paper's deployment:

===== ======= ====== ================ ===========================
label GPUs    hosts  dims (p/b/h/g)   role
===== ======= ====== ================ ===========================
4k    4,096   512    2/4/64/8         laptop sanity scale
64k   65,536  8,192  4/16/128/8       datacenter-hall scale
512k  524,288 65,536 8/64/128/8       the paper's full deployment
===== ======= ====== ================ ===========================

``512k`` is exactly ``AstralParams()`` — the published Figure 3
dimensions.  ``uniform_jobs`` carves the cluster into equal
single-rail tenants in placement order, optionally splitting the tail
pods onto a second job shape so scenarios exercise multiple pod
classes rather than one degenerate fold.
"""

from __future__ import annotations

from typing import List

from ..topology.astral import AstralParams
from .virtual import HierJob

__all__ = ["SCALE_PRESETS", "preset_params", "uniform_jobs"]

SCALE_PRESETS = ("4k", "64k", "512k")


def preset_params(scale: str) -> AstralParams:
    if scale == "4k":
        return AstralParams(pods=2, blocks_per_pod=4,
                            hosts_per_block=64, gpus_per_host=8,
                            aggs_per_group=4, cores_per_group=4)
    if scale == "64k":
        return AstralParams(pods=4, blocks_per_pod=16,
                            hosts_per_block=128, gpus_per_host=8,
                            aggs_per_group=8, cores_per_group=8)
    if scale == "512k":
        return AstralParams()
    raise ValueError(
        f"unknown scale {scale!r}; expected one of {SCALE_PRESETS}")


def uniform_jobs(params: AstralParams, hosts_per_job: int,
                 iterations: int = 4, compute_time_s: float = 0.5,
                 comm_size_bits: float = 8e9,
                 collective: str = "allreduce", seed: int = 0,
                 tail_shapes: int = 1) -> List[HierJob]:
    """Equal-size tenants tiling the whole cluster, placement order.

    ``hosts_per_job`` should divide ``hosts_per_block`` (or be a
    multiple of it) so jobs align to block boundaries and pods stay
    mutually symmetric.  With ``tail_shapes=2`` the last pod's jobs get
    a distinct seed, producing two pod classes instead of one.
    """
    total = params.pods * params.blocks_per_pod * params.hosts_per_block
    if hosts_per_job < 1 or hosts_per_job > total:
        raise ValueError(f"hosts_per_job out of range: {hosts_per_job}")
    n_jobs = total // hosts_per_job
    per_pod = total // params.pods // hosts_per_job
    width = max(4, len(str(n_jobs)))
    jobs = []
    for index in range(n_jobs):
        tail = (tail_shapes > 1 and per_pod > 0
                and index >= (params.pods - 1) * per_pod)
        jobs.append(HierJob(
            name=f"job{index:0{width}d}",
            n_hosts=hosts_per_job,
            compute_time_s=compute_time_s,
            comm_size_bits=comm_size_bits,
            iterations=iterations,
            collective=collective,
            seed=seed + (1 if tail else 0)))
    return jobs
