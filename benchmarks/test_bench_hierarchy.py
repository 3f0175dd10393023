"""Hierarchical fold at paper scale — wall-clock and memory budgets.

The scale bar from the roadmap: simulate the paper's full 512K-GPU
deployment (65,536 hosts, thousands of tenants) in minutes on a
laptop.  The flat engine tops out around 256 hosts; the symmetry fold
(`repro.hierarchy`) solves one representative block per equivalence
class and replicates, so the engine-simulated host count — and the
wall clock — depends on the number of *distinct* pod/block shapes,
not the cluster size.

Each scale point prints wall time, peak RSS, and the fold statistics
(run with ``-s`` to see them) and holds the wall to a budget.  All
three points run in CI: the whole ladder is seconds.
"""

import resource
import time

from repro.hierarchy import (HierarchicalRun, place_jobs, preset_params,
                             uniform_jobs)
from repro.resilience import FaultDomain, expand_domains

#: scale -> hosts per tenant (divides hosts_per_block, so every job is
#: single-block and the block fold applies; 512k lands at 2048 jobs).
_HOSTS_PER_JOB = {"4k": 64, "64k": 64, "512k": 32}


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS, where this bench is
    # not the CI target); a process-lifetime high-water mark.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(scale: str) -> dict:
    params = preset_params(scale)
    jobs = uniform_jobs(params, _HOSTS_PER_JOB[scale], iterations=4,
                        tail_shapes=2)
    t0 = time.perf_counter()
    run = HierarchicalRun(params, jobs)
    run.run()
    wall_s = time.perf_counter() - t0
    report = run.report
    return {
        "gpus": params.total_gpus,
        "hosts": params.pods * params.blocks_per_pod
        * params.hosts_per_block,
        "jobs": report.n_jobs,
        "pod_classes": report.n_pod_classes,
        "engine_sims": report.n_engine_sims,
        "engine_hosts": report.engine_hosts,
        "fold_factor": round(report.fold_factor, 1),
        "exact": report.exact,
        "mean_efficiency": round(report.mean_efficiency, 4),
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def _series(result):
    return [(key, result[key]) for key in (
        "gpus", "hosts", "jobs", "pod_classes", "engine_sims",
        "engine_hosts", "fold_factor", "exact", "mean_efficiency",
        "wall_s", "peak_rss_mb")]


def _bench(scale, benchmark, series_printer, wall_budget_s):
    result = benchmark.pedantic(
        _measure, args=(scale,), rounds=1, iterations=1)
    series_printer(f"Hierarchical fold at {scale} GPUs",
                   _series(result), ["metric", "value"])
    assert result["exact"]
    assert result["wall_s"] < wall_budget_s
    return result


def test_hierarchy_4k(benchmark, series_printer):
    """Laptop sanity scale: 4,096 GPUs, 8 tenants."""
    result = _bench("4k", benchmark, series_printer, wall_budget_s=60)
    assert result["fold_factor"] >= 4


def test_hierarchy_64k(benchmark, series_printer):
    """Datacenter-hall scale: 65,536 GPUs, 128 tenants."""
    result = _bench("64k", benchmark, series_printer, wall_budget_s=120)
    assert result["fold_factor"] >= 32


def test_hierarchy_512k(benchmark, series_printer):
    """The paper's full deployment: 524,288 GPUs, 2,048 tenants.

    The roadmap bar is five minutes; the fold delivers it with minutes
    to spare because only one representative block per class (two
    classes with ``tail_shapes=2``) ever touches the engine.
    """
    result = _bench("512k", benchmark, series_printer, wall_budget_s=300)
    assert result["jobs"] == 2048
    assert result["fold_factor"] >= 256


def test_hierarchy_512k_faulted(benchmark, series_printer):
    """Full 512K deployment surviving a correlated optics-batch fault.

    One hard optics-batch domain event breaks a pod's symmetry;
    bounded refinement unfolds only the blast-radius-touched block
    (plus the shared uplink tier) instead of the whole 8,192-host pod.
    The economy is the result: engine-billed refinement hosts must
    beat the whole-pod unfold by at least 5x, inside the same
    five-minute budget as the fault-free point.
    """
    scale = "512k"
    params = preset_params(scale)
    jobs = uniform_jobs(params, _HOSTS_PER_JOB[scale], iterations=4,
                        tail_shapes=2)
    # Hard mode keeps the fault inside the block-level exactness
    # certificate (fail-stop NIC: flows stay pinned at line rate);
    # the gray crawl would escalate to pod scope by design.
    domain = FaultDomain("optics-batch", pod=3, block=7, size=1,
                         mode="hard", seed="bench-512k")
    faults = expand_domains(params, place_jobs(params, jobs), [domain])
    assert len(faults) == 1

    def measure():
        t0 = time.perf_counter()
        run = HierarchicalRun(params, jobs, faults=faults,
                              refine="bounded")
        run.run()
        wall_s = time.perf_counter() - t0
        report = run.report
        return {
            "gpus": params.total_gpus,
            "jobs": report.n_jobs,
            "fault": "optics-batch[hard] pod 3 block 7 size 1",
            "refine_levels": dict(report.refine_levels),
            "refine_engine_hosts": report.n_refine_engine_hosts,
            "full_unfold_hosts": report.n_full_unfold_hosts,
            "unfold_economy": round(report.n_full_unfold_hosts
                                    / report.n_refine_engine_hosts, 1),
            "wall_s": round(wall_s, 3),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
        }

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    series_printer("Hierarchical fold at 512k GPUs, faulted",
                   [(key, result[key]) for key in (
                       "gpus", "jobs", "fault", "refine_levels",
                       "refine_engine_hosts", "full_unfold_hosts",
                       "unfold_economy", "wall_s", "peak_rss_mb")],
                   ["metric", "value"])
    assert result["refine_levels"] == {"block": 1}
    assert result["unfold_economy"] >= 5.0
    assert result["wall_s"] < 300
