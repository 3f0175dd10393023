"""Diurnal serving co-schedule at 64K-GPU scale — the fold's dividend.

A full simulated day of planetary inference demand (~130M requests
across three continents) plus a 96-job training tenant runs through
the whole pipeline — trace, autoscale, folded pool simulations, KV
co-simulation, cap-enforcing scheduler, power roll-up — in well under
a second, because every (pair, bucket, replica) cell collapses onto a
handful of distinct per-replica rate classes.

The point prints wall time, fold factor, SLO percentiles, and the
tidal flattening metrics (run with ``-s`` to see them), and bounds
the wall, the fold and the SLOs.
"""

import time

from repro.serving import ServingRun, ServingScenario


def _measure() -> dict:
    scenario = ServingScenario(preset="64k")
    t0 = time.perf_counter()
    report = ServingRun(scenario).run()
    wall_s = time.perf_counter() - t0
    slo = report.slo
    return {
        "preset": "64k",
        "requests": report.trace["total_requests"],
        "n_buckets": report.trace["n_buckets"],
        "replica_buckets": report.fold["replica_buckets"],
        "pool_sims": report.fold["n_pool_sims"],
        "fold_factor": round(report.fold["fold_factor"], 1),
        "ttft_p50_ms": round(slo["ttft_p50_s"] * 1e3, 3),
        "ttft_p99_ms": round(slo["ttft_p99_s"] * 1e3, 3),
        "tpot_p50_ms": round(slo["tpot_p50_s"] * 1e3, 3),
        "goodput_fraction": slo["goodput_fraction"],
        "training_efficiency": report.cosim["training_efficiency"],
        "preemptions": report.training["preemptions"],
        "cv_serving": report.power["flatness_cv_serving"],
        "cv_total": report.power["flatness_cv_total"],
        "trough_fill": report.power["trough_fill_fraction"],
        "wall_s": round(wall_s, 3),
    }


def test_bench_serving_diurnal_64k():
    result = _measure()

    # A simulated day at 64K GPUs stays interactive.
    assert result["wall_s"] < 30.0
    # The fold is what makes that possible: thousands of
    # replica-buckets collapse onto tens of pool simulations.
    assert result["fold_factor"] > 50.0
    # The co-scheduled day holds its SLOs and flattens the tide:
    # training fills the serving trough almost completely.
    assert result["goodput_fraction"] > 0.95
    assert result["ttft_p50_ms"] < 1000.0
    assert result["trough_fill"] > 0.5
    assert result["cv_total"] < 1.0
    print("\n64k diurnal serving:")
    for key, value in result.items():
        print(f"  {key:<20} {value}")
