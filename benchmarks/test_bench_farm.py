"""Farm throughput: the 50-case fuzz sweep, 1 worker vs N.

The acceptance bar for ``repro.farm`` is twofold: the parallel sweep
must be *bit-identical* to the serial one (the executor is a pure
wall-clock knob), and on a multi-core box it must actually buy that
wall-clock back — ≥2× at 4 workers for the 50-case validation fuzz
sweep.  A warm rerun from the content-addressed cache must execute
zero simulations.

Results are merged into ``BENCH_farm.json`` at the repo root so the
throughput trajectory is recorded run over run.  The speedup
assertion is gated on ``os.cpu_count()`` — a single-core container
cannot speed anything up, but it must still match bit for bit.
"""

import os
import pathlib
import time

from repro.farm import FarmExecutor, ResultCache, TaskSpec

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_farm.json"
N_CASES = 50
SWEEP_WORKERS = 4


def _fuzz_specs():
    return [
        TaskSpec("validation-case",
                 {"seed": 1729, "index": index, "fast": True})
        for index in range(N_CASES)
    ]


def _timed_run(tmp_path, name, workers, use_cache=False):
    cache = ResultCache(root=tmp_path / name)
    t0 = time.perf_counter()
    report = FarmExecutor(workers=workers, use_cache=use_cache,
                          cache=cache).run(_fuzz_specs())
    wall = time.perf_counter() - t0
    assert report.ok, report.failures and report.failures[0].error
    return report, wall


def test_fuzz_sweep_throughput(tmp_path, series_printer, bench_record):
    serial, serial_wall = _timed_run(tmp_path, "serial", workers=1)
    parallel, parallel_wall = _timed_run(
        tmp_path, "parallel", workers=SWEEP_WORKERS)

    # The hard bar first: parallel == serial, bit for bit.
    assert serial.identity() == parallel.identity()

    # Warm rerun against the parallel run's cache: zero simulations.
    warm_cache = ResultCache(root=tmp_path / "parallel")
    t0 = time.perf_counter()
    warm = FarmExecutor(workers=SWEEP_WORKERS, use_cache=True,
                        cache=warm_cache).run(_fuzz_specs())
    warm_wall = time.perf_counter() - t0
    assert warm.n_executed == 0
    assert warm.n_cached == N_CASES
    assert warm.identity() == serial.identity()

    speedup = serial_wall / max(parallel_wall, 1e-9)
    cores = os.cpu_count() or 1
    result = {
        "cases": N_CASES,
        "workers": SWEEP_WORKERS,
        "cpu_count": cores,
        "serial_wall_s": round(serial_wall, 3),
        "serial_cases_per_s": round(N_CASES / serial_wall, 1),
        "parallel_wall_s": round(parallel_wall, 3),
        "parallel_cases_per_s": round(N_CASES / parallel_wall, 1),
        "speedup": round(speedup, 2),
        "warm_wall_s": round(warm_wall, 3),
        "warm_executed": warm.n_executed,
        "warm_cached": warm.n_cached,
    }
    bench_record(BENCH_JSON, "fuzz_sweep_50case", result)
    series_printer(
        f"Farm fuzz sweep ({N_CASES} cases, {SWEEP_WORKERS} workers)",
        [(k, v) for k, v in result.items()], ["metric", "value"])

    # The speedup claim needs cores to claim it on.
    if cores >= SWEEP_WORKERS:
        assert speedup >= 2.0, \
            f"expected >=2x at {SWEEP_WORKERS} workers, got {speedup:.2f}x"
    elif cores >= 2:
        assert speedup >= 1.2, \
            f"expected >=1.2x on {cores} cores, got {speedup:.2f}x"
