"""Fabric engine vs epoch-global baseline — solver work per completion.

The incremental engine (`repro.network.engine.FabricEngine`) registers
each flow's directed hops once and, on every completion event,
re-solves only the connected component of links the event touched.
The epoch-global baseline (`repro.validation.complete_batch`, the
engine's test oracle) rebuilds the whole membership structure and
re-runs progressive filling over every occupied link at every epoch.  Both count their per-link work with the
same ruler (:class:`~repro.network.engine.SolverStats.link_visits`:
hop registrations + capacity reads + per-link share evaluations), so
the ratio is the incremental solver's measured saving.

Since the vectorized solver core landed, every scenario can run under
either backend (``repro.network.solver``): the pure-python reference
or the numpy incidence kernel.  The backends are bit-identical, so the
smoke point runs both and asserts ``==`` on the finish times; the
slow points run the vector backend and print its wall clock.

Each point prints its series (run with ``-s`` to see it); wall-clock
baselines live in ``python -m bench``.  The smoke-scale scenario runs
in CI (``-m "not slow"``); the 256-host and 1024-host points are
``slow``.
"""

import time

import pytest

from repro.core import GpuAllocator, PlacementPolicy
from repro.network import Fabric, reset_flow_ids
from repro.network.collectives import all_to_all_flows
from repro.network.engine import FabricEngine, SolverStats
from repro.network.flows import make_flow
from repro.network.solver import use_backend
from repro.topology import AstralParams, build_astral
from repro.validation import complete_batch

A2A_BITS = 64e9
#: fan-out window of the 1024-host point (full all-to-all would be
#: ~1M flows; 128 successors keeps the point recordable while still
#: crossing blocks and pods on every host's flow set).
A2A_WINDOW_1024 = 128

def _params_1024():
    """1024 hosts across 4 pods (8 blocks x 32 hosts), dual-rail."""
    return AstralParams(pods=4, blocks_per_pod=8, hosts_per_block=32,
                        gpus_per_host=2, aggs_per_group=4,
                        cores_per_group=4)


def _a2a_flows(allocation, rails):
    """All-to-all across the allocation's hosts on each rail plane."""
    flows = []
    for rail in rails:
        flows.extend(
            all_to_all_flows(allocation.endpoints(rail=rail), A2A_BITS))
    return flows


def _windowed_a2a_flows(allocation, rails, window):
    """Each host exchanges with its next *window* hosts (wrap-around).

    Same per-pair sizing as the full all-to-all; the truncated fan-out
    bounds the flow count at ``hosts * window`` per rail.
    """
    flows = []
    for rail in rails:
        endpoints = allocation.endpoints(rail=rail)
        n = len(endpoints)
        per_pair_bits = A2A_BITS / n
        for index, src in enumerate(endpoints):
            for step in range(1, window + 1):
                dst = endpoints[(index + step) % n]
                flows.append(make_flow(
                    src.host, dst.host, dst.rail, per_pair_bits,
                    dst_rail=dst.rail, collective="all_to_all"))
    return flows


def _measure(n_hosts, rails, solver="python", params=None,
             flows_fn=None, run_batch=True):
    """Run the workload through both solve paths under one backend.

    Returns ``(result, engine_finish)`` — the scenario's metrics
    plus the engine's raw finish-time dict, so callers can
    assert exact cross-backend identity.  With ``run_batch=False``
    only the event-driven engine runs (the huge points, where the
    epoch-global baseline is prohibitive).
    """
    topology = build_astral(params or AstralParams.cluster())
    allocation = GpuAllocator(topology).allocate(
        "bench", n_hosts, PlacementPolicy.PACKED)
    flows_fn = flows_fn or _a2a_flows

    result = {"hosts": n_hosts, "rails": len(rails),
              "size_bits": A2A_BITS, "solver": solver}
    with use_backend(solver):
        batch_run = None
        if run_batch:
            reset_flow_ids()
            fabric = Fabric(topology)
            flows = flows_fn(allocation, rails)
            batch_stats = SolverStats()
            t0 = time.perf_counter()
            batch_run = complete_batch(fabric, flows, stats=batch_stats)
            batch_wall = time.perf_counter() - t0
            result["batch"] = {
                "epochs": batch_stats.solves,
                "solver_calls": batch_stats.solves,
                "link_visits": batch_stats.link_visits,
                "wall_s": round(batch_wall, 3),
            }
            result["hops_cache_hits"] = fabric.hops_cache_hits
            result["hops_cache_misses"] = fabric.hops_cache_misses

        reset_flow_ids()
        fabric = Fabric(topology)
        flows = flows_fn(allocation, rails)
        t0 = time.perf_counter()
        engine = FabricEngine(fabric)
        for flow in flows:
            engine.submit(flow, start_time_s=0.0)
        engine_run = engine.run()
        engine_wall = time.perf_counter() - t0

    result["flows"] = len(flows)
    result["engine"] = {
        "solves": engine.stats.solves,
        "components_solved": engine.stats.components_solved,
        "link_visits": engine.stats.link_visits,
        "wall_s": round(engine_wall, 3),
    }
    if batch_run is not None:
        result["max_finish_diff_s"] = max(
            abs(batch_run.finish_times_s[fid]
                - engine_run.finish_times_s[fid])
            for fid in batch_run.finish_times_s)
        result["link_visit_ratio"] = round(
            result["batch"]["link_visits"]
            / max(result["engine"]["link_visits"], 1), 2)
    return result, dict(engine_run.finish_times_s)


def _series(result):
    rows = [("flows", result["flows"])]
    if "batch" in result:
        rows += [
            ("batch epochs", result["batch"]["epochs"]),
            ("batch link visits", result["batch"]["link_visits"]),
            ("batch wall (s)", result["batch"]["wall_s"]),
        ]
    rows += [
        ("engine solves", result["engine"]["solves"]),
        ("engine components", result["engine"]["components_solved"]),
        ("engine link visits", result["engine"]["link_visits"]),
        ("engine wall (s)", result["engine"]["wall_s"]),
    ]
    for key in ("link_visit_ratio", "max_finish_diff_s"):
        if key in result:
            rows.append((key.replace("_", " "), result[key]))
    return rows


def test_engine_vs_batch_smoke(benchmark, series_printer):
    """64-host dual-rail all-to-all: the CI smoke point.

    The two rail planes are link-disjoint, so their completion events
    interleave and the engine re-solves one plane at a time while the
    baseline re-solves both every epoch — the component restriction
    plus one-time hop registration is the measured ≥2× saving.  When
    numpy is present the same scenario re-runs under the vector
    backend and every finish time must compare ``==`` (bit-identical
    backends), with batch ``link_visits`` identical under the shared
    ruler.
    """
    result, finish_py = benchmark.pedantic(
        _measure, args=(64, (0, 1)), rounds=1, iterations=1)
    series_printer(
        "Fabric engine vs epoch-global baseline (64 hosts, 2 rails)",
        _series(result), ["metric", "value"])
    # Same fluid model, same finish times.
    assert result["max_finish_diff_s"] < 1e-9
    # The incremental solver does measurably less per-link work.
    assert result["link_visit_ratio"] >= 2.0
    # Hop-memoization guard: directed hops are computed once per flow
    # and re-used across every subsequent epoch.
    assert result["hops_cache_hits"] > 10 * result["hops_cache_misses"]

    vec_result, finish_vec = _measure(64, (0, 1), solver="vector")
    series_printer(
        "Vector backend, same scenario (64 hosts, 2 rails)",
        _series(vec_result), ["metric", "value"])
    # Bit-identity across backends: exact dict equality.  Both backends
    # run the same engine and batch drivers and differ only in the fill
    # kernel, so the work counters match visit for visit as well.
    assert finish_vec == finish_py
    assert vec_result["batch"]["link_visits"] \
        == result["batch"]["link_visits"]
    assert vec_result["engine"]["link_visits"] \
        == result["engine"]["link_visits"]
    assert vec_result["max_finish_diff_s"] < 1e-9


@pytest.mark.slow
def test_engine_vs_batch_256host_vector(benchmark, series_printer):
    """Paper-scale point under the vector backend: 256-host dual-rail
    all-to-all (130,560 flows), engine against the epoch-global
    baseline."""
    result, _ = benchmark.pedantic(
        _measure, args=(256, (0, 1)), kwargs={"solver": "vector"},
        rounds=1, iterations=1)
    series_printer(
        "Vector solver backend (256 hosts, 2 rails)",
        _series(result), ["metric", "value"])
    assert result["max_finish_diff_s"] < 1e-9
    assert result["link_visit_ratio"] >= 2.0


@pytest.mark.slow
def test_engine_1024host_vector(benchmark, series_printer):
    """1024-host single-rail windowed all-to-all, vector engine only.

    The scale point the vectorization unlocks: four times the hosts of
    the paper-scale scenario on a 4-pod fabric.  Full fan-out at this
    size would be ~1M flows, so each host exchanges with its 128
    successors (131,072 flows — the same order as the 256-host full
    all-to-all, but routed across a 4× larger link universe).  The
    epoch-global baseline is prohibitive here; only the event-driven
    engine runs."""
    result, _ = benchmark.pedantic(
        _measure, args=(1024, (0,)),
        kwargs={"solver": "vector", "params": _params_1024(),
                "flows_fn": lambda alloc, rails: _windowed_a2a_flows(
                    alloc, rails, A2A_WINDOW_1024),
                "run_batch": False},
        rounds=1, iterations=1)
    result["window"] = A2A_WINDOW_1024
    series_printer(
        "Vector engine, 1024 hosts (window-128 all-to-all, 1 rail)",
        _series(result), ["metric", "value"])
    assert result["flows"] == 1024 * A2A_WINDOW_1024
    assert result["engine"]["solves"] > 0
