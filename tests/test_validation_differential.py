"""Differential checkers: engine vs batch, flow vs analytic, fluid vs
packet.

The engine-vs-batch equality is *exact* (``==`` on floats): both
integrate with cached absolute deadlines since the epoch-drift fix in
the batch oracle ``complete_batch``.  The regression test below
re-implements the old relative-step integrator and shows the
differential catches the drift it produces — the bug the validation
harness surfaced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Fabric, make_flow, reset_flow_ids
from repro.simcore import SimulationError
from repro.topology import AstralParams, build_astral
from repro.validation import (
    check_engine_vs_batch,
    check_fluid_vs_packet,
    check_ring_vs_analytic,
    check_rs_ag_composition,
    complete_batch,
)


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def _random_flows(rng, hosts, count):
    flows = []
    for _ in range(count):
        src, dst = rng.sample(hosts, 2)
        flows.append(make_flow(src, dst, rail=rng.randrange(4),
                               size_bits=10 ** rng.uniform(8, 11)))
    return flows


class TestEngineVsBatch:
    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_for_simultaneous_starts(self, seed):
        rng = random.Random(f"diff:{seed}")
        reset_flow_ids()
        topo = build_astral(AstralParams.small())
        fabric = Fabric(topo)
        hosts = sorted(host.name for host in topo.hosts())
        flows = _random_flows(rng, hosts, rng.randint(2, 10))
        assert check_engine_vs_batch(fabric, flows) == []

    def test_regression_epoch_drift_seeds(self):
        """Seeds that drifted 1-2 ulp under the old relative-step
        batch integrator must now agree exactly."""
        for seed in (0, 1, 2, 3, 5, 8):
            rng = random.Random(f"probe:{seed}")
            reset_flow_ids()
            topo = build_astral(AstralParams.small())
            fabric = Fabric(topo)
            hosts = sorted(host.name for host in topo.hosts())
            flows = _random_flows(rng, hosts, rng.randint(2, 10))
            paths = fabric.resolve_paths(flows)
            engine = fabric.complete(flows, paths=paths)
            batch = complete_batch(fabric, flows, paths=paths)
            assert engine.finish_times_s == batch.finish_times_s

    def test_differential_catches_relative_step_integration(self):
        """The pre-fix integrator (``now += step``; decrement by
        ``rate * step``) drifts from the engine within a few random
        workloads — proof the exact differential has teeth."""
        drifted = 0
        for seed in range(20):
            rng = random.Random(f"probe:{seed}")
            reset_flow_ids()
            topo = build_astral(AstralParams.small())
            fabric = Fabric(topo)
            hosts = sorted(host.name for host in topo.hosts())
            flows = _random_flows(rng, hosts, rng.randint(2, 10))
            paths = fabric.resolve_paths(flows)
            engine = fabric.complete(flows, paths=paths)
            legacy = _legacy_complete_batch(fabric, flows, paths)
            if engine.finish_times_s != legacy:
                drifted += 1
        assert drifted > 0


def _legacy_complete_batch(fabric, flows, paths):
    """The old epoch loop, verbatim in miniature."""
    remaining = {f.flow_id: float(f.size_bits) for f in flows}
    finish = {}
    active = {f.flow_id: f for f in flows if f.size_bits > 0}
    for f in flows:
        if f.size_bits <= 0:
            finish[f.flow_id] = 0.0
    now = 0.0
    stalls = 0
    while active:
        rates = fabric.max_min_rates(
            list(active.values()), {fid: paths[fid] for fid in active})
        if not any(rates[fid] > 0 for fid in active):
            raise SimulationError("starved")
        step = min(remaining[fid] / (rates[fid] * 1e9)
                   for fid in active if rates[fid] > 0)
        now += step
        done = []
        for fid in list(active):
            remaining[fid] -= rates[fid] * 1e9 * step
            if remaining[fid] <= 1e-6:
                finish[fid] = now
                done.append(fid)
        for fid in done:
            del active[fid]
        stalls = 0 if done else stalls + 1
        if stalls >= 8:
            raise RuntimeError("no progress")
    return finish


class TestFlowVsAnalytic:
    @pytest.fixture(scope="class")
    def fabric(self):
        return Fabric(build_astral(AstralParams.small()))

    def test_ring_matches_analytic_bandwidth(self, fabric):
        hosts = [f"p0.b0.h{i}" for i in range(4)]
        assert check_ring_vs_analytic(fabric, hosts, rail=0,
                                      size_bits=64e9) == []

    def test_rs_ag_composes_to_allreduce(self, fabric):
        hosts = [f"p0.b0.h{i}" for i in range(4)]
        assert check_rs_ag_composition(fabric, hosts, rail=0,
                                       size_bits=64e9) == []


class TestFluidVsPacket:
    def test_underloaded_agrees(self):
        assert check_fluid_vs_packet(400.0, 200.0) == []

    def test_overloaded_agrees(self):
        assert check_fluid_vs_packet(400.0, 800.0) == []

    def test_boundary_regime_not_judged(self):
        assert check_fluid_vs_packet(400.0, 400.0) == []
