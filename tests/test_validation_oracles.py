"""Unit tests of the invariant oracles — including that they *detect*.

A validation harness that cannot fail is decoration: for every oracle
there is one test that it passes on a legitimate artifact and one that
it fires on a deliberately corrupted artifact.
"""

import pytest

from repro.network import (
    Fabric,
    make_flow,
    reset_flow_ids,
    resolve_backend,
    use_backend,
)
from repro.topology import AstralParams, build_astral
from repro.validation import (
    TracingSimulator,
    Violation,
    check_clock_monotonic,
    check_replay,
    check_solution,
    replay_conservation,
)


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@pytest.fixture()
def fabric():
    return Fabric(build_astral(AstralParams.tiny()))


def _flows(fabric, count=4):
    hosts = sorted(host.name for host in fabric.topology.hosts())
    flows = []
    for index in range(count):
        src = hosts[index % len(hosts)]
        dst = hosts[(index + 1) % len(hosts)]
        flows.append(make_flow(src, dst, rail=0, size_bits=8e9))
    return flows


class TestRateOracles:
    def test_legitimate_solution_is_clean(self, fabric):
        flows = _flows(fabric)
        assert check_solution(fabric, flows) == []

    def test_feasibility_fires_on_overallocation(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        # Hand every flow the full line rate: shared links overflow.
        rates = {flow.flow_id: fabric.host_line_rate_gbps * 4
                 for flow in flows}
        violations = check_solution(fabric, flows, paths, rates)
        assert violations
        assert all(v.oracle == "rate-feasibility" for v in violations)

    def test_work_conservation_fires_on_starved_flow(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        rates = {flow.flow_id: 100.0 for flow in flows}
        rates[flows[0].flow_id] = 0.0
        violations = check_solution(fabric, flows, paths, rates)
        starved = [v for v in violations
                   if v.oracle == "work-conservation"]
        assert len(starved) == 1
        assert f"flow {flows[0].flow_id} " in starved[0].detail

    def test_kkt_fires_on_underallocated_flow(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        rates = fabric.max_min_rates(flows, paths)
        assert check_solution(fabric, flows, paths, rates) == []
        # Halve one flow's rate: it is now below line rate with no
        # saturated link where it is maximal — not max-min optimal.
        victim = flows[0].flow_id
        rates[victim] = rates[victim] / 2
        violations = check_solution(fabric, flows, paths, rates)
        assert any(v.oracle == "max-min-kkt"
                   and str(victim) in v.detail for v in violations)

    def test_capacity_factors_respected(self, fabric):
        flows = _flows(fabric, count=2)
        paths = fabric.resolve_paths(flows)
        hop = fabric.directed_hops(paths[flows[0].flow_id])[0]
        factors = {hop: 0.5}
        rates = fabric.max_min_rates(flows, paths,
                                     capacity_factors=factors)
        assert check_solution(fabric, flows, paths, rates,
                              capacity_factors=factors) == []
        # The same rates judged against unscaled capacity also pass
        # (factor only shrinks the budget), but judged against a
        # tighter factor they overflow.
        tight = {hop: rates[flows[0].flow_id]
                 / (2 * fabric.topology.links[hop[0]].capacity_gbps)}
        violations = check_solution(fabric, flows, paths, rates,
                                    capacity_factors=tight)
        assert any(v.oracle == "rate-feasibility" for v in violations)


class TestByteConservation:
    def test_batch_run_conserves_bytes(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        run = fabric.complete(flows, paths=paths)
        assert replay_conservation(fabric, flows, run.finish_times_s,
                                   paths) == []

    def test_fires_on_corrupted_finish_time(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        run = fabric.complete(flows, paths=paths)
        finish = dict(run.finish_times_s)
        victim = flows[0].flow_id
        finish[victim] = finish[victim] * 0.5
        violations = replay_conservation(fabric, flows, finish, paths,
                                         check_epochs=False)
        assert any(v.oracle == "byte-conservation"
                   and str(victim) in v.detail for v in violations)

    def test_fires_on_missing_finish_time(self, fabric):
        flows = _flows(fabric)
        paths = fabric.resolve_paths(flows)
        run = fabric.complete(flows, paths=paths)
        finish = dict(run.finish_times_s)
        del finish[flows[-1].flow_id]
        violations = replay_conservation(fabric, flows, finish, paths,
                                         check_epochs=False)
        assert any("no recorded finish" in v.detail
                   for v in violations)

    def test_degraded_capacity_epochs(self, fabric):
        """A mid-run degrade is folded into the replay's epochs."""
        from repro.network.engine import FabricEngine
        from repro.simcore import Simulator
        flows = _flows(fabric, count=3)
        engine = FabricEngine(fabric, sim=Simulator())
        paths = fabric.resolve_paths(flows)
        for flow in flows:
            engine.submit(flow, path=paths[flow.flow_id],
                          start_time_s=0.0)
        hop_link = paths[flows[0].flow_id].link_ids[0]
        at_s, factor = 0.01, 0.5
        engine.set_capacity_factor(hop_link, factor, at=at_s)
        run = engine.run()
        assert replay_conservation(
            fabric, flows, run.finish_times_s, paths,
            capacity_events=[(at_s, hop_link, factor)]) == []


class TestClockAndDeterminism:
    def test_tracing_simulator_is_monotone(self):
        sim = TracingSimulator()
        for delay in (3.0, 1.0, 2.0, 1.0):
            sim.timeout(delay)
        sim.run()
        assert len(sim.trace) == 4
        assert check_clock_monotonic(sim.trace) == []

    def test_fires_on_backwards_clock(self):
        violations = check_clock_monotonic([0.0, 1.0, 0.5])
        assert [v.oracle for v in violations] == ["clock-monotonic"]

    def test_same_result_passes_on_pure_function(self):
        assert check_replay(lambda: {"a": 1.0}) == []

    def test_same_result_fires_on_drift(self):
        # Caller's kernel twice (1, then 2), the other kernel once (1):
        # only the same-kernel replay disagrees.
        results = iter([1, 2, 1])
        violations = check_replay(lambda: next(results), label="drifty")
        assert [v.oracle for v in violations] == \
            ["bit-identical-replay"]
        assert "drifty" in violations[0].detail

    def test_replay_fires_on_backend_mismatch(self):
        violations = check_replay(resolve_backend, label="kernel")
        assert [v.oracle for v in violations] == ["solver-backends"]
        assert violations[0].detail == (
            "kernel: python and vector solver backends disagree: "
            "'python' vs 'vector'")

    @pytest.mark.parametrize("caller, other",
                             [("vector", "python"), ("python", "vector")])
    def test_replay_runs_callers_kernel_twice(self, caller, other):
        backends = []
        with use_backend(caller):
            assert check_replay(
                lambda: backends.append(resolve_backend())) == []
        assert backends == [caller, caller, other]


class TestViolation:
    def test_renders_oracle_and_detail(self):
        violation = Violation("rate-feasibility", "link 3 overflows")
        assert str(violation) == "[rate-feasibility] link 3 overflows"
