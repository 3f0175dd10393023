"""Tests for the event-driven :class:`FabricEngine` on the simcore kernel.

Covers the engine/batch equivalence contract (simultaneous starts must
reproduce the epoch-global fluid loop), timed behaviour that the batch
loop cannot express (staggered starts, mid-flight capacity changes and
path reassignment), the incremental max-min component restriction, the
wave-scheduled collectives, starvation diagnostics, and timestamp fault
injection in the monitored job simulator.
"""

import contextlib
import dataclasses
import json
import random
import signal

import numpy as np
import pytest

from repro.monitoring import (
    FaultSpec,
    JobConfig,
    MonitoredTrainingJob,
)
from repro.network import (
    EcmpController,
    Endpoint,
    Fabric,
    FabricEngine,
    SolverStats,
    make_flow,
    reset_flow_ids,
    run_collective,
    run_collective_timed,
    use_backend,
)
from repro.network.engine import DONE_BITS, _Block
from repro.network.routing import PartitionError
from repro.network.solver import (
    CompiledIncidence,
    _sorted_unique,
    compile_component,
    solve_incidence,
)
from repro.resilience import FailureInjector
from repro.simcore import SimulationError, Simulator
from repro.topology import AstralParams, build_astral
from repro.validation import ScenarioGenerator, complete_batch
from repro.validation.runner import _engine_fingerprint, run_case

from .hashseed import outputs_under_hash_seeds


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with :class:`TimeoutError` instead of hanging."""
    def _expire(_signum, _frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _hosts(topology):
    return sorted(name for name, device in topology.devices.items()
                  if device.tier == 0)


def _random_flows(rng, hosts, count):
    flows = []
    for _ in range(count):
        src, dst = rng.sample(hosts, 2)
        flows.append(make_flow(
            src, dst, rail=0,
            size_bits=rng.uniform(5e8, 6.4e10),
            src_port=rng.randrange(49152, 65535)))
    return flows


class TestBatchEquivalence:
    """All flows at start_time_s=0 must reproduce the batch loop."""

    @pytest.mark.parametrize("params", ["tiny", "small"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_engine_matches_complete_batch(self, params, seed):
        topology = build_astral(getattr(AstralParams, params)())
        fabric = Fabric(topology)
        rng = random.Random(seed)
        flows = _random_flows(rng, _hosts(topology), 24)

        batch = complete_batch(fabric, list(flows))
        for flow in flows:
            flow.rate_gbps = 0.0

        engine = FabricEngine(fabric)
        engine.submit_many(flows)
        run = engine.run()

        # Exact equality, not approx: since the epoch-drift fix both
        # integrators cache absolute deadlines, so for simultaneous
        # starts the finish times are bit-identical (the validation
        # harness fuzzes this; see repro.validation.differential).
        assert run.total_time_s == batch.total_time_s
        for flow in flows:
            assert run.finish_times_s[flow.flow_id] \
                == batch.finish_times_s[flow.flow_id]

    def test_complete_wrapper_delegates_to_engine(self):
        """Fabric.complete is the engine in batch clothing: identical
        results, identical FabricRun shape."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        rng = random.Random(7)
        flows = _random_flows(rng, _hosts(topology), 16)
        batch = complete_batch(fabric, list(flows))
        for flow in flows:
            flow.rate_gbps = 0.0
        run = fabric.complete(list(flows))
        assert run.total_time_s == batch.total_time_s
        assert run.finish_times_s == batch.finish_times_s
        assert set(run.link_loads) == set(batch.link_loads)

    def test_hop_cache_reused_across_epochs(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        rng = random.Random(3)
        flows = _random_flows(rng, _hosts(topology), 24)
        fabric.complete(flows)
        # Each flow's hops are built once; the offered-load map reads
        # them again from the cache.
        assert fabric.hops_cache_misses == len(flows)
        assert fabric.hops_cache_hits >= len(flows)
        hits = fabric.hops_cache_hits
        fabric.complete(flows)
        assert fabric.hops_cache_misses == len(flows)
        assert fabric.hops_cache_hits >= hits + 2 * len(flows)


class TestTimedBehaviour:
    def test_staggered_start_slows_in_flight_flow(self):
        """A late arrival on a shared bottleneck measurably delays a
        flow that is already in flight — inexpressible in the batch
        loop, where everything starts together."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        early = make_flow("p0.b0.h0", "p0.b1.h3", rail=0, size_bits=8e9)

        solo_engine = FabricEngine(Fabric(topology))
        solo_engine.submit(early)
        solo = solo_engine.run()
        solo_finish = solo.finish_times_s[early.flow_id]

        early2 = make_flow("p0.b0.h0", "p0.b1.h3", rail=0,
                           size_bits=8e9,
                           src_port=early.five_tuple.src_port)
        late = make_flow("p0.b0.h0", "p0.b1.h3", rail=0, size_bits=8e9,
                        src_port=early.five_tuple.src_port)
        engine = FabricEngine(fabric)
        engine.submit(early2, start_time_s=0.0)
        engine.submit(late, start_time_s=solo_finish / 2)
        run = engine.run()

        # Identical five-tuples share the whole path: the in-flight
        # flow halves its rate when the late one lands.
        assert run.finish_times_s[early2.flow_id] \
            > solo_finish * 1.2
        assert run.finish_times_s[late.flow_id] \
            > run.finish_times_s[early2.flow_id]

    def test_capacity_change_mid_flight_reschedules_finish(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        flow = make_flow("p0.b0.h0", "p0.b0.h1", rail=0, size_bits=2e12)
        engine = FabricEngine(fabric)
        engine.submit(flow)
        path = fabric.router.path(flow)
        engine.set_capacity_factor(path.link_ids[0], 0.5, at=5.0)
        run = engine.run()
        # 5 s at 200 Gbps moves 1e12 bits; the remaining 1e12 crawls at
        # 100 Gbps for 10 s: finish at t=15 instead of t=10.
        assert run.finish_times_s[flow.flow_id] == pytest.approx(
            15.0, rel=1e-9)

    def test_starved_flows_raise_diagnosable_error(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        flow = make_flow("p0.b0.h0", "p0.b0.h1", rail=0, size_bits=8e9)
        path = fabric.router.path(flow)
        engine = FabricEngine(fabric)
        engine.set_capacity_factor(path.link_ids[0], 0.0)
        flow.rate_gbps = 123.0  # stale attribute from an earlier run
        engine.submit(flow, path=path)
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        assert str(flow.flow_id) in str(excinfo.value)
        # The first covering solve writes the attribute even though
        # the solved rate (0.0) equals the fresh fluid row's.
        assert flow.rate_gbps == 0.0

    @pytest.mark.parametrize("action", ["starve", "cancel"])
    def test_dropped_deadline_never_wakes_the_engine(self, action):
        """A flow starved or cancelled mid-transfer drops its
        completion deadline: the engine is never woken for it."""
        fabric = Fabric(build_astral(AstralParams.small()))
        flow = make_flow("p0.b0.h0", "p0.b0.h1", rail=0, size_bits=8e9)
        other = make_flow("p0.b1.h0", "p0.b1.h1", rail=0,
                          size_bits=8e10)
        path = fabric.router.path(flow)
        engine = FabricEngine(fabric)
        engine.submit(flow, path=path)
        engine.submit(other)
        if action == "starve":
            engine.set_capacity_factor(path.link_ids[0], 0.0, at=0.01)
            with pytest.raises(SimulationError):
                engine.run()
        else:
            engine.sim.timeout(0.01).add_callback(
                lambda _event: engine.cancel(flow.flow_id))
            engine.run()
        # Two arrivals and the other flow's completion, nothing else.
        assert engine.stats.events == 3

    def test_batch_starvation_raises_simulation_error(self):
        """Satellite fix: a dead link used to surface as a bare
        ValueError from min() over an empty generator."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        flow = make_flow("p0.b0.h0", "p0.b0.h1", rail=0, size_bits=8e9)
        path = fabric.router.path(flow)
        topology.scale_link(path.link_ids[0], 0.0)
        with pytest.raises(SimulationError) as excinfo:
            complete_batch(fabric, [flow])
        assert str(flow.flow_id) in str(excinfo.value)


class TestDoneThreshold:
    def test_residue_on_threshold_finishes_with_the_epoch(self):
        """A flow whose residue lands exactly on DONE_BITS when another
        flow's completion advances the clock finishes right there: the
        threshold is inclusive in the engine as in the batch loop."""
        fabric = Fabric(build_astral(AstralParams.tiny()))
        rate = fabric.host_line_rate_gbps * 1e9
        size_a = 1.90689e-06
        advanced = rate * (size_a / rate)
        size_b = advanced + DONE_BITS
        # Precondition: B's residue at A's deadline is exactly the
        # threshold (opposite directions, so each runs at line rate).
        assert size_b - advanced == DONE_BITS
        flows = [make_flow("p0.b0.h0", "p0.b0.h1", rail=0,
                           size_bits=size_a),
                 make_flow("p0.b0.h1", "p0.b0.h0", rail=0,
                           size_bits=size_b)]
        batch = complete_batch(fabric, flows)
        run = fabric.complete(flows)
        assert run.finish_times_s == batch.finish_times_s
        assert run.finish_times_s[flows[1].flow_id] \
            == run.finish_times_s[flows[0].flow_id]


class TestNoProgressGuard:
    def test_wedged_deadline_raises_instead_of_spinning(self,
                                                        monkeypatch):
        """Without the sub-resolution re-aim, a flow whose residue
        outlives its deadline re-arms the deadline at the same instant
        forever.  The guard turns that wedge into a diagnosable error
        that names the stuck flow."""
        monkeypatch.setattr(FabricEngine, "_reaim_expired",
                            lambda self, now: None)
        topology = build_astral(AstralParams.small())
        engine = FabricEngine(Fabric(topology))
        engine.submit_many(
            _random_flows(random.Random(0), _hosts(topology), 12))
        with _time_limit(30.0), \
                pytest.raises(SimulationError,
                              match="made no progress") as excinfo:
            engine.run()
        stuck = json.loads(str(excinfo.value).split("before it: ")[1])
        assert stuck and set(stuck) <= set(engine._states)


class TestFluidRows:
    def test_long_run_compacts_rows_and_keeps_results(self):
        """Two interleaved streams of back-to-back transfers: dead
        fluid rows are compacted away while a live flow is in flight,
        so the arrays stay bounded and every finish time stays exact
        (each flow runs alone at line rate for exactly 1 s)."""
        fabric = Fabric(build_astral(AstralParams.tiny()))
        engine = FabricEngine(fabric)
        size_bits = fabric.host_line_rate_gbps * 1e9
        starts = {}
        for i in range(400):
            for src, dst, offset in (("p0.b0.h0", "p0.b0.h1", 0.0),
                                     ("p0.b0.h1", "p0.b0.h0", 0.5)):
                flow = make_flow(src, dst, rail=0, size_bits=size_bits)
                flow.start_time_s = 2.0 * i + offset
                starts[flow.flow_id] = flow.start_time_s
                engine.submit(flow)
        run = engine.run()
        assert run.finish_times_s == {fid: start + 1.0
                                      for fid, start in starts.items()}
        # Compaction fires as soon as more than 256 rows exist.
        assert engine._fluid.n <= 258


class TestIncrementalSolve:
    def test_arrival_resolves_only_touched_component(self):
        """A new flow re-solves its own connected component, not the
        whole fabric: the disjoint tenant's flows are untouched."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        flow_a = make_flow("p0.b0.h0", "p0.b0.h1", rail=0,
                           size_bits=8e9)
        flow_b = make_flow("p0.b1.h0", "p0.b1.h1", rail=0,
                           size_bits=8e9)
        late = make_flow("p0.b0.h0", "p0.b0.h2", rail=0, size_bits=8e9)

        engine = FabricEngine(fabric)
        engine.submit(flow_a)
        engine.submit(flow_b)
        engine.submit(late, start_time_s=0.01)

        probe = {}

        def _probe():
            yield engine.sim.timeout(0.0105)
            probe["flows_resolved"] = engine.stats.flows_resolved
            probe["solves"] = engine.stats.solves
            probe["cached"] = list(engine._comp_cache)
            probe["live"] = list(engine._comp_fids)

        engine.sim.process(_probe())
        engine.run()

        # Initial solve touches both components (2 flows); the late
        # arrival shares p0.b0.h0's uplink with flow_a only, so its
        # solve resolves 2 flows (a + late), never flow_b's component.
        assert probe["solves"] == 2
        assert probe["flows_resolved"] == 4
        # The merge dropped the absorbed compiled component: the cache
        # holds live component ids only.
        assert len(probe["cached"]) == 2
        assert set(probe["cached"]) <= set(probe["live"])

    def test_resubmitted_flow_id_joins_its_cached_component(self):
        """Re-using a finished flow's id (a stable QP) inside a live
        component re-solves that component with the new transfer: the
        run matches one where the transfer got a fresh id."""
        fabric = Fabric(build_astral(AstralParams.tiny()))

        def _flow(size_bits):
            # One source port: every flow hashes onto the same path.
            return make_flow("p0.b0.h0", "p0.b0.h1", rail=0,
                             size_bits=size_bits, src_port=50000)

        def _run(reuse_id):
            engine = FabricEngine(fabric)
            flows = [_flow(size) for size in (8e9, 8e10, 8e10)]
            for flow in flows:
                engine.submit(flow)
            again = flows[0] if reuse_id else _flow(8e9)
            engine.submit(again, start_time_s=0.5)
            run = engine.run()
            return [run.finish_times_s[flow.flow_id]
                    for flow in (again, *flows[1:])]

        assert _run(reuse_id=True) == _run(reuse_id=False)

    def test_incremental_does_less_link_work_than_batch(self):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        rng = random.Random(11)
        flows = _random_flows(rng, _hosts(topology), 48)

        batch_stats = SolverStats()
        complete_batch(fabric, list(flows), stats=batch_stats)
        for flow in flows:
            flow.rate_gbps = 0.0

        engine = FabricEngine(fabric)
        engine.submit_many(flows)
        engine.run()
        assert engine.stats.link_visits < batch_stats.link_visits


def _span(entry, cid):
    """The rows of *entry*'s incidence that cache component *cid*: its
    span of a block, or every row of its own incidence."""
    if isinstance(entry, _Block):
        k = entry.members[cid]
        return range(*entry.block.row_starts[k:k + 2].tolist())
    return range(entry.inc.n_rows)


def _cached_entries(engine):
    """Each distinct cached entry once: a block serves all its
    members."""
    return list({id(entry): entry
                 for entry in engine._comp_cache.values()}.values())


def _check_components(engine):
    """Component bookkeeping invariants: every live flow is labelled
    exactly once, every cached component is live and its span holds
    exactly its live flows, and a block's members are exactly the
    components cached on it, with at least half its rows in their
    spans."""
    assert set(engine._comp_of) == set(engine._states)
    assert sum(map(len, engine._comp_fids.values())) \
        == len(engine._states)
    for cid, fids in engine._comp_fids.items():
        assert fids and all(engine._comp_of[fid] == cid for fid in fids)
    assert set(engine._comp_cache) <= set(engine._comp_fids)
    for cid, entry in engine._comp_cache.items():
        inc = entry.inc
        live = {inc.fids[row] for row in _span(entry, cid)
                if inc.alive[row]}
        assert live == set(engine._comp_fids[cid])
    for entry in _cached_entries(engine):
        if isinstance(entry, _Block):
            cids = [cid for cid, other in engine._comp_cache.items()
                    if other is entry]
            assert sorted(entry.members) == sorted(cids)
            assert entry.kept == sum(len(_span(entry, cid))
                                     for cid in cids)
            assert 2 * entry.kept >= entry.inc.n_rows


def _global_rates(engine):
    """A from-scratch solve over every live flow of *engine*."""
    hops_of = {fid: state.hops for fid, state in engine._states.items()}
    capacity = {hop: engine._effective_capacity(hop)
                for hops in hops_of.values() for hop in hops}
    return solve_incidence(hops_of, capacity,
                           engine.fabric.host_line_rate_gbps)


def _after_each_solve(monkeypatch, check):
    """Run ``check(engine)`` after every settled engine solve (no
    dirtied link left over for a solve already requested); returns
    the list of checked solves' ``flows_resolved`` counts."""
    original = FabricEngine._solve
    calls = []

    def solve(self):
        original(self)
        if not self._dirty:
            calls.append(self.stats.flows_resolved)
            check(self)

    monkeypatch.setattr(FabricEngine, "_solve", solve)
    return calls


class TestComponentSplit:
    """Completions split a stale component into its connected pieces,
    and only the pieces holding a dirtied link are re-filled.  Every
    engine solve must leave each live flow at the rate a from-scratch
    global solve gives it, ``==``."""

    @pytest.mark.parametrize("backend", ["python", "vector"])
    @pytest.mark.parametrize("params,seed", [
        ("tiny", 0), ("tiny", 1), ("tiny", 2),
        ("small", 3), ("small", 4), ("small", 5)])
    def test_every_solve_matches_a_global_solve(self, monkeypatch,
                                                params, seed, backend):
        topology = build_astral(getattr(AstralParams, params)())
        rng = random.Random(f"split-oracle:{params}:{seed}")
        flows = _random_flows(rng, _hosts(topology), 60)
        for flow in flows:
            flow.start_time_s = rng.uniform(0.0, 2.0)
        splits = []

        def check(engine):
            _check_components(engine)
            reference = _global_rates(engine)
            for fid in engine._states:
                assert engine.rate_of(fid) == reference[fid], fid

        real_pieces = CompiledIncidence.live_pieces

        def pieces(inc):
            found = real_pieces(inc)
            splits.append(len(found))
            return found

        monkeypatch.setattr(CompiledIncidence, "live_pieces", pieces)
        solves = _after_each_solve(monkeypatch, check)
        with use_backend(backend):
            engine = FabricEngine(Fabric(topology))
            engine.submit_many(flows)
            for flow in rng.sample(flows, 6):
                engine.sim.timeout(rng.uniform(0.0, 3.0)).add_callback(
                    lambda _event, fid=flow.flow_id: engine.cancel(fid))
            link_ids = sorted(topology.links)
            for _ in range(6):
                engine.set_capacity_factor(
                    rng.choice(link_ids), rng.choice((0.25, 0.5, 1.0)),
                    at=rng.uniform(0.0, 3.0))
            engine.run()
        assert len(solves) > 20
        assert splits, "no component was ever labelled"
        assert not engine._comp_of and not engine._comp_fids

    @staticmethod
    def _bridged(fabric, hosts):
        """Groups A and B of three flows each, joined only by a short
        bridge flow: A shares the bridge's first directed hop, B its
        last."""
        src, dst = "p0.b0.h0", "p0.b1.h0"
        bridge = make_flow(src, dst, rail=0, size_bits=1e9)
        bridge_hops = fabric.directed_hops(fabric.router.path(bridge))

        def hops(flow):
            return fabric.directed_hops(fabric.router.path(flow))

        def group(pairs, shared, avoid):
            """Three flows over *pairs*, each on the *shared* hop and
            off every hop in *avoid*; source ports pick the paths."""
            found = []
            for port in range(49152, 49152 + 400):
                for a, b in pairs:
                    if len(found) == 3:
                        return found
                    if any((f.src_host, f.dst_host) == (a, b)
                           for f in found):
                        continue
                    flow = make_flow(a, b, rail=0, size_bits=4e10,
                                     src_port=port)
                    path_hops = hops(flow)
                    if shared in path_hops and not avoid & set(path_hops):
                        found.append(flow)
            return found

        group_a = group([(src, peer) for peer in hosts
                         if peer.startswith("p0.b0.") and peer != src],
                        bridge_hops[0], set(bridge_hops[1:]))
        a_hops = {hop for flow in group_a for hop in hops(flow)}
        group_b = group([(peer, dst) for peer in hosts
                         if not peer.startswith("p0.b0.") and peer != dst],
                        bridge_hops[-1], a_hops | set(bridge_hops[:-1]))
        b_hops = {hop for flow in group_b for hop in hops(flow)}
        # Preconditions: the bridge alone joins A and B.
        assert len(group_b) == 3
        assert bridge_hops[0] in a_hops and bridge_hops[-1] in b_hops
        assert not a_hops & b_hops
        return bridge, group_a, group_b

    def test_bridge_completion_splits_the_component(self, monkeypatch):
        fabric = Fabric(build_astral(AstralParams.small()))
        bridge, group_a, group_b = self._bridged(
            fabric, _hosts(fabric.topology))
        a_only = fabric.router.path(group_a[0]).link_ids[-1]
        records = []

        def check(engine):
            _check_components(engine)
            records.append((engine.now, engine.stats.flows_resolved))

        _after_each_solve(monkeypatch, check)
        engine = FabricEngine(fabric)
        engine.submit_many([bridge, *group_a, *group_b])
        # An event in A after the bridge finished (at ~0.02 s).
        engine.set_capacity_factor(a_only, 0.5, at=0.05)
        engine.run()
        finish = engine.finish_time(bridge.flow_id)
        assert finish < 0.05 < min(
            engine.finish_time(flow.flow_id)
            for flow in (*group_a, *group_b))
        resolved = dict(records)
        times = sorted(resolved)
        # One solve for all seven arrivals, one when the bridge left
        # (both pieces hold one of its links), then the event in A
        # re-fills exactly A's three live flows.
        assert times[:3] == [0.0, finish, 0.05]
        assert resolved[0.0] == 7
        assert resolved[finish] - resolved[0.0] == 6
        assert resolved[0.05] - resolved[finish] == 3

    def test_long_stream_keeps_component_state_bounded(self,
                                                       monkeypatch):
        """Thousands of unique flow ids through a handful of live
        flows: the component labels track the live flows only, and
        cached incidences stay within twice the live rows."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        rng = random.Random("split-stream")
        flows = _random_flows(rng, _hosts(topology), 2000)
        size_s = 5e8 / (fabric.host_line_rate_gbps * 1e9)
        for i, flow in enumerate(flows):
            flow.size_bits = 5e8 * rng.uniform(1.0, 4.0)
            flow.start_time_s = i * size_s / 8

        peak = [0]

        def check(engine):
            live = len(engine._states)
            assert len(engine._comp_of) == live
            assert len(engine._comp_fids) <= live
            rows = sum(entry.inc.n_rows
                       for entry in _cached_entries(engine))
            assert rows <= 2 * live
            peak[0] = max(peak[0], live)

        solves = _after_each_solve(monkeypatch, check)
        engine = FabricEngine(fabric)
        engine.submit_many(flows)
        run = engine.run()
        assert len(run.finish_times_s) == len(flows)
        assert len(solves) > len(flows)
        assert peak[0] < 100, "the stream is meant to stay shallow"


def _watch_compactions(monkeypatch):
    """After every fluid-row compaction, check that each cached
    component's span still maps its live rows to its own flows, and
    record ``(time, cached entries, most members cached on a block)``
    per compaction."""
    kept = []
    real_compact = FabricEngine._compact_rows

    def compact(engine):
        before = dict(engine._comp_cache)
        real_compact(engine)
        assert engine._comp_cache == before
        fluid = engine._fluid
        for cid, entry in before.items():
            rows = [row for row in _span(entry, cid)
                    if entry.inc.alive[row]]
            assert [fluid.fids[row] for row in entry.rows[rows]] \
                == [entry.inc.fids[row] for row in rows]
        entries = _cached_entries(engine)
        kept.append((engine.now, len(entries),
                     max((len(entry.members) for entry in entries
                          if isinstance(entry, _Block)), default=0)))

    monkeypatch.setattr(FabricEngine, "_compact_rows", compact)
    return kept


def _check_global(engine):
    _check_components(engine)
    reference = _global_rates(engine)
    for fid in engine._states:
        assert engine.rate_of(fid) == reference[fid], fid


def _stream(line_bits, pairs):
    """Back-to-back one-second transfers that churn the fluid rows."""
    stream = []
    for i in range(pairs):
        for src, dst, offset in (("p0.b0.h0", "p0.b0.h1", 0.0),
                                 ("p0.b0.h1", "p0.b0.h0", 0.5)):
            flow = make_flow(src, dst, rail=0, size_bits=line_bits)
            flow.start_time_s = 2.0 * i + offset
            stream.append(flow)
    return stream


class TestCompaction:
    """Compacting the fluid rows keeps every cached component: its
    live rows are remapped to the new row space, so its incidence and
    fill record survive, and each solve still matches a global one."""

    def test_compaction_keeps_compiled_components(self, monkeypatch):
        fabric = Fabric(build_astral(AstralParams.tiny()))
        line_bits = fabric.host_line_rate_gbps * 1e9
        # A: four long flows sharing one host uplink, one component
        # that lives through the whole stream and loses rows to it.
        long_flows = [make_flow("p0.b1.h0", dst, rail=0,
                                size_bits=line_bits * 60.0 * (i + 1))
                      for i, dst in enumerate(
                          ("p0.b1.h1", "p1.b0.h0", "p1.b0.h1",
                           "p1.b1.h0"))]
        # B: back-to-back transfers that churn the fluid rows.
        stream = _stream(line_bits, 300)
        kept = _watch_compactions(monkeypatch)
        solves = _after_each_solve(monkeypatch, _check_global)
        engine = FabricEngine(fabric)
        engine.submit_many(long_flows)
        engine.submit_many(stream)
        run = engine.run()
        assert len(run.finish_times_s) == len(long_flows) + len(stream)
        assert len(solves) > len(stream)
        assert len(kept) >= 2 and min(n for _, n, _ in kept) >= 1
        # A flow of A finished after a compaction while the rest of A
        # was live: A's kept entry was re-filled over remapped rows.
        finish = sorted(run.finish_times_s[flow.flow_id]
                        for flow in long_flows)
        assert kept[0][0] < finish[-2]

    def test_compaction_remaps_a_block_once(self, monkeypatch):
        """Long-lived components compiled in one block outlive
        compactions: the block's rows are remapped once for all its
        members, so each member, sliced out when one of its flows
        finishes, still fills its own fluid rows."""
        fabric = Fabric(build_astral(AstralParams.small()))
        line_bits = fabric.host_line_rate_gbps * 1e9
        groups = [[make_flow(src, f"{src[:-1]}{peer}", rail=0,
                             size_bits=line_bits * 300.0 * peer)
                   for peer in (1, 2, 3)]
                  for src in ("p0.b1.h0", "p1.b0.h0")]
        stream = _stream(line_bits, 200)
        kept = _watch_compactions(monkeypatch)
        solves = _after_each_solve(monkeypatch, _check_global)
        engine = FabricEngine(fabric)
        # The stream's first flow takes fluid row 0, so compactions
        # shift the block's rows (a second remap would shift them
        # twice).
        engine.submit_many(stream)
        for group in groups:
            engine.submit_many(group)
        run = engine.run()
        assert len(run.finish_times_s) == 6 + len(stream)
        assert len(solves) > len(stream)
        # A compaction ran while several components sat on one block,
        # before any of them lost a flow.
        first = min(run.finish_times_s[group[0].flow_id]
                    for group in groups)
        assert any(at < first and members >= 2
                   for at, _, members in kept)


class TestBlockFill:
    """The cold components of a solve are compiled and filled as one
    block.  The engine must count exactly the work of one cold fill per
    component and give each component that fill's rates."""

    @pytest.mark.parametrize("backend", ["python", "vector"])
    def test_block_counts_one_fill_per_component(self, monkeypatch,
                                                 backend):
        topology = build_astral(AstralParams.small())
        rng = random.Random(f"block-count:{backend}")
        flows = _random_flows(rng, _hosts(topology), 80)
        for flow in flows:
            flow.start_time_s = rng.choice((0.0, 0.5, 1.0))
        real = FabricEngine._fill_cold
        blocks = []

        def fill_cold(engine, cids, kernel, line_rate, now):
            # Each component compiled and filled alone, counted by the
            # kernel itself.
            alone = SolverStats()
            rates = {}
            for cid in cids:
                block = compile_component(
                    [list(engine._comp_fids[cid])], engine._index)
                inc = block.inc
                capacity = engine._index.gather_capacity(block.l2g)
                alone.link_visits += inc.nnz + int(capacity.shape[0])
                alone.flows_resolved += inc.n_alive
                out = kernel(inc, capacity.copy(), line_rate, alone)
                rates.update(zip(inc.fids, out.tolist()))
            before = dataclasses.replace(engine.stats)
            real(engine, cids, kernel, line_rate, now)
            assert engine.stats.link_visits - before.link_visits \
                == alone.link_visits
            assert engine.stats.flows_resolved - before.flows_resolved \
                == alone.flows_resolved
            assert {fid: engine.rate_of(fid) for fid in rates} == rates
            blocks.append(len(cids))

        monkeypatch.setattr(FabricEngine, "_fill_cold", fill_cold)
        with use_backend(backend):
            engine = FabricEngine(Fabric(topology))
            engine.submit_many(flows)
            engine.run()
        assert max(blocks) > 1


class TestNoMaskedArrays:
    """A plain ``np.unique`` imports ``numpy.ma`` on its first call
    (numpy 2.4 tests its input for a mask), and a process that runs one
    pass pays that import inside the pass.  The solver's sorted-unique
    is ``np.unique`` without it."""

    def test_sorted_unique_is_np_unique(self):
        rng = np.random.default_rng(0)
        for size in (0, 1, 2, 7, 64):
            values = rng.integers(0, 9, size=size, dtype=np.int64)
            expect = np.unique(values)
            got = _sorted_unique(values.copy())
            assert got.dtype == expect.dtype
            assert got.tolist() == expect.tolist()

    def test_hierarchy_run_leaves_numpy_ma_unimported(self):
        script = (
            "import sys\n"
            "from repro.farm import TaskSpec, execute_spec\n"
            "from repro.hierarchy import preset_params\n"
            "print('numpy.ma' in sys.modules)\n"
            "params = preset_params('4k')\n"
            "execute_spec(TaskSpec('hierarchy-run', {\n"
            "    'scale': '4k', 'hosts_per_job': params.hosts_per_block,\n"
            "    'iterations': 4, 'compute_s': 0.5, 'comm_bits': 8e9,\n"
            "    'collective': 'allreduce', 'seed': 0, 'tail_shapes': 1,\n"
            "    'refine': 'bounded', 'faults': 0}))\n"
            "print('numpy.ma' in sys.modules)\n")
        (out,) = outputs_under_hash_seeds(script, ["0"])
        eager, after_run = out.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert after_run == "False"


class TestMidFlightController:
    """Acceptance: an EcmpController round at t=5s retargets in-flight
    flows, changing paths and finish times, with ECN marks
    non-increasing across rounds (Figure 17 shape)."""

    @staticmethod
    def _workload():
        return [
            make_flow(f"p0.b0.h{src}", f"p0.b1.h{(src * 3 + k) % 8}",
                      rail=0, size_bits=2e12, src_port=50000)
            for src in range(8) for k in range(2)
        ]

    def test_reassignment_at_5s_changes_path_and_finish(self):
        reset_flow_ids()
        baseline_fabric = Fabric(build_astral(AstralParams.small()))
        baseline_flows = self._workload()
        baseline = baseline_fabric.complete(baseline_flows)

        reset_flow_ids()
        fabric = Fabric(build_astral(AstralParams.small()))
        flows = self._workload()
        paths_before = {
            flow.flow_id: tuple(fabric.router.path(flow).link_ids)
            for flow in flows
        }
        engine = FabricEngine(fabric)
        controller = EcmpController(fabric)
        reports = controller.run_timed(engine, flows, interval_s=5.0,
                                       rounds=8)
        engine.submit_many(flows)
        run = engine.run()

        assert reports
        assert reports[0].at_time_s == pytest.approx(5.0)
        assert any(report.flows_moved > 0 for report in reports)

        moved = [fid for fid, links in paths_before.items()
                 if tuple(run.paths[fid].link_ids) != links]
        assert moved
        # Retargeting mid-flight changes completion times relative to
        # the uncontrolled baseline.
        assert any(
            abs(run.finish_times_s[fid] - baseline.finish_times_s[fid])
            > 1e-6
            for fid in moved
        )
        # ECN marks non-increasing within and across rounds.
        for report in reports:
            assert report.total_ecn_marks_after \
                <= report.total_ecn_marks_before + 1e-6
        afters = [report.total_ecn_marks_after for report in reports]
        befores = [report.total_ecn_marks_before for report in reports]
        for prev_after, next_before in zip(afters, befores[1:]):
            assert next_before <= prev_after + 1e-6


class TestTimedCollectives:
    def test_ring_waves_match_flat_total(self):
        """n-1 sequenced ReduceScatter waves of size/n per neighbor sum
        to the flat generator's (n-1)/n*size — same network time on an
        uncongested ring, now with real step dependencies."""
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        endpoints = [Endpoint(f"p0.b0.h{i}", 0) for i in range(4)]
        flat = run_collective(fabric, endpoints, 8e9, "reduce_scatter")

        engine = FabricEngine(fabric)
        proc = run_collective_timed(engine, endpoints, 8e9,
                                    "reduce_scatter")
        engine.run()
        result = proc.value
        assert result.n_waves == 3
        assert result.network_time_s == pytest.approx(
            flat.network_time_s, rel=1e-6)

    def test_allreduce_has_2n_minus_2_waves(self):
        topology = build_astral(AstralParams.small())
        engine = FabricEngine(Fabric(topology))
        endpoints = [Endpoint(f"p0.b0.h{i}", 0) for i in range(4)]
        proc = run_collective_timed(engine, endpoints, 8e9, "allreduce")
        engine.run()
        assert proc.value.n_waves == 6

    def test_timed_collective_on_a_private_engine(self):
        """The dependency-aware wave schedule on a private engine and
        simulator: same total network time as the flat batch on an
        uncongested ring, with a real run."""
        topology = build_astral(AstralParams.small())
        endpoints = [Endpoint(f"p0.b0.h{i}", 0) for i in range(4)]
        flat = run_collective(Fabric(topology), endpoints, 8e9,
                              "reduce_scatter")
        engine = FabricEngine(Fabric(topology), sim=Simulator())
        proc = run_collective_timed(engine, endpoints, 8e9,
                                    "reduce_scatter")
        run = engine.run()
        sched = proc.value
        assert sched.network_time_s == pytest.approx(
            flat.network_time_s, rel=1e-6)
        assert run is not None
        assert run.total_time_s == pytest.approx(
            sched.network_time_s, rel=1e-6)

    def test_pipeline_chain_serializes(self):
        """PP send/recv legs run strictly one after another."""
        from repro.network import send_recv_chain

        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        engine = FabricEngine(fabric)
        endpoints = [Endpoint(f"p0.b0.h{i}", 0) for i in range(3)]
        waves = send_recv_chain(
            list(zip(endpoints, endpoints[1:])), 8e9)
        assert len(waves) == 2

        sim = engine.sim

        def _chain():
            for wave in waves:
                yield engine.submit_many(wave)
            return sim.now

        proc = sim.process(_chain())
        sim.run()
        first, second = waves[0][0], waves[1][0]
        run = engine.run()
        assert run.finish_times_s[second.flow_id] == pytest.approx(
            2 * run.finish_times_s[first.flow_id], rel=1e-9)


class TestTimestampFaults:
    HOSTS = tuple(f"p0.b0.h{i}" for i in range(4))

    def test_fault_strikes_at_timestamp_not_iteration(self):
        fabric = Fabric(build_astral(AstralParams.small()))
        fault = dataclasses.replace(
            FaultSpec.pcie_storm("p0.b0.h1"), at_time_s=1.2)
        job = MonitoredTrainingJob(
            fabric, JobConfig(hosts=self.HOSTS, iterations=4),
            fault=fault)
        result = job.run()

        assert result.completed_iterations == 4  # fail-slow, no abort
        # Snapshots that started before t=1.2 show no PCIe evidence;
        # later ones do.
        early = [snap for snap in result.snapshots if snap.time_s < 1.2]
        late = [snap for snap in result.snapshots if snap.time_s >= 1.2]
        assert early and late
        assert all(
            snap.hosts["p0.b0.h1"].pcie_errors == 0 for snap in early)
        assert any(
            snap.hosts["p0.b0.h1"].pcie_errors > 0 for snap in late)
        # The storm crushed the host's access links on the clock.
        assert all(link.capacity_gbps < 100
                   for link in fabric.topology.links_of("p0.b0.h1"))
        # Iterations after the storm crawl relative to the clean ones.
        assert late[-1].iteration_time_s \
            > early[0].iteration_time_s * 1.5


class TestArrivalAfterCut:
    """A fault that cuts a flow's route before the flow arrives strands
    it at arrival: handlers see the error and its completion event
    resolves with None, as a cancel would; with no handler the error
    propagates out of run()."""

    def _engine_with_cut_flow(self):
        topology = build_astral(AstralParams.tiny())
        engine = FabricEngine(Fabric(topology))
        dst = "p0.b0.h1"
        late = make_flow("p0.b0.h0", dst, rail=0, size_bits=8e9)
        early = make_flow("p0.b1.h0", "p0.b1.h1", rail=0, size_bits=8e9)
        done = engine.submit(late, start_time_s=0.5)
        engine.submit(early)
        FailureInjector(engine).kill_device(dst, at=0.1)
        return engine, late, early, done

    def test_handler_sees_partition_and_done_resolves_none(self):
        engine, late, early, done = self._engine_with_cut_flow()
        seen = []

        def handler(flow, exc):
            seen.append((flow.flow_id, exc))
            # The flow never went in flight, so there is nothing to
            # cancel; the engine resolves it itself.
            assert not engine.cancel(flow.flow_id)

        engine.on_stranded(handler)
        run = engine.run()
        assert [fid for fid, _ in seen] == [late.flow_id]
        assert isinstance(seen[0][1], PartitionError)
        assert done.triggered and done.value is None
        assert late.flow_id not in run.finish_times_s
        assert late.flow_id not in run.paths
        assert early.flow_id in run.finish_times_s
        assert engine.stranded == {}

    def test_without_handler_the_error_raises(self):
        engine, late, _, _ = self._engine_with_cut_flow()
        with pytest.raises(PartitionError) as excinfo:
            engine.run()
        assert excinfo.value.flow_id == late.flow_id

    def test_validation_case_no_longer_crashes(self):
        """Links 2 and 3 die at 7.4 ms and 24.1 ms; flow 1 arrives at
        25.4 ms with no route left."""
        report = run_case(1, 243)
        assert report.profile == "faulted"
        assert report.violations == []


class TestStaggeredStartRegression:
    """Engine vs an independent epoch-loop reference under randomly
    staggered arrivals: both advance a global max-min fluid allocation
    between events, so finish times must agree to float precision."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_matches_reference(self, seed):
        topology = build_astral(AstralParams.small())
        fabric = Fabric(topology)
        rng = random.Random(seed)
        flows = _random_flows(rng, _hosts(topology), 18)
        for flow in flows:
            flow.start_time_s = rng.uniform(0.0, 3.0)

        # -- reference: epoch loop over the global fluid allocator ----
        remaining = {f.flow_id: float(f.size_bits) for f in flows}
        reference = {}
        pending = sorted(flows,
                         key=lambda f: (f.start_time_s, f.flow_id))
        active = []
        now = 0.0
        while pending or active:
            rates = fabric.max_min_rates(active) if active else {}
            next_arrival = pending[0].start_time_s if pending \
                else float("inf")
            next_done = float("inf")
            for flow in active:
                rate = rates[flow.flow_id] * 1e9
                assert rate > 0
                next_done = min(next_done,
                                now + remaining[flow.flow_id] / rate)
            horizon = min(next_arrival, next_done)
            for flow in active:
                remaining[flow.flow_id] -= \
                    rates[flow.flow_id] * 1e9 * (horizon - now)
            now = horizon
            still = []
            for flow in active:
                if remaining[flow.flow_id] <= 1e-3:
                    reference[flow.flow_id] = now
                else:
                    still.append(flow)
            active = still
            while pending and pending[0].start_time_s <= now:
                active.append(pending.pop(0))

        # -- engine run of the very same staggered workload -----------
        engine = FabricEngine(Fabric(topology))
        engine.submit_many(flows)
        run = engine.run()

        assert set(run.finish_times_s) == set(reference)
        for flow in flows:
            assert run.finish_times_s[flow.flow_id] == pytest.approx(
                reference[flow.flow_id], abs=1e-6)


class TestBackendIdentity:
    """Both solver backends drive one engine state machine and differ
    only in the fill kernel, so a fuzzed engine scenario must replay
    ``==`` across them: finish times, event traces and work counters."""

    ENGINE_PROFILES = ("timed", "degrade", "faulted")

    def test_traces_and_stats_identical_across_backends(self):
        generator = ScenarioGenerator(7)
        specs = [spec for spec in map(generator.spec, range(40))
                 if spec.profile in self.ENGINE_PROFILES]
        assert {spec.profile for spec in specs} \
            == set(self.ENGINE_PROFILES)
        for spec in specs:
            with use_backend("python"):
                reference = _engine_fingerprint(spec)
            with use_backend("vector"):
                vectorized = _engine_fingerprint(spec)
            assert reference["trace"], spec.index
            assert vectorized["trace"] == reference["trace"], spec.index
            assert vectorized["stats"] == reference["stats"], spec.index
            assert vectorized == reference, spec.index
