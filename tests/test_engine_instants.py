"""Pinned engine observables: what a run does at each instant, and in
what order.

:class:`~repro.network.engine.FabricEngine` arrives every flow of one
instant in one pass and retires the flows that finish together in one
pass.  Grouping must not move anything a caller can see, so each
seeded scenario below records, under both fill kernels:

* per-flow finish times, in the order the finish map holds them;
* the order in which ``done`` (and ``all_of``) events fire, with the
  clock, the value and the solve count at each firing — a ``done``
  that fires on the other side of a solve shows up here;
* reroutes, stranded and cancelled flow ids and :class:`SolverStats`.

``tests/data/engine_instants.json`` holds these values as a run of the
engine recorded them before arrivals and completions were grouped.
Floats are kept as ``repr`` strings, so ``==`` compares bits.
Re-record (only when a change is meant to move them) with::

    PYTHONPATH=src python -m tests.test_engine_instants

The module also holds a hypothesis property pinning
:meth:`~repro.network.solver.CompiledIncidence.live_pieces` to a plain
breadth-first search over random incidences with dead rows.
"""

from __future__ import annotations

import json
import pathlib
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    EcmpController,
    Endpoint,
    Fabric,
    FabricEngine,
    make_flow,
    reset_flow_ids,
    run_collective_timed,
    use_backend,
)
from repro.network.routing import RoutingError
from repro.network.solver import CompiledIncidence
from repro.resilience import FailureInjector
from repro.simcore import SimulationError, Simulator
from repro.topology import AstralParams, build_astral

DATA = pathlib.Path(__file__).parent / "data" / "engine_instants.json"


def _fabric(scale):
    return Fabric(build_astral(getattr(AstralParams, scale)()))


def _hosts(fabric):
    return sorted(name for name, device in fabric.topology.devices.items()
                  if device.tier == 0)


def _flows(rng, hosts, count, lo=5e8, hi=6.4e10):
    flows = []
    for _ in range(count):
        src, dst = rng.sample(hosts, 2)
        flows.append(make_flow(src, dst, rail=0,
                               size_bits=rng.uniform(lo, hi),
                               src_port=rng.randrange(49152, 65535)))
    return flows


class _Recorder:
    """One engine on its own clock, and the log of what fired when."""

    def __init__(self, fabric, **kwargs):
        self.sim = Simulator()
        self.engine = FabricEngine(fabric, sim=self.sim, **kwargs)
        self.log = []
        self.cancelled = []
        self.errors = []

    def _note(self, kind, tag, event):
        value = event.value
        if isinstance(value, list):
            value = [repr(item) for item in value]
        else:
            value = repr(value)
        self.log.append([kind, tag, repr(self.sim.now), value,
                         self.engine.stats.solves])

    def submit(self, flow, **kwargs):
        done = self.engine.submit(flow, **kwargs)
        done.add_callback(
            lambda event, fid=flow.flow_id: self._note("done", fid, event))
        return done

    def submit_many(self, tag, flows, **kwargs):
        done = self.engine.submit_many(flows, **kwargs)
        done.add_callback(
            lambda event: self._note("all", tag, event))
        return done

    def cancel_stranded(self):
        def handler(flow, _exc):
            self.cancelled.append(flow.flow_id)
            self.engine.cancel(flow.flow_id)
        self.engine.on_stranded(handler)

    def run(self):
        """Run to the end, noting each error raised out of a step and
        resuming after it."""
        while True:
            try:
                return self.engine.run()
            except (RoutingError, SimulationError) as exc:
                self.errors.append([type(exc).__name__, repr(self.sim.now)])
                if len(self.errors) > 20:
                    raise

    def observe(self, run, loads=False):
        engine = self.engine
        out = {
            "finish": [[fid, repr(t)] for fid, t in
                       run.finish_times_s.items()],
            "total": repr(run.total_time_s),
            "log": self.log,
            "reroutes": sorted(engine.reroutes.items()),
            "stranded": sorted(engine.stranded),
            "cancelled": self.cancelled,
            "errors": self.errors,
            "stats": engine.stats.as_dict(),
            "paths": list(run.paths),
        }
        if loads:
            out["loads"] = _loads(run)
        return out


def _loads(run):
    return [[list(hop), load.flow_ids, repr(load.offered_gbps),
             repr(load.carried_gbps)]
            for hop, load in run.link_loads.items()]


# -- scenarios ---------------------------------------------------------------

def _simultaneous(seed, scale="small", count=40):
    fabric = _fabric(scale)
    rec = _Recorder(fabric)
    flows = _flows(random.Random(seed), _hosts(fabric), count)
    rec.submit_many("all", flows, start_time_s=0.0)
    return rec.observe(rec.run(), loads=True)


def _shared_instants(seed):
    """Flows submitted one by one, starts drawn from a few instants in
    shuffled order, so instants interleave in submission order."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    instants = (0.0, 0.0, 0.05, 0.125, 0.125, 0.3)
    for flow in _flows(rng, _hosts(fabric), 36):
        rec.submit(flow, start_time_s=rng.choice(instants))
    return rec.observe(rec.run())


def _shared_instants_many(seed):
    """The same through ``submit_many``: flows carry their own starts,
    and two calls land on one instant."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    hosts = _hosts(fabric)
    first = _flows(rng, hosts, 30)
    for flow in first:
        flow.start_time_s = rng.choice((0.0, 0.02, 0.02, 0.07))
    second = _flows(rng, hosts, 12)
    for flow in second:
        flow.start_time_s = rng.choice((0.02, 0.09))
    rec.submit_many("first", first)
    rec.submit_many("second", second)
    return rec.observe(rec.run())


def _interleaved(seed):
    """Other events queued between submissions for one instant, a
    process submitting at its own instant (starts in the past included)
    and a step that fires an instant before more flows are submitted
    for it: the probes log how many arrivals each one saw."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    sim = rec.sim
    rng = random.Random(seed)
    hosts = _hosts(fabric)

    def probe(tag):
        rec.log.append(["probe", tag, repr(sim.now),
                        rec.engine.stats.events, rec.engine.stats.solves])

    for k, flow in enumerate(_flows(rng, hosts, 30)):
        rec.submit(flow, start_time_s=rng.choice((0.0, 0.04, 0.04)))
        if rng.random() < 0.3:
            sim.timeout(rng.choice((0.0, 0.04))).add_callback(
                lambda _e, k=k: probe(k))
    more = _flows(rng, hosts, 8)

    def _proc():
        yield sim.timeout(0.04)
        for flow in more[:3]:
            rec.submit(flow)
        probe("proc")
        yield sim.timeout(0.0)
        for flow in more[3:6]:
            rec.submit(flow, start_time_s=0.0)
        rec.submit_many("proc", more[6:], start_time_s=0.04)

    sim.process(_proc())
    late = _flows(rng, hosts, 3)
    rec.submit(late[0], start_time_s=0.5)
    while sim.now < 0.5:
        sim.step()
    rec.submit(late[1], start_time_s=0.5)
    rec.submit(late[2], start_time_s=0.5)
    return rec.observe(rec.run())


def _staggered(seed):
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    for flow in _flows(rng, _hosts(fabric), 30):
        rec.submit(flow, start_time_s=rng.uniform(0.0, 0.6))
    return rec.observe(rec.run())


def _zero_size(seed):
    """Zero-size and sub-threshold transfers among real ones, at shared
    instants: they finish the instant they arrive."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    flows = _flows(rng, _hosts(fabric), 24)
    for flow in flows[::3]:
        flow.size_bits = rng.choice((0.0, 1e-7))
    for flow in flows:
        rec.submit(flow, start_time_s=rng.choice((0.0, 0.0, 0.1)))
    tail = _flows(rng, _hosts(fabric), 6)
    tail[1].size_bits = 0.0
    rec.submit_many("tail", tail, start_time_s=0.1)
    return rec.observe(rec.run())


def _cut_at_arrival(handled):
    """A device dies before flows towards it arrive; they arrive at one
    instant among routable flows.  With a handler each is stranded and
    resolves None; without one each arrival raises and the rest of its
    instant still arrives when the run resumes."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    if handled:
        rec.engine.on_stranded(
            lambda flow, _exc: rec.cancelled.append(flow.flow_id))
    dead = "p0.b0.h1"
    others = [host for host in _hosts(fabric) if host != dead]
    rng = random.Random(11)
    for k in range(12):
        src = others[k % len(others)]
        dst = dead if k % 4 == 1 else others[(k + 3) % len(others)]
        flow = make_flow(src, dst, rail=0, size_bits=rng.uniform(1e9, 9e9),
                         src_port=49152 + k)
        rec.submit(flow, start_time_s=0.5 if k < 8 else 0.75)
    rec.sim.timeout(0.5).add_callback(
        lambda _e: rec.log.append(["probe", 0, repr(rec.sim.now), "", 0]))
    FailureInjector(rec.engine).kill_device(dead, at=0.1)
    return rec.observe(rec.run())


def _raise_then_submit():
    """The only flow of an instant raises on arrival; a flow submitted
    for that instant after the error gets an arrival of its own."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    dead = "p0.b0.h1"
    flows = [make_flow("p0.b1.h0", "p1.b0.h0", rail=0, size_bits=4e9),
             make_flow("p0.b1.h1", dead, rail=0, size_bits=4e9),
             make_flow("p1.b1.h0", "p0.b1.h0", rail=0, size_bits=4e9)]
    rec.submit(flows[0], start_time_s=0.0)
    FailureInjector(rec.engine).kill_device(dead, at=0.1)
    # Submitted by a bare callback, so its arrival is the last event
    # queued when it raises.
    rec.sim.timeout(0.2).add_callback(lambda _e: rec.submit(flows[1]))
    try:
        rec.engine.run()
    except RoutingError as exc:
        rec.errors.append([type(exc).__name__, repr(rec.sim.now)])
    rec.submit(flows[2], start_time_s=0.2)
    return rec.observe(rec.run())


def _arrived_twice():
    """One flow id submitted twice for one instant: the second arrival
    raises, and the instant's later flows arrive on resume."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    flows = _flows(random.Random(5), _hosts(fabric), 6)
    rec.submit_many("a", flows[:3] + [flows[1]] + flows[3:],
                    start_time_s=0.2)
    return rec.observe(rec.run())


def _kill_mid_flight(seed):
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rec.cancel_stranded()
    rng = random.Random(seed)
    flows = _flows(rng, _hosts(fabric), 30)
    for flow in flows:
        rec.submit(flow, start_time_s=rng.choice((0.0, 0.0, 0.04)))
    injector = FailureInjector(rec.engine, dampening_s=0.05)
    links = sorted(fabric.topology.links)
    for at in (0.03, 0.06, 0.11):
        injector.kill_link(rng.choice(links), at=at)
    injector.kill_device(rng.choice(_hosts(fabric)), at=0.08)
    return rec.observe(rec.run())


def _flap_and_degrade(seed):
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rec.cancel_stranded()
    rng = random.Random(seed)
    flows = _flows(rng, _hosts(fabric), 28)
    rec.submit_many("all", flows, start_time_s=0.0)
    injector = FailureInjector(rec.engine, dampening_s=0.02)
    links = sorted(fabric.topology.links)
    injector.flap_link(rng.choice(links), at=0.02, down_s=0.01)
    injector.degrade_link(rng.choice(links), factor=0.25, at=0.035)
    injector.degrade_link(rng.choice(links), factor=0.5, at=0.035)
    rec.engine.set_capacity_factor(rng.choice(links), 0.75, at=0.05)
    return rec.observe(rec.run())


def _strand_then_repair():
    """A host dies under its in-flight flows and is repaired later: the
    stranded flows stay in flight at rate 0 and resume on the repaired
    links.  A link is also rescaled mid-flight, as a timestamp fault
    does."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rec.engine.on_stranded(
        lambda flow, _exc: rec.cancelled.append(flow.flow_id))
    rng = random.Random(21)
    hosts = _hosts(fabric)
    victim = hosts[5]
    flows = _flows(rng, hosts, 20)
    flows += [make_flow(victim, hosts[k], rail=0, size_bits=2e10,
                        src_port=49152 + k) for k in (0, 9, 17)]
    rec.submit_many("all", flows, start_time_s=0.0)
    injector = FailureInjector(rec.engine, dampening_s=0.01)
    injector.kill_device(victim, at=0.01)
    injector.repair_device(victim, at=0.05)
    busy = fabric.directed_hops(fabric.path(flows[0]))[1][0]

    def rescale(_event):
        fabric.topology.scale_link(busy, 0.5)
        rec.engine.notify_topology_changed()

    rec.sim.timeout(0.02).add_callback(rescale)
    return rec.observe(rec.run())


def _pfc_incast(seed):
    """Dynamic PFC spreading under an incast whose senders finish at
    different times, so backpressure factors change as flows leave."""
    fabric = _fabric("small")
    rec = _Recorder(fabric, pfc_spreading=True)
    rng = random.Random(seed)
    hosts = _hosts(fabric)
    sink = hosts[0]
    flows = [make_flow(src, sink, rail=0,
                       size_bits=rng.uniform(2e9, 3e10),
                       src_port=rng.randrange(49152, 65535))
             for src in hosts[8:20]]
    flows += _flows(rng, hosts, 16)
    for flow in flows:
        rec.submit(flow, start_time_s=rng.choice((0.0, 0.0, 0.03)))
    return rec.observe(rec.run())


def _cancel_and_resubmit(seed):
    """A process cancels flows mid-flight and resubmits their ids at
    the current instant, with starts in the past."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    flows = _flows(rng, _hosts(fabric), 16)
    for flow in flows:
        rec.submit(flow, start_time_s=0.0)
    sim = rec.sim

    def _proc():
        yield sim.timeout(0.05)
        for flow in flows[:4]:
            rec.engine.cancel(flow.flow_id, value="cancelled")
        for flow in flows[:4]:
            flow.size_bits *= 0.5
            rec.submit(flow, start_time_s=0.0)
        yield sim.timeout(0.05)
        rec.engine.cancel(flows[5].flow_id)

    sim.process(_proc())
    return rec.observe(rec.run())


def _controller(seed):
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    rng = random.Random(seed)
    flows = _flows(rng, _hosts(fabric), 32)
    rec.submit_many("all", flows, start_time_s=0.0)
    reports = EcmpController(fabric).run_timed(rec.engine, flows,
                                               interval_s=0.05)
    out = rec.observe(rec.run())
    out["moved"] = [report.flows_moved for report in reports]
    return out


def _collective_waves():
    """Two tenants' ring collectives on one engine: each wave's
    ``all_of`` resumes a process that submits the next wave at the
    same instant."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    hosts = _hosts(fabric)
    tenant_a = [Endpoint(host, 0) for host in hosts[0:6]]
    tenant_b = [Endpoint(host, 0) for host in hosts[3:10]]
    proc_a = run_collective_timed(rec.engine, tenant_a, 4e9, "allreduce")
    proc_b = run_collective_timed(rec.engine, tenant_b, 6e9, "all_to_all",
                                  start_time_s=0.01)
    out = rec.observe(rec.run())
    out["collectives"] = [
        [repr(proc.value.total_time_s), proc.value.n_waves]
        for proc in (proc_a, proc_b)]
    return out


def _window_all_to_all():
    """engine-a2a in small: every host sends to its successors, all at
    t=0, so thousands of completions retire at shared instants."""
    fabric = _fabric("small")
    rec = _Recorder(fabric)
    hosts = _hosts(fabric)
    rng = random.Random(3)
    flows = [make_flow(src, hosts[(i + step) % len(hosts)], rail=0,
                       size_bits=1e9 * rng.choice((1, 2)))
             for i, src in enumerate(hosts) for step in range(1, 6)]
    rec.submit_many("a2a", flows, start_time_s=0.0)
    return rec.observe(rec.run(), loads=True)


def _long_stream():
    """A stream of short flows long enough to compact the fluid rows."""
    fabric = _fabric("tiny")
    rec = _Recorder(fabric)
    hosts = _hosts(fabric)
    rng = random.Random(8)
    for k in range(420):
        src, dst = rng.sample(hosts, 2)
        flow = make_flow(src, dst, rail=0, size_bits=rng.choice((1e8, 3e8)),
                         src_port=49152 + k % 97)
        rec.submit(flow, start_time_s=(k // 3) * 1e-3)
    return rec.observe(rec.run())


def _batch_complete(seed, pfc):
    fabric = _fabric("small")
    flows = _flows(random.Random(seed), _hosts(fabric), 30)
    flows[3].size_bits = 0.0
    run = fabric.complete(flows, pfc_spreading=pfc)
    return {"finish": [[fid, repr(t)] for fid, t in
                       run.finish_times_s.items()],
            "total": repr(run.total_time_s),
            "paths": list(run.paths),
            "loads": _loads(run)}


def _multijob(monkeypatch):
    from repro.monitoring import FaultSpec, JobConfig, MultiJobRun
    from repro.monitoring import multijob

    engines = []

    class _Kept(FabricEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(multijob, "FabricEngine", _Kept)
    fabric = _fabric("small")
    jobs = [JobConfig(name="tenantA", iterations=4,
                      hosts=("p0.b0.h0", "p0.b0.h1", "p0.b1.h0",
                             "p0.b1.h1")),
            JobConfig(name="tenantB", iterations=4, start_time_s=0.1,
                      hosts=("p0.b0.h2", "p0.b0.h3", "p0.b1.h2",
                             "p0.b1.h3"))]
    fault = FaultSpec.pcie_storm("p0.b0.h1", at_iteration=1)
    outcomes = MultiJobRun(fabric, jobs, faults={"tenantA": fault}).run()
    (engine,) = engines
    return {
        "iterations": {name: [repr(t) for t in out.iteration_times_s]
                       for name, out in outcomes.items()},
        "finish": [[fid, repr(t)] for fid, t in engine._finish.items()],
        "reroutes": sorted(engine.reroutes.items()),
        "stats": engine.stats.as_dict(),
    }


SCENARIOS = {
    "simultaneous-small-0": lambda mp: _simultaneous(0),
    "simultaneous-tiny-1": lambda mp: _simultaneous(1, "tiny", 24),
    "shared-instants-0": lambda mp: _shared_instants(0),
    "shared-instants-1": lambda mp: _shared_instants(1),
    "shared-instants-many-2": lambda mp: _shared_instants_many(2),
    "interleaved-13": lambda mp: _interleaved(13),
    "interleaved-14": lambda mp: _interleaved(14),
    "staggered-3": lambda mp: _staggered(3),
    "zero-size-4": lambda mp: _zero_size(4),
    "zero-size-5": lambda mp: _zero_size(5),
    "cut-at-arrival-handled": lambda mp: _cut_at_arrival(True),
    "cut-at-arrival-raises": lambda mp: _cut_at_arrival(False),
    "arrived-twice": lambda mp: _arrived_twice(),
    "raise-then-submit": lambda mp: _raise_then_submit(),
    "kill-mid-flight-6": lambda mp: _kill_mid_flight(6),
    "kill-mid-flight-7": lambda mp: _kill_mid_flight(7),
    "flap-and-degrade-8": lambda mp: _flap_and_degrade(8),
    "cancel-and-resubmit-9": lambda mp: _cancel_and_resubmit(9),
    "strand-then-repair": lambda mp: _strand_then_repair(),
    "pfc-incast-15": lambda mp: _pfc_incast(15),
    "controller-10": lambda mp: _controller(10),
    "collective-waves": lambda mp: _collective_waves(),
    "window-all-to-all": lambda mp: _window_all_to_all(),
    "long-stream": lambda mp: _long_stream(),
    "batch-complete-11": lambda mp: _batch_complete(11, False),
    "batch-complete-pfc-12": lambda mp: _batch_complete(12, True),
    "multijob-two-tenants": _multijob,
}


def _observe(name, backend, monkeypatch):
    reset_flow_ids()
    with use_backend(backend):
        out = SCENARIOS[name](monkeypatch)
    # Through JSON, so tuples compare as the lists the file holds.
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


class TestPinnedObservables:
    def test_every_scenario_is_pinned(self, pinned):
        assert sorted(pinned) == sorted(SCENARIOS)

    @pytest.mark.parametrize("backend", ["python", "vector"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_pinned(self, name, backend, pinned,
                                     monkeypatch):
        got = _observe(name, backend, monkeypatch)
        want = pinned[name]
        for key in want:
            assert got[key] == want[key], (name, key)
        assert got == want


# -- live pieces ---------------------------------------------------------------

def _bfs_pieces(hops_of, alive):
    """Connected pieces of the live rows by breadth-first search over
    shared columns, each ascending, ordered by first row."""
    rows_of = {}
    for row, cols in enumerate(hops_of):
        if alive[row]:
            for col in cols:
                rows_of.setdefault(col, []).append(row)
    seen = set()
    pieces = []
    for start in range(len(hops_of)):
        if not alive[start] or start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        piece = []
        while queue:
            row = queue.popleft()
            piece.append(row)
            for col in hops_of[row]:
                for other in rows_of[col]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        pieces.append(sorted(piece))
    return pieces


@st.composite
def _incidences(draw):
    """Random incidences whose pieces need many propagation rounds:
    chains of rows sharing one column with the next, laid out in a
    shuffled row order, plus random extra memberships and dead rows."""
    n = draw(st.integers(1, 60))
    n_links = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    hops_of = [set() for _ in range(n)]
    for k in range(n - 1):
        if draw(st.integers(0, 9)):
            col = draw(st.integers(0, n_links - 1))
            hops_of[order[k]].add(col)
            hops_of[order[k + 1]].add(col)
    for row in range(n):
        for _ in range(draw(st.integers(0, 2))):
            hops_of[row].add(draw(st.integers(0, n_links - 1)))
    hops_of = [sorted(cols) for cols in hops_of]
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return hops_of, n_links, alive


@pytest.mark.parametrize("backend", ["python", "vector"])
@given(problem=_incidences())
@settings(max_examples=150, deadline=None)
def test_live_pieces_is_breadth_first_search(backend, problem):
    hops_of, n_links, alive = problem
    indptr = np.cumsum([0] + [len(cols) for cols in hops_of])
    mem_cols = [col for cols in hops_of for col in cols]
    with use_backend(backend):
        inc = CompiledIncidence(list(range(len(hops_of))), indptr,
                                mem_cols, n_links)
        for row, live in enumerate(alive):
            if not live:
                inc.alive[row] = False
                inc.n_alive -= 1
        got = [rows.tolist() for rows in inc.live_pieces()]
    assert got == _bfs_pieces(hops_of, alive)


def _record():
    """Write every scenario's observables (the vector kernel's; the
    test checks both kernels against them)."""

    class _Patch:
        def __init__(self):
            self._undo = []

        def setattr(self, target, name, value):
            self._undo.append((target, name, getattr(target, name)))
            setattr(target, name, value)

        def undo(self):
            for target, name, value in reversed(self._undo):
                setattr(target, name, value)
            self._undo.clear()

    patch = _Patch()
    data = {}
    for name in sorted(SCENARIOS):
        try:
            data[name] = _observe(name, "vector", patch)
        finally:
            patch.undo()
    # One scenario per line, so a re-record diffs by scenario.
    lines = [json.dumps(name) + ": " + json.dumps(
        data[name], sort_keys=True, separators=(",", ":"))
        for name in sorted(data)]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _record()
