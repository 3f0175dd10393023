"""Event-driven fluid fabric simulator on the simcore kernel.

:class:`FabricEngine` moves the flow-level fabric onto the single
deterministic clock the rest of the reproduction runs on
(:class:`repro.simcore.Simulator`), and it is the only fluid
integrator the simulator has: :meth:`Fabric.complete` is a batch
wrapper over it, and the epoch-global loop it is checked against
(``repro.validation.differential.complete_batch``) is a test oracle.
Where a batch completion starts every flow at t=0 and lets nothing
change mid-transfer, the engine maintains an *active-flow set* that
evolves over simulated time:

* flows carry a ``start_time_s`` and arrive on the clock;
* rate allocation re-runs only on events (flow arrival, flow
  completion, capacity change, path reassignment), never per tick;
* external processes on the same simulator — the ECMP controller's
  five-second polling rounds, fault injectors, tenant job loops — can
  retarget or throttle flows *while they are in flight*.

The engine works per instant, not per flow.  :meth:`FabricEngine.submit`
and :meth:`FabricEngine.submit_many` group flows by the instant they
arrive at and queue one simulator event per instant, where the first
flow's own timeout would have stood; its handler advances once and
arrives the instant's flows in submission order, entering the routed
ones into the fluid rows, the incidence index and the components
together.  Every flow that finishes at an instant is retired in one
pass and resolves in row order, with the solve requested right after
the first; the flows of one ``submit_many`` count down to its
``all_of`` event instead of firing one ``done`` event each.  Every
event a caller can see keeps the queue position it had when flows
arrived and finished one at a time.  A solve re-reads a dirtied link's
capacity only when it may have changed since the link's last read: a
new link, or a capacity factor, PFC factor or topology-version change.
A completion changes member sets, not capacities.

Rate allocation is **incremental max-min**: directed-hop lists are
cached per flow, link member sets are maintained across events, and
each event re-fills only the components of the flow/link sharing graph
that hold a dirtied link, never the whole fabric.  Components are
explicit labels (live flow → component id → its live flows); an
arriving or rerouted flow merges every component its hops touch.
Completions only remove flows, so a component may fall apart while it
keeps one label.  Once a cached component has lost a sixteenth of its
live rows since it was last known to be connected, the next solve that
touches it labels the connected pieces of its live rows
(:meth:`CompiledIncidence.live_pieces`), re-keys each piece as a
component of its own, and fills only the pieces holding a dirtied
link.  This is exact: progressive filling is
separable by component bit for bit — a link's remaining capacity is
reduced only by the freezes of its own flows, at the shares their own
piece reaches — so a piece left alone already holds the rates a global
solve would give it.  The labels hold live flows only, so their size
follows the live population however many flow ids a run uses.

A dense pattern is still one big component, so each cached component
also keeps the record of its last fill
(:class:`~repro.network.solver.FillRecord`: the capacities it
gathered, each row's freeze round — which also marks the rows it saw
live — each round's share, and the frozen rows' columns in freeze
order).
When the capacities are bit-equal and only completions touched the
component since, the next fill replays the rounds before the earliest
round a completed flow froze in and runs the kernel from there; any
other change — a capacity or PFC factor, a compile after an arrival,
reroute or split — fills cold.  The resumed fill is bit-identical to a
cold one (see :mod:`repro.network.solver`).

Cold fills come in batches: a solve compiles every dirtied component
that has no cached incidence with one
:func:`~repro.network.solver.compile_component` call, as one
block-diagonal problem (:class:`~repro.network.solver.CompiledBlock`),
fills it with one kernel call and scatters it with one
:meth:`~FabricEngine._apply_rates`.  Folded runs at paper scale solve
thousands of one-flow components a few hundred at a time, so this
replaces per-component numpy overhead with per-solve overhead.  By the
same separability, the block fill runs each component's own rounds,
so each component stays cached against its span of the block
(:class:`_Block`).  The first time one is dirtied again it is sliced
out with the record a fill of its own would have left, so warm
resumes, splits and :class:`SolverStats` are what one fill per
component gives.  A block whose cached members keep fewer than half
its rows is dissolved before the solve's fills: each member is sliced
out on its own.

:class:`SolverStats` counts the work (solver calls, link visits) so
the saving vs the epoch-global batch oracle is measurable — see
``benchmarks/test_bench_fabric_engine.py``.

The fluid core is array-shaped and there is exactly one of it: per-flow
``remaining``/``rate``/absolute-``deadline`` rows (:class:`_FluidArrays`),
one compiled :class:`~repro.network.solver.CompiledIncidence` per
component or block of cold components (cached, patched in place as
flows finish, and remapped rather than dropped when dead fluid rows are
compacted), and a single
engine-level deadline event at the minimum of the deadline array.  The
backend of the :func:`~repro.network.solver.use_backend` scope the
engine is built in picks only the progressive-filling kernel a compiled
component is handed to (:func:`~repro.network.solver.fill_kernel`).
Both kernels return bit-identical floats, so finish times, event
traces and :class:`SolverStats` compare ``==`` across backends (the
validation harness pins this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Union)

import numpy as np

from ..simcore import Event, SimulationError, Simulator
from .congestion import CongestionModel
from .fabric import Fabric, FabricRun, LinkDir
from .flows import Flow, FlowPath
from .routing import RoutingError
from .solver import (
    CompiledBlock,
    CompiledIncidence,
    FillRecord,
    IncidenceIndex,
    SolverStats,
    compile_component,
    fill_kernel,
    resolve_backend,
)

__all__ = ["DONE_BITS", "MAX_STALLS", "FabricEngine", "SolverStats"]

#: A flow is complete once its residue drops below this many bits.
#: Integration is in floats, so exact zero is unreachable; the batch
#: oracle (``repro.validation.differential.complete_batch``) uses the
#: same inclusive threshold, a precondition for the two finishing
#: flows at bit-identical times.
DONE_BITS = 1e-6

#: Consecutive no-progress steps at one instant after which a solve
#: declares the fluid model wedged instead of spinning.
MAX_STALLS = 8


class _Group:
    """The completion of the flows one :meth:`FabricEngine.submit_many`
    call queued, counted down instead of one ``done`` event per flow.

    Only the ``all_of`` event reaches the caller, so each flow's value
    lands in its slot.  When the last one resolves, a relay event is
    triggered where that flow's own ``done`` would have been, and
    ``event`` is triggered when the relay fires, exactly as an
    ``all_of`` over per-flow events is: every other event keeps its
    place.
    """

    __slots__ = ("sim", "event", "values", "waiting")

    def __init__(self, sim: Simulator, n: int):
        self.sim = sim
        self.event = sim.event(name="all_of")
        self.values: List[Any] = [None] * n
        self.waiting = n

    def resolve(self, index: int, value: Any) -> None:
        self.values[index] = value
        self.waiting -= 1
        if not self.waiting:
            relay = self.sim.event(name="all_of-last")
            relay.add_callback(
                lambda _event: self.event.succeed(self.values))
            relay.succeed()


@dataclass(slots=True)
class _FlowState:
    """Book-keeping for one in-flight flow; its fluid quantities live
    in the engine's :class:`_FluidArrays` at index ``row``.  Its
    completion is ``done``, or slot ``index`` of ``group``."""

    flow: Flow
    done: Optional[Event]
    group: Optional[_Group] = None
    index: int = 0
    hops: List[LinkDir] = field(default_factory=list)
    row: int = -1

    def resolve(self, value: Any) -> None:
        if self.group is None:
            self.done.succeed(value)
        else:
            self.group.resolve(self.index, value)


class _FluidArrays:
    """Array-of-flows fluid state.

    One row per arrived flow, assigned in arrival order, so row order
    is arrival order everywhere it is observable (completion
    detection, finish-dict insertion).  Rows are appended an instant's
    arrivals at a time, retired in place and compacted away once dead
    rows dominate.
    """

    __slots__ = ("rem", "rate", "deadline", "alive", "synced", "fids",
                 "n", "n_alive")

    def __init__(self, capacity: int = 64):
        self.rem = np.zeros(capacity, dtype=np.float64)
        self.rate = np.zeros(capacity, dtype=np.float64)
        self.deadline = np.full(capacity, np.inf, dtype=np.float64)
        self.alive = np.zeros(capacity, dtype=bool)
        #: row's ``flow.rate_gbps`` attribute has been written at least
        #: once by :meth:`FabricEngine._apply_rates` (see there).
        self.synced = np.zeros(capacity, dtype=bool)
        self.fids: List[int] = []
        self.n = 0
        self.n_alive = 0

    def _grow(self, need: int) -> None:
        cap = self.rem.shape[0]
        while cap < need:
            cap *= 2
        for name in ("rem", "rate", "deadline", "alive", "synced"):
            old = getattr(self, name)
            fill = np.inf if name == "deadline" else 0
            grown = np.full(cap, fill, dtype=old.dtype)
            grown[:old.shape[0]] = old
            setattr(self, name, grown)

    def add_many(self, fids: List[int], sizes: List[float]) -> int:
        """Append one row per flow, in order; returns the first row."""
        lo = self.n
        hi = lo + len(fids)
        if hi > self.rem.shape[0]:
            self._grow(hi)
        self.rem[lo:hi] = sizes
        self.rate[lo:hi] = 0.0
        self.deadline[lo:hi] = np.inf
        self.alive[lo:hi] = True
        self.synced[lo:hi] = False
        self.fids.extend(fids)
        self.n = hi
        self.n_alive += hi - lo
        return lo

    def retire(self, rows) -> None:
        """Retire live *rows* (an index array)."""
        self.alive[rows] = False
        self.rate[rows] = 0.0
        self.deadline[rows] = np.inf
        self.n_alive -= int(rows.shape[0])


@dataclass
class _CompEntry:
    """One cached compiled component.

    ``rows``/``flows`` are aligned with ``inc``'s row order: the
    flow's fluid-array row and its :class:`Flow` object, resolved once
    at compile time so per-solve scatter and attribute sync never go
    through dict lookups.
    """

    inc: CompiledIncidence
    l2g: Any
    rows: Any
    flows: List[Flow]
    #: live rows when the component was last known to be connected
    #: (compiled, or labelled as one piece).
    n_labelled: int
    #: the last fill's freeze order, which the next fill resumes from.
    record: FillRecord


@dataclass
class _Block:
    """Cold components compiled and filled together in one solve.

    Each member stays cached against its span of ``block`` (``members``
    maps its component id to its position) until it is dirtied again,
    merged or emptied, or the block dissolves; ``rows``/``flows``/
    ``record`` are the block's, aligned as in :class:`_CompEntry`.
    """

    block: CompiledBlock
    rows: Any
    flows: List[Flow]
    record: FillRecord
    members: Dict[int, int]
    #: rows in the spans of ``members``.
    kept: int

    @property
    def inc(self) -> CompiledIncidence:
        return self.block.inc


class FabricEngine:
    """Event-driven max-min fluid simulator over a :class:`Fabric`.

    The engine can share its :class:`~repro.simcore.Simulator` with any
    number of other processes (tenant job loops, controllers, fault
    injectors); all of them then observe one fabric on one clock.

    PFC has one model, and it is dynamic: with ``pfc_spreading`` the
    backpressure multipliers are re-derived from the *current*
    active-flow loads (:meth:`Fabric.offered_loads`) at every solve, so
    a tenant's storm throttles exactly the links it is storming while
    it is storming them.  Without it the engine never builds a load
    map.  :meth:`set_capacity_factor` scales a link on top of that
    (a degraded optic, a dead link).

    The max-min fill kernel is the one of the
    :func:`~repro.network.solver.use_backend` scope the engine is built
    in (``vector`` outside any scope).  It is recorded at construction,
    so one engine never mixes kernels mid-run.
    """

    def __init__(self, fabric: Fabric, sim: Optional[Simulator] = None,
                 pfc_spreading: bool = False):
        self.fabric = fabric
        self.sim = sim or Simulator()
        self.stats = SolverStats()
        self.pfc_spreading = pfc_spreading
        self.backend = resolve_backend()
        self._fluid = _FluidArrays()
        self._index = IncidenceIndex()
        self._comp_cache: Dict[int, Union[_CompEntry, _Block]] = {}
        #: blocks whose members keep fewer than half their rows, by id.
        self._sparse: Dict[int, _Block] = {}
        self._deadline_gen = 0
        #: no-progress guard: deadline events in a row at ``_stall_at``
        #: that completed no flow.
        self._stall_at = -1.0
        self._stalls = 0
        self._congestion = CongestionModel()

        self._clock = self.sim.now
        self._states: Dict[int, _FlowState] = {}
        self._paths: Dict[int, FlowPath] = {}
        self._finish: Dict[int, float] = {}
        self._last_finish = 0.0
        self._members: Dict[LinkDir, Set[int]] = {}
        self._static_factors: Dict[LinkDir, float] = {}
        self._pfc_factors: Dict[LinkDir, float] = {}
        #: links whose member set changed since the last solve.
        self._dirty: Set[LinkDir] = set()
        #: links whose capacity may have changed since it was last read:
        #: new, or hit by a capacity factor, PFC factor or topology
        #: version change.  A solve re-reads those that are also dirty,
        #: so every column holds what re-reading each dirty link gives.
        self._stale: Set[LinkDir] = set()
        self._solve_pending = False
        #: (instant, event, ``sim.scheduled`` after it, flows) of the
        #: last arrival event queued, which later submissions for its
        #: instant may join (see _enqueue).
        self._last_instant: Optional[tuple] = None
        self._topo_version = fabric.topology.version
        #: per-flow mid-flight reroute counts (failover bookkeeping) —
        #: the flap-dampening contract is "at most one reroute per flow
        #: per flap", which tests assert against this map.
        self.reroutes: Dict[int, int] = {}
        #: flows whose path died with no survivor, keyed by flow id.
        self.stranded: Dict[int, RoutingError] = {}
        self._stranded_handlers: List[
            Callable[[Flow, RoutingError], None]] = []
        # Components of the flow/link sharing graph as explicit labels:
        # each live flow maps to its component id, each component id to
        # its live flows in join order.  A dirty link resolves to its
        # component through any of its members.
        self._comp_of: Dict[int, int] = {}
        self._comp_fids: Dict[int, Dict[int, None]] = {}
        self._comp_ids = itertools.count()

    # -- public interface -------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def is_active(self, flow_id: int) -> bool:
        return flow_id in self._states

    def active_flows(self) -> List[Flow]:
        return [state.flow for state in self._states.values()]

    def rate_of(self, flow_id: int) -> float:
        state = self._states.get(flow_id)
        if state is None:
            return 0.0
        return float(self._fluid.rate[state.row])

    def finish_time(self, flow_id: int) -> Optional[float]:
        return self._finish.get(flow_id)

    def path_of(self, flow_id: int) -> Optional[FlowPath]:
        return self._paths.get(flow_id)

    def submit(self, flow: Flow, path: Optional[FlowPath] = None,
               start_time_s: Optional[float] = None) -> Event:
        """Schedule *flow* on the fabric; returns its completion event.

        The flow arrives at ``max(sim.now, start_time_s)`` (defaulting
        to ``flow.start_time_s``); its path is resolved at arrival time
        unless one is given.  Flow ids may be resubmitted after their
        previous transfer completed (stable QPs re-used per iteration).
        It takes :meth:`submit_many`'s arrival path.
        """
        paths = None if path is None else {flow.flow_id: path}
        return self._enqueue([flow], paths, start_time_s, None)[0].done

    def submit_many(self, flows: Iterable[Flow],
                    paths: Optional[Dict[int, FlowPath]] = None,
                    start_time_s: Optional[float] = None) -> Event:
        """Submit several flows; returns an all-of completion event."""
        flows = list(flows)
        if not flows:
            return self.sim.all_of([])
        group = _Group(self.sim, len(flows))
        self._enqueue(flows, paths, start_time_s, group)
        return group.event

    def _enqueue(self, flows: Iterable[Flow],
                 paths: Optional[Dict[int, FlowPath]],
                 start_time_s: Optional[float],
                 group: Optional[_Group]) -> List[_FlowState]:
        """Queue *flows* for arrival, one simulator event per arrival
        instant; returns their states.  Each flow completes into slot
        *k* of *group*, or without one into a ``done`` event of its
        own.

        An instant's event takes the queue position its first flow's
        own timeout would have had, and its flows arrive in submission
        order.  A flow joins an instant's event only while every event
        queued since that event is at another instant, so each flow
        keeps its order among all events of its instant: within one
        call, and across calls while this engine's last instant event
        is still the last event queued and has not fired.
        """
        sim = self.sim
        now = sim.now
        states = self._states
        instants: Dict[float, List] = {}
        last = self._last_instant
        if last is not None and sim.scheduled == last[2] \
                and not last[1].processed:
            instants[last[0]] = last[3]
        queued = []
        for k, flow in enumerate(flows):
            fid = flow.flow_id
            if fid in states:
                raise SimulationError(f"flow {fid} is already in flight")
            start = flow.start_time_s if start_time_s is None \
                else start_time_s
            delay = max(start, now) - now
            # Key by the instant the delay lands on, as a timeout would.
            key = now + delay
            batch = instants.get(key)
            if batch is None:
                batch = instants[key] = []
                event = sim.timeout(delay)
                event.add_callback(
                    lambda _event, batch=batch: self._on_arrivals(batch))
                self._last_instant = (key, event, sim.scheduled, batch)
            state = _FlowState(
                flow=flow, group=group, index=k,
                done=None if group else sim.event(name=f"flow-{fid}-done"))
            queued.append(state)
            batch.append((state, paths.get(fid) if paths else None,
                          float(flow.size_bits)))
        return queued

    def reassign_path(self, flow: Flow,
                      path: Optional[FlowPath] = None) -> bool:
        """Retarget an in-flight flow onto its (re-hashed) current path.

        Returns True when the directed-hop list actually changed; the
        touched component is re-solved, so co-bottlenecked flows speed
        up or slow down mid-transfer.
        """
        state = self._states.get(flow.flow_id)
        if state is None:
            return False
        self._advance_to(self.sim.now)
        state = self._states.get(flow.flow_id)
        if state is None:
            return False
        new_path = path if path is not None \
            else self.fabric.path(flow)
        if not self._move_flow(state, new_path):
            return False
        self._request_solve()
        return True

    def _move_flow(self, state: _FlowState, new_path: FlowPath) -> bool:
        """Swap an in-flight flow onto *new_path*; True if hops changed."""
        fid = state.flow.flow_id
        new_hops = self.fabric.directed_hops(new_path)
        self._paths[fid] = new_path
        if new_hops == state.hops:
            return False
        for hop in state.hops:
            self._members[hop].discard(fid)
        self._dirty.update(state.hops)
        self.stats.link_visits += len(new_hops)
        state.hops = new_hops
        self._index.register_flows([fid], [new_hops])
        # The flow stays in its component (which may now fall apart;
        # a later split finds out) and joins the new hops' components.
        self._join([fid], [new_hops])
        return True

    def on_stranded(self, handler: Callable[[Flow, RoutingError], None]
                    ) -> None:
        """Register a handler for flows that lose every path.

        Without handlers a stranded flow raises its (Partition)
        RoutingError out of the simulation — the fail-fast default.
        With handlers the error is recorded in :attr:`stranded` and
        each handler is invoked; handlers typically :meth:`cancel` the
        flow and degrade the collective (ring repair) or fail the job.
        A flow whose route is already cut when it arrives never goes in
        flight: after the handlers run, its completion event resolves
        with None, as :meth:`cancel` would resolve it.
        """
        self._stranded_handlers.append(handler)

    def cancel(self, flow_id: int, value=None) -> bool:
        """Abort an in-flight flow (QP torn down mid-transfer).

        The flow's completion event fires with *value* (default None,
        distinguishing cancellation from a finish-time float) so
        collective waves waiting on it unblock; no finish time is
        recorded.  Returns False if the flow was not in flight.
        """
        self._advance_to(self.sim.now)
        state = self._states.pop(flow_id, None)
        if state is None:
            return False
        self._retire([flow_id], [state],
                     np.array([state.row], dtype=np.int64))
        self.stranded.pop(flow_id, None)
        state.resolve(value)
        self._request_solve()
        return True

    def retarget(self, flows: Iterable[Flow]) -> int:
        """Re-hash every flow's path; returns how many actually moved.

        Flows with no surviving path are skipped — stranding is the
        failover path's job, not the polling controller's.
        """
        moved = 0
        for flow in flows:
            try:
                moved += 1 if self.reassign_path(flow) else 0
            except RoutingError:
                continue
        return moved

    def set_capacity_factor(self, link_id: int, factor: float,
                            at: Optional[float] = None) -> None:
        """Scale a link's effective capacity (both directions) by
        *factor* — e.g. a degraded optic, or a dead link at 0.0 —
        either immediately or at simulated time *at*."""
        if factor < 0:
            raise ValueError(f"negative capacity factor: {factor}")

        def apply(_event=None):
            self._advance_to(self.sim.now)
            for forward in (True, False):
                hop = (link_id, forward)
                if factor == 1.0:
                    self._static_factors.pop(hop, None)
                else:
                    self._static_factors[hop] = factor
                self._stale.add(hop)
                if self._members.get(hop):
                    self._dirty.add(hop)
            self._request_solve()

        if at is None or at <= self.sim.now:
            apply()
        else:
            self.sim.timeout(at - self.sim.now).add_callback(apply)

    def notify_topology_changed(self) -> None:
        """Tell the engine the topology was mutated externally (failed
        link, degraded capacity, rewire).  The next solve — requested
        here — sees the version bump and re-reads every occupied link's
        capacity, so in-flight flows re-allocate immediately instead of
        at their next natural event."""
        self._advance_to(self.sim.now)
        self._request_solve()

    def run(self, until: Optional[float] = None) -> FabricRun:
        """Drive the simulator and return the completed transfers.

        Raises :class:`SimulationError` when the event queue drains
        while flows are still active — every such flow is starved
        (rate 0, e.g. a zeroed capacity factor on its path) and is
        named in the message.
        """
        self.sim.run(until)
        if until is None and self._states:
            starved = sorted(
                fid for fid in self._states
                if self.rate_of(fid) <= 0)
            detail = ""
            if self.stranded:
                detail = ("; stranded (no surviving path): "
                          f"{sorted(self.stranded)}")
            raise SimulationError(
                "fabric engine idle with unfinished flows; starved "
                f"flows (rate 0): {starved or sorted(self._states)}"
                + detail)
        return FabricRun(
            total_time_s=self._last_finish,
            finish_times_s=dict(self._finish),
            paths=dict(self._paths),
        )

    # -- event handlers ----------------------------------------------------
    def _on_arrivals(self, batch: List) -> None:
        """Arrive every flow of one instant, in submission order.

        Zero-size flows finish here and flows whose route is cut are
        stranded, each in its place in the order.  The routed flows are
        entered into the fluid rows, the incidence index and the
        components together (:meth:`_register`), before any stranded
        handler runs and at the end, so what a handler sees and every
        registration are as if the flows had arrived one by one.  If an
        arrival raises, the flows after it go back to the head of the
        queue and arrive when the run resumes.
        """
        fresh: List[_FlowState] = []
        sizes: List[float] = []
        stats = self.stats
        states = self._states
        i = 0
        try:
            self._advance_to(self.sim.now)
            clock = self._clock
            for i, (state, path, size_bits) in enumerate(batch):
                stats.events += 1
                flow = state.flow
                fid = flow.flow_id
                if fid in states:
                    raise SimulationError(f"flow {fid} arrived twice")
                if size_bits <= DONE_BITS:
                    # Zero-size transfers finish the instant they start.
                    self._paths.setdefault(
                        fid, path or FlowPath(flow_id=fid,
                                              devices=[flow.src_host]))
                    self._finish[fid] = clock
                    self._last_finish = max(self._last_finish, clock)
                    state.resolve(clock)
                    continue
                if path is None:
                    try:
                        path = self.fabric.path(flow)
                    except RoutingError as exc:
                        # A fault cut the route before the flow arrived.
                        # It never entered _states, so nothing can
                        # cancel it: once the handlers ran, resolve it
                        # exactly as cancel would.
                        self._register(fresh, sizes)
                        self._strand(state, exc)
                        self.stranded.pop(fid, None)
                        state.resolve(None)
                        continue
                self._paths[fid] = path
                state.hops = self.fabric.directed_hops(path)
                stats.link_visits += len(state.hops)
                states[fid] = state
                fresh.append(state)
                sizes.append(size_bits)
                self._request_solve()
        except BaseException:
            self._register(fresh, sizes)
            rest = batch[i + 1:]
            if rest:
                self.sim.call_first(
                    lambda _event: self._on_arrivals(rest))
            raise
        self._register(fresh, sizes)

    def _register(self, fresh: List[_FlowState], sizes: List[float]
                  ) -> None:
        """Enter arrived flows *fresh* (sizes *sizes*) into the fluid
        rows, the incidence index and the components, in order, and
        empty both lists."""
        if not fresh:
            return
        fids = [state.flow.flow_id for state in fresh]
        hop_lists = [state.hops for state in fresh]
        row = self._fluid.add_many(fids, sizes)
        for state in fresh:
            state.row = row
            row += 1
        self._index.register_flows(fids, hop_lists)
        self._join(fids, hop_lists)
        fresh.clear()
        sizes.clear()

    def _request_solve(self) -> None:
        if self._solve_pending:
            return
        self._solve_pending = True
        # A zero-delay timeout runs after every already-queued event at
        # this timestamp: simultaneous arrivals/completions coalesce
        # into a single rate solve, exactly like one batch epoch.
        self.sim.timeout(0.0).add_callback(self._on_solve)

    def _on_solve(self, _event: Event) -> None:
        self._solve_pending = False
        self._advance_to(self.sim.now)
        self._solve()

    # -- failover ----------------------------------------------------------
    def _failover(self) -> None:
        """Reroute every active flow whose path crosses a dead link.

        Runs inside the version-bump branch of :meth:`_solve`, so one
        topology mutation triggers at most one reroute per affected
        flow — a link that flaps back up leaves the rerouted flows
        where they are (their new paths are healthy), which is what
        keeps a flap from becoming a reroute storm.  Flows with no
        surviving path are stranded: their (Partition)RoutingError is
        raised unless an :meth:`on_stranded` handler is registered.
        """
        links = self.fabric.topology.links
        for fid in sorted(self._states):
            state = self._states.get(fid)
            if state is None:
                continue  # cancelled by a stranded handler mid-scan
            if all(links[hop[0]].healthy for hop in state.hops):
                continue
            try:
                new_path = self.fabric.path(state.flow)
            except RoutingError as exc:
                self._strand(state, exc)
                continue
            self.stranded.pop(fid, None)
            if self._move_flow(state, new_path):
                self.reroutes[fid] = self.reroutes.get(fid, 0) + 1

    def _strand(self, state: _FlowState, exc: RoutingError) -> None:
        fid = state.flow.flow_id
        self.stranded[fid] = exc
        if not self._stranded_handlers:
            raise exc
        for handler in list(self._stranded_handlers):
            handler(state.flow, exc)

    # -- fluid bookkeeping -------------------------------------------------
    def _advance_to(self, now: float) -> None:
        elapsed = now - self._clock
        if elapsed < 0:
            raise SimulationError(
                f"fabric engine clock moved backwards: {now} < "
                f"{self._clock}")
        if elapsed <= 0:
            # Residues only move when time does, so zero-elapsed
            # advances can never surface a completion.
            return
        fluid = self._fluid
        n = fluid.n
        if n:
            # The batch oracle's per-flow update: rate*1e9*elapsed, left
            # to right.  Rows at rate 0 subtract an exact 0.0, which is
            # a bitwise no-op, so no rate>0 mask is needed.
            fluid.rem[:n] -= fluid.rate[:n] * 1e9 * elapsed
        self._clock = now
        if fluid.n_alive:
            done = fluid.alive[:n] & (fluid.rem[:n] <= DONE_BITS)
            rows = np.flatnonzero(done)
            if rows.size:
                # Row order is arrival order, so simultaneous
                # completions are recorded in arrival order.
                self._complete_many(rows)

    def _complete_many(self, rows) -> None:
        """Finish the flows of fluid *rows* (ascending) at the clock.

        They resolve in row order, and the solve is requested right
        after the first: the queue then holds done, solve, done, ... as
        if each flow had completed on its own.
        """
        fluid = self._fluid
        fids = [fluid.fids[row] for row in rows.tolist()]
        states = [self._states.pop(fid) for fid in fids]
        self._retire(fids, states, rows)
        clock = self._clock
        finish = self._finish
        for fid in fids:
            finish[fid] = clock
        self._last_finish = max(self._last_finish, clock)
        states[0].resolve(clock)
        self._request_solve()
        for state in states[1:]:
            state.resolve(clock)

    def _retire(self, fids: List[int], states: List[_FlowState],
                rows) -> None:
        """Take finished or cancelled flows *fids* (with their states
        and fluid *rows*) out of the fluid rows, their components, the
        incidence index and their links' member sets.

        Each cached incidence retires the flows that left one of its
        components with one :meth:`CompiledIncidence.retire`; a
        component left empty is dropped instead.
        """
        fluid = self._fluid
        fluid.retire(rows)
        comp_of = self._comp_of
        comp_fids = self._comp_fids
        leaving: Dict[int, List[int]] = {}
        for fid in fids:
            cid = comp_of.pop(fid)
            group = comp_fids[cid]
            del group[fid]
            if group:
                leaving.setdefault(cid, []).append(fid)
            else:
                del comp_fids[cid]
                self._uncache(cid)
        cache = self._comp_cache
        for cid, gone in leaving.items():
            # A component emptied later in the batch is uncached.
            entry = cache.get(cid)
            if entry is not None:
                entry.inc.retire(gone)
        members_of = self._members
        dirty = self._dirty
        drop = self._index.drop_flow
        for fid, state in zip(fids, states):
            for hop in state.hops:
                members_of[hop].discard(fid)
            dirty.update(state.hops)
            drop(fid)
        if fluid.n > 256 and fluid.n - fluid.n_alive > 2 * fluid.n_alive:
            self._compact_rows()

    def _compact_rows(self) -> None:
        """Rebuild the fluid arrays with live rows only.

        Triggered when dead rows outnumber live ones 2:1, so
        steady-state populations (arrivals balancing completions) do
        not accrete dead rows without bound.
        """
        fluid = self._fluid
        keep = np.flatnonzero(fluid.alive[:fluid.n])
        n = int(keep.size)
        fresh = _FluidArrays(capacity=max(64, 2 * n))
        fresh.rem[:n] = fluid.rem[keep]
        fresh.rate[:n] = fluid.rate[keep]
        fresh.deadline[:n] = fluid.deadline[keep]
        fresh.alive[:n] = True
        fresh.synced[:n] = fluid.synced[keep]
        fresh.fids = [fluid.fids[row] for row in keep.tolist()]
        fresh.n = n
        fresh.n_alive = n
        for row, fid in enumerate(fresh.fids):
            self._states[fid].row = row
        self._fluid = fresh
        # Cached components keep their incidences and fill records:
        # their live rows move to the new row space, and a dead row is
        # never used to index the fluid arrays.
        new_row = np.full(fluid.n, -1, dtype=np.int64)
        new_row[keep] = np.arange(n, dtype=np.int64)
        for entry in {id(entry): entry
                      for entry in self._comp_cache.values()}.values():
            entry.rows = new_row[entry.rows]

    # -- component tracking ------------------------------------------------
    def _join(self, fids: List[int], hop_lists: List[List[LinkDir]]
              ) -> None:
        """Register each flow of *fids* on its hops, in order, and merge
        every component it then touches, its own included, into the
        largest of them."""
        comp_of = self._comp_of
        comp_fids = self._comp_fids
        members_of = self._members
        cache = self._comp_cache
        dirty = self._dirty
        stale = self._stale
        for fid, hops in zip(fids, hop_lists):
            touched: Dict[int, None] = {}
            own = comp_of.get(fid)
            if own is not None:
                touched[own] = None
            for hop in hops:
                members = members_of.get(hop)
                if members:
                    touched[comp_of[next(iter(members))]] = None
            for hop in hops:
                members = members_of.get(hop)
                if members is None:
                    # A link's first flow: its capacity was never read.
                    members_of[hop] = {fid}
                    stale.add(hop)
                else:
                    members.add(fid)
            dirty.update(hops)
            if not touched:
                cid = next(self._comp_ids)
                group = comp_fids[cid] = {}
            else:
                cid = max(touched, key=lambda c: len(comp_fids[c])) \
                    if len(touched) > 1 else next(iter(touched))
                group = comp_fids[cid]
                for other in touched:
                    if other != cid:
                        absorbed = comp_fids.pop(other)
                        for member in absorbed:
                            comp_of[member] = cid
                        group.update(absorbed)
                        self._uncache(other)
                # The component grew: its compiled incidence is stale.
                if cid in cache:
                    self._uncache(cid)
            group[fid] = None
            comp_of[fid] = cid

    def _split(self, cid: int, entry: _CompEntry) -> None:
        """Re-key component *cid* into the connected pieces of its live
        rows; the largest piece keeps *cid*, and each piece compiles
        from its own flows when one of its links is next dirtied.  A
        component still in one piece keeps its compiled incidence
        unless most of its rows are dead."""
        inc = entry.inc
        pieces = inc.live_pieces()
        if len(pieces) == 1:
            if inc.n_alive * 2 < inc.n_rows:
                # Mostly dead: recompiling is cheaper than dragging
                # the dead columns through every solve.
                del self._comp_cache[cid]
            else:
                entry.n_labelled = inc.n_alive
            return
        del self._comp_cache[cid]
        fids = inc.fids
        comp_of = self._comp_of
        keep = max(range(len(pieces)), key=lambda i: pieces[i].shape[0])
        for i, rows in enumerate(pieces):
            group = dict.fromkeys(fids[row] for row in rows.tolist())
            if i == keep:
                self._comp_fids[cid] = group
                continue
            piece = next(self._comp_ids)
            self._comp_fids[piece] = group
            for member in group:
                comp_of[member] = piece

    def _uncache(self, cid: int) -> None:
        """Drop component *cid*'s compiled incidence, if it has one."""
        entry = self._comp_cache.pop(cid, None)
        if isinstance(entry, _Block):
            self._leave(entry, cid)

    def _leave(self, blk: _Block, cid: int) -> None:
        """Take member *cid* off *blk*'s books; a block left holding
        fewer than half its rows for its members is dissolved before
        the solve's fills (:meth:`_dissolve_sparse`)."""
        k = blk.members.pop(cid)
        starts = blk.block.row_starts
        blk.kept -= int(starts[k + 1] - starts[k])
        if blk.kept * 2 < blk.inc.n_rows:
            self._sparse[id(blk)] = blk

    def _dissolve_sparse(self) -> None:
        """Slice every member of each block that keeps fewer than half
        its rows for them into an entry of its own, so rows no member
        uses never make up more than half of a block.  Runs once per
        solve, so the flows that finish together leave a block once."""
        for blk in self._sparse.values():
            for cid in blk.members:
                self._extract(blk, cid)
        self._sparse.clear()

    def _extract(self, blk: _Block, cid: int) -> _CompEntry:
        """Cache member *cid* of *blk* on its own, with the incidence
        and fill record a compile and fill of its own would have left
        (:meth:`~repro.network.solver.CompiledBlock.component`)."""
        k = blk.members[cid]
        inc, l2g, record = blk.block.component(k, blk.record)
        lo, hi = blk.block.row_starts[k:k + 2].tolist()
        entry = _CompEntry(inc=inc, l2g=l2g, rows=blk.rows[lo:hi].copy(),
                           flows=blk.flows[lo:hi], n_labelled=inc.n_rows,
                           record=record)
        self._comp_cache[cid] = entry
        return entry

    # -- rate allocation ---------------------------------------------------
    def _refresh_pfc_factors(self) -> None:
        flows = [state.flow for state in self._states.values()]
        if flows:
            loads = self.fabric.offered_loads(flows, self._paths)
            factors = self._congestion.pfc_capacity_factors(
                loads, self.fabric.topology)
        else:
            factors = {}
        for hop in set(factors) | set(self._pfc_factors):
            if factors.get(hop, 1.0) != self._pfc_factors.get(hop, 1.0):
                self._stale.add(hop)
                if self._members.get(hop):
                    self._dirty.add(hop)
        self._pfc_factors = factors

    def _effective_capacity(self, hop: LinkDir) -> float:
        """Effective directed capacity: health × static × PFC factors.

        A dead link carries nothing, so flows still pinned to it
        (stranded, or mid-failover) starve rather than silently riding
        a failed optic.
        """
        link = self.fabric.topology.links[hop[0]]
        if not link.healthy:
            return 0.0
        return (link.capacity_gbps
                * self._static_factors.get(hop, 1.0)
                * self._pfc_factors.get(hop, 1.0))

    def _solve(self) -> None:
        topo = self.fabric.topology
        if topo.version != self._topo_version:
            # Links were failed/rewired/rescaled under us: treat every
            # occupied link as touched (capacities must be re-read),
            # and reroute any flow whose path crosses a dead link.
            self._topo_version = topo.version
            self._stale.update(self._members)
            self._dirty.update(hop for hop, members in self._members.items()
                               if members)
            self._failover()
        if self.pfc_spreading:
            self._refresh_pfc_factors()
        index = self._index
        # Re-read exactly the dirtied links whose capacity may have
        # changed since their last read, so the persistent capacity
        # array is current wherever a component gathers from it.
        reread = self._dirty & self._stale
        for hop in reread:
            index.set_capacity(hop, self._effective_capacity(hop))
        self._stale -= reread
        # One member flow per occupied dirty link names its component.
        members_of = self._members
        reps = [next(iter(members_of[hop])) for hop in self._dirty
                if members_of[hop]]
        self._dirty.clear()
        cids = self._dirtied_components(reps) if reps else []
        # Every block member that leaves in this solve has left by now,
        # so sparse blocks go before any fill allocates.
        self._dissolve_sparse()
        if cids:
            self._fill_components(cids)
        self._arm_deadline()

    def _dirtied_components(self, reps: List[int]) -> List[int]:
        """The components of flows *reps*, ready to fill: split where
        they fell apart, and sliced out of their blocks."""
        comp_of = self._comp_of
        cache = self._comp_cache
        # Components only merge as flows join, so completions leave
        # them over-approximate.  A cached one that has lost a
        # sixteenth of its live rows since it was last known to be
        # connected is split first, and only its dirtied pieces are
        # filled.  A dirtied member of a block is first sliced out of
        # it, with the record a fill of its own would have left.
        for cid in sorted({comp_of[fid] for fid in reps}):
            entry = cache.get(cid)
            if isinstance(entry, _Block):
                blk = entry
                entry = self._extract(blk, cid)
                self._leave(blk, cid)
            if entry is not None \
                    and entry.inc.n_alive * 16 <= entry.n_labelled * 15:
                self._split(cid, entry)
        return sorted({comp_of[fid] for fid in reps})

    def _fill_components(self, cids: List[int]) -> None:
        """Re-fill components *cids*: cached ones one by one, warm where
        they can be, and the rest as one cold block."""
        stats = self.stats
        index = self._index
        cache = self._comp_cache
        stats.solves += 1
        stats.components_solved += len(cids)
        # Max-min allocations are separable by connected component, so
        # solving only the touched components equals the global solve
        # on their flows.
        kernel = fill_kernel(self.backend)
        line_rate = self.fabric.host_line_rate_gbps
        now = self.sim.now
        cold = []
        for cid in cids:
            entry = cache.get(cid)
            if entry is None:
                cold.append(cid)
                continue
            capacity = index.gather_capacity(entry.l2g)
            stats.link_visits += int(capacity.shape[0])
            stats.flows_resolved += entry.inc.n_alive
            # Warm when only completions touched the component since its
            # last fill: the rounds they cannot reach are replayed.
            remaining = entry.record.resume(entry.inc, capacity)
            rates = kernel(entry.inc, remaining, line_rate, stats,
                           entry.record)
            self._apply_rates(entry, rates, now)
        if cold:
            self._fill_cold(cold, kernel, line_rate, now)

    def _fill_cold(self, cids: List[int], kernel: Callable,
                   line_rate: float, now: float) -> None:
        """Compile components *cids* from their own flow lists as one
        block, fill it once and cache each component against its span.

        Compiles are rare (component topology changed), solves are
        not, so all per-flow python cost lives here.  The block fill
        stands for one cold fill per component, and counts the work
        those fills would have: their memberships, capacity loads and
        (from the record) their own rounds' link visits.
        """
        stats = self.stats
        states = self._states
        block = compile_component(
            [list(self._comp_fids[cid]) for cid in cids], self._index)
        inc = block.inc
        rows = np.fromiter((states[fid].row for fid in inc.fids),
                           dtype=np.int64, count=inc.n_rows)
        flows = [states[fid].flow for fid in inc.fids]
        record = FillRecord(inc)
        capacity = self._index.gather_capacity(block.l2g)
        # Memberships re-materialized into solver structures — the
        # same ruler the batch path counts with — and capacity loads.
        stats.link_visits += inc.nnz + int(capacity.shape[0])
        stats.flows_resolved += inc.n_alive
        rates = kernel(inc, record.resume(inc, capacity), line_rate, None,
                       record)
        stats.link_visits += block.link_visits(record)
        if len(cids) == 1:
            # A block of one is the component's own problem.
            entry = _CompEntry(inc=inc, l2g=block.l2g, rows=rows,
                               flows=flows, n_labelled=inc.n_rows,
                               record=record)
        else:
            entry = _Block(block=block, rows=rows, flows=flows,
                           record=record,
                           members={cid: k for k, cid in enumerate(cids)},
                           kept=inc.n_rows)
        for cid in cids:
            self._comp_cache[cid] = entry
        self._apply_rates(entry, rates, now)

    def _apply_rates(self, entry: Union[_CompEntry, _Block], rates,
                     now: float) -> None:
        """Scatter the rates of one fill — of a component, or of a
        block of them — into the fluid arrays.

        Deadlines move only where the rate actually changed, so an
        untouched flow keeps its scheduled deadline bits; a changed
        one is re-aimed with the batch oracle's expression —
        ``now + rem/(rate*1e9)`` — so both land on the same bits.
        """
        inc = entry.inc
        fluid = self._fluid
        alive_idx = np.flatnonzero(inc.alive)
        arows = entry.rows[alive_idx]
        new = rates[alive_idx]
        changed = new != fluid.rate[arows]
        if changed.any():
            ch_rows = arows[changed]
            ch_new = new[changed]
            fluid.rate[ch_rows] = ch_new
            fluid.deadline[ch_rows] = np.inf  # starved: cancel deadline
            pos = ch_new > 0
            if pos.any():
                pos_rows = ch_rows[pos]
                fluid.deadline[pos_rows] = now + \
                    fluid.rem[pos_rows] / (ch_new[pos] * 1e9)
        # Attribute sync.  External readers (job sims, telemetry) see
        # ``flow.rate_gbps`` after every covering solve.  A reused Flow
        # object may carry a stale rate from an earlier run, so each
        # row is written once on its first covering solve (``synced``)
        # and thereafter only when its rate changes — the attribute
        # always equals the current rate, without an O(component)
        # python loop per solve.
        need = changed | ~fluid.synced[arows]
        if need.any():
            fluid.synced[arows[need]] = True
            flows = entry.flows
            for i, value in zip(alive_idx[need].tolist(),
                                new[need].tolist()):
                flows[i].rate_gbps = value

    def _arm_deadline(self) -> None:
        """(Re-)aim the single engine-level deadline event.

        Every flow keeps one absolute deadline; exactly one simulator
        event is scheduled at their minimum (``timeout_at`` lands on
        the stored bits without re-rounding).  A generation counter
        staleness-checks firings of superseded armings.
        """
        self._deadline_gen += 1
        fluid = self._fluid
        n = fluid.n
        if n == 0:
            return
        dmin = fluid.deadline[:n].min()
        if dmin == np.inf:
            return
        generation = self._deadline_gen
        self.sim.timeout_at(float(dmin)).add_callback(
            lambda _event, generation=generation:
            self._on_deadline(generation))

    def _on_deadline(self, generation: int) -> None:
        if generation != self._deadline_gen:
            return  # stale deadline from a superseded arming
        self.stats.events += 1
        now = self.sim.now
        live = len(self._states)
        self._advance_to(now)
        self._reaim_expired(now)
        if len(self._states) < live:
            self._stalls = 0
        else:
            # Correct code re-aims every expired deadline past ``now``
            # or completes its flow, so a deadline keeps firing at one
            # instant only when the engine is wedged — fail, as the
            # batch oracle does, instead of spinning.
            self._stalls = self._stalls + 1 if now == self._stall_at \
                else 1
            self._stall_at = now
            if self._stalls >= MAX_STALLS:
                fluid = self._fluid
                rows = np.flatnonzero(fluid.deadline[:fluid.n] <= now)
                stuck = sorted(fluid.fids[row] for row in rows.tolist())
                raise SimulationError(
                    f"fabric engine made no progress: {self._stalls} "
                    f"deadline events at t={now!r} completed no flow; "
                    f"flows with a deadline at or before it: {stuck}")
        if not self._solve_pending:
            # A pending solve (requested by the completions) runs at
            # this instant, before any later deadline, and re-arms.
            self._arm_deadline()

    def _reaim_expired(self, now: float) -> None:
        """Settle the flows whose deadline is ``now`` but which are
        still alive.

        Float residue kept them fractionally alive past their
        deadlines: re-aim from the surviving residue, completing the
        flows whose residual delay is below the clock resolution (a
        timeout could not advance time; the remainder is sub-resolution
        bits).
        """
        fluid = self._fluid
        n = fluid.n
        rows = np.flatnonzero(fluid.alive[:n] & (fluid.deadline[:n] <= now))
        if not rows.size:
            return
        target = now + fluid.rem[rows] / (fluid.rate[rows] * 1e9)
        done = target == now
        fluid.deadline[rows[~done]] = target[~done]
        if done.any():
            self._complete_many(rows[done])
