"""Layer spans and counters, installed from outside the program.

:class:`Tracer` replaces named public callables of ``repro`` with timing
wrappers, so the per-layer split needs no change to ``src/``.  A
function is replaced by identity in every loaded ``repro.*`` module that
holds it (``from .solver import progressive_fill_vector`` included); a
method is replaced on its class.  Each thread keeps its own span stack;
a span's self time is its duration minus the durations of the wrapped
spans it called.  Everything stays in memory until :meth:`report`.

Two wrappers only count: ``FabricEngine.__init__`` registers the
engine's :class:`~repro.network.solver.SolverStats` so solver work is
summed over every engine a run builds, and ``Fabric.directed_hops``
adds the fabric's hop-cache hit/miss deltas.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: span name -> (module, attribute).  ``Class.method`` attributes are
#: patched on the class, bare names in every module holding them.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("topology.build", "repro.topology.astral", "build_astral"),
    ("core.allocate", "repro.core.placement", "GpuAllocator.allocate"),
    ("routing.resolve", "repro.network.fabric", "Fabric.resolve_paths"),
    ("routing.path", "repro.network.routing", "EcmpRouter.path"),
    ("routing.distances", "repro.network.routing",
     "EcmpRouter.distances_to"),
    ("solver.fill", "repro.network.solver", "progressive_fill_vector"),
    ("solver.compile", "repro.network.solver", "compile_component"),
    ("engine.run", "repro.network.engine", "FabricEngine.run"),
    ("simcore.run", "repro.simcore.engine", "Simulator.run"),
    ("monitoring.multijob", "repro.monitoring.multijob", "MultiJobRun.run"),
    ("monitoring.census", "repro.monitoring.pingmesh", "Pingmesh.census"),
    ("hierarchy.run", "repro.hierarchy.run", "HierarchicalRun.run"),
    ("hierarchy.place", "repro.hierarchy.virtual", "place_jobs"),
    ("hierarchy.symmetry", "repro.hierarchy.symmetry", "detect_symmetry"),
    ("hierarchy.fold", "repro.hierarchy.fold", "fold_pod_class"),
    ("hierarchy.plan", "repro.hierarchy.refine", "plan_refined_group"),
    ("hierarchy.refine", "repro.hierarchy.refine", "run_refined_groups"),
    ("serving.run", "repro.serving.run", "ServingRun.run"),
    ("twin.session_init", "repro.twin.session", "TwinSession.__init__"),
    ("twin.advance", "repro.twin.session", "TwinSession.advance"),
    ("twin.submit", "repro.twin.session", "TwinSession.submit"),
    ("farm.run", "repro.farm.executor", "FarmExecutor.run"),
    ("farm.cache_get", "repro.farm.cache", "ResultCache.get"),
    ("farm.cache_put", "repro.farm.cache", "ResultCache.put"),
)

#: spans whose individual durations are kept in call order — the twin
#: client subtracts each advance's server time from its own latency.
KEEP_DURATIONS = frozenset({"twin.advance"})

#: ``SolverStats`` field -> counter name.
SOLVER_COUNTERS = {
    "solves": "solver.solves",
    "components_solved": "solver.components_solved",
    "link_visits": "solver.link_visits",
    "flows_resolved": "solver.flows_resolved",
    "events": "engine.events",
}


class _ThreadState:
    """One thread's span stack and accumulators."""

    def __init__(self) -> None:
        #: per open span, the time its wrapped children took: [child_s]
        self.stack: List[list] = []
        #: nesting depth per span name (total time counts the outermost)
        self.depth: Dict[str, int] = {}
        #: name -> [calls, total_s, self_s]
        self.table: Dict[str, list] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._solver_stats: Dict[int, Any] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is recorded as span ``name``."""
        clock = time.perf_counter
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            frame = [0.0]
            state.stack.append(frame)
            state.depth[name] = state.depth.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state.stack.pop()
                state.depth[name] -= 1
                row = state.table.get(name)
                if row is None:
                    row = state.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                if not state.depth[name]:
                    row[1] += elapsed
                row[2] += elapsed - frame[0]
                if state.stack:
                    state.stack[-1][0] += elapsed
                if keep:
                    state.durations.setdefault(name, []).append(elapsed)

        return wrapper

    def count(self, name: str, value: float) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def _engine_init(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            with self._lock:
                self._solver_stats[id(engine.stats)] = engine.stats

        return wrapper

    def _directed_hops(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(fabric, *args, **kwargs):
            hits, misses = fabric.hops_cache_hits, fabric.hops_cache_misses
            result = fn(fabric, *args, **kwargs)
            self.count("routing.hops_cache_hits",
                       fabric.hops_cache_hits - hits)
            self.count("routing.hops_cache_misses",
                       fabric.hops_cache_misses - misses)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Import every target module, then patch every target."""
        patches = [(module, attr, functools.partial(self.span, name))
                   for name, module, attr in SPANS]
        patches += [
            ("repro.network.engine", "FabricEngine.__init__",
             self._engine_init),
            ("repro.network.fabric", "Fabric.directed_hops",
             self._directed_hops),
        ]
        for module, _, _ in patches:
            importlib.import_module(module)
        for module, attr, make in patches:
            self._patch(sys.modules[module], attr, make)
        return self

    def _patch(self, module, attr: str, make: Callable) -> None:
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owners = [getattr(module, owner_name)]
            original = owners[0].__dict__[name]
        else:
            original = getattr(module, name)
            owners = [mod for key, mod in list(sys.modules.items())
                      if key == "repro" or key.startswith("repro.")]
        wrapper = make(original)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """``{"spans": {name: {calls, total_s, self_s}}, "counters":
        {...}, "durations": {name: [s, ...]}}`` over every thread."""
        spans: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
            stats = list(self._solver_stats.values())
        for state in threads:
            for name, (calls, total_s, self_s) in state.table.items():
                row = spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total_s
                row["self_s"] += self_s
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, values in state.durations.items():
                durations.setdefault(name, []).extend(values)
        for solver_stats in stats:
            for field, name in SOLVER_COUNTERS.items():
                counters[name] = counters.get(name, 0) \
                    + getattr(solver_stats, field)
        return {"spans": spans, "counters": counters,
                "durations": durations}
