"""Campaign runner: execute scenarios, apply every applicable oracle.

``run_case(seed, index)`` regenerates one scenario from its seed,
drives it through the appropriate simulator path, and collects
violations from the invariant, differential, and metamorphic oracles.
``run_campaign`` runs every case as a farm task and aggregates a
JSON-serialisable report; every failing case carries a self-contained
repro command (``repro validate --seed S --case I``) plus its full
spec.

Which oracles run depends on the scenario profile:

==========  ==========================================================
profile     oracles
==========  ==========================================================
batch       solver (feasibility, conservation, KKT), engine-vs-batch
            bit-identity against the epoch-global batch oracle,
            byte-conservation replay, metamorphic
            (rate scaling, idle job, unused link), determinism
timed       clock monotonicity, per-epoch solver oracles + byte
            conservation via replay, determinism
degrade     same as timed, with the degrade schedule folded into the
            replay's capacity events
faulted     clock monotonicity, full accounting (every flow finishes
            or is cancelled as stranded), reroute bounds, determinism
collective  flow-vs-analytic bandwidth, RS+AG == AR composition,
            solver oracles on the ring allocation, fluid-vs-packet on
            the busiest link, determinism
hierarchical flat-vs-folded bit-exact differential (certified pod
            symmetry: iteration times and expectations must match
            ``==``), fold effectiveness (the fold must actually
            shrink the engine-simulated host count), determinism
faulted-    bounded-vs-whole-pod refinement bit-exact differential
hierarchical under a sampled fault document (correlated domains and
            explicit faults), the escalation-ladder assertion (the
            fault class predicts the refinement level), and — for
            iteration-indexed faults — the flat differential too,
            determinism
serving     rate-doubling monotonicity (Poisson superposition over the
            same base population), the zero-arrival fabric no-op, the
            full-contract power-cap identity, determinism
==========  ==========================================================

"Determinism" is one :func:`~repro.validation.oracles.check_replay`
per battery, which reports two checks from three runs of the
profile's fingerprint: two on the caller's fill kernel must compare
exact ``==`` (**bit-identical-replay**), and one on the other kernel
must equal the first (**solver-backends**).  Both kernels run inside
the same engine state machine, so on the engine profiles the
fingerprint includes the event trace and the solver work counters
too.

The flat references of the two hierarchical profiles compare only
per-job outcomes, so, like the hierarchy's own sub-simulations, their
:class:`~repro.monitoring.multijob.MultiJobRun` names no telemetry
store and collects none.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..network.solver import resolve_backend
from ..resilience import FailureInjector
from .differential import (
    check_engine_vs_batch,
    check_fluid_vs_packet,
    check_ring_vs_analytic,
    check_rs_ag_composition,
)
from .metamorphic import (
    check_idle_job_noop,
    check_rate_scaling,
    check_serving_powercap_identity,
    check_serving_rate_doubling,
    check_serving_zero_arrival,
    check_unused_link_noop,
)
from .oracles import (
    TracingSimulator,
    Violation,
    check_clock_monotonic,
    check_replay,
    check_solution,
    replay_conservation,
)
from .scenarios import (
    ScenarioGenerator,
    ScenarioSpec,
    build_flows,
    build_topology,
)

__all__ = ["CaseReport", "CampaignReport", "run_case", "run_campaign"]


@dataclass
class CaseReport:
    """Outcome of one scenario against its oracle battery."""

    seed: int
    index: int
    family: str
    profile: str
    checks: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    spec: Dict[str, Any] = field(default_factory=dict)
    #: wall-clock of this case's battery.  Measurement metadata, NOT
    #: part of :meth:`to_dict` — the serialised report must stay
    #: bit-identical across runs/workers for the farm cache and the
    #: parallel-vs-serial differential.
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def repro_command(self) -> str:
        return f"repro validate --seed {self.seed} --case {self.index}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "index": self.index,
            "family": self.family,
            "profile": self.profile,
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [
                {"oracle": v.oracle, "detail": v.detail}
                for v in self.violations
            ],
            "repro": self.repro_command,
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CaseReport":
        """Rebuild a report from :meth:`to_dict` (farm result payload)."""
        return cls(
            seed=data["seed"], index=data["index"],
            family=data["family"], profile=data["profile"],
            checks=list(data.get("checks", [])),
            violations=[Violation(v["oracle"], v["detail"])
                        for v in data.get("violations", [])],
            spec=dict(data.get("spec", {})))


@dataclass
class CampaignReport:
    """Aggregate of a ``repro validate`` run."""

    seed: int
    cases: List[CaseReport] = field(default_factory=list)
    #: the farm report the cases came from: worker count, wall-clock,
    #: and cache hit/miss stats (``None`` only for a hand-built report).
    farm: Optional[Any] = None

    @property
    def failures(self) -> List[CaseReport]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_elapsed_s(self) -> float:
        return sum(case.elapsed_s for case in self.cases)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "seed": self.seed,
            "n_cases": len(self.cases),
            "n_failures": len(self.failures),
            "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
        }
        if self.farm is not None:
            data["farm"] = {
                "workers": self.farm.workers,
                "wall_s": self.farm.wall_s,
                "throughput_per_s": self.farm.throughput,
                "n_cached": self.farm.n_cached,
                "n_executed": self.farm.n_executed,
                "cache_hits": (self.farm.cache_stats or {}).get(
                    "hits", 0),
                "cache_misses": (self.farm.cache_stats or {}).get(
                    "misses", 0),
            }
        return data


# --------------------------------------------------------------------------
# Engine-path execution
# --------------------------------------------------------------------------

def _run_engine_scenario(spec: ScenarioSpec):
    """Build and run the spec on a fresh traced engine.

    Returns ``(run, engine, injector, sim, cancelled_ids)``; stranded
    flows (every ECMP path dead) are cancelled and recorded rather
    than raised, so fault schedules that sever a flow are data, not
    crashes.
    """
    topology = build_topology(spec)
    sim = TracingSimulator()
    fabric = Fabric(topology)
    engine = FabricEngine(fabric, sim=sim)
    cancelled: List[int] = []

    def _cancel_stranded(flow, exc) -> None:
        cancelled.append(flow.flow_id)
        engine.cancel(flow.flow_id)

    engine.on_stranded(_cancel_stranded)
    injector = FailureInjector(engine, dampening_s=spec.dampening_s)
    flows = build_flows(spec)
    for flow in flows:
        engine.submit(flow, start_time_s=flow.start_time_s)
    for fault in spec.faults:
        if fault.kind == "degrade":
            injector.degrade_link(fault.link_id, factor=fault.factor,
                                  at=fault.at_s)
        elif fault.kind == "flap":
            injector.flap_link(fault.link_id, at=fault.at_s,
                               down_s=fault.down_s)
        else:
            injector.kill_link(fault.link_id, at=fault.at_s)
    run = engine.run()
    return run, engine, injector, sim, cancelled, flows


def _engine_fingerprint(spec: ScenarioSpec) -> Dict[str, Any]:
    """A comparable summary for the bit-identical-replay oracle."""
    run, engine, injector, sim, cancelled, _ = _run_engine_scenario(spec)
    return {
        "finish": dict(run.finish_times_s),
        "cancelled": sorted(cancelled),
        "reroutes": dict(engine.reroutes),
        "log": [(event.at_s, event.action, event.target)
                for event in injector.log],
        "trace": list(sim.trace),
        "stats": engine.stats.as_dict(),
    }


# --------------------------------------------------------------------------
# Per-profile batteries
# --------------------------------------------------------------------------

def _check_batch(spec: ScenarioSpec, fast: bool) -> (List[str],
                                                     List[Violation]):
    checks = ["solver-oracles", "engine-vs-batch", "byte-conservation",
              "rate-scaling", "idle-job-noop", "unused-link-noop",
              "bit-identical-replay", "solver-backends"]
    violations: List[Violation] = []
    topology = build_topology(spec)
    fabric = Fabric(topology)
    flows = build_flows(spec)
    paths = fabric.resolve_paths(flows)
    violations += check_solution(fabric, flows, paths)
    violations += check_engine_vs_batch(fabric, flows, paths)
    run = fabric.complete(flows, paths=paths)
    violations += replay_conservation(
        fabric, flows, run.finish_times_s, paths, check_epochs=False)
    violations += check_rate_scaling(spec)
    violations += check_idle_job_noop(spec)
    violations += check_unused_link_noop(spec)
    violations += check_replay(
        lambda: _batch_fingerprint(spec), label=f"case {spec.index}")
    return checks, violations


def _batch_fingerprint(spec: ScenarioSpec) -> Dict[int, float]:
    topology = build_topology(spec)
    fabric = Fabric(topology)
    flows = build_flows(spec)
    return dict(fabric.complete(flows).finish_times_s)


def _check_timed(spec: ScenarioSpec, fast: bool) -> (List[str],
                                                     List[Violation]):
    checks = ["clock-monotonic", "byte-conservation",
              "per-epoch-solver-oracles", "bit-identical-replay",
              "solver-backends"]
    violations: List[Violation] = []
    run, _, _, sim, _, flows = _run_engine_scenario(spec)
    violations += check_clock_monotonic(sim.trace)
    capacity_events = [(fault.at_s, fault.link_id, fault.factor)
                       for fault in spec.faults
                       if fault.kind == "degrade"]
    replay_fabric = Fabric(build_topology(spec))
    violations += replay_conservation(
        replay_fabric, flows, run.finish_times_s, run.paths,
        capacity_events=capacity_events)
    violations += check_replay(
        lambda: _engine_fingerprint(spec), label=f"case {spec.index}")
    return checks, violations


def _check_faulted(spec: ScenarioSpec, fast: bool) -> (List[str],
                                                       List[Violation]):
    checks = ["clock-monotonic", "flow-accounting", "reroute-bounds",
              "bit-identical-replay", "solver-backends"]
    violations: List[Violation] = []
    run, engine, injector, sim, cancelled, flows = \
        _run_engine_scenario(spec)
    violations += check_clock_monotonic(sim.trace)
    for flow in flows:
        finished = flow.flow_id in run.finish_times_s
        if not finished and flow.flow_id not in cancelled:
            violations.append(Violation(
                "flow-accounting",
                f"flow {flow.flow_id} neither finished nor was "
                "cancelled as stranded"))
        if finished and run.finish_times_s[flow.flow_id] \
                < flow.start_time_s:
            violations.append(Violation(
                "flow-accounting",
                f"flow {flow.flow_id} finished at "
                f"{run.finish_times_s[flow.flow_id]!r} before its "
                f"start {flow.start_time_s!r}"))
    # Failover discipline from the resilience layer: at most one
    # reroute per flow per topology-change event.
    n_changes = len([e for e in injector.log
                     if e.action in ("kill-link", "restore-link",
                                     "kill-device", "repair-device")])
    for fid, count in engine.reroutes.items():
        if count > max(n_changes, 1):
            violations.append(Violation(
                "reroute-bounds",
                f"flow {fid} rerouted {count}x across only "
                f"{n_changes} topology changes"))
    violations += check_replay(
        lambda: _engine_fingerprint(spec), label=f"case {spec.index}")
    return checks, violations


def _check_collective(spec: ScenarioSpec, fast: bool) -> (List[str],
                                                          List[Violation]):
    checks = ["flow-vs-analytic", "rs-ag-composition",
              "solver-oracles", "fluid-vs-packet",
              "bit-identical-replay", "solver-backends"]
    violations: List[Violation] = []
    conf = spec.collective or {}
    hosts = conf["hosts"]
    rail = conf["rail"]
    size_bits = conf["size_bits"]
    fabric = Fabric(build_topology(spec))
    violations += check_ring_vs_analytic(fabric, hosts, rail, size_bits)
    violations += check_rs_ag_composition(fabric, hosts, rail,
                                          size_bits)
    from ..network.collectives import Endpoint, ring_allreduce_flows
    from ..network.flows import reset_flow_ids
    reset_flow_ids()
    ring = ring_allreduce_flows(
        [Endpoint(host, rail) for host in hosts], size_bits)
    violations += check_solution(fabric, ring)
    # Differential congestion check on the busiest port of the run.
    reset_flow_ids()
    run = fabric.complete(ring_allreduce_flows(
        [Endpoint(host, rail) for host in hosts], size_bits))
    if run.link_loads and not fast:
        busiest = max(run.link_loads.values(),
                      key=lambda load: load.utilization)
        violations += check_fluid_vs_packet(
            busiest.capacity_gbps, busiest.offered_gbps,
            seed=spec.seed)
    violations += check_replay(
        lambda: _collective_fingerprint(spec),
        label=f"case {spec.index}")
    return checks, violations


def _collective_fingerprint(spec: ScenarioSpec) -> Dict[int, float]:
    from ..network.collectives import Endpoint, ring_allreduce_flows
    from ..network.flows import reset_flow_ids
    conf = spec.collective or {}
    fabric = Fabric(build_topology(spec))
    reset_flow_ids()
    flows = ring_allreduce_flows(
        [Endpoint(host, conf["rail"]) for host in conf["hosts"]],
        conf["size_bits"])
    return dict(fabric.complete(flows).finish_times_s)


def _check_hierarchical(spec: ScenarioSpec, fast: bool
                        ) -> (List[str], List[Violation]):
    checks = ["flat-vs-folded-exact", "fold-effectiveness",
              "bit-identical-replay", "solver-backends"]
    violations: List[Violation] = []
    from ..hierarchy import (HierJob, HierarchicalRun,
                             build_flat_fabric, flat_job_configs)
    from ..monitoring.multijob import MultiJobRun
    from ..network.flows import reset_flow_ids
    from ..topology import AstralParams

    conf = spec.hierarchy or {}
    params = AstralParams(**spec.topo)
    jobs = [HierJob(**job) for job in conf.get("jobs", [])]
    caps = {int(pod): factor
            for pod, factor in (conf.get("power_caps") or {}).items()}

    reset_flow_ids()
    flat = MultiJobRun(build_flat_fabric(params),
                       flat_job_configs(params, jobs, caps)).run()
    reset_flow_ids()
    hier_run = HierarchicalRun(params, jobs, pod_power_caps=caps)
    hier = hier_run.run()

    if not hier_run.report.exact:
        violations.append(Violation(
            "flat-vs-folded-exact",
            "sampled scenario is symmetric and fault-free but the "
            "fold did not claim exactness"))
    for name, outcome in flat.items():
        folded = hier[name]
        if outcome.iteration_times_s != folded.iteration_times_s:
            violations.append(Violation(
                "flat-vs-folded-exact",
                f"job {name}: flat {outcome.iteration_times_s!r} != "
                f"folded {folded.iteration_times_s!r}"))
        if outcome.expected_iteration_s != folded.expected_iteration_s:
            violations.append(Violation(
                "flat-vs-folded-exact",
                f"job {name}: expected {outcome.expected_iteration_s!r}"
                f" != folded {folded.expected_iteration_s!r}"))
    report = hier_run.report
    # Pods are identical by construction except for their power-cap
    # factor, so the fold must land exactly one class per distinct
    # factor and engine-simulate at most one pod's hosts per class.
    expected_classes = len({caps.get(pod, 1.0)
                            for pod in range(params.pods)})
    if report.n_pod_classes != expected_classes:
        violations.append(Violation(
            "fold-effectiveness",
            f"expected {expected_classes} pod classes (distinct power "
            f"caps), got {report.n_pod_classes}"))
    per_pod_hosts = report.n_job_hosts // params.pods
    if report.engine_hosts > expected_classes * per_pod_hosts:
        violations.append(Violation(
            "fold-effectiveness",
            f"fold simulated {report.engine_hosts} hosts; at most "
            f"{expected_classes} classes x {per_pod_hosts} hosts/pod "
            "should have been needed"))

    def _fingerprint():
        reset_flow_ids()
        rerun = HierarchicalRun(params, jobs, pod_power_caps=caps)
        return {name: tuple(outcome.iteration_times_s)
                for name, outcome in rerun.run().items()}

    violations += check_replay(_fingerprint, label=f"case {spec.index}")
    return checks, violations


def _check_faulted_hierarchical(spec: ScenarioSpec, fast: bool
                                ) -> (List[str], List[Violation]):
    checks = ["bounded-vs-pod-exact", "refine-ladder",
              "flat-vs-refined-exact", "bit-identical-replay",
              "solver-backends"]
    violations: List[Violation] = []
    from ..hierarchy import (HierJob, HierarchicalRun,
                             build_flat_fabric, flat_job_configs)
    from ..hierarchy.virtual import place_jobs
    from ..monitoring.multijob import MultiJobRun
    from ..network.flows import reset_flow_ids
    from ..resilience import faults_from_document
    from ..topology import AstralParams

    conf = spec.hierarchy or {}
    params = AstralParams(**spec.topo)
    jobs = [HierJob(**job) for job in conf.get("jobs", [])]
    caps = {int(pod): factor
            for pod, factor in (conf.get("power_caps") or {}).items()}
    placed = place_jobs(params, jobs)
    faults = faults_from_document(params, placed,
                                  conf.get("fault_document") or {})

    def _run(mode: str):
        reset_flow_ids()
        run = HierarchicalRun(params, jobs, faults=faults,
                              pod_power_caps=caps, refine=mode)
        return run, run.run()

    bounded_run, bounded = _run("bounded")
    pod_run, pod = _run("pod")
    for name, outcome in bounded.items():
        other = pod[name]
        if outcome.iteration_times_s != other.iteration_times_s:
            violations.append(Violation(
                "bounded-vs-pod-exact",
                f"job {name}: bounded {outcome.iteration_times_s!r} != "
                f"pod {other.iteration_times_s!r}"))
        if outcome.expected_iteration_s != other.expected_iteration_s:
            violations.append(Violation(
                "bounded-vs-pod-exact",
                f"job {name}: bounded expectation "
                f"{outcome.expected_iteration_s!r} != pod "
                f"{other.expected_iteration_s!r}"))

    # The escalation ladder, not just the result: the sampled fault
    # class predicts exactly which rung every refined group lands on.
    expect = conf.get("expect_level")
    levels = bounded_run.report.refine_levels
    if expect and levels and set(levels) != {expect}:
        violations.append(Violation(
            "refine-ladder",
            f"fault class predicts level {expect!r}, bounded run "
            f"refined at {levels!r} "
            f"(reasons: {bounded_run.report.refine_reasons!r})"))
    pod_levels = pod_run.report.refine_levels
    if pod_levels and set(pod_levels) - {"pod", "flat"}:
        violations.append(Violation(
            "refine-ladder",
            f"refine='pod' run must never plan block scope, got "
            f"{pod_levels!r}"))

    # Timestamp faults are epoch-sensitive (the refined sub-simulation
    # re-solves on a different epoch grid than the flat run), so the
    # flat differential is only demanded for iteration-indexed faults.
    timed = any(fault.at_time_s is not None
                for fault in faults.values())
    if not timed:
        reset_flow_ids()
        flat = MultiJobRun(build_flat_fabric(params),
                           flat_job_configs(params, jobs, caps),
                           faults=faults).run()
        for name, outcome in flat.items():
            refined = bounded[name]
            if outcome.iteration_times_s != refined.iteration_times_s:
                violations.append(Violation(
                    "flat-vs-refined-exact",
                    f"job {name}: flat {outcome.iteration_times_s!r} "
                    f"!= bounded {refined.iteration_times_s!r}"))
            if outcome.expected_iteration_s \
                    != refined.expected_iteration_s:
                violations.append(Violation(
                    "flat-vs-refined-exact",
                    f"job {name}: flat expectation "
                    f"{outcome.expected_iteration_s!r} != bounded "
                    f"{refined.expected_iteration_s!r}"))

    def _fingerprint():
        _, rerun = _run("bounded")
        return {name: tuple(outcome.iteration_times_s)
                for name, outcome in rerun.items()}

    violations += check_replay(_fingerprint, label=f"case {spec.index}")
    return checks, violations


def _check_serving(spec: ScenarioSpec, fast: bool
                   ) -> (List[str], List[Violation]):
    checks = ["rate-doubling-monotone", "zero-arrival-noop",
              "powercap-identity", "bit-identical-replay",
              "solver-backends"]
    violations: List[Violation] = []
    violations += check_serving_rate_doubling(spec)
    violations += check_serving_zero_arrival(spec)
    violations += check_serving_powercap_identity(spec)
    violations += check_replay(
        lambda: _serving_fingerprint(spec), label=f"case {spec.index}")
    return checks, violations


def _serving_fingerprint(spec: ScenarioSpec) -> Dict[str, Any]:
    from ..serving import ServingRun, ServingScenario
    conf = spec.serving or {}
    scenario = ServingScenario.from_params(
        dict(conf.get("scenario", {})))
    return ServingRun(scenario).run().to_dict()


_BATTERIES: Dict[str, Callable] = {
    "batch": _check_batch,
    "timed": _check_timed,
    "degrade": _check_timed,   # replay folds the degrade schedule in
    "faulted": _check_faulted,
    "collective": _check_collective,
    "hierarchical": _check_hierarchical,
    "faulted-hierarchical": _check_faulted_hierarchical,
    "serving": _check_serving,
}


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def run_case(seed: int, index: int, fast: bool = False) -> CaseReport:
    """Regenerate and validate one scenario.

    The primary oracles run on the fill kernel of the caller's
    :func:`~repro.network.solver.use_backend` scope; the
    solver-backends differential inside each battery exercises *both*
    kernels regardless.
    """
    spec = ScenarioGenerator(seed).spec(index)
    report = CaseReport(seed=seed, index=index, family=spec.family,
                        profile=spec.profile, spec=spec.to_dict())
    battery = _BATTERIES[spec.profile]
    started = time.perf_counter()
    try:
        report.checks, report.violations = battery(spec, fast)
    except Exception as exc:  # noqa: BLE001 — a crash is a finding
        trace = traceback.format_exc(limit=4)
        report.violations = [Violation(
            "no-crash", f"{type(exc).__name__}: {exc}\n{trace}")]
    report.elapsed_s = time.perf_counter() - started
    return report


def run_campaign(seed: int, n_cases: int,
                 indices: Optional[Sequence[int]] = None,
                 fast: bool = False,
                 progress: Optional[Callable[[CaseReport], None]] = None,
                 workers: int = 1,
                 use_cache: bool = False,
                 cache_dir: Optional[str] = None
                 ) -> CampaignReport:
    """Validate ``n_cases`` scenarios (or an explicit index list).

    Every case is one ``validation-case`` task through a
    :class:`~repro.farm.executor.FarmExecutor` with ``workers``
    processes; any worker count gives bit-identical reports.  Nothing
    is cached unless asked: ``use_cache`` serves unchanged cases from
    the farm's content-addressed result cache at ``cache_dir`` (default
    :func:`~repro.farm.cache.default_cache_dir`), and ``cache_dir``
    alone stores results there without reading them.  Cases run on the
    kernel of the caller's ``use_backend`` scope: each task's params
    name that backend, so it reaches worker processes and cached
    results never cross backends.
    """
    from ..farm import FarmExecutor, ResultCache, TaskSpec

    backend = resolve_backend()
    specs = [
        TaskSpec("validation-case",
                 {"seed": seed, "index": int(index), "fast": fast,
                  "solver": backend},
                 label=f"validate[{seed}:{index}]")
        for index in (indices if indices is not None
                      else range(n_cases))
    ]
    cache = ResultCache(root=cache_dir) \
        if use_cache or cache_dir is not None else None

    def _case(task) -> CaseReport:
        if task.ok:
            case = CaseReport.from_dict(task.result)
        else:
            # An executor-level failure (timeout/crash) still yields a
            # case row, so the campaign exit code reflects it.
            case = CaseReport(
                seed=seed, index=task.spec.params["index"], family="?",
                profile="?",
                violations=[Violation(
                    f"farm-{task.status}",
                    task.error or "task did not complete")])
        case.elapsed_s = task.elapsed_s
        return case

    def _farm_progress(task, done, total) -> None:
        if progress is not None and task.ok:
            progress(_case(task))

    farm = FarmExecutor(workers=workers, use_cache=use_cache,
                        cache=cache, progress=_farm_progress).run(specs)
    return CampaignReport(seed=seed, farm=farm,
                          cases=[_case(task) for task in farm.results])
