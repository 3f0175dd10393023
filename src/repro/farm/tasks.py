"""Builtin task kinds: every runnable unit of the repo, spec-wrapped.

Each runner is a pure function of its params dict — all imports are
lazy (workers should not pay for subsystems the sweep never touches)
and every stochastic input is an explicit seed in the spec.  Returned
values are plain JSON so results cache, diff, and aggregate without
pickling.

Registered kinds:

====================  ====================================================
``validation-case``   one fuzz case through the oracle battery (PR 4)
``resilience-campaign``  a seeded fault campaign through the recovery
                      loop (PR 3)
``monitoring-campaign``  sampled Figure-7 faults, diagnosed and scored
``cluster-sweep``     one scheduler run over a seeded trace (PR 1),
                      optionally with the peak-set contention replay
``seer-forecast``     a Seer training forecast for a layout
``figure-bench``      a named cheap figure regeneration (pue, goodput,
                      overhead, taxonomy)
``hierarchy-run``     a symmetry-folded hierarchical simulation at a
                      named scale preset or explicit dimensions (PR 6)
``serving-run``       one diurnal inference-serving scenario co-scheduled
                      with training on the twin (PR 9)
``farm-selftest``     controllable ok/fail/hang/crash task for testing
                      the executor's isolation paths
====================  ====================================================
"""

from __future__ import annotations

from typing import Any, Dict

from .spec import register_task

#: The task kinds register themselves on import; nothing here is
#: star-exported.
__all__: list = []


def _reject_solver(params: Dict[str, Any]) -> None:
    """Fail a spec that still names a fill kernel.

    These kinds once read an optional ``solver`` param; they now run
    the kernel of the scope they execute in, so a spec naming one would
    run under a content hash that promises something else."""
    if "solver" in params:
        raise ValueError(
            f"param 'solver' is no longer accepted (got "
            f"{params['solver']!r}); pick a fill kernel with "
            f"repro.network.solver.use_backend around the run")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# version 2: the oracle profile cycle grew from 5 to 6 entries
# ("hierarchical" joined), silently remapping every case index — old
# cached results describe different scenarios and must not be reused.
# version 3: every battery gained the solver-backends differential and
# the params carry the resolved max-min backend (``solver``), so
# backend-less version-2 hashes describe a different check set.
# version 4: the oracle profile cycle grew from 6 to 7 entries
# ("faulted-hierarchical" joined), remapping every case index again —
# see the version-2 note.
# version 5: the oracle profile cycle grew from 7 to 8 entries
# ("serving" joined), remapping every case index again — see the
# version-2 note.
@register_task("validation-case", version=5,
               description="one repro.validation fuzz case")
def run_validation_case(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``seed``, ``index``, optional ``fast`` (default True),
    optional ``solver`` (the fill kernel the case runs under, applied
    here as a ``use_backend`` scope: the campaign fills it from the
    caller's scope so the choice reaches worker processes)."""
    from ..network.solver import use_backend
    from ..validation.runner import run_case
    with use_backend(params.get("solver")):
        report = run_case(int(params["seed"]), int(params["index"]),
                          fast=bool(params.get("fast", True)))
    return report.to_dict()


# ---------------------------------------------------------------------------
# resilience
# ---------------------------------------------------------------------------

# version 2: params carried an optional max-min backend name
# (``solver``).  A spec that still names one is rejected; the task runs
# the kernel of the ``use_backend`` scope it executes in (``vector`` in
# a worker process).
@register_task("resilience-campaign", version=2,
               description="seeded failure-injection campaign")
def run_resilience_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params mirror the ``repro resilience`` CLI.

    ``seed``, ``scale``, ``jobs``, ``hosts_per_job``, ``iterations``,
    ``faults``, ``fault_at_s``, ``checkpoint_interval_s``,
    ``compute_s``, ``collective_bits``.
    """
    _reject_solver(params)
    from ..resilience.campaign import (ResilienceCampaign,
                                       default_tor_faults)
    from ..topology import AstralParams
    topo_params = AstralParams.named(params.get("scale", "small"))
    seed = int(params.get("seed", 0))
    faults = default_tor_faults(
        topo_params, seed=seed,
        n_faults=int(params.get("faults", 1)),
        first_at_s=float(params.get("fault_at_s", 1800.0)))
    campaign = ResilienceCampaign(
        params=topo_params, faults=faults,
        n_jobs=int(params.get("jobs", 1)),
        hosts_per_job=int(params.get("hosts_per_job", 4)),
        n_iterations=int(params.get("iterations", 120)),
        compute_s=float(params.get("compute_s", 20.0)),
        collective_bits=float(params.get("collective_bits", 2e11)),
        checkpoint_interval_s=float(
            params.get("checkpoint_interval_s", 3600.0)),
        seed=seed)
    return campaign.run().to_dict()


# ---------------------------------------------------------------------------
# monitoring
# ---------------------------------------------------------------------------

@register_task("monitoring-campaign", version=1,
               description="Figure-7 fault campaign with localization "
                           "scoring")
def run_monitoring_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``seed``, ``n_faults``, ``job_hosts``, ``iterations``."""
    from ..monitoring.campaign import FaultCampaign
    campaign = FaultCampaign(
        job_hosts=int(params.get("job_hosts", 6)),
        iterations=int(params.get("iterations", 5)),
        seed=int(params.get("seed", 0)))
    result = campaign.run(int(params.get("n_faults", 5)))
    records = [
        {
            "cause": record.fault.cause.value,
            "manifestation": record.fault.manifestation.value,
            "target": record.fault.target,
            "detected": record.manifestation_detected,
            "localized": record.localized_correctly,
            "root_cause_device": record.diagnosis.root_cause_device,
            "inferred_cause": record.diagnosis.inferred_cause,
        }
        for record in result.records
    ]
    return {
        "n_faults": result.n_faults,
        "detection_rate": result.detection_rate,
        "localization_accuracy": result.localization_accuracy,
        "records": records,
    }


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

# version 2: params carried an optional max-min backend name
# (``solver``); see the resilience-campaign v2 note.
@register_task("cluster-sweep", version=2,
               description="one scheduler run over a seeded job trace")
def run_cluster_sweep(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params mirror ``repro cluster``: ``seed``, ``scale``, ``jobs``,
    ``policy``, ``failure_scale``, ``tidal``, ``contention``."""
    _reject_solver(params)
    from ..core import AstralInfrastructure
    from ..topology import AstralParams
    seed = int(params.get("seed", 0))
    infra = AstralInfrastructure(
        params=AstralParams.named(params.get("scale", "small")),
        seed=seed)
    report = infra.run_cluster(
        jobs=int(params.get("jobs", 20)),
        policy=params.get("policy", "topology"),
        seed=seed,
        failure_scale=float(params.get("failure_scale", 1.0)),
        tidal_cap=bool(params.get("tidal", True)))
    result = report.to_dict()
    if params.get("contention", False):
        outcomes = infra.cluster_contention(report)
        result["contention"] = {
            name: {
                "efficiency": outcomes[name].efficiency,
                "mean_iteration_s": outcomes[name].mean_iteration_s,
            }
            for name in sorted(outcomes)
        }
    return result


# ---------------------------------------------------------------------------
# seer
# ---------------------------------------------------------------------------

@register_task("seer-forecast", version=1,
               description="Seer training forecast for one layout")
def run_seer_forecast(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``model`` (registry name), ``gpu``, ``tp``, ``pp``,
    ``dp``, ``ep``, ``microbatches``, ``corrected``."""
    from .. import seer as seer_mod
    from ..seer import NetworkSuite, ParallelismConfig, Seer
    model = getattr(seer_mod, params.get("model", "LLAMA3_70B"))
    parallel = ParallelismConfig(
        tp=int(params.get("tp", 8)), pp=int(params.get("pp", 4)),
        dp=int(params.get("dp", 4)), ep=int(params.get("ep", 1)),
        microbatches=int(params.get("microbatches", 8)))
    corrected = bool(params.get("corrected", True))
    seer = Seer(gpu=params.get("gpu", "H800"), network=NetworkSuite(),
                corrected=corrected)
    forecast = seer.forecast_training(model, parallel)
    result = {
        "model": model.name,
        "world_size": parallel.world_size,
        "iteration_time_s": forecast.iteration_time_s,
        "tokens_per_s": forecast.tokens_per_s,
        "throughput_per_gpu": forecast.throughput_per_gpu,
        "exposed_comm_fraction": forecast.exposed_comm_fraction(),
    }
    if corrected:
        result["accuracy_deviation"] = seer.accuracy_deviation(
            model, parallel)
    return result


# ---------------------------------------------------------------------------
# figure benches
# ---------------------------------------------------------------------------

def _figure_pue(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..power import astral_vs_traditional, pue_evolution
    return {
        "series": [{"label": report.label, "pue": report.pue}
                   for report in pue_evolution()],
        "improvement_frac":
            astral_vs_traditional()["improvement_frac"],
    }


def _figure_goodput(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import training_goodput
    rows = []
    for n_gpus in params.get("gpus", [1024, 8192, 65536]):
        manual = training_goodput(int(n_gpus), localization="manual")
        auto = training_goodput(int(n_gpus), localization="automated")
        rows.append({
            "gpus": int(n_gpus),
            "mtbf_hours": auto.mtbf_hours,
            "manual": manual.goodput_fraction,
            "astral": auto.goodput_fraction,
        })
    return {"rows": rows}


def _figure_overhead(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..monitoring import MonitoringOverhead
    return dict(MonitoringOverhead().report(
        int(params.get("gpus", 100_000))))


def _figure_taxonomy(params: Dict[str, Any]) -> Dict[str, Any]:
    from collections import Counter

    from ..monitoring import sample_faults
    count = int(params.get("count", 1000))
    faults = sample_faults(count, seed=int(params.get("seed", 0)))
    return {
        "count": count,
        "manifestations": dict(sorted(Counter(
            f.manifestation.value for f in faults).items())),
        "causes": dict(sorted(Counter(
            f.cause.value for f in faults).items())),
    }


_FIGURES = {
    "pue": _figure_pue,
    "goodput": _figure_goodput,
    "overhead": _figure_overhead,
    "taxonomy": _figure_taxonomy,
}


@register_task("figure-bench", version=1,
               description="regenerate one cheap paper figure")
def run_figure_bench(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``figure`` in {pue, goodput, overhead, taxonomy} plus
    that figure's options."""
    figure = params.get("figure")
    if figure not in _FIGURES:
        raise ValueError(
            f"unknown figure {figure!r}; choose from "
            f"{', '.join(sorted(_FIGURES))}")
    result = _FIGURES[figure](params)
    result["figure"] = figure
    return result


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------

def hierarchy_inputs(params: Dict[str, Any]):
    """The cluster, tenants and placement a ``hierarchy-run`` spec
    describes, as ``(topo, jobs, placed)``.  ``repro scale`` calls it
    too, to check a fault document against them before submitting."""
    from ..hierarchy import preset_params, uniform_jobs
    from ..hierarchy.virtual import place_jobs
    from ..topology import AstralParams

    if params.get("dims"):
        topo = AstralParams(**{key: int(value)
                               for key, value in params["dims"].items()})
    else:
        topo = preset_params(params.get("scale", "4k"))
    jobs = uniform_jobs(
        topo,
        int(params.get("hosts_per_job", topo.hosts_per_block)),
        iterations=int(params.get("iterations", 4)),
        compute_time_s=float(params.get("compute_s", 0.5)),
        comm_size_bits=float(params.get("comm_bits", 8e9)),
        collective=params.get("collective", "allreduce"),
        seed=int(params.get("seed", 0)),
        tail_shapes=int(params.get("tail_shapes", 1)))
    return topo, jobs, place_jobs(topo, jobs)


# version 2: params carried an optional max-min backend name
# (``solver``); see the resilience-campaign v2 note.
# version 3: faults generalised — ``fault_document`` (correlated fault
# domains + explicit specs, the ``repro scale --faults FILE`` JSON
# format) and the bounded-refinement mode (``refine``) joined the
# params, and the report grew the ``fold.refine`` section; version-2
# hashes describe runs without either input.
@register_task("hierarchy-run", version=3,
               description="symmetry-folded hierarchical simulation")
def run_hierarchy(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params mirror ``repro scale``.

    ``scale`` (one of 4k/64k/512k) or ``dims`` (explicit AstralParams
    kwargs), ``hosts_per_job``, ``iterations``, ``compute_s``,
    ``comm_bits``, ``collective``, ``seed``, ``tail_shapes``,
    ``faults`` (count of deterministic ToR fail-slows, armed on the
    first jobs in placement order), ``fault_document`` (a
    ``{"domains": [...], "faults": [...]}`` object — see
    ``repro.resilience.faults_from_document``), ``refine``
    (``bounded``/``pod``), ``power_caps`` (pod index -> compute
    factor; keys are strings because specs are JSON).
    """
    _reject_solver(params)
    from ..hierarchy import HierarchicalRun
    from ..monitoring.faults import (FaultSpec, Manifestation,
                                     RootCause)
    from ..resilience import faults_from_document

    topo, jobs, placed = hierarchy_inputs(params)
    faults = {}
    for p in placed[:int(params.get("faults", 0))]:
        pod, block, _ = p.coords[0]
        faults[p.name] = FaultSpec(
            cause=RootCause.SWITCH_BUG,
            manifestation=Manifestation.FAIL_SLOW,
            target=f"p{pod}.b{block}.r0.g0.tor")
    if params.get("fault_document"):
        faults.update(faults_from_document(topo, placed,
                                           params["fault_document"]))
    caps = {int(pod): float(factor)
            for pod, factor in (params.get("power_caps") or {}).items()}
    run = HierarchicalRun(topo, jobs, faults=faults or None,
                          pod_power_caps=caps or None,
                          refine=params.get("refine", "bounded"))
    run.run()
    return run.report.to_dict()


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

# version 1 params could carry an optional max-min backend name
# (``solver``); see the resilience-campaign v2 note.
@register_task("serving-run", version=1,
               description="diurnal serving scenario co-scheduled with "
                           "training")
def run_serving(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``scenario`` (a ``ServingScenario.to_params()`` dict)."""
    _reject_solver(params)
    from ..serving import ServingRun, ServingScenario
    scenario = ServingScenario.from_params(dict(params["scenario"]))
    return ServingRun(scenario).run().to_dict()


# ---------------------------------------------------------------------------
# digital-twin replay
# ---------------------------------------------------------------------------

@register_task("twin-replay", version=1,
               description="rebuild a twin session from its config + "
                           "action log; returns the state digest")
def run_twin_replay(params: Dict[str, Any]) -> Dict[str, Any]:
    """Params: ``config`` (a ``TwinConfig.to_params()`` dict) and
    ``action_log`` (the session's append-only boundary log).  The
    digest must equal the live session's — this running under
    ``execute_spec``'s seeding choke is the twin's replay contract.
    """
    from ..twin.config import TwinConfig
    from ..twin.session import replay
    session = replay(TwinConfig.from_params(dict(params["config"])),
                     params["action_log"])
    return {"digest": session.digest(),
            "t_s": session.t_s,
            "snapshot": session.snapshot()}


# ---------------------------------------------------------------------------
# executor self-test
# ---------------------------------------------------------------------------

@register_task("farm-selftest", version=1,
               description="ok/fail/hang/crash probe for executor tests")
def run_selftest(params: Dict[str, Any]) -> Dict[str, Any]:
    """Controllable behaviours for the executor's failure-path tests.

    ``mode``: ``ok`` echoes ``value``; ``fail`` raises; ``hang``
    sleeps ``sleep_s`` (to trip the per-task timeout); ``crash``
    hard-kills the hosting process (``os._exit``) to exercise pool
    recovery; ``flaky`` crashes on the first ``crashes`` attempts of a
    process-lineage marker file, then succeeds — exercising retry.
    """
    import os
    import time

    mode = params.get("mode", "ok")
    if mode == "ok":
        return {"value": params.get("value", 0),
                "squared": params.get("value", 0) ** 2}
    if mode == "fail":
        raise RuntimeError(f"selftest asked to fail "
                           f"(value={params.get('value')})")
    if mode == "hang":
        time.sleep(float(params.get("sleep_s", 60.0)))
        return {"value": "woke"}
    if mode == "crash":
        os._exit(13)
    if mode == "flaky":
        marker = params["marker"]
        crashes = int(params.get("crashes", 1))
        attempts = 0
        if os.path.exists(marker):
            with open(marker, "r", encoding="utf-8") as handle:
                attempts = int(handle.read().strip() or 0)
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(attempts + 1))
        if attempts < crashes:
            os._exit(13)
        return {"value": params.get("value", 0),
                "attempts_seen": attempts}
    raise ValueError(f"unknown selftest mode {mode!r}")
