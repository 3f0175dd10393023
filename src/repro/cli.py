"""Command-line interface: ``python -m repro <command>``.

Commands map to the library's main entry points:

* ``describe``  — scale numbers of an Astral deployment;
* ``forecast``  — Seer training forecast for a model + parallelism;
* ``inference`` — Seer inference forecast (prefill/decode);
* ``memory``    — HBM footprint of a layout;
* ``sweep``     — rank parallelism layouts for a GPU budget;
* ``pue``       — the Figure-6 PUE evolution report;
* ``taxonomy``  — sample a Figure-7 fault campaign;
* ``overhead``  — Appendix-C monitoring overhead for a cluster size;
* ``goodput``   — training goodput vs scale, manual vs Astral MTTLF;
* ``diagnose-demo`` — inject a fault and print the diagnosis chain;
* ``cluster``   — schedule a multi-tenant job trace on the fabric;
* ``resilience`` — seeded failure-injection campaign through the
  detect → localize → cordon → requeue → repair loop;
* ``validate`` — fuzz the simulator stack against the invariant,
  differential, and metamorphic oracles (``repro.validation``),
  optionally fanned out across farm workers with result caching;
* ``farm`` — run an arbitrary task-spec file (explicit tasks and/or
  parameter-grid sweeps) on the parallel experiment farm
  (``repro.farm``);
* ``scale`` — symmetry-folded hierarchical simulation at paper scale
  (``repro.hierarchy``): named presets up to the published 512K-GPU
  deployment, or explicit dimensions for small differential runs;
* ``serve`` — diurnal inference serving co-scheduled with training on
  the twin (``repro.serving``): regional demand tides, prefill/decode
  pod pairs, KV traffic on the training fabric, and the tidal
  autoscaler preempting/admitting training against the power contract;
* ``twin`` — the long-running digital-twin service (``repro.twin``):
  ``twin serve`` hosts persistent simulated datacenters behind an
  HTTP API with live telemetry streams and a closed operator action
  loop; ``twin demo`` runs the scripted cordon → fault → power-cap →
  heal scenario and verifies the replay digest.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed ``repro`` version, or the pyproject dev value.

    ``importlib.metadata`` answers for installed checkouts (including
    ``pip install -e .``); a source tree run straight off
    ``PYTHONPATH=src`` falls back to parsing ``pyproject.toml`` next
    to the package, and finally to a dev marker.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except PackageNotFoundError:
        pass
    except Exception:  # noqa: BLE001 — metadata is best-effort
        pass
    try:
        import os
        import tomllib
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            project = tomllib.load(handle)
        return project["project"]["version"] + "+dev"
    except Exception:  # noqa: BLE001 — any miss means unknown dev tree
        return "0.0.0+dev"

_MODELS = {
    "gpt3-175b": "GPT3_175B",
    "llama2-70b": "LLAMA2_70B",
    "llama3-70b": "LLAMA3_70B",
    "hunyuan-moe": "HUNYUAN_MOE",
    "deepseek-moe": "DEEPSEEK_MOE",
}


def _resolve_model(name: str):
    from repro import seer
    try:
        return getattr(seer, _MODELS[name])
    except KeyError:
        raise SystemExit(
            f"unknown model {name!r}; choose from "
            f"{', '.join(sorted(_MODELS))}")


def build_parser() -> argparse.ArgumentParser:
    from repro.hierarchy.presets import SCALE_PRESETS
    from repro.topology.astral import NAMED_SCALES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Astral (SIGCOMM 2025) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="deployment scale numbers") \
        .add_argument("--paper-scale", action="store_true",
                      help="use the published 512K-GPU dimensions")

    forecast = sub.add_parser("forecast",
                              help="Seer training forecast")
    forecast.add_argument("--model", default="llama3-70b",
                          choices=sorted(_MODELS))
    forecast.add_argument("--gpu", default="H800")
    forecast.add_argument("--tp", type=int, default=8)
    forecast.add_argument("--pp", type=int, default=4)
    forecast.add_argument("--dp", type=int, default=4)
    forecast.add_argument("--ep", type=int, default=1)
    forecast.add_argument("--microbatches", type=int, default=8)
    forecast.add_argument("--uncorrected", action="store_true",
                          help="disable self-correction (basic model)")

    inference = sub.add_parser("inference",
                               help="Seer inference forecast")
    inference.add_argument("--model", default="llama3-70b",
                           choices=sorted(_MODELS))
    inference.add_argument("--gpu", default="H800")
    inference.add_argument("--tp", type=int, default=8)
    inference.add_argument("--ep", type=int, default=1)
    inference.add_argument("--batch", type=int, default=8)
    inference.add_argument("--context", type=int, default=2048)

    memory = sub.add_parser("memory", help="HBM footprint of a layout")
    memory.add_argument("--model", default="llama3-70b",
                        choices=sorted(_MODELS))
    memory.add_argument("--gpu", default="H800")
    memory.add_argument("--tp", type=int, default=8)
    memory.add_argument("--pp", type=int, default=4)
    memory.add_argument("--dp", type=int, default=4)
    memory.add_argument("--ep", type=int, default=1)
    memory.add_argument("--zero", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="rank parallelism layouts for a GPU budget")
    sweep.add_argument("--model", default="llama3-70b",
                       choices=sorted(_MODELS))
    sweep.add_argument("--gpu", default="H800")
    sweep.add_argument("--gpus", type=int, default=64)
    sweep.add_argument("--microbatches", type=int, default=16)
    sweep.add_argument("--top", type=int, default=5)

    sub.add_parser("pue", help="PUE evolution report (Figure 6)")

    taxonomy = sub.add_parser("taxonomy",
                              help="sample a fault campaign (Fig. 7)")
    taxonomy.add_argument("--count", type=int, default=1000)
    taxonomy.add_argument("--seed", type=int, default=0)

    overhead = sub.add_parser(
        "overhead", help="monitoring overhead (Appendix C)")
    overhead.add_argument("--gpus", type=int, default=100_000)

    goodput = sub.add_parser(
        "goodput",
        help="training goodput vs scale, manual vs Astral MTTLF")
    goodput.add_argument("--gpus", type=int, nargs="+",
                         default=[1024, 8192, 65536])

    sub.add_parser("diagnose-demo",
                   help="inject a fault and print the diagnosis")

    cluster = sub.add_parser(
        "cluster",
        help="schedule a multi-tenant job trace on the fabric")
    cluster.add_argument("--policy", default="topology",
                         choices=["fifo", "topology", "priority",
                                  "preemptive"])
    cluster.add_argument("--jobs", type=int, default=50)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--scale", default="cluster",
                         choices=NAMED_SCALES,
                         help="fabric size (cluster = 256 hosts)")
    cluster.add_argument("--failure-scale", type=float, default=1.0,
                         help="MTBF multiplier; 0 disables failures")
    cluster.add_argument("--no-tidal", action="store_true",
                         help="disable the 22:00-08:00 host cap")
    cluster.add_argument("--contention", action="store_true",
                         help="co-run the peak tenant set on the "
                              "fabric and report interference")
    cluster.add_argument("--rows", type=int, default=20,
                         help="job rows to print in the report")

    resilience = sub.add_parser(
        "resilience",
        help="seeded failure-injection campaign with the recovery loop")
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument("--scale", default="small",
                            choices=NAMED_SCALES)
    resilience.add_argument("--jobs", type=int, default=1)
    resilience.add_argument("--hosts-per-job", type=int, default=4)
    resilience.add_argument("--iterations", type=int, default=180)
    resilience.add_argument("--faults", type=int, default=1,
                            help="structural faults to draw and inject")
    resilience.add_argument("--fault-at", type=float, default=1800.0,
                            help="injection time of the first fault (s)")
    resilience.add_argument("--checkpoint-interval", type=float,
                            default=3600.0)
    resilience.add_argument("--json", action="store_true",
                            help="emit the full report as JSON")

    validate = sub.add_parser(
        "validate",
        help="fuzz the simulator stack against the validation oracles")
    validate.add_argument("--seed", type=int, default=7,
                          help="campaign seed; each case is derived "
                               "from (seed, index)")
    validate.add_argument("--cases", type=int, default=25,
                          help="number of scenarios to generate")
    validate.add_argument("--case", type=int, default=None,
                          help="re-run exactly one case index "
                               "(reproduces a printed failure)")
    validate.add_argument("--profile", default=None,
                          help="pin every case to one scenario "
                               "profile (e.g. 'faulted-hierarchical'):"
                               " runs the first --cases indices that "
                               "map to it")
    validate.add_argument("--json", metavar="PATH", default=None,
                          help="write the full campaign report "
                               "(including failing specs) to PATH")
    validate.add_argument("--fast", action="store_true",
                          help="skip the packet-granular differential "
                               "(CI smoke budget)")
    validate.add_argument("--workers", type=int, default=1,
                          help="fan cases out across N worker "
                               "processes (bit-identical to serial)")
    validate.add_argument("--cache-dir", metavar="PATH", default=None,
                          help="serve unchanged cases from the farm's "
                               "content-addressed result cache at PATH")

    farm = sub.add_parser(
        "farm",
        help="run a task-spec file on the parallel experiment farm")
    farm.add_argument("specfile",
                      help="JSON document with 'tasks' and/or 'sweep' "
                           "entries (see repro.farm.specs_from_document)")
    farm.add_argument("--workers", type=int, default=1)
    farm.add_argument("--no-cache", action="store_true",
                      help="recompute every task (results still warm "
                           "the cache for later runs)")
    farm.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="cache location (default ~/.cache/repro-farm "
                           "or $REPRO_FARM_CACHE)")
    farm.add_argument("--timeout", type=float, default=None,
                      help="per-task wall-clock budget in seconds")
    farm.add_argument("--retries", type=int, default=1,
                      help="retry budget for tasks whose worker dies")
    farm.add_argument("--json", metavar="PATH", default=None,
                      help="write the full farm report to PATH")

    scale = sub.add_parser(
        "scale",
        help="symmetry-folded hierarchical run up to 512K GPUs")
    scale.add_argument("--gpus", default="4k",
                       choices=SCALE_PRESETS,
                       help="named scale preset (512k = the paper's "
                            "published deployment dimensions)")
    scale.add_argument("--pods", type=int, default=None,
                       help="explicit topology instead of a preset; "
                            "combines with the other --*-per-* flags")
    scale.add_argument("--blocks-per-pod", type=int, default=2)
    scale.add_argument("--hosts-per-block", type=int, default=4)
    scale.add_argument("--gpus-per-host", type=int, default=2)
    scale.add_argument("--aggs-per-group", type=int, default=2)
    scale.add_argument("--cores-per-group", type=int, default=2)
    scale.add_argument("--hosts-per-job", type=int, default=None,
                       help="tenant size (default: one block)")
    scale.add_argument("--iterations", type=int, default=4)
    scale.add_argument("--compute-s", type=float, default=0.5)
    scale.add_argument("--comm-bits", type=float, default=8e9)
    scale.add_argument("--collective", default="allreduce",
                       choices=["allreduce", "alltoall"])
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--tail-shapes", type=int, default=1,
                       help="2 gives the last pod a distinct job "
                            "shape (exercises multiple pod classes)")
    scale.add_argument("--faults", default="0", metavar="N|FILE",
                       help="an integer arms N deterministic ToR "
                            "fail-slow faults; a path reads a JSON "
                            "fault document ({'domains': [...], "
                            "'faults': [...]}) of correlated fault "
                            "domains and explicit fault specs")
    scale.add_argument("--refine", default="bounded",
                       choices=["bounded", "pod"],
                       help="fault refinement scope: 'bounded' unfolds "
                            "only the blast-radius blocks, 'pod' the "
                            "whole pod (results are identical; bounded "
                            "simulates fewer hosts)")
    scale.add_argument("--power-cap", action="append", default=[],
                       metavar="POD=FACTOR",
                       help="cap a pod's compute rate, e.g. 1=0.8 "
                            "(repeatable)")
    scale.add_argument("--workers", type=int, default=1,
                       help="route through the experiment farm with "
                            "N workers")
    scale.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="serve unchanged runs from the farm's "
                            "content-addressed result cache at PATH")
    scale.add_argument("--json", metavar="PATH", default=None,
                       help="write the full report to PATH")

    serve = sub.add_parser(
        "serve",
        help="diurnal inference serving co-scheduled with training")
    serve.add_argument("--preset", default="64k",
                       choices=SCALE_PRESETS,
                       help="cluster scale preset the pools carve up")
    serve.add_argument("--seed", default="0",
                       help="campaign seed (int or string); feeds every "
                            "string-keyed draw stream")
    serve.add_argument("--duration", type=float, default=86400.0,
                       help="simulated horizon in seconds (default one "
                            "day)")
    serve.add_argument("--bucket", type=float, default=1800.0,
                       help="trace/autoscale bucket width in seconds")
    serve.add_argument("--users-scale", type=float, default=1.0,
                       help="multiply every region's user base "
                            "(0 = zero-arrival no-op)")
    serve.add_argument("--power-cap-frac", type=float, default=0.85,
                       help="constant-power contract as a fraction of "
                            "the fleet's nameplate draw; 1.0 never "
                            "binds, negative disables the cap")
    serve.add_argument("--train-jobs", type=int, default=96,
                       help="training jobs co-scheduled in the trough "
                            "(0 disables the training tenant)")
    serve.add_argument("--slo-ttft", type=float, default=5.0,
                       help="TTFT goodput threshold in seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="route through the experiment farm with "
                            "N workers")
    serve.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="serve unchanged runs from the farm's "
                            "content-addressed result cache at PATH")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the full report to PATH")

    twin = sub.add_parser(
        "twin",
        help="long-running digital-twin service (repro.twin)")
    twin_sub = twin.add_subparsers(dest="twin_command", required=True)
    twin_serve = twin_sub.add_parser(
        "serve", help="host persistent simulated datacenters over "
                      "HTTP until Ctrl-C")
    twin_serve.add_argument("--host", default="127.0.0.1",
                            help="bind address")
    twin_serve.add_argument("--port", type=int, default=8787,
                            help="bind port (0 picks a free port)")
    twin_serve.add_argument("--workers", type=int, default=0,
                            help="shard sessions across N worker "
                                 "processes (0 = in-process)")
    twin_demo = twin_sub.add_parser(
        "demo", help="scripted operator scenario + replay-digest "
                     "verification against an in-process server")
    twin_demo.add_argument("--scale", default="small",
                           choices=[scale for scale
                                    in NAMED_SCALES + SCALE_PRESETS
                                    if scale != "512k"],
                           help="session cluster scale")
    twin_demo.add_argument("--seed", default="0",
                           help="session seed (int or string)")
    twin_demo.add_argument("--workers", type=int, default=0,
                           help="shard sessions across N worker "
                                "processes (0 = in-process)")

    return parser


def _cmd_describe(args) -> int:
    from repro.core import AstralInfrastructure
    from repro.topology import AstralParams
    if args.paper_scale:
        params = AstralParams()
        print("Astral at published scale (not instantiated):")
        print(f"  total GPUs      : {params.total_gpus:,}")
        print(f"  GPUs per pod    : {params.gpus_per_pod:,}")
        print(f"  GPUs per rail   : {params.rail_size:,}")
        print(f"  pods            : {params.pods}")
        return 0
    infra = AstralInfrastructure(params=AstralParams.small())
    for key, value in infra.describe().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_forecast(args) -> int:
    from repro.seer import NetworkSuite, ParallelismConfig, Seer
    model = _resolve_model(args.model)
    parallel = ParallelismConfig(tp=args.tp, pp=args.pp, dp=args.dp,
                                 ep=args.ep,
                                 microbatches=args.microbatches)
    seer = Seer(gpu=args.gpu, network=NetworkSuite(),
                corrected=not args.uncorrected)
    forecast = seer.forecast_training(model, parallel)
    print(f"model            : {model.name}")
    print(f"world size       : {parallel.world_size} GPUs "
          f"(TP{args.tp} x PP{args.pp} x DP{args.dp})")
    print(f"iteration time   : {forecast.iteration_time_s:.4f} s")
    print(f"tokens/s         : {forecast.tokens_per_s:,.0f}")
    print(f"tokens/s/GPU     : {forecast.throughput_per_gpu:,.1f}")
    print(f"exposed comm     : {forecast.exposed_comm_fraction():.1%}")
    if not args.uncorrected:
        deviation = seer.accuracy_deviation(model, parallel)
        print(f"vs testbed       : {deviation:.3%} deviation")
    return 0


def _cmd_inference(args) -> int:
    from repro.seer import NetworkSuite, ParallelismConfig, Seer
    model = _resolve_model(args.model)
    seer = Seer(gpu=args.gpu, network=NetworkSuite())
    forecast = seer.forecast_inference(
        model, ParallelismConfig(tp=args.tp, pp=1, dp=1, ep=args.ep),
        batch=args.batch, context_len=args.context)
    print(f"model            : {model.name}")
    print(f"time to 1st token: {forecast.prefill_time_s:.4f} s")
    print(f"prefill tokens/s : {forecast.prefill_tokens_per_s:,.0f}")
    print(f"decode tokens/s  : {forecast.decode_tokens_per_s:,.1f}")
    return 0


def _cmd_memory(args) -> int:
    from repro.seer import ParallelismConfig, estimate_memory, gpu_suite
    model = _resolve_model(args.model)
    parallel = ParallelismConfig(tp=args.tp, pp=args.pp, dp=args.dp,
                                 ep=args.ep, zero_stage=args.zero)
    estimate = estimate_memory(model, parallel)
    gpu = gpu_suite(args.gpu)
    print(f"model        : {model.name}")
    print(f"weights      : {estimate.weights / 1e9:8.2f} GB")
    print(f"gradients    : {estimate.gradients / 1e9:8.2f} GB")
    print(f"optimizer    : {estimate.optimizer / 1e9:8.2f} GB")
    print(f"activations  : {estimate.activations / 1e9:8.2f} GB")
    print(f"total        : {estimate.total_gb:8.2f} GB")
    verdict = "fits" if estimate.fits(gpu) else "DOES NOT FIT"
    print(f"on {gpu.name} ({gpu.hbm_gb:.0f} GB): {verdict}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.seer import NetworkSuite, Seer, sweep_parallelism
    model = _resolve_model(args.model)
    seer = Seer(gpu=args.gpu, network=NetworkSuite())
    candidates = sweep_parallelism(seer, model, args.gpus,
                                   microbatches=args.microbatches)
    if not candidates:
        print("no feasible layout fits this GPU's HBM")
        return 1
    print(f"top layouts for {model.name} on {args.gpus} x {args.gpu}:")
    for rank, candidate in enumerate(candidates[:args.top], start=1):
        print(f"  #{rank} {candidate.label:<18} "
              f"{candidate.tokens_per_s:>12,.0f} tok/s   "
              f"{candidate.memory_gb:6.1f} GB/GPU")
    return 0


def _cmd_pue(args) -> int:
    from repro.power import astral_vs_traditional, pue_evolution
    for report in pue_evolution():
        print(f"  {report.label:<30} PUE {report.pue:.3f}")
    comparison = astral_vs_traditional()
    print(f"  improvement vs traditional: "
          f"{comparison['improvement_frac']:.2%}")
    return 0


def _cmd_taxonomy(args) -> int:
    from collections import Counter

    from repro.monitoring import sample_faults
    faults = sample_faults(args.count, seed=args.seed)
    manifestations = Counter(f.manifestation.value for f in faults)
    causes = Counter(f.cause.value for f in faults)
    print("manifestations:")
    for name, count in manifestations.most_common():
        print(f"  {name:<15} {count / args.count:6.1%}")
    print("root causes:")
    for name, count in causes.most_common():
        print(f"  {name:<18} {count / args.count:6.1%}")
    return 0


def _cmd_overhead(args) -> int:
    from repro.monitoring import MonitoringOverhead
    report = MonitoringOverhead().report(args.gpus)
    print(f"cluster          : {report['n_gpus']:,} GPUs")
    print(f"mirror traffic   : {report['mirror_gbps']:.1f} Gbps "
          f"({report['mirror_fraction']:.7%} of fabric)")
    print(f"INT storage      : {report['int_gb_per_day']:,.0f} GB/day, "
          f"{report['int_gb_retained']:,.0f} GB retained")
    return 0


def _cmd_goodput(args) -> int:
    from repro.core import training_goodput
    print(f"{'GPUs':>8} {'MTBF(h)':>9} {'manual':>8} {'Astral':>8} "
          f"{'gain':>7}")
    for n_gpus in args.gpus:
        manual = training_goodput(n_gpus, localization="manual")
        auto = training_goodput(n_gpus, localization="automated")
        print(f"{n_gpus:>8,} {auto.mtbf_hours:>9.1f} "
              f"{manual.goodput_fraction:>8.1%} "
              f"{auto.goodput_fraction:>8.1%} "
              f"{auto.goodput_fraction - manual.goodput_fraction:>+7.1%}")
    return 0


def _cmd_diagnose_demo(args) -> int:
    from repro.core import AstralInfrastructure
    from repro.monitoring import FaultSpec, Manifestation, RootCause
    from repro.topology import AstralParams
    infra = AstralInfrastructure(params=AstralParams.small())
    allocation = infra.allocate("demo", 4)
    fault = FaultSpec(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      allocation.hosts[1], at_iteration=2)
    infra.run_monitored_job("demo", fault=fault, iterations=4)
    diagnosis = infra.diagnose("demo")
    print(f"injected    : {fault.cause.value} on {fault.target}")
    print(f"manifested  : {diagnosis.manifestation.value}")
    print(f"localized to: {diagnosis.root_cause_device} "
          f"({diagnosis.inferred_cause})")
    print(f"action      : {diagnosis.recommended_action}")
    for step in diagnosis.evidence:
        print(f"  -> {step}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.core import AstralInfrastructure
    from repro.topology import AstralParams
    infra = AstralInfrastructure(params=AstralParams.named(args.scale),
                                 seed=args.seed)
    report = infra.run_cluster(
        jobs=args.jobs, policy=args.policy, seed=args.seed,
        failure_scale=args.failure_scale,
        tidal_cap=not args.no_tidal)
    print(report.render(max_rows=args.rows))
    if args.contention:
        outcomes = infra.cluster_contention(report)
        print("peak-set fabric contention:")
        for name in sorted(outcomes):
            outcome = outcomes[name]
            print(f"  {name:<10} efficiency {outcome.efficiency:6.1%} "
                  f"({outcome.mean_iteration_s:.3f} s/iter)")
    return 0


def _cmd_resilience(args) -> int:
    import json

    from repro.resilience import ResilienceCampaign, default_tor_faults
    from repro.topology import AstralParams

    params = AstralParams.named(args.scale)
    faults = default_tor_faults(params, seed=args.seed,
                                n_faults=args.faults,
                                first_at_s=args.fault_at)
    campaign = ResilienceCampaign(
        params=params, faults=faults, n_jobs=args.jobs,
        hosts_per_job=args.hosts_per_job,
        n_iterations=args.iterations,
        checkpoint_interval_s=args.checkpoint_interval,
        seed=args.seed)
    report = campaign.run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"seed            : {report.seed}")
    print(f"faults injected : {report.n_faults}")
    for at_s, action, target in report.fault_log:
        print(f"  t={at_s:>9.1f}s  {action:<14} {target}")
    print("recovery loop:")
    for record in report.recoveries:
        print(f"  {record['target']}: detected {record['detected_s']:.0f}s"
              f", localized {record['localized_s']:.0f}s, cordoned "
              f"{len(record['cordoned_hosts'])} hosts, interrupted "
              f"{record['interrupted_jobs']}, repaired "
              f"{record['repaired_s']:.0f}s")
    print("jobs (faulted vs clean completion):")
    for job in report.jobs:
        clean = report.baseline_completion_s.get(job.name)
        faulted = report.faulted_completion_s.get(job.name)
        status = "gave up" if job.gave_up else (
            f"{faulted:.0f}s vs {clean:.0f}s" if faulted else "wedged")
        print(f"  {job.name:<8} {status}  restarts={job.restarts} "
              f"lost={job.lost_s:.0f}s")
    print(f"reroutes        : {report.reroutes}")
    print(f"stranded flows  : {report.stranded}")
    print(f"measured penalty: {report.measured_penalty_s:,.0f} s")
    print(f"predicted       : {report.predicted_penalty_s:,.0f} s")
    print(f"goodput         : {report.goodput_fraction:.1%}")
    if report.wedged_jobs:
        print(f"WEDGED JOBS     : {report.wedged_jobs}")
        return 1
    return 0


def _cmd_validate(args) -> int:
    import json
    import time

    from repro.network.solver import resolve_backend
    from repro.validation import run_campaign

    def _progress(case) -> None:
        verdict = "ok" if case.ok else "FAIL"
        print(f"  case {case.index:>3} "
              f"[{case.profile}/{case.family}] {verdict} "
              f"({len(case.checks)} checks, {case.elapsed_s:6.2f}s)")

    if args.case is not None:
        indices = [args.case]
    elif args.profile is not None:
        from repro.validation.scenarios import PROFILES
        if args.profile not in PROFILES:
            raise SystemExit(
                f"unknown profile {args.profile!r}; expected one of "
                f"{list(PROFILES)}")
        # The profile cycle is index % len(PROFILES): the first
        # --cases indices landing on the requested profile.
        offset = PROFILES.index(args.profile)
        indices = [offset + step * len(PROFILES)
                   for step in range(args.cases)]
    else:
        indices = None
    started = time.perf_counter()
    report = run_campaign(args.seed, args.cases, indices=indices,
                          fast=args.fast, progress=_progress,
                          workers=args.workers,
                          use_cache=args.cache_dir is not None,
                          cache_dir=args.cache_dir)
    wall_s = time.perf_counter() - started
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.json}")
    print(f"seed {report.seed}: {len(report.cases)} cases, "
          f"{len(report.failures)} failing")
    rate = len(report.cases) / wall_s if wall_s > 0 else 0.0
    print(f"wall {wall_s:.2f}s ({rate:.2f} cases/s, "
          f"case-time sum {report.total_elapsed_s:.2f}s, "
          f"workers {args.workers})")
    if report.farm is not None:
        stats = report.farm.cache_stats or {}
        print(f"cache: {stats.get('hits', 0)} hits, "
              f"{stats.get('misses', 0)} misses; "
              f"{report.farm.n_executed} simulated, "
              f"{report.farm.n_cached} from cache")
    # A caller's use_backend scope reaches every case; name it so the
    # reproduce line reruns the case on the kernel that failed.
    backend = resolve_backend()
    scope = "" if backend == "vector" else \
        f' inside use_backend("{backend}")'
    for case in report.failures:
        print(f"FAIL case {case.index} [{case.profile}/{case.family}]")
        for violation in case.violations:
            print(f"  {violation}")
        print(f"  reproduce with: {case.repro_command}{scope}")
    return 1 if report.failures else 0


def _cmd_farm(args) -> int:
    import json

    from repro.farm import (FarmExecutor, ResultCache,
                            specs_from_document)

    with open(args.specfile, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    specs = specs_from_document(document)

    def _progress(result, done, total) -> None:
        tag = "cache" if result.cached else \
            f"{result.elapsed_s:6.2f}s"
        verdict = "ok" if result.ok else result.status.upper()
        print(f"  [{done:>3}/{total}] {result.spec.describe():<48} "
              f"{verdict:<8} ({tag})")

    cache = ResultCache(root=args.cache_dir) if args.cache_dir \
        else ResultCache()
    executor = FarmExecutor(
        workers=args.workers, use_cache=not args.no_cache,
        cache=cache, timeout_s=args.timeout,
        max_retries=args.retries, progress=_progress)
    report = executor.run(specs)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.json}")
    stats = report.cache_stats or {}
    print(f"{len(report.results)} tasks: {report.n_ok} ok, "
          f"{len(report.failures)} failed; "
          f"{report.n_cached} from cache, "
          f"{report.n_executed} executed")
    print(f"wall {report.wall_s:.2f}s "
          f"({report.throughput:.2f} tasks/s, "
          f"workers {report.workers}); "
          f"cache {stats.get('hits', 0)} hits / "
          f"{stats.get('misses', 0)} misses")
    for result in report.failures:
        print(f"FAILED {result.spec.describe()} "
              f"[{result.status}] {result.error.splitlines()[0]}"
              if result.error else
              f"FAILED {result.spec.describe()} [{result.status}]")
    if report.interrupted:
        print("interrupted: partial report above (unfinished tasks "
              "are marked skipped)")
        return 130
    return 0 if report.ok else 1


def _cmd_scale(args) -> int:
    import json
    import time

    from repro.farm import TaskSpec
    from repro.hierarchy import preset_params

    task_params = {
        "hosts_per_job": args.hosts_per_job,
        "iterations": args.iterations,
        "compute_s": args.compute_s,
        "comm_bits": args.comm_bits,
        "collective": args.collective,
        "seed": args.seed,
        "tail_shapes": args.tail_shapes,
        "refine": args.refine,
    }
    fault_document = None
    try:
        task_params["faults"] = int(args.faults)
    except ValueError:
        task_params["faults"] = 0
        try:
            with open(args.faults, "r", encoding="utf-8") as handle:
                fault_document = json.load(handle)
        except OSError as exc:
            raise SystemExit(
                f"--faults {args.faults!r} is neither an integer nor "
                f"a readable file: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"--faults file {args.faults!r} is not valid JSON: "
                f"{exc}")
        task_params["fault_document"] = fault_document
    if args.pods is not None:
        task_params["dims"] = {
            "pods": args.pods,
            "blocks_per_pod": args.blocks_per_pod,
            "hosts_per_block": args.hosts_per_block,
            "gpus_per_host": args.gpus_per_host,
            "aggs_per_group": args.aggs_per_group,
            "cores_per_group": args.cores_per_group,
        }
        hosts_per_block = args.hosts_per_block
    else:
        task_params["scale"] = args.gpus
        hosts_per_block = preset_params(args.gpus).hosts_per_block
    if args.hosts_per_job is None:
        task_params["hosts_per_job"] = hosts_per_block
    if fault_document is not None:
        # Validate the document against the actual cluster shape and
        # tenant placement up front: a malformed target must fail here
        # with the offending fault named, not as a KeyError from deep
        # inside a farm worker's topology renaming.
        from repro.farm.tasks import hierarchy_inputs
        from repro.resilience import faults_from_document
        topo, _, placed = hierarchy_inputs(task_params)
        try:
            faults_from_document(topo, placed, fault_document)
        except ValueError as exc:
            raise SystemExit(f"--faults {args.faults}: {exc}")
    caps = {}
    for entry in args.power_cap:
        pod, _, factor = entry.partition("=")
        try:
            caps[str(int(pod))] = float(factor)
        except ValueError:
            raise SystemExit(
                f"bad --power-cap {entry!r}; expected POD=FACTOR")
    if caps:
        task_params["power_caps"] = caps

    spec = TaskSpec("hierarchy-run", task_params, label="cli")
    started = time.perf_counter()
    result = _run_spec(spec, args.workers, args.cache_dir)
    if result is None:
        return 1
    wall_s = time.perf_counter() - started

    scenario, fold = result["scenario"], result["fold"]
    aggregate = result["aggregate"]
    print(f"cluster         : {scenario['total_gpus']:,} GPUs, "
          f"{scenario['n_pods']} pods")
    print(f"jobs            : {scenario['n_jobs']:,} on "
          f"{scenario['n_job_hosts']:,} hosts")
    mode = "EXACT" if fold["exact"] else (
        "flat-fallback" if fold["flat_fallback"] else "hybrid")
    print(f"fold            : {fold['n_pod_classes']} pod classes, "
          f"{fold['n_refined_groups']} refined groups "
          f"({fold['n_refined_pods']} pods), "
          f"{fold['n_analytic_jobs']} analytic jobs [{mode}]")
    print(f"engine          : {fold['n_engine_sims']} sims over "
          f"{fold['engine_hosts']:,} hosts "
          f"(fold factor {fold['fold_factor']:,.0f}x, "
          f"{fold['n_memo_hits']} memo hits)")
    refine = fold.get("refine", {})
    if refine.get("levels"):
        levels = ", ".join(f"{count} {level}" for level, count
                           in sorted(refine["levels"].items()))
        print(f"refine          : mode {refine['mode']} "
              f"[{levels}] — {refine['engine_hosts']:,} engine hosts "
              f"vs {refine['full_unfold_hosts']:,} at full-pod scope")
    print(f"mean efficiency : {aggregate['mean_efficiency']:.1%} "
          f"({aggregate['mean_iteration_s']:.4f} s/iter)")
    print(f"wall            : {wall_s:.2f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"report written to {args.json}")
    return 0


def _run_spec(spec, workers: int, cache_dir: Optional[str]
              ) -> Optional[dict]:
    """Run one task inline, or through the farm when *workers* > 1 or
    a result cache is asked for; None (after printing why) when the
    farm reports the task failed."""
    from repro.farm import FarmExecutor, ResultCache, execute_spec
    if workers <= 1 and cache_dir is None:
        return execute_spec(spec)
    cache = ResultCache(root=cache_dir) if cache_dir else ResultCache()
    report = FarmExecutor(workers=workers, use_cache=cache_dir is not None,
                          cache=cache).run([spec])
    if not report.ok:
        failure = report.failures[0]
        print(f"FAILED [{failure.status}] "
              f"{(failure.error or '').splitlines()[0]}")
        return None
    print(f"farm: {report.n_executed} executed, "
          f"{report.n_cached} from cache (workers {workers})")
    return report.results[0].result


def _cmd_serve(args) -> int:
    import json
    import time

    from repro.farm import TaskSpec
    from repro.serving import ServingReport, ServingScenario

    seed = args.seed
    try:
        seed = int(seed)
    except ValueError:
        pass  # string seeds are first-class in the draw convention
    cap = args.power_cap_frac
    scenario = ServingScenario(
        preset=args.preset,
        duration_s=args.duration,
        bucket_s=args.bucket,
        users_m_scale=args.users_scale,
        seed=seed,
        power_cap_frac=None if cap is not None and cap < 0 else cap,
        train_jobs=args.train_jobs,
        slo_ttft_s=args.slo_ttft)
    task_params = {"scenario": scenario.to_params()}
    spec = TaskSpec("serving-run", task_params, label="cli")
    started = time.perf_counter()
    result = _run_spec(spec, args.workers, args.cache_dir)
    if result is None:
        return 1
    wall_s = time.perf_counter() - started

    print(ServingReport(**{key: result[key] for key in (
        "scenario", "trace", "pools", "autoscale", "slo", "cosim",
        "training", "power", "fold")}).render())
    print(f"  wall      : {wall_s:.2f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"report written to {args.json}")
    return 0


def _cmd_twin(args) -> int:
    if args.twin_command == "serve":
        import asyncio

        from repro.twin import serve_forever
        return asyncio.run(serve_forever(
            host=args.host, port=args.port, workers=args.workers))
    seed = args.seed
    try:
        seed = int(seed)
    except ValueError:
        pass  # string seeds are first-class in the draw convention
    from repro.twin import run_demo
    return run_demo(scale=args.scale, workers=args.workers, seed=seed)


_HANDLERS = {
    "describe": _cmd_describe,
    "forecast": _cmd_forecast,
    "inference": _cmd_inference,
    "memory": _cmd_memory,
    "pue": _cmd_pue,
    "sweep": _cmd_sweep,
    "taxonomy": _cmd_taxonomy,
    "overhead": _cmd_overhead,
    "goodput": _cmd_goodput,
    "diagnose-demo": _cmd_diagnose_demo,
    "cluster": _cmd_cluster,
    "resilience": _cmd_resilience,
    "validate": _cmd_validate,
    "farm": _cmd_farm,
    "scale": _cmd_scale,
    "serve": _cmd_serve,
    "twin": _cmd_twin,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
