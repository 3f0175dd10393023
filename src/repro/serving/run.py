"""End-to-end diurnal serving scenario on the digital twin.

One :class:`ServingRun` closes the paper's tidal loop on a single
deterministic pipeline:

1. **Trace** — regional diurnal demand (:mod:`.trace`).
2. **Pools** — the cluster folds into symmetric prefill/decode pod
   pairs plus a residual training fleet (:mod:`.pools`).
3. **Autoscale** — per-bucket decode replica counts against the
   constant-power contract; the leftover becomes the training host
   budget (:mod:`.autoscale`).
4. **Pool simulation, folded** — every (pair, bucket, replica) cell
   runs at one of a handful of distinct per-replica arrival rates, so
   each distinct rate class is simulated *once* with
   :class:`~repro.seer.ServingSimulator` and its TTFT/TPOT samples are
   weighted by the requests the class served — exact percentiles over
   the full population at a tiny fraction of the cost (the serving
   analogue of the hierarchy's symmetry folding).
5. **Fabric co-simulation** — KV transfers of the peak rate class
   contend with a training tenant on one representative pod pair
   (:mod:`.cosim`).
6. **Training co-schedule** — the budget schedule drives
   :class:`~repro.cluster.scheduler.ClusterScheduler` (cap-enforcing
   preemption on) over a seeded workload on a folded slice of the
   training fleet.
7. **Power roll-up** — serving + training MW per bucket, flatness CV,
   and how much of the serving deficit training actually filled.

Every draw is string-seeded, every aggregate is pure arithmetic, and
the two max-min solver backends see identical flows — so the resulting
:class:`~repro.serving.report.ServingReport` is bit-identical across
processes, workers, and backends.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.scheduler import ClusterScheduler, SchedulingPolicy
from ..cluster.workload import WorkloadGenerator
from ..hierarchy.presets import preset_params
from ..network.flows import reset_flow_ids
from ..seer import (
    NetworkSuite,
    ParallelismConfig,
    Seer,
    ServingConfig,
    ServingSimulator,
)
from ..seer.names import model_config
from ..topology.astral import AstralParams, build_astral
from .autoscale import AutoscaleConfig, AutoscalePlan, TidalAutoscaler
from .cosim import CosimConfig, KvCosim
from .pools import PoolPlan, place_slice, plan_pools, slice_params
from .report import ServingReport, weighted_percentile
from .trace import (
    DEFAULT_REGIONS,
    RegionProfile,
    RequestTrace,
    TraceConfig,
)

__all__ = ["ServingScenario", "ServingRun"]

#: Per-(gpu, model, tp, ep, context) step-cost memo shared by every run
#: in this process — Seer forecasts are pure, so sharing is free and
#: makes fuzz batteries ~an order of magnitude cheaper.
_COST_MEMO: Dict[Tuple, Dict] = {}


@dataclass(frozen=True)
class ServingScenario:
    """Everything a diurnal serving run depends on, JSON-pure.

    ``dims`` (an ``AstralParams`` kwargs dict) overrides ``preset``;
    all seeds accept ints or strings and feed string-keyed streams.
    ``model`` names a :mod:`repro.seer.models` attribute (a
    :data:`repro.seer.names.MODEL_NAMES` value); any other name is a
    ``ValueError`` here, not a ``KeyError`` deep inside the run.
    """

    preset: Optional[str] = "64k"
    dims: Optional[Dict[str, int]] = None
    # -- demand ----------------------------------------------------------
    duration_s: float = 86400.0
    bucket_s: float = 1800.0
    start_hour: float = 0.0
    users_m_scale: float = 1.0
    regions: Optional[Sequence[Dict]] = None
    seed: Union[int, str] = 0
    # -- deployment ------------------------------------------------------
    gpu: str = "H800"
    model: str = "HUNYUAN_MOE"
    tp: int = 8
    ep: int = 16
    batch_max: int = 16
    context_len: int = 2048
    output_len_mean: int = 128
    prefill_hosts_per_pair: Optional[int] = None
    decode_hosts_per_pair: Optional[int] = None
    replica_hosts: int = 2
    # -- power / SLO -----------------------------------------------------
    target_util: float = 0.7
    host_kw: float = 10.0
    power_cap_frac: Optional[float] = 0.85
    slo_ttft_s: float = 5.0
    # -- simulation granularity -----------------------------------------
    pool_window_s: float = 30.0
    train_jobs: int = 96
    kv_bits: float = 8e9
    cosim_iterations: int = 6
    cosim_compute_s: float = 0.05
    cosim_comm_bits: float = 2e9
    max_kv_flows: int = 64
    slice_prefill_hosts: int = 2
    slice_decode_hosts: int = 4
    slice_train_hosts: int = 8

    def __post_init__(self) -> None:
        model_config(self.model)

    def params(self) -> AstralParams:
        if self.dims is not None:
            return AstralParams(**self.dims)
        return preset_params(self.preset or "64k")

    def region_profiles(self) -> Tuple[RegionProfile, ...]:
        base = [RegionProfile(**r) for r in self.regions] \
            if self.regions is not None else list(DEFAULT_REGIONS)
        return tuple(
            RegionProfile(
                name=r.name,
                users_m=r.users_m * self.users_m_scale,
                tz_offset_h=r.tz_offset_h,
                requests_per_user_day=r.requests_per_user_day)
            for r in base)

    def to_params(self) -> Dict:
        """Farm-spec payload (canonical-JSON friendly)."""
        payload = asdict(self)
        if payload["regions"] is not None:
            payload["regions"] = [dict(r) for r in payload["regions"]]
        return payload

    @classmethod
    def from_params(cls, params: Dict) -> "ServingScenario":
        return cls(**params)


class ServingRun:
    """Execute one scenario; see the module docstring for the pipeline."""

    def __init__(self, scenario: Optional[ServingScenario] = None):
        self.scenario = scenario or ServingScenario()

    def run(self) -> ServingReport:
        s = self.scenario
        reset_flow_ids()
        params = s.params()
        model = model_config(s.model)
        parallel = ParallelismConfig(tp=s.tp, pp=1, dp=1, ep=s.ep)
        seer = Seer(gpu=s.gpu, network=NetworkSuite())
        cost_cache = _COST_MEMO.setdefault(
            (s.gpu, s.model, s.tp, s.ep, s.context_len), {})

        # 1. demand trace ------------------------------------------------
        trace = RequestTrace.generate(TraceConfig(
            regions=s.region_profiles(),
            duration_s=s.duration_s, bucket_s=s.bucket_s,
            start_hour=s.start_hour, seed=s.seed))

        # 2. pools -------------------------------------------------------
        pools = plan_pools(
            params,
            prefill_hosts_per_pair=s.prefill_hosts_per_pair,
            decode_hosts_per_pair=s.decode_hosts_per_pair,
            replica_hosts=s.replica_hosts)

        # 3. autoscale against the contract ------------------------------
        probe = ServingSimulator(
            seer, model, parallel,
            ServingConfig(batch_max=s.batch_max,
                          context_len=s.context_len,
                          output_len_mean=s.output_len_mean,
                          seed=s.seed),
            cost_cache=cost_cache)
        # Engine time one request consumes: its own prefill step plus
        # its share of each full-batch decode step.  1/that is the
        # replica's sustainable throughput.
        per_request_s = probe.prefill_step_s() \
            + s.output_len_mean * probe.decode_step_s(s.batch_max) \
            / s.batch_max
        capacity = 1.0 / per_request_s
        autoscale_cfg = AutoscaleConfig(
            target_util=s.target_util, host_kw=s.host_kw,
            contract_frac=s.power_cap_frac)
        plan = TidalAutoscaler(autoscale_cfg).plan(trace, pools, capacity)

        # 4. folded pool simulations ------------------------------------
        slo, kv_starts, fold = self._pool_slo(
            s, seer, model, parallel, cost_cache, trace, pools, plan)

        # 5. fabric co-simulation of one representative pair ------------
        placement = place_slice(
            slice_params(params),
            prefill_hosts=s.slice_prefill_hosts,
            decode_hosts=s.slice_decode_hosts,
            train_hosts=s.slice_train_hosts)
        cosim = KvCosim(
            placement,
            CosimConfig(iterations=s.cosim_iterations,
                        compute_time_s=s.cosim_compute_s,
                        comm_size_bits=s.cosim_comm_bits,
                        kv_bits=s.kv_bits,
                        max_kv_flows=s.max_kv_flows),
            kv_starts_s=kv_starts).run()
        kv_sorted = cosim.kv_transfer_s
        kv_mean = sum(kv_sorted) / len(kv_sorted) if kv_sorted else 0.0
        slo["kv_mean_s"] = round(kv_mean, 9)
        slo["kv_p50_s"] = _maybe_round(
            weighted_percentile([(t, 1.0) for t in kv_sorted], 50.0))
        slo["kv_p95_s"] = _maybe_round(
            weighted_percentile([(t, 1.0) for t in kv_sorted], 95.0))
        for key in ("ttft_p50_s", "ttft_p95_s", "ttft_p99_s"):
            if slo[key] is not None:
                slo[key] = round(slo[key] + kv_mean, 9)

        # 6. training co-schedule under the budget ----------------------
        training, train_mw = self._train_schedule(s, pools, plan)

        # 7. power roll-up ----------------------------------------------
        power = self._power_rollup(s, plan, train_mw)

        return ServingReport(
            scenario=s.to_params(),
            trace=trace.to_dict(),
            pools=pools.to_dict(),
            autoscale=plan.to_dict(),
            slo=slo,
            cosim=cosim.to_dict(),
            training=training,
            power=power,
            fold=fold,
        )

    # -- stage 4: folded pool sims --------------------------------------
    def _pool_slo(self, s: ServingScenario, seer, model, parallel,
                  cost_cache, trace: RequestTrace, pools: PoolPlan,
                  plan: AutoscalePlan):
        classes: Dict[float, float] = {}
        replica_buckets = 0
        for bucket, decision in zip(trace.buckets, plan.buckets):
            replica_buckets += decision.replicas_per_pair * pools.n_pairs
            if bucket.total <= 0 or decision.per_replica_rate <= 0:
                continue
            rate_class = round(decision.per_replica_rate, 3)
            classes[rate_class] = classes.get(rate_class, 0.0) \
                + float(bucket.total)

        ttft_samples: List[Tuple[float, float]] = []
        tpot_samples: List[Tuple[float, float]] = []
        total_weight = sum(classes.values())
        completed_weight = 0.0
        good_weight = 0.0
        n_samples = 0
        peak_class = max(classes) if classes else 0.0
        kv_starts: List[float] = []

        for rate_class in sorted(classes):
            weight = classes[rate_class]
            cfg = ServingConfig(
                batch_max=s.batch_max, context_len=s.context_len,
                output_len_mean=s.output_len_mean,
                arrival_rate_per_s=rate_class,
                duration_s=s.pool_window_s,
                seed=f"{s.seed}:pool:{rate_class:.3f}")
            report = ServingSimulator(
                seer, model, parallel, cfg,
                cost_cache=cost_cache).run()
            if report.arrived > 0:
                completed_weight += weight \
                    * len(report.completed) / report.arrived
            if not report.completed:
                continue
            per_sample = weight / len(report.completed)
            good = 0
            for record in report.completed:
                ttft_samples.append((record.ttft_s, per_sample))
                tpot_samples.append((record.tpot_s, per_sample))
                if record.ttft_s <= s.slo_ttft_s:
                    good += 1
            good_weight += weight * good / report.arrived
            n_samples += len(report.completed)
            if rate_class == peak_class:
                kv_starts = sorted(
                    record.first_token_s for record in report.completed)

        slo = {
            "offered_requests": trace.total_requests,
            "n_rate_classes": len(classes),
            "n_samples": n_samples,
            "slo_ttft_s": s.slo_ttft_s,
            "ttft_p50_s": _maybe_round(
                weighted_percentile(ttft_samples, 50.0)),
            "ttft_p95_s": _maybe_round(
                weighted_percentile(ttft_samples, 95.0)),
            "ttft_p99_s": _maybe_round(
                weighted_percentile(ttft_samples, 99.0)),
            "tpot_p50_s": _maybe_round(
                weighted_percentile(tpot_samples, 50.0)),
            "tpot_p99_s": _maybe_round(
                weighted_percentile(tpot_samples, 99.0)),
            "completion_fraction": round(
                completed_weight / total_weight, 9)
            if total_weight > 0 else None,
            "goodput_fraction": round(good_weight / total_weight, 9)
            if total_weight > 0 else None,
        }
        fold = {
            "replica_buckets": replica_buckets,
            "n_pool_sims": len(classes),
            "fold_factor": round(
                replica_buckets / len(classes), 6) if classes else 0.0,
        }
        return slo, kv_starts, fold

    # -- stage 6: training under the stepped budget ---------------------
    def _train_schedule(self, s: ServingScenario, pools: PoolPlan,
                        plan: AutoscalePlan):
        if pools.train_hosts <= 0 or s.train_jobs <= 0:
            return None, [0.0] * len(plan.buckets)
        params = s.params()
        sched_params = AstralParams(
            pods=2,
            blocks_per_pod=min(2, params.blocks_per_pod),
            hosts_per_block=min(16, params.hosts_per_block),
            gpus_per_host=2,
            aggs_per_group=2, cores_per_group=2)
        topology = build_astral(sched_params)
        slice_hosts = sched_params.pods * sched_params.blocks_per_pod \
            * sched_params.hosts_per_block
        fold_scale = pools.train_hosts / slice_hosts
        cap = plan.train_host_cap(slice_hosts, scale=fold_scale)
        jobs = WorkloadGenerator(seed=f"{s.seed}:train").generate(
            s.train_jobs, max_hosts=max(1, slice_hosts // 2))
        scheduler = ClusterScheduler(
            topology, jobs, policy=SchedulingPolicy.PRIORITY,
            power_cap=cap, enforce_cap=True, seed=0)
        report = scheduler.run(until=s.duration_s)

        # Training power per bucket: hosts occupied at bucket midpoints,
        # unfolded back to the real fleet.
        train_mw: List[float] = []
        for decision in plan.buckets:
            mid = decision.t_start_s + s.bucket_s / 2.0
            hosts = 0
            for record in report.records:
                if any(start <= mid < end
                       for start, end in record.intervals):
                    hosts += record.n_hosts_requested
            train_mw.append(
                hosts * fold_scale * s.host_kw / 1000.0)

        summary = report.to_dict()
        training = {
            "slice_hosts": slice_hosts,
            "fold_scale": round(fold_scale, 9),
            "status": ", ".join(
                f"{k}={v}" for k, v in summary["status"].items()),
            "preemptions": summary["preemptions"],
            "utilization": summary["utilization"],
            "mean_queue_delay_s": summary["mean_queue_delay_s"],
            "report": summary,
        }
        return training, train_mw

    # -- stage 7: power roll-up -----------------------------------------
    def _power_rollup(self, s: ServingScenario, plan: AutoscalePlan,
                      train_mw: List[float]):
        serving_mw = [b.serving_mw for b in plan.buckets]
        total_mw = [sv + tr for sv, tr in zip(serving_mw, train_mw)]
        peak_serving = max(serving_mw, default=0.0)
        deficit = [max(0.0, peak_serving - sv) for sv in serving_mw]
        fill = [min(tr, d) for tr, d in zip(train_mw, deficit)]
        deficit_total = sum(deficit)
        contract = plan.config.contract_mw(plan.pool_plan.total_hosts)
        return {
            "contract_mw": None if contract is None
            else round(contract, 6),
            "serving_mw": [round(v, 6) for v in serving_mw],
            "training_mw": [round(v, 6) for v in train_mw],
            "total_mw": [round(v, 6) for v in total_mw],
            "flatness_cv_serving": _cv(serving_mw),
            "flatness_cv_total": _cv(total_mw),
            "trough_fill_fraction": round(
                sum(fill) / deficit_total, 9)
            if deficit_total > 0 else None,
        }


def _cv(series: Sequence[float]) -> Optional[float]:
    if not series:
        return None
    mean = sum(series) / len(series)
    if mean == 0.0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in series) / len(series)
    return round(math.sqrt(variance) / mean, 9)


def _maybe_round(value: Optional[float], digits: int = 9
                 ) -> Optional[float]:
    return None if value is None else round(value, digits)
