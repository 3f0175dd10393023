"""Tests for the diurnal serving pipeline (``repro.serving``).

The determinism battery here matches the PR-5 hard bar: same-seed
replay compares full reports with ``==``, the farm identity test runs
``serving-run`` specs through ``workers=1`` and ``workers=2`` and
demands canonical-JSON equality, and the metamorphic trio (rate
doubling, zero arrival, power-cap identity) is asserted directly on
the library — the validation profile fuzzes the same oracles over
sampled scenarios.
"""

import pytest

from repro.cluster import ScheduleHostCap
from repro.cluster.scheduler import ClusterScheduler, SchedulingPolicy
from repro.cluster.workload import JobSpec
from repro.farm import FarmExecutor, ResultCache, TaskSpec, \
    canonical_json
from repro.serving import (
    RequestTrace,
    ServingRun,
    ServingScenario,
    TraceConfig,
    place_slice,
    plan_pools,
    slice_params,
    weighted_percentile,
)
from repro.topology import AstralParams, build_astral

#: A seconds-scale scenario: full pipeline, tiny dimensions.
TINY = dict(
    preset=None,
    dims={"pods": 2, "blocks_per_pod": 1, "hosts_per_block": 4,
          "gpus_per_host": 2, "aggs_per_group": 2,
          "cores_per_group": 2},
    duration_s=3600.0, bucket_s=900.0, users_m_scale=0.001,
    batch_max=4, output_len_mean=32,
    prefill_hosts_per_pair=1, decode_hosts_per_pair=2,
    replica_hosts=1, pool_window_s=20.0, train_jobs=4,
    cosim_iterations=2, max_kv_flows=8,
    slice_prefill_hosts=1, slice_decode_hosts=2, slice_train_hosts=2,
)


def _tiny(**overrides) -> ServingScenario:
    return ServingScenario(**dict(TINY, **overrides))


class TestTrace:
    def test_deterministic_and_diurnal(self):
        config = TraceConfig(seed=3)
        a = RequestTrace.generate(config)
        b = RequestTrace.generate(config)
        assert a.to_dict() == b.to_dict()
        # Interleaved regional peaks still leave a real tide.
        assert a.peak_rate_per_s > a.trough_rate_per_s > 0

    def test_seed_changes_counts_not_shape(self):
        a = RequestTrace.generate(TraceConfig(seed=1))
        b = RequestTrace.generate(TraceConfig(seed=2))
        assert len(a.buckets) == len(b.buckets)
        assert a.to_dict() != b.to_dict()


class TestPools:
    def test_plan_partitions_the_cluster(self):
        params = AstralParams(pods=2, blocks_per_pod=1,
                              hosts_per_block=8, gpus_per_host=2,
                              aggs_per_group=2, cores_per_group=2)
        plan = plan_pools(params, replica_hosts=1)
        assert plan.n_pairs == 1
        assert plan.train_hosts + plan.n_pairs * (
            plan.prefill_hosts_per_pair
            + plan.decode_hosts_per_pair) == plan.total_hosts
        assert plan.max_replicas_per_pair >= 1

    def test_single_pod_cluster_rejected(self):
        params = AstralParams(pods=1, blocks_per_pod=1,
                              hosts_per_block=4, gpus_per_host=2,
                              aggs_per_group=2, cores_per_group=2)
        with pytest.raises(ValueError):
            plan_pools(params)

    def test_slice_placement_separates_pods(self):
        params = AstralParams(pods=2, blocks_per_pod=1,
                              hosts_per_block=8, gpus_per_host=2,
                              aggs_per_group=2, cores_per_group=2)
        placement = place_slice(slice_params(params),
                                prefill_hosts=2, decode_hosts=4,
                                train_hosts=8)
        prefill_pods = {h.split(".")[0]
                        for h in placement.prefill_hosts}
        decode_pods = {h.split(".")[0] for h in placement.decode_hosts}
        # Disaggregation: prefill and decode pools on different pods,
        # so every KV transfer crosses the Agg/Core tiers.
        assert prefill_pods == {"p0"}
        assert decode_pods == {"p1"}
        assert len(placement.train_hosts) == 8


class TestScheduleHostCap:
    def test_lookup_and_boundaries(self):
        cap = ScheduleHostCap.from_series(
            total_hosts=16,
            times_s=(0.0, 100.0, 200.0, 300.0),
            allowed=(16, 8, 8, 12))
        assert cap.hosts_allowed(0.0) == 16
        assert cap.hosts_allowed(99.9) == 16
        assert cap.hosts_allowed(100.0) == 8
        assert cap.hosts_allowed(250.0) == 8
        assert cap.hosts_allowed(1e9) == 12
        # Only value *changes* plant events: 200.0 repeats 8.
        assert cap.boundaries(400.0) == [100.0, 300.0]

    def test_flat_schedule_has_no_boundaries(self):
        cap = ScheduleHostCap.from_series(
            total_hosts=8, times_s=(0.0, 50.0), allowed=(8, 8))
        assert cap.boundaries(1000.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleHostCap.from_series(total_hosts=4,
                                        times_s=(10.0,), allowed=(4,))
        with pytest.raises(ValueError):
            ScheduleHostCap.from_series(total_hosts=4,
                                        times_s=(0.0,), allowed=(5,))


class TestCapEnforcement:
    def _topology(self):
        return build_astral(AstralParams(
            pods=2, blocks_per_pod=1, hosts_per_block=4,
            gpus_per_host=2, aggs_per_group=2, cores_per_group=2))

    def test_tightening_cap_preempts_to_fit(self):
        # Four 2-host jobs fill all 8 hosts; at t=100 the cap drops
        # to 4 hosts, so two jobs must be preempted and finish late.
        jobs = [JobSpec(name=f"job-{i}", submit_s=0.0, n_hosts=2,
                        duration_s=500.0, priority=i % 2)
                for i in range(4)]
        cap = ScheduleHostCap.from_series(
            total_hosts=8, times_s=(0.0, 100.0, 700.0),
            allowed=(8, 4, 8))
        scheduler = ClusterScheduler(
            self._topology(), jobs,
            policy=SchedulingPolicy.PRIORITY,
            power_cap=cap, enforce_cap=True, seed=0)
        report = scheduler.run(until=5000.0)
        summary = report.to_dict()
        assert summary["preemptions"] >= 2
        assert summary["status"].get("completed", 0) == 4
        # While the cap held, in-use hosts never exceeded it.
        for mid in (150.0, 400.0, 650.0):
            in_use = sum(
                record.n_hosts_requested
                for record in report.records
                if any(start <= mid < end
                       for start, end in record.intervals))
            assert in_use <= 4

    def test_never_binding_cap_is_identity(self):
        jobs = [JobSpec(name=f"job-{i}", submit_s=i * 10.0, n_hosts=2,
                        duration_s=300.0) for i in range(4)]
        flat = ScheduleHostCap.from_series(
            total_hosts=8, times_s=(0.0,), allowed=(8,))

        def _fingerprint(cap):
            scheduler = ClusterScheduler(
                self._topology(), list(jobs),
                policy=SchedulingPolicy.PRIORITY,
                power_cap=cap, enforce_cap=cap is not None, seed=0)
            return scheduler.run(until=5000.0).to_dict()

        assert _fingerprint(flat) == _fingerprint(None)


class TestWeightedPercentile:
    def test_nearest_rank_semantics(self):
        samples = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)]
        assert weighted_percentile(samples, 50.0) == 2.0
        assert weighted_percentile(samples, 100.0) == 3.0
        assert weighted_percentile([], 50.0) is None

    def test_weights_shift_the_rank(self):
        light = [(1.0, 1.0), (10.0, 1.0)]
        heavy = [(1.0, 1.0), (10.0, 9.0)]
        assert weighted_percentile(light, 50.0) == 1.0
        assert weighted_percentile(heavy, 50.0) == 10.0


class TestServingRunDeterminism:
    def test_same_seed_replay_is_bit_identical(self):
        a = ServingRun(_tiny()).run().to_dict()
        b = ServingRun(_tiny()).run().to_dict()
        assert a == b

    def test_seed_matters(self):
        a = ServingRun(_tiny(seed=1)).run()
        b = ServingRun(_tiny(seed=2)).run()
        assert a.trace != b.trace

    def test_report_is_json_pure(self):
        import json
        payload = ServingRun(_tiny()).run().to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestModelNames:
    """A scenario names its model through ``repro.seer.names``, the
    one model table: a name outside it is refused where it comes in
    (the twin's front door answers it with a 400, see
    ``tests/test_twin.py``)."""

    def test_unknown_model_is_a_value_error_listing_the_choices(self):
        with pytest.raises(ValueError, match="unknown model 'Seer'.*"
                                             "HUNYUAN_MOE"):
            _tiny(model="Seer")
        with pytest.raises(ValueError, match="unknown model"):
            ServingScenario.from_params(dict(_tiny().to_params(),
                                             model="hunyuan-moe"))

    def test_every_model_name_builds_a_scenario(self):
        from repro.seer.names import MODEL_NAMES, model_config
        for attr in MODEL_NAMES.values():
            assert _tiny(model=attr).model == attr
            assert model_config(attr).name


class TestServingMetamorphic:
    def test_zero_arrival_is_fabric_noop(self):
        report = ServingRun(_tiny(users_m_scale=0.0)).run()
        assert report.trace["total_requests"] == 0
        assert report.cosim["n_kv_flows"] == 0
        assert report.cosim["iteration_s"] \
            == report.cosim["clean_iteration_s"]
        assert report.slo["n_samples"] == 0

    def test_full_contract_cap_equals_uncapped(self):
        capped = ServingRun(_tiny(power_cap_frac=1.0)).run()
        uncapped = ServingRun(_tiny(power_cap_frac=None)).run()
        assert capped.fingerprint() == uncapped.fingerprint()

    def test_binding_contract_shrinks_train_budget(self):
        plan = ServingRun(_tiny(power_cap_frac=0.5)).run().autoscale
        pools = ServingRun(_tiny()).run().pools
        assert any(b["train_hosts_allowed"] < pools["train_hosts"]
                   for b in plan["buckets"])


class TestServingFarmIdentity:
    def test_workers_1_vs_2_bit_identical(self, tmp_path):
        """The PR-5 hard bar, applied to the ``serving-run`` kind."""
        specs = [
            TaskSpec("serving-run",
                     {"scenario": _tiny(seed=seed).to_params()},
                     label=f"serve[{seed}]")
            for seed in (0, 1)
        ]
        serial = FarmExecutor(
            workers=1, use_cache=False,
            cache=ResultCache(root=tmp_path / "serial")).run(specs)
        parallel = FarmExecutor(
            workers=2, use_cache=False,
            cache=ResultCache(root=tmp_path / "parallel")).run(specs)
        assert serial.ok, serial.failures and serial.failures[0].error
        assert parallel.ok, \
            parallel.failures and parallel.failures[0].error
        assert serial.identity() == parallel.identity()

    def test_cached_rerun_executes_nothing(self, tmp_path):
        spec = TaskSpec("serving-run",
                        {"scenario": _tiny().to_params()})
        cache = ResultCache(root=tmp_path / "cache")
        cold = FarmExecutor(workers=1, use_cache=True,
                            cache=cache).run([spec])
        warm = FarmExecutor(workers=1, use_cache=True,
                            cache=cache).run([spec])
        assert cold.n_executed == 1
        assert warm.n_executed == 0
        assert warm.n_cached == 1
        assert canonical_json(cold.results[0].result) \
            == canonical_json(warm.results[0].result)


class TestServingValidationProfile:
    def test_sampled_cases_pass_the_battery(self):
        from repro.validation.runner import run_case
        from repro.validation.scenarios import PROFILES
        offset = PROFILES.index("serving")
        for step in range(2):
            report = run_case(5, offset + step * len(PROFILES),
                              fast=True)
            assert report.profile == "serving"
            assert report.ok, report.violations

    def test_spec_round_trips_through_json(self):
        from repro.validation.scenarios import (ScenarioGenerator,
                                                ScenarioSpec)
        from repro.validation.scenarios import PROFILES
        spec = ScenarioGenerator(9).spec(PROFILES.index("serving"))
        assert spec.profile == "serving"
        assert spec.serving is not None
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.serving == spec.serving
