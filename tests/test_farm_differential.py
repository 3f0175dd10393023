"""The farm's hard correctness bar: parallel == serial, bit for bit.

Every registered task kind runs the same spec list through
``workers=1`` and ``workers=2`` with the cache disabled, and the two
reports must agree on the canonical-JSON identity of every result —
not approximately, *exactly*.  This is what makes ``--workers N`` a
pure wall-clock knob: the simulators thread explicit seeds everywhere
(PR 3/PR 4), and the executor adds no ambient state of its own.
"""

import pytest

from repro.farm import FarmExecutor, ResultCache, TaskSpec, grid_specs


def _both_ways(tmp_path, specs):
    serial = FarmExecutor(
        workers=1, use_cache=False,
        cache=ResultCache(root=tmp_path / "serial-cache")).run(specs)
    parallel = FarmExecutor(
        workers=2, use_cache=False,
        cache=ResultCache(root=tmp_path / "parallel-cache")).run(specs)
    assert serial.ok, serial.failures and serial.failures[0].error
    assert parallel.ok, \
        parallel.failures and parallel.failures[0].error
    return serial, parallel


class TestParallelSerialBitEquality:
    def test_validation_cases(self, tmp_path):
        specs = [
            TaskSpec("validation-case",
                     {"seed": 7, "index": index, "fast": True})
            for index in range(6)   # one case per oracle profile
        ]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_resilience_campaigns(self, tmp_path):
        specs = [
            TaskSpec("resilience-campaign",
                     {"scale": "tiny", "seed": seed, "jobs": 1,
                      "hosts_per_job": 2, "iterations": 6,
                      "compute_s": 1.0, "collective_bits": 1e9,
                      "faults": 1, "fault_at_s": 2.0,
                      "checkpoint_interval_s": 4.0})
            for seed in (0, 1)
        ]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_cluster_sweeps(self, tmp_path):
        specs = grid_specs(
            "cluster-sweep",
            base={"scale": "tiny", "jobs": 8},
            grid={"policy": ["fifo", "topology"]}, seeds=[0])
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_monitoring_campaign(self, tmp_path):
        specs = [TaskSpec("monitoring-campaign",
                          {"seed": seed, "n_faults": 2,
                           "job_hosts": 4, "iterations": 3})
                 for seed in (0, 1)]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_seer_and_figures(self, tmp_path):
        specs = [
            TaskSpec("seer-forecast",
                     {"model": "LLAMA3_70B", "tp": 8, "pp": 4,
                      "dp": 2}),
            TaskSpec("figure-bench", {"figure": "pue"}),
            TaskSpec("figure-bench",
                     {"figure": "taxonomy", "count": 200, "seed": 3}),
            TaskSpec("figure-bench", {"figure": "goodput"}),
        ]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_hierarchy_runs(self, tmp_path):
        dims = {"pods": 2, "blocks_per_pod": 2, "hosts_per_block": 4,
                "gpus_per_host": 2, "aggs_per_group": 2,
                "cores_per_group": 2}
        specs = [
            TaskSpec("hierarchy-run",
                     {"dims": dims, "hosts_per_job": 4,
                      "iterations": 3, "seed": 0}),
            TaskSpec("hierarchy-run",
                     {"dims": dims, "hosts_per_job": 4,
                      "iterations": 3, "seed": 0, "faults": 1}),
            TaskSpec("hierarchy-run",
                     {"dims": dims, "hosts_per_job": 4,
                      "iterations": 3, "seed": 0,
                      "power_caps": {"1": 0.8}}),
        ]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()

    def test_mixed_kind_batch(self, tmp_path):
        """Kinds interleaved in one pool share workers without bleed."""
        specs = [
            TaskSpec("validation-case",
                     {"seed": 11, "index": 0, "fast": True}),
            TaskSpec("figure-bench", {"figure": "overhead"}),
            TaskSpec("cluster-sweep",
                     {"scale": "tiny", "jobs": 5, "seed": 2}),
            TaskSpec("validation-case",
                     {"seed": 11, "index": 3, "fast": True}),
            TaskSpec("seer-forecast", {"model": "GPT3_175B"}),
        ]
        serial, parallel = _both_ways(tmp_path, specs)
        assert serial.identity() == parallel.identity()


class TestValidateCampaignEquality:
    def test_run_campaign_workers_matches_serial_report(self, tmp_path):
        """The ``repro validate --workers N`` path, end to end."""
        from repro.validation import run_campaign
        serial = run_campaign(7, 6, fast=True)
        parallel = run_campaign(7, 6, fast=True, workers=2,
                                cache_dir=str(tmp_path / "cache"),
                                use_cache=True)
        serial_dict = serial.to_dict()
        parallel_dict = parallel.to_dict()
        for report in (serial_dict, parallel_dict):
            report.pop("farm")           # execution metadata only
        assert parallel_dict == serial_dict

    def test_cached_rerun_matches_too(self, tmp_path):
        from repro.validation import run_campaign
        kwargs = dict(fast=True, workers=2, use_cache=True,
                      cache_dir=str(tmp_path / "cache"))
        cold = run_campaign(7, 6, **kwargs)
        warm = run_campaign(7, 6, **kwargs)
        assert warm.farm.n_executed == 0
        assert warm.farm.n_cached == 6
        cold_dict, warm_dict = cold.to_dict(), warm.to_dict()
        cold_dict.pop("farm")
        warm_dict.pop("farm")
        assert warm_dict == cold_dict


class TestDeterministicReplay:
    @pytest.mark.parametrize("kind,params", [
        ("validation-case", {"seed": 23, "index": 2, "fast": True}),
        ("cluster-sweep", {"scale": "tiny", "jobs": 6, "seed": 9}),
        ("figure-bench", {"figure": "taxonomy", "count": 100,
                          "seed": 1}),
    ])
    def test_same_spec_same_bits_across_processes(self, tmp_path, kind,
                                                  params):
        """One spec, run twice in different worker processes."""
        from repro.farm import canonical_json
        spec = TaskSpec(kind, params)
        first = FarmExecutor(
            workers=2, use_cache=False,
            cache=ResultCache(root=tmp_path / "a")).run([spec])
        second = FarmExecutor(
            workers=2, use_cache=False,
            cache=ResultCache(root=tmp_path / "b")).run([spec])
        assert canonical_json(first.results[0].result) \
            == canonical_json(second.results[0].result)
