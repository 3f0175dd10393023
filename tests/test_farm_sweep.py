"""Sweep fan-out: grid expansion and seed matrices through the farm."""

import pytest

from repro.farm import FarmExecutor, ResultCache, grid_specs


class TestGridExpansion:
    def test_cartesian_product_with_seeds(self):
        specs = grid_specs("cluster-sweep",
                           base={"scale": "tiny", "jobs": 4},
                           grid={"policy": ["fifo", "topology"],
                                 "failure_scale": [0.0, 1.0]},
                           seeds=[0, 1, 2])
        assert len(specs) == 2 * 2 * 3
        # Base params survive into every cell.
        assert all(s.params["scale"] == "tiny" for s in specs)
        # Deterministic expansion: same document, same spec list.
        again = grid_specs("cluster-sweep",
                           base={"scale": "tiny", "jobs": 4},
                           grid={"failure_scale": [0.0, 1.0],
                                 "policy": ["fifo", "topology"]},
                           seeds=[0, 1, 2])
        assert [s.content_hash for s in specs] \
            == [s.content_hash for s in again]

    def test_base_only_yields_one_spec(self):
        specs = grid_specs("figure-bench", base={"figure": "pue"})
        assert len(specs) == 1

    def test_seed_matrix_shorthand(self):
        specs = grid_specs("monitoring-campaign",
                           base={"n_faults": 3}, seeds=[5, 6])
        assert [s.params["seed"] for s in specs] == [5, 6]

    def test_seed_collision_with_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_specs("cluster-sweep", grid={"seed": [1]}, seeds=[2])

    def test_labels_name_the_cell(self):
        specs = grid_specs("cluster-sweep",
                           grid={"policy": ["fifo"]}, seeds=[4])
        assert specs[0].label == "cluster-sweep[policy=fifo,seed=4]"


class TestSweepAggregation:
    """A report's results are the grid's cells, in grid order."""

    def test_failed_cells_stay_aligned_as_none(self):
        specs = [
            *grid_specs("farm-selftest", base={"mode": "ok"},
                        grid={"value": [1]}),
            *grid_specs("farm-selftest", base={"mode": "fail"},
                        grid={"value": [2]}),
        ]
        report = FarmExecutor().run(specs)
        assert not report.ok
        assert [result.spec for result in report.results] == specs
        assert [result.result for result in report.results] \
            == [{"value": 1, "squared": 1}, None]

    def test_rows_carry_params(self):
        specs = grid_specs("farm-selftest", base={"mode": "ok"},
                           grid={"value": [5]})
        result, = FarmExecutor().run(specs).results
        assert result.spec.params["value"] == 5 and result.ok


class TestSubsystemFanOut:
    def test_resilience_campaign_matrix(self, tmp_path):
        specs = grid_specs(
            "resilience-campaign",
            base={"scale": "tiny", "jobs": 1, "hosts_per_job": 2,
                  "iterations": 4, "compute_s": 1.0,
                  "collective_bits": 1e9, "fault_at_s": 2.0,
                  "checkpoint_interval_s": 8.0},
            seeds=[0, 1])
        report = FarmExecutor(
            workers=2, cache=ResultCache(root=tmp_path / "cache")
        ).run(specs)
        assert report.ok
        reports = [result.result for result in report.results]
        assert [r["seed"] for r in reports] == [0, 1]
        assert all("goodput_fraction" in r for r in reports)

    def test_monitoring_campaign_farm_sweep(self):
        specs = grid_specs(
            "monitoring-campaign",
            base={"n_faults": 2, "job_hosts": 4, "iterations": 3},
            seeds=[0, 1])
        report = FarmExecutor(workers=2).run(specs)
        assert report.ok
        for result in report.results:
            summary = result.result
            assert summary["n_faults"] == 2
            assert 0.0 <= summary["localization_accuracy"] <= 1.0
            assert len(summary["records"]) == 2

    def test_cluster_contention_sweep_point(self):
        """The contention flag folds the MultiJobRun replay in."""
        specs = grid_specs("cluster-sweep",
                           base={"scale": "tiny", "jobs": 6,
                                 "contention": True},
                           seeds=[0])
        result, = FarmExecutor().run(specs).results
        assert result.ok
        contention = result.result["contention"]
        assert contention  # peak tenant set is non-empty
        for outcome in contention.values():
            assert 0.0 < outcome["efficiency"] <= 1.0 + 1e-9
