"""TaskSpec canonicalisation, content hashing, and the kind registry."""

import json

import pytest

from repro.farm import (TaskSpec, UnknownTaskKind, canonical_json,
                        execute_spec, specs_from_document, task_kind,
                        task_kinds)


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) \
            == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestContentHash:
    def test_stable_across_param_insertion_order(self):
        one = TaskSpec("farm-selftest", {"mode": "ok", "value": 1})
        two = TaskSpec("farm-selftest", {"value": 1, "mode": "ok"})
        assert one.content_hash == two.content_hash

    def test_any_param_change_changes_hash(self):
        base = TaskSpec("validation-case",
                        {"seed": 7, "index": 0, "fast": True})
        for mutated in (
            TaskSpec("validation-case",
                     {"seed": 8, "index": 0, "fast": True}),
            TaskSpec("validation-case",
                     {"seed": 7, "index": 1, "fast": True}),
            TaskSpec("validation-case",
                     {"seed": 7, "index": 0, "fast": False}),
            TaskSpec("validation-case",
                     {"seed": 7, "index": 0, "fast": True,
                      "extra": None}),
        ):
            assert mutated.content_hash != base.content_hash

    def test_kind_is_part_of_identity(self):
        params = {"seed": 0}
        assert TaskSpec("cluster-sweep", params).content_hash \
            != TaskSpec("monitoring-campaign", params).content_hash

    def test_label_is_not_part_of_identity(self):
        assert TaskSpec("farm-selftest", {"mode": "ok"},
                        label="a").content_hash \
            == TaskSpec("farm-selftest", {"mode": "ok"},
                        label="b").content_hash

    def test_runner_version_is_folded_in(self):
        spec = TaskSpec("farm-selftest", {"mode": "ok"})
        assert f'"version":{task_kind("farm-selftest").version}' \
            in spec.canonical()

    def test_seed_material_is_deterministic_int(self):
        spec = TaskSpec("farm-selftest", {"mode": "ok"})
        assert spec.seed_material == spec.seed_material
        assert isinstance(spec.seed_material, int)

    def test_hierarchy_run_hash_covers_every_knob(self):
        base = {"scale": "4k", "hosts_per_job": 64, "seed": 0,
                "faults": 0, "power_caps": {}}
        seen = {TaskSpec("hierarchy-run", base).content_hash}
        for mutation in (
            {"scale": "64k"},
            {"hosts_per_job": 32},
            {"seed": 1},
            {"faults": 1},
            {"power_caps": {"1": 0.8}},
            {"tail_shapes": 2},
            {"dims": {"pods": 2, "blocks_per_pod": 1,
                      "hosts_per_block": 4}},
        ):
            mutated = TaskSpec("hierarchy-run", {**base, **mutation})
            assert mutated.content_hash not in seen, mutation
            seen.add(mutated.content_hash)


class TestRegistry:
    def test_all_runnable_units_are_registered(self):
        # The tentpole contract: every runnable unit of the repo has a
        # spec-addressable kind.
        assert set(task_kinds()) >= {
            "validation-case", "resilience-campaign",
            "monitoring-campaign", "cluster-sweep", "seer-forecast",
            "figure-bench", "hierarchy-run",
        }

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownTaskKind):
            TaskSpec("no-such-kind", {}).content_hash

    def test_execute_spec_returns_json_able_result(self):
        result = execute_spec(TaskSpec("figure-bench",
                                       {"figure": "pue"}))
        json.dumps(result)
        assert result["figure"] == "pue"
        assert result["series"]

    @pytest.mark.parametrize("model", ["Seer", "ParallelismConfig",
                                       "nope", "llama3-70b"])
    def test_seer_forecast_refuses_what_is_not_a_model(self, model):
        # A spec document names the model: only the table's config
        # names reach the forecaster, anything else fails up front.
        with pytest.raises(ValueError, match="choose from .*GPT3_175B"):
            execute_spec(TaskSpec("seer-forecast", {"model": model}))

    def test_taxonomy_keeps_most_common_order_with_ties(self):
        # The default campaign ties fail-slow and fail-hang at 146:
        # most_common() keeps them in first-seen order, and the list
        # survives the cache's sorted-key JSON where a dict would not.
        result = execute_spec(TaskSpec("figure-bench",
                                       {"figure": "taxonomy"}))
        counts = json.loads(canonical_json(result))["manifestations"]
        assert counts == [["fail-stop", 646], ["fail-slow", 146],
                          ["fail-hang", 146], ["fail-on-start", 62]]


class TestRoundTrip:
    def test_spec_json_round_trip(self):
        spec = TaskSpec("cluster-sweep",
                        {"scale": "tiny", "seed": 3}, label="x")
        clone = TaskSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash == spec.content_hash


class TestSpecDocument:
    def test_tasks_and_sweep_combine(self):
        specs = specs_from_document({
            "tasks": [{"kind": "figure-bench",
                       "params": {"figure": "pue"}}],
            "sweep": {"kind": "cluster-sweep",
                      "base": {"scale": "tiny"},
                      "grid": {"policy": ["fifo", "topology"]},
                      "seeds": [0, 1]},
        })
        assert len(specs) == 1 + 4
        assert specs[0].kind == "figure-bench"
        assert {s.params["policy"] for s in specs[1:]} \
            == {"fifo", "topology"}

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            specs_from_document({})


class TestPerSpecTimeout:
    def test_timeout_is_not_part_of_identity(self):
        params = {"scale": "tiny", "seed": 3}
        assert TaskSpec("cluster-sweep", params).content_hash \
            == TaskSpec("cluster-sweep", params,
                        timeout_s=1.5).content_hash

    def test_timeout_round_trips(self):
        spec = TaskSpec("cluster-sweep", {"scale": "tiny", "seed": 3},
                        timeout_s=2.5)
        clone = TaskSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.timeout_s == 2.5
        assert clone.content_hash == spec.content_hash
