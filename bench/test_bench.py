"""Checks of the benchmark itself, at toy size.

``python -m pytest bench -q`` runs every workload through the real
child processes (three untraced, one traced) on shrunken inputs.
"""

import json

import pytest

from bench import ROOT
from bench.run import EXTRA_LAYER, collect, nearest_rank, summarize
from bench.workloads import ALL_WORKLOADS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=[cls.name for cls in ALL_WORKLOADS])
def toy_run(request):
    """(name, untraced records, traced record), collected once."""
    records, traced = collect(request.param, seed=0, seconds=0.0,
                              trace=True, toy=True)
    return request.param, records, traced


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] \
        == [cls.name for cls in WORKLOADS]


def test_every_spec_metric_is_emitted_with_its_unit(toy_run):
    name, records, traced = toy_run
    for mode, section, more in ((None, "end_to_end", {}),
                                (traced, "per_layer",
                                 dict(EXTRA_LAYER.get(name, ())))):
        result = summarize(name, 0, records, mode, golden={})
        emitted = {metric: entry["unit"]
                   for metric, entry in result["metrics"].items()}
        assert emitted == {**{m["name"]: m["unit"] for m in SPEC[section]},
                           **more}
        assert result["correct"], result


def test_traced_digest_equals_untraced(toy_run):
    _, records, traced = toy_run
    (traced_pass,) = traced["passes"]
    assert traced_pass["digest"]
    assert {p["digest"] for record in records
            for p in record["passes"]} == {traced_pass["digest"]}


def test_corrupted_golden_entry_raises_error_rate(toy_run):
    name, records, _ = toy_run
    good = summarize(name, 0, records, None,
                     golden={"0": records[0]["passes"][0]["digest"]})
    bad = summarize(name, 0, records, None, golden={"0": "0" * 64})
    assert good["error_rate"] == 0.0 and good["correct"]
    assert bad["error_rate"] > 0.0 and not bad["correct"]


def test_nearest_rank_leaves_ten_samples_beyond():
    values = list(range(1, 501))
    assert nearest_rank(values, 98) == 490        # 491..500 lie beyond
    assert nearest_rank(values, 50) == 250
    with pytest.raises(ValueError):
        nearest_rank(values[:499], 98)
    assert nearest_rank(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        nearest_rank(list(range(99)), 90)
