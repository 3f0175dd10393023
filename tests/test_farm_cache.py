"""Content-addressed result cache: hits, misses, invalidation rules."""

import json

import pytest

from repro.farm import (FarmExecutor, ResultCache, TaskSpec,
                        code_fingerprint)

OK_SPEC = TaskSpec("farm-selftest", {"mode": "ok", "value": 7})


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


class TestCacheKeying:
    def test_miss_then_hit_on_identical_spec(self, cache):
        assert cache.get(OK_SPEC) is None
        cache.put(OK_SPEC, {"value": 7, "squared": 49}, elapsed_s=0.1)
        entry = cache.get(OK_SPEC)
        assert entry["result"] == {"value": 7, "squared": 49}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_any_spec_field_change_misses(self, cache):
        cache.put(OK_SPEC, {"value": 7})
        assert cache.get(
            TaskSpec("farm-selftest", {"mode": "ok", "value": 8})) \
            is None

    def test_code_fingerprint_change_misses(self, tmp_path):
        root = tmp_path / "cache"
        live = ResultCache(root=root)
        live.put(OK_SPEC, {"value": 7})
        assert live.get(OK_SPEC) is not None
        # Same spec, different code generation: a guaranteed miss.
        other = ResultCache(root=root, fingerprint="0" * 64)
        assert other.get(OK_SPEC) is None
        assert other.entry_path(OK_SPEC) != live.entry_path(OK_SPEC)

    def test_live_fingerprint_covers_every_source_file(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        # Stable within a process.
        assert fingerprint == code_fingerprint()


class TestCacheDurability:
    def test_corrupt_entry_reads_as_miss(self, cache):
        cache.put(OK_SPEC, {"value": 7})
        path = cache.entry_path(OK_SPEC)
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.get(OK_SPEC) is None

    def test_wrong_hash_inside_entry_reads_as_miss(self, cache):
        cache.put(OK_SPEC, {"value": 7})
        path = cache.entry_path(OK_SPEC)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["spec_hash"] = "f" * 64
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(OK_SPEC) is None

    def test_entries_are_self_describing(self, cache):
        cache.put(OK_SPEC, {"value": 7}, elapsed_s=0.5)
        entry = json.loads(cache.entry_path(OK_SPEC).read_text(
            encoding="utf-8"))
        assert entry["spec"] == OK_SPEC.to_dict()
        assert entry["elapsed_s"] == 0.5

    def test_clear_removes_current_generation(self, cache):
        cache.put(OK_SPEC, {"value": 7})
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_clear_leaves_no_directory_behind(self, tmp_path):
        root = tmp_path / "cache"
        current = ResultCache(root=root, fingerprint="a" * 64)
        stale = ResultCache(root=root, fingerprint="b" * 64)
        current.put(OK_SPEC, {"value": 7})
        current.put(TaskSpec("farm-selftest", {"mode": "ok", "value": 8}),
                    {"value": 8})
        stale.put(OK_SPEC, {"value": 7})
        assert current.clear() == 2
        # The generation directory goes with its entries; other
        # generations stay.
        assert sorted(p.name for p in root.iterdir()) == ["b" * 16]
        assert len(stale) == 1
        assert current.clear() == 0


class TestExecutorIntegration:
    def test_warm_rerun_executes_zero_tasks(self, cache):
        specs = [TaskSpec("farm-selftest", {"mode": "ok", "value": v})
                 for v in range(4)]
        cold = FarmExecutor(workers=1, cache=cache).run(specs)
        assert cold.n_executed == 4 and cold.n_cached == 0
        warm_cache = ResultCache(root=cache.root)
        warm = FarmExecutor(workers=1, cache=warm_cache).run(specs)
        assert warm.n_executed == 0 and warm.n_cached == 4
        assert warm_cache.stats.hits == 4
        assert warm.identity() == cold.identity()

    def test_no_cache_bypasses_reads_but_still_warms(self, cache):
        specs = [TaskSpec("farm-selftest", {"mode": "ok", "value": 1})]
        FarmExecutor(workers=1, use_cache=False, cache=cache).run(specs)
        # The run above never read, but it wrote.
        fresh = ResultCache(root=cache.root)
        assert fresh.get(specs[0]) is not None

    def test_failed_tasks_are_never_cached(self, cache):
        spec = TaskSpec("farm-selftest", {"mode": "fail"})
        report = FarmExecutor(workers=1, cache=cache).run([spec])
        assert report.results[0].status == "error"
        assert ResultCache(root=cache.root).get(spec) is None


class TestNothingCachedUnlessNamed:
    """Only a named cache is written: the CLI task route, a validation
    campaign and a bare executor leave ``$REPRO_FARM_CACHE`` untouched,
    while ``repro farm`` names the default cache, with or without
    ``--no-cache``."""

    def test_default_cache_is_written_only_by_repro_farm(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import _run_task, main
        from repro.validation import run_campaign
        root = tmp_path / "default-cache"
        monkeypatch.setenv("REPRO_FARM_CACHE", str(root))

        def untouched():
            return not root.exists() or not any(root.iterdir())

        specs = [TaskSpec("farm-selftest", {"mode": "ok", "value": v})
                 for v in range(3)]
        assert _run_task("farm-selftest", {"mode": "ok", "value": 3},
                         workers=2) == {"value": 3, "squared": 9}
        assert untouched()
        assert len(run_campaign(0, 2, fast=True, workers=2).cases) == 2
        assert untouched()
        assert FarmExecutor(workers=2).run(specs).ok
        assert untouched()

        specfile = tmp_path / "specs.json"
        specfile.write_text(json.dumps(
            {"tasks": [spec.to_dict() for spec in specs]}))
        assert main(["farm", str(specfile), "--no-cache"]) == 0
        assert len(ResultCache()) == 3
        assert ResultCache().clear() == 3
        assert main(["farm", str(specfile)]) == 0
        assert len(ResultCache()) == 3
