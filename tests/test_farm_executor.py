"""Executor failure paths: crash isolation, timeouts, bounded retry.

The ``farm-selftest`` task kind gives the executor controllable
adversaries — a task that hard-kills its worker (``os._exit``), one
that hangs past the budget, one that raises, one that crashes exactly
N times then succeeds — so every isolation guarantee is exercised with
a real process pool, not mocks.
"""

import pytest

from repro.farm import FarmExecutor, ResultCache, TaskSpec


def _executor(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(root=tmp_path / "cache"))
    return FarmExecutor(**kwargs)


def _ok(value):
    return TaskSpec("farm-selftest", {"mode": "ok", "value": value})


class TestHappyPath:
    def test_serial_runs_in_submission_order(self, tmp_path):
        seen = []
        executor = _executor(
            tmp_path, workers=1,
            progress=lambda result, done, total:
                seen.append((result.spec.params["value"], done, total)))
        report = executor.run([_ok(1), _ok(2), _ok(3)])
        assert report.ok
        assert [r.result["squared"] for r in report.results] == [1, 4, 9]
        assert seen == [(1, 1, 3), (2, 2, 3), (3, 3, 3)]

    def test_parallel_report_is_in_submission_order(self, tmp_path):
        report = _executor(tmp_path, workers=2).run(
            [_ok(v) for v in range(6)])
        assert report.ok
        assert [r.result["value"] for r in report.results] \
            == list(range(6))
        assert report.workers == 2

    def test_throughput_and_wall_are_populated(self, tmp_path):
        report = _executor(tmp_path, workers=1).run([_ok(1), _ok(2)])
        assert report.wall_s > 0
        assert report.throughput > 0

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            _executor(tmp_path, workers=0)


class TestCrashIsolation:
    def test_dying_worker_fails_its_task_not_the_sweep(self, tmp_path):
        specs = [_ok(1),
                 TaskSpec("farm-selftest", {"mode": "crash"}),
                 _ok(2), _ok(3), _ok(4)]
        report = _executor(tmp_path, workers=2, max_retries=1).run(specs)
        by_value = {r.spec.params.get("value"): r
                    for r in report.results}
        crash = next(r for r in report.results
                     if r.spec.params["mode"] == "crash")
        assert crash.status == "crashed"
        assert "retry budget" in crash.error
        # Every innocent sibling still completed OK.
        for value in (1, 2, 3, 4):
            assert by_value[value].status == "ok", by_value[value]

    def test_crash_retry_budget_is_bounded(self, tmp_path):
        spec = TaskSpec("farm-selftest", {"mode": "crash"})
        report = _executor(tmp_path, workers=2, max_retries=0).run(
            [spec])
        assert report.results[0].status == "crashed"

    def test_flaky_task_recovers_within_budget(self, tmp_path):
        marker = tmp_path / "flaky-marker"
        spec = TaskSpec("farm-selftest",
                        {"mode": "flaky", "marker": str(marker),
                         "crashes": 1, "value": 5})
        report = _executor(tmp_path, workers=2, max_retries=2).run(
            [spec])
        result = report.results[0]
        assert result.status == "ok"
        assert result.result["value"] == 5
        assert result.attempts >= 2


class TestTimeouts:
    def test_hung_task_times_out_in_pool(self, tmp_path):
        specs = [TaskSpec("farm-selftest",
                          {"mode": "hang", "sleep_s": 30.0}),
                 _ok(1)]
        report = _executor(tmp_path, workers=2, timeout_s=0.5).run(specs)
        hang, ok = report.results
        assert hang.status == "timeout"
        assert "exceeded" in hang.error
        assert ok.status == "ok"

    def test_hung_task_times_out_serially(self, tmp_path):
        report = _executor(tmp_path, workers=1, timeout_s=0.5).run(
            [TaskSpec("farm-selftest",
                      {"mode": "hang", "sleep_s": 30.0})])
        assert report.results[0].status == "timeout"

    def test_timeouts_are_not_cached(self, tmp_path):
        spec = TaskSpec("farm-selftest",
                        {"mode": "hang", "sleep_s": 30.0})
        cache = ResultCache(root=tmp_path / "cache")
        FarmExecutor(workers=1, timeout_s=0.5, cache=cache).run([spec])
        assert ResultCache(root=tmp_path / "cache").get(spec) is None


class TestErrors:
    def test_clean_exception_is_error_not_retry(self, tmp_path):
        spec = TaskSpec("farm-selftest", {"mode": "fail", "value": 3})
        report = _executor(tmp_path, workers=2, max_retries=3).run(
            [spec])
        result = report.results[0]
        assert result.status == "error"
        assert "RuntimeError" in result.error
        # Deterministic failures are not retried.
        assert result.attempts == 1

    def test_report_exit_flags(self, tmp_path):
        report = _executor(tmp_path, workers=1).run(
            [_ok(1), TaskSpec("farm-selftest", {"mode": "fail"})])
        assert not report.ok
        assert report.n_ok == 1
        assert len(report.failures) == 1
        data = report.to_dict()
        assert data["n_tasks"] == 2 and data["ok"] is False


class TestRetryBackoff:
    def test_delay_is_deterministic_per_task_and_ordinal(self, tmp_path):
        executor = _executor(tmp_path)
        spec = _ok(1)
        assert executor._retry_delay_s(spec, 1) \
            == executor._retry_delay_s(spec, 1)
        # Distinct tasks and distinct crash ordinals spread out.
        assert executor._retry_delay_s(spec, 1) \
            != executor._retry_delay_s(_ok(2), 1)
        assert executor._retry_delay_s(spec, 1) \
            != executor._retry_delay_s(spec, 2)

    def test_base_doubles_then_caps_and_jitter_is_bounded(self, tmp_path):
        # RETRY_BACKOFF_S = 0.1 s doubles up to RETRY_BACKOFF_CAP_S = 5 s.
        executor = _executor(tmp_path)
        spec = _ok(7)
        for crash_count, base in [(1, 0.1), (2, 0.2), (3, 0.4),
                                  (6, 3.2), (7, 5.0), (9, 5.0)]:
            delay = executor._retry_delay_s(spec, crash_count)
            assert 0.5 * base <= delay < 1.5 * base

    def test_crashing_task_still_recovers_with_backoff(self, tmp_path):
        # End-to-end: backoff delays between quarantine retries do not
        # change the outcome, only the pacing.
        marker = tmp_path / "flaky-marker"
        spec = TaskSpec("farm-selftest",
                        {"mode": "flaky", "crashes": 1,
                         "marker": str(marker), "value": 9})
        report = _executor(tmp_path, workers=2, max_retries=2).run([spec])
        result = report.results[0]
        assert result.status == "ok" and result.attempts >= 2


class TestPerSpecTimeout:
    def test_spec_budget_overrides_the_generic_one(self, tmp_path):
        specs = [TaskSpec("farm-selftest",
                          {"mode": "hang", "sleep_s": 30.0},
                          timeout_s=0.5),
                 _ok(1)]
        report = _executor(tmp_path, workers=2, timeout_s=30.0).run(specs)
        hang, ok = report.results
        assert hang.status == "timeout"
        assert ok.status == "ok"

    def test_generic_budget_applies_when_spec_is_silent(self, tmp_path):
        executor = _executor(tmp_path, timeout_s=30.0)
        assert executor._timeout_for(_ok(1)) == 30.0
        assert executor._timeout_for(
            TaskSpec("farm-selftest", {"mode": "ok"},
                     timeout_s=0.5)) == 0.5
