"""Process-pool task farm: parallel, isolated, cached, deterministic.

:class:`FarmExecutor` runs a list of :class:`~repro.farm.spec.TaskSpec`
to completion with

* **result-cache short-circuiting, when a cache is given** — specs
  whose hash is already in the :class:`~repro.farm.cache.ResultCache`
  for the current code fingerprint never reach a worker.  With
  ``cache=None`` (the default) nothing is read or written and no code
  fingerprint is computed; with a cache and ``use_cache=False``
  results are written but never read (``repro farm --no-cache``);
* **crash isolation** — a worker dying mid-task (segfault,
  ``os._exit``, OOM-kill) breaks only that pool generation: the pool
  is rebuilt, in-flight tasks are retried up to ``max_retries``, and a
  task that keeps killing its workers is reported ``crashed`` instead
  of sinking the sweep;
* **per-task timeouts** — enforced *inside* the executing process via
  ``SIGALRM`` (POSIX), so a hung task is interrupted and its worker
  survives to take the next task; a spec's own ``timeout_s`` (not part
  of its content hash) overrides the executor-wide budget, so one
  known-slow kind doesn't force a sweep-wide ceiling;
* **deterministic output** — results are reported in submission order,
  every runner goes through the same
  :func:`~repro.farm.spec.execute_spec` choke point as the serial
  path, and the workers hold no cross-task state the runners can see.
  ``run(specs, workers=N)`` is therefore bit-identical to
  ``run(specs, workers=1)``, a property the validation differential
  tests enforce.

Clean exceptions and timeouts are *not* retried: registered runners
are deterministic, so a failure would simply repeat.  Only worker
death is retried, because the deaths the retry exists for (a co-tenant
OOM-killing the box, a pool torn down by an unrelated task's crash)
are environmental, not functional — and retries back off
exponentially with deterministic per-task jitter
(:meth:`FarmExecutor._retry_delay_s`), so a transiently sick box isn't
hammered in lockstep.
"""

from __future__ import annotations

import os
import random
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .cache import ResultCache
from .spec import TaskSpec, canonical_json, execute_spec

__all__ = ["FarmExecutor", "FarmReport", "FarmTaskTimeout", "TaskResult"]

#: first retry delay after a proven crash; doubles per further crash
#: of the same task, capped at ``RETRY_BACKOFF_CAP_S``.
RETRY_BACKOFF_S = 0.1
RETRY_BACKOFF_CAP_S = 5.0


class FarmTaskTimeout(Exception):
    """A task exceeded its per-task wall-clock budget."""


@dataclass
class TaskResult:
    """Outcome of one spec through the farm."""

    spec: TaskSpec
    status: str            # ok | error | timeout | crashed | skipped
    result: Any = None
    error: str = ""
    elapsed_s: float = 0.0
    attempts: int = 1
    cached: bool = False
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.content_hash,
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
            "cached": self.cached,
        }


@dataclass
class FarmReport:
    """Aggregate of one farm run, in submission order."""

    results: List[TaskResult] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    cache_stats: Optional[Dict[str, int]] = None
    #: True when the run was cut short by Ctrl-C: finished tasks are
    #: real, unfinished ones are reported ``skipped``.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def n_ok(self) -> int:
        return sum(result.ok for result in self.results)

    @property
    def n_cached(self) -> int:
        return sum(result.cached for result in self.results)

    @property
    def n_executed(self) -> int:
        """Tasks that actually ran a simulation (not served from cache)."""
        return sum(1 for result in self.results if not result.cached)

    @property
    def failures(self) -> List[TaskResult]:
        return [result for result in self.results if not result.ok]

    @property
    def throughput(self) -> float:
        """Completed tasks per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return len(self.results) / self.wall_s

    def identity(self) -> List[Tuple[str, str]]:
        """(spec hash, canonical result) pairs — the bit-equality view.

        Excludes timing/attempt/pid metadata by construction, so two
        reports are interchangeable iff their identities compare equal.
        """
        return [(result.spec.content_hash,
                 canonical_json({"status": result.status,
                                 "result": result.result}))
                for result in self.results]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_tasks": len(self.results),
            "n_ok": self.n_ok,
            "n_cached": self.n_cached,
            "n_executed": self.n_executed,
            "ok": self.ok,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "interrupted": self.interrupted,
            "throughput_per_s": self.throughput,
            "cache": self.cache_stats,
            "results": [result.to_dict() for result in self.results],
        }


# ---------------------------------------------------------------------------
# In-process execution (shared by serial mode and pool workers)
# ---------------------------------------------------------------------------

def _alarm_available() -> bool:
    return hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")


def _run_with_timeout(spec: TaskSpec,
                      timeout_s: Optional[float]) -> Any:
    """``execute_spec`` under a SIGALRM deadline (POSIX main thread).

    Where SIGALRM is unavailable (non-POSIX), the task runs without
    enforcement — the farm still works, hung tasks just hang.
    """
    import threading
    if not timeout_s or not _alarm_available() \
            or threading.current_thread() is not threading.main_thread():
        # No enforcement possible: non-POSIX, or a caller driving the
        # serial path from a helper thread (signals need main thread).
        return execute_spec(spec)

    def _on_alarm(signum, frame):
        raise FarmTaskTimeout(
            f"task {spec.describe()} exceeded {timeout_s:.1f}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return execute_spec(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _farm_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (picklable) worker entry: run one spec, classify."""
    spec = TaskSpec.from_dict(payload["spec"])
    started = time.perf_counter()
    try:
        result = _run_with_timeout(spec, payload.get("timeout_s"))
        return {"status": "ok", "result": result,
                "elapsed_s": time.perf_counter() - started,
                "pid": os.getpid()}
    except FarmTaskTimeout as exc:
        return {"status": "timeout", "error": str(exc),
                "elapsed_s": time.perf_counter() - started,
                "pid": os.getpid()}
    except Exception as exc:  # noqa: BLE001 — classified, not hidden
        return {"status": "error",
                "error": f"{type(exc).__name__}: {exc}\n"
                         f"{traceback.format_exc(limit=6)}",
                "elapsed_s": time.perf_counter() - started,
                "pid": os.getpid()}


ProgressFn = Callable[[TaskResult, int, int], None]


# ---------------------------------------------------------------------------
# The farm
# ---------------------------------------------------------------------------

@dataclass
class FarmExecutor:
    """Run task specs across workers with caching and isolation."""

    workers: int = 1
    #: read hits from ``cache``; ``False`` keeps it write-only.
    use_cache: bool = True
    #: where results are stored; ``None`` stores nothing anywhere.
    cache: Optional[ResultCache] = None
    #: generic per-task budget; a spec's own ``timeout_s`` overrides it.
    timeout_s: Optional[float] = None
    max_retries: int = 1
    progress: Optional[ProgressFn] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # -- public API ----------------------------------------------------------
    def run(self, specs: Sequence[TaskSpec]) -> FarmReport:
        specs = list(specs)
        started = time.perf_counter()
        slots: List[Optional[TaskResult]] = [None] * len(specs)
        pending: List[Tuple[int, int]] = []   # (spec index, attempts)

        for index, spec in enumerate(specs):
            hit = self._cache_get(spec)
            if hit is not None:
                slots[index] = TaskResult(
                    spec=spec, status="ok", result=hit["result"],
                    elapsed_s=hit.get("elapsed_s", 0.0), cached=True)
                self._report_progress(slots, slots[index])
            else:
                pending.append((index, 0))

        interrupted = False
        if pending:
            try:
                if self.workers == 1:
                    self._run_serial(specs, slots, pending)
                else:
                    self._run_pool(specs, slots, pending)
            except KeyboardInterrupt:
                # Ctrl-C is an orderly stop, not a crash: pools were
                # already torn down (cancel_futures) on the way up, so
                # fill what never finished with ``skipped`` and hand
                # back the partial report for the caller to render.
                interrupted = True
                for index, spec in enumerate(specs):
                    if slots[index] is None:
                        slots[index] = TaskResult(
                            spec=spec, status="skipped",
                            error="interrupted (Ctrl-C) before this "
                                  "task finished")

        report = FarmReport(
            results=[slot for slot in slots if slot is not None],
            wall_s=time.perf_counter() - started,
            workers=self.workers,
            cache_stats=self.cache.stats.to_dict()
            if self.cache is not None and self.use_cache else None,
            interrupted=interrupted)
        return report

    # -- cache ---------------------------------------------------------------
    def _cache_get(self, spec: TaskSpec) -> Optional[Dict[str, Any]]:
        if self.cache is None or not self.use_cache:
            return None
        return self.cache.get(spec)

    def _cache_put(self, result: TaskResult) -> None:
        # Warm a named cache even with reads disabled: --no-cache means
        # "recompute now", not "forget what you computed".
        if self.cache is not None and result.status == "ok":
            self.cache.put(result.spec, result.result,
                           elapsed_s=result.elapsed_s)

    # -- serial path ---------------------------------------------------------
    def _run_serial(self, specs: Sequence[TaskSpec],
                    slots: List[Optional[TaskResult]],
                    pending: List[Tuple[int, int]]) -> None:
        for index, attempts in pending:
            outcome = _farm_worker({
                "spec": specs[index].to_dict(),
                "timeout_s": self._timeout_for(specs[index])})
            slots[index] = self._to_result(specs[index], outcome,
                                           attempts + 1)
            self._finish(slots, slots[index])

    # -- pool path -----------------------------------------------------------
    def _run_pool(self, specs: Sequence[TaskSpec],
                  slots: List[Optional[TaskResult]],
                  pending: List[Tuple[int, int]]) -> None:
        queue = list(reversed(pending))   # pop() preserves spec order
        suspects: List[Tuple[int, int]] = []
        pool = self._make_pool()
        in_flight: Dict[Any, Tuple[int, int]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < 2 * self.workers:
                    index, attempts = queue.pop()
                    try:
                        future = pool.submit(_farm_worker, {
                            "spec": specs[index].to_dict(),
                            "timeout_s": self._timeout_for(
                                specs[index])})
                    except BrokenProcessPool:
                        # A worker died between waits; this task never
                        # ran, so requeue it against a fresh pool.
                        queue.append((index, attempts))
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = self._make_pool()
                        continue
                    in_flight[future] = (index, attempts + 1)
                if not in_flight:
                    continue
                done, _ = wait(list(in_flight),
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    index, attempts = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        suspects.append((index, attempts))
                        continue
                    slots[index] = self._to_result(
                        specs[index], outcome, attempts)
                    self._finish(slots, slots[index])
                if broken:
                    # Every sibling future is poisoned with the same
                    # BrokenProcessPool, and only one of them actually
                    # killed the worker — quarantine them all and sort
                    # it out in isolation afterwards.
                    suspects.extend(in_flight.values())
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._make_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        self._drain_suspects(specs, slots, suspects)

    def _drain_suspects(self, specs: Sequence[TaskSpec],
                        slots: List[Optional[TaskResult]],
                        suspects: List[Tuple[int, int]]) -> None:
        """Re-run pool-break casualties one at a time, isolated.

        With a single task in a single-worker pool, a break IS that
        task crashing — so innocents poisoned by a sibling's crash are
        cleared on their first isolated run, and only proven crashes
        draw down the ``max_retries`` budget.
        """
        for index, attempts in sorted(suspects):
            proven_crashes = 0
            while True:
                attempts += 1
                pool = ProcessPoolExecutor(max_workers=1)
                try:
                    outcome = pool.submit(_farm_worker, {
                        "spec": specs[index].to_dict(),
                        "timeout_s": self._timeout_for(
                            specs[index])}).result()
                except BrokenProcessPool:
                    proven_crashes += 1
                    if proven_crashes > self.max_retries:
                        slots[index] = TaskResult(
                            spec=specs[index], status="crashed",
                            error=f"worker died {proven_crashes}x "
                                  f"running this task in isolation "
                                  f"(retry budget {self.max_retries})",
                            attempts=attempts)
                        self._finish(slots, slots[index])
                        break
                    # The crash causes the retry exists for (co-tenant
                    # OOM pressure, a box being drained) need time to
                    # clear — back off exponentially, with seeded
                    # jitter so a fleet of farms retrying the same
                    # sweep doesn't hammer the box in lockstep.
                    time.sleep(self._retry_delay_s(specs[index],
                                                   proven_crashes))
                    continue
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)
                slots[index] = self._to_result(specs[index], outcome,
                                               attempts)
                self._finish(slots, slots[index])
                break

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _timeout_for(self, spec: TaskSpec) -> Optional[float]:
        """The spec's own budget when declared, else the generic one."""
        return spec.timeout_s if spec.timeout_s is not None \
            else self.timeout_s

    def _retry_delay_s(self, spec: TaskSpec, crash_count: int) -> float:
        """Exponential backoff with deterministic per-task jitter.

        Seeded from the spec hash and the crash ordinal, so the delay
        sequence is reproducible (testable) while distinct tasks and
        distinct attempts still spread out in time.
        """
        rng = random.Random(
            f"farm-backoff:{spec.content_hash}:{crash_count}")
        base = min(RETRY_BACKOFF_S * (2.0 ** (crash_count - 1)),
                   RETRY_BACKOFF_CAP_S)
        return base * (0.5 + rng.random())

    # -- shared plumbing -----------------------------------------------------
    def _to_result(self, spec: TaskSpec, outcome: Dict[str, Any],
                   attempts: int) -> TaskResult:
        return TaskResult(
            spec=spec, status=outcome["status"],
            result=outcome.get("result"),
            error=outcome.get("error", ""),
            elapsed_s=outcome.get("elapsed_s", 0.0),
            attempts=attempts,
            worker_pid=outcome.get("pid", 0))

    def _finish(self, slots: List[Optional[TaskResult]],
                result: TaskResult) -> None:
        self._cache_put(result)
        self._report_progress(slots, result)

    def _report_progress(self, slots: List[Optional[TaskResult]],
                         result: TaskResult) -> None:
        if self.progress is not None:
            done = sum(1 for slot in slots if slot is not None)
            self.progress(result, done, len(slots))
