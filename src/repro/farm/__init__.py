"""repro.farm — parallel experiment execution, cached on request.

The farm turns every runnable unit in the repo — a validation fuzz
case, a resilience campaign, a monitoring campaign, a cluster-sweep
point, a Seer forecast, a figure benchmark — into a content-addressed
:class:`TaskSpec`, and executes batches of them on a process pool with
per-task crash isolation, timeouts and bounded retry.
:meth:`FarmExecutor.run` is the one way a list of specs is run;
:func:`execute_spec`, the primitive it calls per task, is the only
thing beside it.  Parallel execution is bit-identical to serial.

Nothing is cached unless a cache is named: pass a
:class:`ResultCache` (keyed by spec hash + code fingerprint) and warm
reruns of unchanged scenarios skip simulation entirely; leave
``cache=None`` and the farm neither reads nor writes anything on disk.

Quick use::

    from repro.farm import FarmExecutor, grid_specs

    specs = grid_specs("cluster-sweep",
                       base={"scale": "small", "jobs": 20},
                       grid={"policy": ["fifo", "topology"]},
                       seeds=[0, 1, 2])
    report = FarmExecutor(workers=4).run(specs)
    assert report.ok

or from the shell: ``repro farm sweep.json --workers 4`` (which caches
under ``$REPRO_FARM_CACHE`` or ``~/.cache/repro-farm``) and
``repro validate --workers 4`` (which caches only with
``--cache-dir``).
"""

from .cache import (CacheStats, ResultCache, code_fingerprint,
                    default_cache_dir)
from .executor import (FarmExecutor, FarmReport, FarmTaskTimeout,
                       TaskResult)
from .spec import (TaskSpec, UnknownTaskKind, canonical_json,
                   execute_spec, grid_specs, register_task,
                   specs_from_document, task_kind, task_kinds)

__all__ = [
    "CacheStats",
    "FarmExecutor",
    "FarmReport",
    "FarmTaskTimeout",
    "ResultCache",
    "TaskResult",
    "TaskSpec",
    "UnknownTaskKind",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "execute_spec",
    "grid_specs",
    "register_task",
    "specs_from_document",
    "task_kind",
    "task_kinds",
]
