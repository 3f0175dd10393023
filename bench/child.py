"""One measurement process: set up a workload, time passes, report.

``python -m bench.child WORKLOAD SEED T0 BUDGET TRACE [--toy]`` prints
one JSON record as its last stdout line.  ``T0`` is the parent's
``time.monotonic()`` just before spawning, so ``setup_s`` runs from
process start, interpreter and imports included, to the first timed
operation.  A repeatable workload runs passes until their time reaches
``BUDGET`` seconds; the others run one.  With ``TRACE`` 1 the
:class:`~bench.trace.Tracer` is installed before set-up, exactly one
pass runs, and the tracer report rides along.  :func:`calibrate` runs
after set-up and after every pass, outside the timed regions.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict

from . import SRC

#: nodes of the graph :func:`calibrate` searches; node ``u`` links to
#: ``(u * 7919 + k * 104729) % SEARCH_NODES`` for ``k`` in 1..5.
SEARCH_NODES = 40_000


def calibrate() -> float:
    """How fast this machine runs the simulator's kinds of code right
    now: the geometric mean, in seconds, of three fixed loops of about
    0.2 s each: dict traffic, a breadth-first search, and numpy on small
    arrays.  A
    shared host's speed drifts by up to half for minutes at a time, and
    ``bench.run`` scales measured times by this (see README)."""
    times = []
    for loop in (_dicts, _search, _arrays):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return math.prod(times) ** (1 / len(times))


def _dicts() -> None:
    table: Dict[int, int] = {}
    recent = []
    for i in range(500_000):
        key = i * 7919 % 4099
        table[key] = table.get(key, 0) + i
        recent.append(key)
        if len(recent) > 64:
            recent.clear()


def _search() -> None:
    for source in (0, 4242, 31337):
        distance = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                hops = distance[node] + 1
                for k in range(1, 6):
                    neighbour = (node * 7919 + k * 104729) % SEARCH_NODES
                    if neighbour not in distance:
                        distance[neighbour] = hops
                        following.append(neighbour)
            frontier = following


def _arrays() -> None:
    import numpy as np
    values = np.random.default_rng(0).random(3000)
    index = np.random.default_rng(1).integers(0, 3000, 6000)
    for _ in range(7000):
        least = (values[index] * 0.5).min()
        np.subtract.at(values, index[:64], least)
        values = np.maximum(values, 0.0) + 1e-3


def use_src() -> None:
    """Import ``repro`` from the checkout's ``src/``, nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program under test at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def measure(name: str, seed: int, t0: float, budget_s: float,
            trace: bool, toy: bool = False) -> Dict[str, Any]:
    """Set up ``name``, run timed passes, verify each, tear down."""
    from .workloads import workload

    tracer = None
    if trace:
        from .trace import Tracer
        tracer = Tracer().install()
    wl = workload(name, toy=toy)
    record: Dict[str, Any] = {"workload": name, "seed": seed,
                              "trace": trace, "passes": []}
    state = None
    try:
        state = wl.setup(seed, trace)
        record["setup_s"] = time.monotonic() - t0
        record["calibration_s"] = [calibrate()]
        measured = 0.0
        while True:
            prepared = wl.prepare(state)
            # Every pass starts with no garbage left from set-up or from
            # the pass before.
            gc.collect()
            start = time.perf_counter()
            output = wl.run(state, prepared)
            run_s = time.perf_counter() - start
            outcome = wl.verify(state, prepared, output)
            record["passes"].append(dict(asdict(outcome), run_s=run_s))
            if len(record["passes"]) == 1:
                # Set-up plus one pass, however many passes follow.
                record["peak_rss_mb"] = wl.peak_rss_mb(state)
            record["calibration_s"].append(calibrate())
            measured += run_s
            if trace or not wl.repeatable or measured >= budget_s:
                break
            # The next pass runs on a heap without this one in it.
            prepared = output = outcome = None
    except Exception:  # noqa: BLE001 — a crash is a failed op, reported
        record["error"] = traceback.format_exc(limit=8)
    finally:
        if state is not None:
            end = wl.teardown(state)
            record["teardown_failed"] = end["failed"]
            if "trace" in end:
                record["server_trace"] = end["trace"]
    if tracer is not None:
        record["trace_report"] = tracer.report()
        tracer.uninstall()
    return record


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name, seed, t0, budget_s = argv[0], int(argv[1]), float(argv[2]), \
        float(argv[3])
    use_src()
    record = measure(name, seed, t0, budget_s, trace=argv[4] == "1",
                     toy="--toy" in argv[5:])
    from repro.network.solver import HAVE_NUMPY, resolve_backend
    record["solver"] = resolve_backend(None)
    if HAVE_NUMPY:
        import numpy
        record["numpy"] = numpy.__version__
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
