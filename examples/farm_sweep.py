#!/usr/bin/env python3
"""The experiment farm: parallel sweeps that cannot change the answer.

``repro.farm`` wraps every runnable unit in the repo as a content-
hashed ``TaskSpec``.  ``grid_specs`` expands a sweep into specs and
``FarmExecutor.run`` — the one way a list of specs is run — executes
them on a crash-isolated process pool, memoizing results in an on-disk
cache keyed by spec hash + code fingerprint when, and only when, a
cache is named.  This walkthrough shows the guarantees one at a time:

1. specs are values — canonical JSON in, stable content hash out;
   labels don't affect identity, parameters do;
2. a cluster-policy grid sweep run serially and at 4 workers with no
   cache, the two reports compared bit for bit;
3. the same sweep into a named cache, then a warm rerun served
   entirely from it — zero simulations executed;
4. crash isolation: a task that hard-kills its worker fails alone
   while innocent siblings complete.

Run:  python on this file, from the repository root (no arguments).
"""

import tempfile

from repro.farm import FarmExecutor, ResultCache, TaskSpec, grid_specs


def demo_specs():
    print("=" * 64)
    print("1. Specs are values: canonical JSON, stable hashes")
    print("=" * 64)
    spec = TaskSpec("cluster-sweep",
                    {"scale": "tiny", "jobs": 8, "policy": "topology",
                     "seed": 0})
    relabelled = TaskSpec("cluster-sweep", spec.params,
                          label="pretty name for the same work")
    reparam = TaskSpec("cluster-sweep", {**spec.params, "jobs": 9})
    print(f"spec:            {spec.describe()}")
    print(f"content hash:    {spec.content_hash[:16]}…")
    assert relabelled.content_hash == spec.content_hash
    assert reparam.content_hash != spec.content_hash
    print("relabelling      -> same hash (labels are display-only)")
    print("changing a param -> different hash (identity is the work)")


def demo_parallel_equals_serial():
    print()
    print("=" * 64)
    print("2. A policy grid, serial vs 4 workers — bit-identical")
    print("=" * 64)
    specs = grid_specs(
        "cluster-sweep",
        base={"scale": "tiny", "jobs": 8},
        grid={"policy": ["fifo", "topology"]},
        seeds=[0, 1])
    print(f"{len(specs)} sweep points:")
    for spec in specs:
        print(f"  {spec.label}")
    serial = FarmExecutor(workers=1).run(specs)
    parallel = FarmExecutor(workers=4).run(specs)
    assert serial.ok and parallel.ok
    assert serial.identity() == parallel.identity()
    print(f"serial:   {serial.wall_s:.2f}s   "
          f"parallel: {parallel.wall_s:.2f}s   identity: equal")
    for result in parallel.results:
        params = result.spec.params
        print(f"  policy={params['policy']:<9} seed={params['seed']}"
              f"  utilization={result.result['utilization']:.3f}")
    return specs


def demo_warm_rerun(specs, cache_root):
    print()
    print("=" * 64)
    print("3. A named cache, then a warm rerun: the cache does the work")
    print("=" * 64)
    cold = FarmExecutor(workers=4,
                        cache=ResultCache(root=cache_root)).run(specs)
    warm = FarmExecutor(workers=4,
                        cache=ResultCache(root=cache_root)).run(specs)
    assert cold.n_executed == len(specs) and warm.n_executed == 0
    assert warm.identity() == cold.identity()
    print(f"cold: {cold.n_executed} executed into the named cache")
    print(f"warm: {warm.n_cached} results from cache, {warm.n_executed} "
          f"executed, wall {warm.wall_s*1000:.0f} ms")
    print("any source-file edit changes the code fingerprint and "
          "cold-starts the cache")


def demo_crash_isolation():
    print()
    print("=" * 64)
    print("4. A dying worker fails its task, not the sweep")
    print("=" * 64)
    specs = [
        TaskSpec("farm-selftest", {"mode": "ok", "value": 1}),
        TaskSpec("farm-selftest", {"mode": "crash"}),
        TaskSpec("farm-selftest", {"mode": "ok", "value": 2}),
    ]
    report = FarmExecutor(workers=2, max_retries=1).run(specs)
    for result in report.results:
        mode = result.spec.params["mode"]
        print(f"  mode={mode:<6} status={result.status:<8} "
              f"attempts={result.attempts}")
    assert [r.status for r in report.results] == ["ok", "crashed", "ok"]


def main():
    demo_specs()
    specs = demo_parallel_equals_serial()
    with tempfile.TemporaryDirectory(prefix="repro-farm-demo-") as root:
        demo_warm_rerun(specs, root)
    demo_crash_isolation()
    print()
    print("Farm guarantees demonstrated.")


if __name__ == "__main__":
    main()
