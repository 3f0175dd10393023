#!/usr/bin/env python3
"""The simulator validating itself: a guided `repro validate` tour.

The stack integrates fabric physics once, in the event-driven
``FabricEngine``; the packet-granular ``packetsim`` and the analytic
collective models describe the same traffic at other levels.
``repro.validation`` keeps one independent oracle per question — the
epoch-global ``complete_batch`` loop for engine finish times, one
incidence checker for max-min allocations, one replay check for
determinism on both fill kernels — and cross-checks the stack on
seeded random scenarios.
This walkthrough shows the pieces individually, then runs a campaign:

1. generate one scenario and show that its spec is self-contained
   (JSON round-trip, deterministic rebuild, printable repro command);
2. run the invariant oracles on a max-min solution — and corrupt the
   solution to show the oracles actually fire;
3. the headline differential: ``Fabric.complete`` (engine path) and
   the batch oracle ``complete_batch`` are *bit-identical*, not
   merely close;
4. a metamorphic check: double every capacity, finish in exactly half
   the time;
5. a 15-case campaign across all five profiles, as `repro validate`
   runs it.

Run:  python examples/validation_campaign.py
"""

import json

from repro.network import Fabric, reset_flow_ids
from repro.validation import (
    ScenarioGenerator,
    ScenarioSpec,
    build_flows,
    build_topology,
    check_engine_vs_batch,
    check_rate_scaling,
    check_solution,
    run_campaign,
)


def demo_scenarios():
    print("=" * 64)
    print("1. Seeded scenarios are self-contained values")
    print("=" * 64)
    gen = ScenarioGenerator(seed=7)
    spec = gen.spec(3)
    print(f"case 3: profile={spec.profile} family={spec.family} "
          f"flows={len(spec.flows)} faults={len(spec.faults)}")
    payload = json.dumps(spec.to_dict())
    assert ScenarioSpec.from_dict(json.loads(payload)) == spec
    print(f"JSON round-trip: ok ({len(payload)} bytes)")
    print(f"replay with:     {spec.repro_command}")
    return spec


def demo_oracles(spec):
    print()
    print("=" * 64)
    print("2. Invariant oracles — and their teeth")
    print("=" * 64)
    reset_flow_ids()
    fabric = Fabric(build_topology(spec))
    flows = build_flows(spec)
    paths = fabric.resolve_paths(flows)
    rates = fabric.max_min_rates(flows, paths)
    violations = check_solution(fabric, flows, paths=paths, rates=rates)
    print(f"legit max-min solution: {len(violations)} violations")
    assert violations == []

    # Corrupt it: halving one rate breaks the max-min KKT certificate
    # (that flow no longer saturates any link it crosses).
    bad = dict(rates)
    victim = flows[0].flow_id
    bad[victim] = rates[victim] / 2
    violations = check_solution(fabric, flows, paths=paths, rates=bad)
    print(f"halved flow {victim}'s rate:    "
          f"{[str(v) for v in violations][0]}")
    assert violations


def demo_differential(spec):
    print()
    print("=" * 64)
    print("3. Engine vs batch loop: bit-identical, not approximately")
    print("=" * 64)
    reset_flow_ids()
    fabric = Fabric(build_topology(spec))
    flows = build_flows(spec)
    violations = check_engine_vs_batch(fabric, flows)
    assert violations == [], [str(v) for v in violations]
    print(f"{len(flows)} flows: every finish time == to the last bit")


def demo_metamorphic(spec):
    print()
    print("=" * 64)
    print("4. Metamorphic: capacities x2  =>  finish times exactly /2")
    print("=" * 64)
    violations = check_rate_scaling(spec, k=2.0)
    assert violations == [], [str(v) for v in violations]
    print("doubled every link and line rate: bit-exact halving holds")


def demo_campaign():
    print()
    print("=" * 64)
    print("5. A 15-case campaign (what `repro validate` runs)")
    print("=" * 64)
    report = run_campaign(seed=7, n_cases=15, fast=True)
    for case in report.cases:
        status = "ok " if case.ok else "FAIL"
        print(f"  case {case.index:>2} [{case.profile}/{case.family}]"
              f" {status} ({len(case.checks)} checks)")
    print(f"{len(report.cases)} cases, {len(report.failures)} failures")
    for case in report.failures:
        for violation in case.violations:
            print(f"  {violation}")
        print(f"  reproduce with: {case.repro_command}")
    assert report.ok


def main():
    spec = demo_scenarios()
    demo_oracles(spec)
    demo_differential(spec)
    demo_metamorphic(spec)
    demo_campaign()
    print()
    print("All validation layers green.")


if __name__ == "__main__":
    main()
