"""Differential & property-based correctness harness for the stack.

The simulator computes fabric physics with one integrator, the
event-driven :class:`~repro.network.engine.FabricEngine`; the
packet-granular ``packetsim`` and the analytic collective models
describe the same traffic at other levels.  This package keeps one
independent oracle per question — an epoch-global batch loop
(:func:`~repro.validation.differential.complete_batch`) for engine
finish times, one incidence checker for max-min allocations, one
replay check for determinism across runs and fill kernels — and
cross-checks the stack systematically:

* :mod:`~repro.validation.scenarios` — seeded random-but-valid
  topologies, workloads, and fault schedules;
* :mod:`~repro.validation.oracles` — invariants any run must satisfy
  (rate feasibility, work conservation, max-min KKT, byte
  conservation, clock monotonicity, bit-identical replay on both fill
  kernels);
* :mod:`~repro.validation.differential` — two models, one scenario
  (engine vs batch, flow-mapped vs analytic, fluid vs packet);
* :mod:`~repro.validation.metamorphic` — transform the input,
  predict the output (rate scaling, idle job, unused link);
* :mod:`~repro.validation.runner` — the ``repro validate`` campaign.
"""

from .differential import (
    check_engine_vs_batch,
    check_fluid_vs_packet,
    check_ring_vs_analytic,
    check_rs_ag_composition,
    complete_batch,
    ring_busbw_gbps,
)
from .metamorphic import (
    check_idle_job_noop,
    check_rate_scaling,
    check_unused_link_noop,
)
from .oracles import (
    TracingSimulator,
    Violation,
    check_clock_monotonic,
    check_incidence_solution,
    check_replay,
    check_solution,
    replay_conservation,
)
from .runner import CampaignReport, CaseReport, run_campaign, run_case
from .scenarios import (
    FAMILIES,
    PROFILES,
    FaultAction,
    FlowSpec,
    ScenarioGenerator,
    ScenarioSpec,
    build_flows,
    build_topology,
)

__all__ = [
    "FAMILIES",
    "PROFILES",
    "CampaignReport",
    "CaseReport",
    "FaultAction",
    "FlowSpec",
    "ScenarioGenerator",
    "ScenarioSpec",
    "TracingSimulator",
    "Violation",
    "build_flows",
    "build_topology",
    "check_clock_monotonic",
    "check_engine_vs_batch",
    "check_fluid_vs_packet",
    "check_idle_job_noop",
    "check_incidence_solution",
    "check_rate_scaling",
    "check_replay",
    "check_ring_vs_analytic",
    "check_rs_ag_composition",
    "check_solution",
    "check_unused_link_noop",
    "complete_batch",
    "replay_conservation",
    "ring_busbw_gbps",
    "run_campaign",
    "run_case",
]
