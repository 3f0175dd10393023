"""Live failure injection and the closed recovery loop (§3, §5).

The paper's operational claim is not that faults are rare but that the
infrastructure *survives* them: routing fails over around dead links,
the monitoring stack detects and localizes the fault, the scheduler
cordons the blast radius and requeues the affected jobs, and repaired
capacity returns to service.  This package closes that loop on the
simulated clock:

* :class:`FailureInjector` mutates the live :class:`Topology` under an
  event-driven :class:`~repro.network.engine.FabricEngine` — links and
  whole devices die, degrade, and flap while flows are in flight;
* :class:`RecoveryPipeline` is the detect → localize → cordon →
  requeue → repair process, driven by pingmesh carrier census and the
  Figure-10 MTTLF delay model;
* :class:`ResilienceCampaign` runs seeded training jobs with real
  collectives through a fault schedule and prices the measured goodput
  penalty against the analytic
  :func:`~repro.core.reliability.failure_penalty_s` prediction;
* :class:`FaultDomain` models *correlated* failures — one power,
  ASIC-batch, optics-batch or rack event expanding into many
  co-located member faults, in a loud ``hard`` mode or a ``gray``
  mode the pingmesh census cannot see.
"""

from .campaign import (JobOutcome, ResilienceCampaign, ResilienceReport,
                       ResilientJob, default_tor_faults)
from .domains import (DOMAIN_KINDS, DOMAIN_MODES, FaultDomain,
                      domain_fault_specs, expand_domains,
                      faults_from_document, inject_domain)
from .injector import FailureInjector, FaultEvent
from .pipeline import RecoveryPipeline, RecoveryRecord

__all__ = [
    "DOMAIN_KINDS",
    "DOMAIN_MODES",
    "FaultDomain",
    "domain_fault_specs",
    "expand_domains",
    "faults_from_document",
    "inject_domain",
    "FailureInjector",
    "FaultEvent",
    "RecoveryPipeline",
    "RecoveryRecord",
    "ResilientJob",
    "JobOutcome",
    "ResilienceCampaign",
    "ResilienceReport",
    "default_tor_faults",
]
