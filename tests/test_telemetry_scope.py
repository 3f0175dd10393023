"""Telemetry is collected only where a store is named.

Pin: a two-tenant :class:`MultiJobRun` given a store — one tenant
faulted by iteration index, the other by timestamp — must write the
same telemetry, record for record and in the same order, as it did
before unmonitored runs stopped collecting.  The digest is sha256 of
``store.to_jsonl()``; it moves only with a deliberate change of the
monitoring stack (say why in CHANGES.md when one is re-recorded).

Guard: the hierarchy's sub-simulations keep only iteration times, so a
faulted 4k ``hierarchy-run`` builds no collector, adds no record and
evaluates no congestion — and its report is the one it was when they
still did.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.farm import TaskSpec, execute_spec
from repro.hierarchy import preset_params
from repro.monitoring import (FaultSpec, FullStackCollector, JobConfig,
                              Manifestation, MultiJobRun, RootCause,
                              TelemetryStore)
from repro.network import CongestionModel, Fabric, reset_flow_ids
from repro.topology import AstralParams, build_astral

#: sha256 of the pinned two-tenant run's ``store.to_jsonl()``.
MONITORED_DIGEST = \
    "7a16002dc8ecec910245ed966326de21019f63c17b8eb67386c207add5b11b2d"

#: sha256 of ``json.dumps(report, sort_keys=True)`` of the guarded run.
HIERARCHY_DIGEST = \
    "5597815da213edd16efd30e96e882e88fb757aee8ffa26d451a23a477e06f5d5"


def _two_tenants(store=None, drops=Manifestation.FAIL_SLOW):
    """Tenant A's PCIe storms from iteration 1; at t=1.2 s the ToR
    tenant B's flows cross starts dropping: errCQEs, and an abort when
    *drops* is fail-stop."""
    reset_flow_ids()
    fabric = Fabric(build_astral(AstralParams.small()))
    jobs = [JobConfig(name="tenantA", iterations=4,
                      hosts=("p0.b0.h0", "p0.b0.h1", "p0.b1.h0",
                             "p0.b1.h1")),
            JobConfig(name="tenantB", iterations=4, start_time_s=0.1,
                      hosts=("p0.b0.h2", "p0.b0.h3", "p0.b1.h2",
                             "p0.b1.h3"))]
    faults = {
        "tenantA": FaultSpec.pcie_storm("p0.b0.h1", at_iteration=1),
        "tenantB": FaultSpec(cause=RootCause.SWITCH_BUG,
                             manifestation=drops,
                             target="p0.b0.r0.g1.tor", at_time_s=1.2)}
    run = MultiJobRun(fabric, jobs, faults=faults, store=store)
    return run, run.run()


def _faulted_4k_report():
    params = preset_params("4k")
    domain = {"kind": "optics-batch", "pod": 0, "block": 1,
              "size": 1, "mode": "hard", "seed": 0}
    return execute_spec(TaskSpec("hierarchy-run", {
        "scale": "4k", "hosts_per_job": params.hosts_per_block,
        "iterations": 4, "compute_s": 0.5, "comm_bits": 8e9,
        "collective": "allreduce", "seed": 0, "tail_shapes": 1,
        "refine": "bounded", "faults": 0,
        "fault_document": {"domains": [domain]}}))


class TestMonitoredPin:
    def test_named_store_telemetry_is_pinned(self):
        store = TelemetryStore()
        run, _ = _two_tenants(store)
        assert run.store is store
        assert store.err_cqes and store.syslogs and store.switch_counters
        blob = store.to_jsonl().encode()
        assert hashlib.sha256(blob).hexdigest() == MONITORED_DIGEST

    @pytest.mark.parametrize("drops", [Manifestation.FAIL_SLOW,
                                       Manifestation.FAIL_STOP])
    def test_outcomes_do_not_depend_on_the_store(self, drops):
        _, monitored = _two_tenants(TelemetryStore(), drops)
        run, unmonitored = _two_tenants(drops=drops)
        assert run.store is None
        assert {name: (out.iteration_times_s, out.expected_iteration_s)
                for name, out in unmonitored.items()} \
            == {name: (out.iteration_times_s, out.expected_iteration_s)
                for name, out in monitored.items()}


#: every entry point of telemetry collection the guard watches.
SPIED = ((FullStackCollector, "__init__"), (TelemetryStore, "add"),
         (CongestionModel, "evaluate_all"))


def _count_calls(monkeypatch) -> Counter:
    calls = Counter()
    for cls, name in SPIED:
        def spy(*args, _method=getattr(cls, name),
                _key=f"{cls.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(cls, name, spy)
    return calls


class TestUnmonitoredGuard:
    def test_hierarchy_run_collects_no_telemetry(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        report = _faulted_4k_report()
        assert report["fold"]["n_engine_sims"] > 1
        assert report["fold"]["refine"]["levels"] == {"block": 1}
        assert calls == Counter()
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == HIERARCHY_DIGEST

    def test_spies_see_a_monitored_run(self, monkeypatch):
        """The guard's spies are live: a named store trips all three."""
        calls = _count_calls(monkeypatch)
        _two_tenants(TelemetryStore())
        assert len(calls) == len(SPIED)
