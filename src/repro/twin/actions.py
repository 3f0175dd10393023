"""Validated operator actions and their boundary-time application.

Actions arrive over HTTP as small JSON objects, are normalized and
shape-checked at submit time (so a typo fails the request, not the
simulation), queue until the session's next virtual-time boundary,
and are applied there in submit order.  The *normalized* form is what
the append-only action log records — application is a deterministic
function of (session state, normalized action), which is the whole
replay contract.  An action can still fail against the state it meets
at its boundary (a fault naming a job that has since finished); it
stays in the log, and its boundary reports the error.

Kinds:

``cordon`` / ``uncordon``
    ``{"hosts": [...]}`` — take hosts out of / back into service via
    the :class:`~repro.core.placement.GpuAllocator`.  Uncordon is the
    operator's "heal" verb.
``drain``
    ``{"hosts": [...]}`` — cordon plus checkpoint-preempt every
    running job with an allocation intersecting those hosts.
``preempt``
    ``{"job": "..."}`` — checkpoint-preempt one running job.
``inject-fault``
    ``{"document": {"domains": [...], "faults": [...]}}`` — the same
    front door as the resilience CLI
    (:func:`~repro.resilience.faults_from_document`); domains expand
    into correlated member faults on the live injector.
``set-power-cap``
    ``{"frac": 0.5}`` or ``{"times_s": [...], "allowed": [...]}`` —
    swap the scheduler's :class:`~repro.cluster.powercap.ScheduleHostCap`
    (cluster kind) or the serving contract fraction (serving kind).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List

from ..cluster.powercap import ScheduleHostCap
from ..farm.spec import canonical_json
from ..resilience.domains import FaultDomain, faults_from_document, \
    inject_domain

__all__ = ["ActionError", "ACTION_KINDS", "normalize_action",
           "validate_cluster_action", "apply_cluster_action"]

ACTION_KINDS = ("cordon", "uncordon", "drain", "preempt",
                "inject-fault", "set-power-cap")


class ActionError(ValueError):
    """A rejected operator action (rendered as HTTP 400)."""


def _host_list(action: Dict[str, Any]) -> List[str]:
    hosts = action.get("hosts")
    if not isinstance(hosts, (list, tuple)) or not hosts:
        raise ActionError(
            f"{action.get('kind')}: 'hosts' must be a non-empty list")
    for host in hosts:
        if not isinstance(host, str):
            raise ActionError(
                f"{action.get('kind')}: host names must be strings, "
                f"got {host!r}")
    return [str(h) for h in hosts]


def normalize_action(action: Any) -> Dict[str, Any]:
    """Shape-check one action and return its canonical (logged) form,
    which must hash as canonical JSON (no NaN, no infinities)."""
    normalized = _normalize(action)
    try:
        canonical_json(normalized)
    except (TypeError, ValueError) as exc:
        raise ActionError(f"{normalized['kind']}: not plain JSON with "
                          f"finite numbers: {exc}") from None
    return normalized


def _normalize(action: Any) -> Dict[str, Any]:
    if not isinstance(action, dict):
        raise ActionError(
            f"action must be an object, got {type(action).__name__}")
    kind = action.get("kind")
    if kind not in ACTION_KINDS:
        raise ActionError(f"unknown action kind {kind!r}; expected one "
                          f"of {ACTION_KINDS}")
    if kind in ("cordon", "uncordon", "drain"):
        return {"kind": kind, "hosts": _host_list(action)}
    if kind == "preempt":
        job = action.get("job")
        if not isinstance(job, str) or not job:
            raise ActionError("preempt: 'job' must be a job name")
        return {"kind": kind, "job": job}
    if kind == "inject-fault":
        document = action.get("document")
        if not isinstance(document, dict) \
                or set(document) - {"domains", "faults"}:
            raise ActionError(
                "inject-fault: 'document' must be an object with "
                "'domains' and/or 'faults' lists")
        for key in ("domains", "faults"):
            entries = document.get(key, ())
            if not isinstance(entries, (list, tuple)) or not all(
                    isinstance(entry, dict) for entry in entries):
                raise ActionError(
                    f"inject-fault: {key!r} must be a list of objects")
        return {"kind": kind, "document": document}
    # set-power-cap
    if "frac" in action:
        frac = action["frac"]
        if not isinstance(frac, (int, float)) \
                or not 0.0 <= float(frac) <= 1.0:
            raise ActionError(
                f"set-power-cap: 'frac' must be in [0, 1], got {frac!r}")
        normalized: Dict[str, Any] = {"kind": kind,
                                      "frac": float(frac)}
        if "at_s" in action:
            at_s = action["at_s"]
            if not isinstance(at_s, (int, float)) or float(at_s) < 0:
                raise ActionError("set-power-cap: 'at_s' must be a "
                                  f"non-negative time, got {at_s!r}")
            normalized["at_s"] = float(at_s)
        return normalized
    if "times_s" in action or "allowed" in action:
        times = action.get("times_s")
        allowed = action.get("allowed")
        if not isinstance(times, (list, tuple)) \
                or not isinstance(allowed, (list, tuple)) \
                or len(times) != len(allowed) or not times:
            raise ActionError(
                "set-power-cap: 'times_s' and 'allowed' must be "
                "equal-length non-empty lists")
        try:
            return {"kind": kind,
                    "times_s": [float(t) for t in times],
                    "allowed": [int(n) for n in allowed]}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ActionError(f"set-power-cap: {exc}") from None
    raise ActionError("set-power-cap: provide 'frac' (plus optional "
                      "'at_s') or an explicit 'times_s'/'allowed' "
                      "schedule")


# -- cluster-kind application ------------------------------------------


def _cap_from_action(action: Dict[str, Any],
                     total_hosts: int) -> ScheduleHostCap:
    if "frac" in action:
        allowed = int(total_hosts * action["frac"])
        if "at_s" in action and action["at_s"] > 0.0:
            return ScheduleHostCap.from_series(
                total_hosts, [0.0, action["at_s"]],
                [total_hosts, allowed])
        return ScheduleHostCap.from_series(
            total_hosts, [0.0], [allowed])
    try:
        return ScheduleHostCap.from_series(
            total_hosts, action["times_s"], action["allowed"])
    except ValueError as exc:
        raise ActionError(f"set-power-cap: {exc}") from None


def validate_cluster_action(stack, action: Dict[str, Any]) -> None:
    """Submit-time checks against the cluster's shape: fail now what
    could never apply (the boundary checks what depends on state)."""
    kind = action["kind"]
    if kind in ("cordon", "uncordon", "drain"):
        for host in action["hosts"]:
            device = stack.topology.devices.get(host)
            if device is None or device.tier != 0:
                raise ActionError(f"{kind}: {host!r} is not a host of "
                                  f"this cluster")
    elif kind == "inject-fault":
        _fault_domains(stack.params, action["document"])
    elif kind == "set-power-cap":
        _cap_from_action(action, stack.total_hosts)


def apply_cluster_action(stack, action: Dict[str, Any]
                         ) -> Dict[str, Any]:
    """Apply one normalized action to a live cluster stack.

    Returns a JSON-pure effect record (what the action actually did at
    this boundary); the record is derived state — the log keeps only
    the normalized action.
    """
    kind = action["kind"]
    if kind == "cordon":
        done = stack.allocator.cordon(action["hosts"])
        return {"kind": kind, "cordoned": sorted(done)}
    if kind == "uncordon":
        done = stack.allocator.uncordon(action["hosts"])
        return {"kind": kind, "uncordoned": sorted(done)}
    if kind == "drain":
        hit = set(action["hosts"])
        cordoned = stack.allocator.cordon(action["hosts"])
        preempted = []
        for name in stack.scheduler.running_jobs():
            allocation = stack.allocator.allocation(name)
            if allocation and hit.intersection(allocation.hosts):
                if stack.scheduler.interrupt_job(name, preempt=True):
                    preempted.append(name)
        return {"kind": kind, "cordoned": sorted(cordoned),
                "preempted": preempted}
    if kind == "preempt":
        ok = stack.scheduler.interrupt_job(action["job"], preempt=True)
        return {"kind": kind, "job": action["job"], "preempted": ok}
    if kind == "inject-fault":
        return _apply_fault_document(stack, action["document"])
    # set-power-cap
    cap = _cap_from_action(action, stack.total_hosts)
    try:
        stack.scheduler.set_power_cap(cap)
    except ValueError as exc:
        raise ActionError(f"set-power-cap: {exc}") from None
    return {"kind": kind,
            "hosts_allowed_now": cap.hosts_allowed(stack.sim.now)}


def _fault_domains(params, document: Dict[str, Any]
                   ) -> List[FaultDomain]:
    """Build and range-check a document's domains; each error names
    its entry."""
    domains = []
    for index, entry in enumerate(document.get("domains", ())):
        try:
            domains.append(FaultDomain(**entry).validate_against(params))
        except (TypeError, ValueError) as exc:
            raise ActionError(f"domains[{index}]: {exc}") from None
    return domains


def _apply_fault_document(stack, document: Dict[str, Any]
                          ) -> Dict[str, Any]:
    # The live tenants, by name: domains arm on the injector directly,
    # so no tenant needs coordinates.
    placed = [SimpleNamespace(name=name, spans=())
              for name in stack.scheduler.running_jobs()
              if stack.allocator.allocation(name) is not None]
    # Validate the whole document first (every error names its entry),
    # then arm: domains expand on the injector regardless of tenancy,
    # explicit faults ride on the named running job.
    domains = _fault_domains(stack.params, document)
    try:
        keyed = faults_from_document(stack.params, placed,
                                     {**document, "domains": []})
    except ValueError as exc:
        raise ActionError(str(exc)) from None
    armed = []
    for domain in domains:
        specs = inject_domain(stack.injector, stack.params, domain)
        armed.append({"domain": domain.describe(),
                      "members": [spec.target for spec in specs]})
    scheduled = []
    for job in sorted(keyed):
        spec = keyed[job]
        try:
            stack.injector.schedule(spec)
        except (KeyError, ValueError) as exc:
            raise ActionError(f"fault for job {job!r}: {exc}") from None
        scheduled.append({"job": job, "target": spec.target,
                          "effect": spec.effect.value})
    return {"kind": "inject-fault", "domains": armed,
            "faults": scheduled}
