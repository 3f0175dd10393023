"""Correlated fault domains: one event, many co-located failures.

Production failures are rarely independent: a tripped power domain
takes out a contiguous run of hosts, a buggy switch ASIC batch breaks
several ToRs at once, a bad optics batch ships dozens of flaky
transceivers into one block, a rack incident hits every host in the
rack ("I've Got 99 Problems But FLOPS Ain't One" builds its failure
model on exactly this correlation structure).  A :class:`FaultDomain`
is the generator: one string-seeded domain event expands
deterministically into a correlated set of
:class:`~repro.monitoring.faults.FaultSpec`s with jittered onset times
— the same domain, seed and cluster shape always reproduce the same
member faults, across processes (``random.Random`` hashes string seeds
with its own stable algorithm, the cross-process contract every
campaign here relies on).

Two modes per domain:

* ``hard`` — the loud manifestation (fail-stop, or fail-hang for rack
  thermal events): fatal logs, aborts, the detect->localize loop's hit
  path.
* ``gray`` — degradation without a clean alarm: hosts crawl or compute
  slows, but every link keeps carrier, so the pingmesh *census* (the
  recovery pipeline's first detection signal) never moves and the
  hotspot scan stays below its latency threshold — the miss path.
  :func:`inject_domain` reproduces the same miss at the live-injector
  level as a mild capacity-factor degrade on the member devices'
  links.

``faults_from_document`` is the JSON front door (``repro scale
--faults spec.json``): it validates every entry against the cluster
shape *before* any topology renaming, so a malformed target fails with
a structured error naming the offending fault instead of a deep
``KeyError``.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..monitoring.faults import (Effect, FaultSpec, Manifestation,
                                 RootCause)
from ..topology.astral import (AstralParams, host_name, parse_device,
                               tor_name)
from ..topology.elements import DeviceKind

__all__ = [
    "DOMAIN_KINDS",
    "DOMAIN_MODES",
    "FaultDomain",
    "domain_fault_specs",
    "expand_domains",
    "faults_from_document",
    "inject_domain",
]

DOMAIN_KINDS = ("power-domain", "switch-asic", "optics-batch", "rack")
DOMAIN_MODES = ("hard", "gray")

#: kind -> (targets switches?, contiguous victims?, root cause,
#:          hard manifestation, gray manifestation).  Gray picks the
#: alarm-free manifestation of the same physical cause: brownout
#: compute slowdown, silent drop-counter creep, dirty-optics crawl,
#: thermal hang.
_KIND_PROFILES = {
    "power-domain": (False, True, RootCause.HOST_ENV_CONFIG,
                     Manifestation.FAIL_STOP, Manifestation.FAIL_SLOW),
    "switch-asic": (True, False, RootCause.SWITCH_BUG,
                    Manifestation.FAIL_STOP, Manifestation.FAIL_SLOW),
    "optics-batch": (False, False, RootCause.NIC_ERROR,
                     Manifestation.FAIL_STOP, Manifestation.FAIL_SLOW),
    "rack": (False, True, RootCause.GPU_HARDWARE,
             Manifestation.FAIL_STOP, Manifestation.FAIL_HANG),
}


@dataclass(frozen=True)
class FaultDomain:
    """One correlated fault event against a (pod, block) locality.

    ``size`` member faults are drawn inside the block — contiguous for
    power/rack domains, scattered for ASIC/optics batches.  Onsets are
    jittered per member: iteration-indexed by default (each member
    strikes ``at_iteration + U[0, jitter_iterations]``), or on the
    timestamp clock when ``at_time_s`` is set (``at_time_s +
    U[0, jitter_s)`` — note timestamp faults always escalate bounded
    refinement to pod scope; see ``hierarchy.refine``).
    """

    kind: str
    pod: int = 0
    block: int = 0
    size: int = 2
    mode: str = "hard"
    seed: Union[int, str] = 0
    at_iteration: int = 1
    jitter_iterations: int = 1
    at_time_s: Optional[float] = None
    jitter_s: float = 0.5
    #: capacity factor :func:`inject_domain` applies in ``gray`` mode —
    #: mild enough to stay below the pingmesh hotspot threshold.
    gray_factor: float = 0.8

    def __post_init__(self) -> None:
        for name in ("pod", "block", "size", "at_iteration",
                     "jitter_iterations"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) \
                    or isinstance(value, bool):
                raise ValueError(f"domain {name} must be an integer, "
                                 f"got {value!r}")
        if self.kind not in _KIND_PROFILES:
            raise ValueError(
                f"unknown fault-domain kind {self.kind!r}; expected "
                f"one of {DOMAIN_KINDS}")
        if self.mode not in DOMAIN_MODES:
            raise ValueError(
                f"unknown fault-domain mode {self.mode!r}; expected "
                f"one of {DOMAIN_MODES}")
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1: {self.size}")
        if self.pod < 0 or self.block < 0:
            raise ValueError(
                f"domain pod/block cannot be negative: "
                f"pod={self.pod} block={self.block}")
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration cannot be negative: {self.at_iteration}")
        if self.jitter_iterations < 0 or self.jitter_s < 0:
            raise ValueError("onset jitter cannot be negative")
        if self.at_time_s is not None and self.at_time_s < 0:
            raise ValueError(
                f"at_time_s cannot be negative: {self.at_time_s}")
        if not 0.0 < self.gray_factor <= 1.0:
            raise ValueError(
                f"gray_factor must be in (0, 1]: {self.gray_factor}")

    def rng(self) -> random.Random:
        """The domain's deterministic expansion stream."""
        return random.Random(
            f"fault-domain:{self.seed}:{self.kind}:{self.mode}:"
            f"{self.pod}:{self.block}:{self.size}")

    def describe(self) -> str:
        return (f"{self.kind}[{self.mode}] pod {self.pod} block "
                f"{self.block} size {self.size}")

    def validate_against(self, params: AstralParams) -> "FaultDomain":
        """Range-check the domain against a cluster shape; returns self."""
        if self.pod >= params.pods:
            raise ValueError(
                f"domain {self.describe()}: pod {self.pod} out of "
                f"range (cluster has {params.pods} pods)")
        if self.block >= params.blocks_per_pod:
            raise ValueError(
                f"domain {self.describe()}: block {self.block} out of "
                f"range ({params.blocks_per_pod} blocks per pod)")
        switches, _, _, _, _ = _KIND_PROFILES[self.kind]
        pool = (params.gpus_per_host * params.nic_ports if switches
                else params.hosts_per_block)
        if self.size > pool:
            what = "ToRs" if switches else "hosts"
            raise ValueError(
                f"domain {self.describe()}: size {self.size} exceeds "
                f"the block's {pool} {what}")
        return self


def _domain_targets(params: AstralParams, domain: FaultDomain,
                    rng: random.Random) -> List[str]:
    """Member device names, drawn from the domain's locality."""
    switches, contiguous, _, _, _ = _KIND_PROFILES[domain.kind]
    if switches:
        pairs = [(rail, group)
                 for rail in range(params.gpus_per_host)
                 for group in range(params.nic_ports)]
        chosen = sorted(rng.sample(pairs, domain.size))
        return [tor_name(domain.pod, domain.block, rail, group)
                for rail, group in chosen]
    per_block = params.hosts_per_block
    if contiguous:
        start = rng.randrange(max(1, per_block - domain.size + 1))
        hosts = range(start, start + domain.size)
    else:
        hosts = sorted(rng.sample(range(per_block), domain.size))
    return [host_name(domain.pod, domain.block, host) for host in hosts]


def _member_spec(domain: FaultDomain, target: str,
                 rng: random.Random) -> FaultSpec:
    _, _, cause, hard, gray = _KIND_PROFILES[domain.kind]
    manifestation = gray if domain.mode == "gray" else hard
    if domain.at_time_s is not None:
        at_iteration, at_time = 1, (domain.at_time_s
                                    + rng.uniform(0.0, domain.jitter_s))
    else:
        at_iteration = domain.at_iteration + rng.randrange(
            domain.jitter_iterations + 1)
        at_time = None
    return FaultSpec(
        cause=cause, manifestation=manifestation, target=target,
        at_iteration=at_iteration, at_time_s=at_time,
        detail=f"{domain.kind}:{domain.seed}")


def domain_fault_specs(params: AstralParams,
                       domain: FaultDomain) -> List[FaultSpec]:
    """Expand one domain into its correlated member faults (unkeyed)."""
    domain.validate_against(params)
    rng = domain.rng()
    return [_member_spec(domain, target, rng)
            for target in _domain_targets(params, domain, rng)]


def expand_domains(params: AstralParams, placed: Sequence,
                   domains: Sequence[FaultDomain]
                   ) -> Dict[str, FaultSpec]:
    """Expand domains into job-keyed faults for a hierarchical run.

    Each member fault attaches to the placed job occupying its target
    (the job whose hosts include the target host, or — for a ToR — a
    job resident in the target's block).  One fault per job: when a
    domain hits two hosts of the same tenant, the first member wins
    (the job is already broken); members landing on idle hosts are
    dropped.  Expansion order is deterministic, so the same document
    always yields the same fault map.
    """
    # Every member target lies in its domain's (pod, block)
    # (_domain_targets), so only those blocks' hosts and residents are
    # indexed, in placement order, and only their names are rendered.
    hit = {(domain.pod, domain.block) for domain in domains}
    owner: Dict[str, str] = {}
    by_block: Dict[tuple, List] = {}
    for placed_job in placed:
        for pod, block, first, count in placed_job.spans:
            if (pod, block) in hit:
                for host in range(first, first + count):
                    owner[host_name(pod, block, host)] = placed_job.name
                by_block.setdefault((pod, block), []).append(placed_job)
    faults: Dict[str, FaultSpec] = {}
    for domain in domains:
        switches = _KIND_PROFILES[domain.kind][0]
        for spec in domain_fault_specs(params, domain):
            if switches:
                residents = by_block.get((domain.pod, domain.block), [])
                name = next((p.name for p in residents
                             if p.name not in faults), None)
            else:
                name = owner.get(spec.target)
            if name is None or name in faults:
                continue
            faults[name] = spec
    return faults


def inject_domain(injector, params: AstralParams,
                  domain: FaultDomain) -> List[FaultSpec]:
    """Arm one domain on a live :class:`FailureInjector`.

    ``hard`` members go through the injector's structural mapping
    (links die, devices go dark — the census moves and the recovery
    pipeline fires).  ``gray`` members degrade every link of each
    member device to ``gray_factor`` capacity instead: carrier stays
    up, the census never moves, and the detect->localize loop misses —
    while the traffic on those links measurably slows.  Returns the
    expanded member specs (scheduling order).
    """
    specs = domain_fault_specs(params, domain)
    if domain.mode == "hard":
        for spec in specs:
            injector.schedule(spec)
        return specs
    rng = domain.rng()
    for spec in specs:
        at = spec.at_time_s
        if at is None:
            at = (domain.at_time_s or 0.0) + rng.uniform(
                0.0, max(domain.jitter_s, 1e-9))
        for link in injector.topology.links_of(spec.target):
            injector.degrade_link(link.link_id, domain.gray_factor,
                                  at=at)
    return specs


def _enum_by_value(enum_cls, value: str, where: str):
    for member in enum_cls:
        if member.value == value:
            return member
    raise ValueError(
        f"{where}: unknown {enum_cls.__name__.lower()} {value!r}; "
        f"expected one of {sorted(m.value for m in enum_cls)}")


def _check_device_target(params: AstralParams, target: str,
                         where: str) -> None:
    """Range-check a host/ToR/Agg-shaped target against the cluster
    shape, so a typo'd coordinate fails here with the fault named
    instead of as a ``KeyError`` deep inside topology renaming."""
    parsed = parse_device(target)
    if parsed is None or parsed[1] is None:
        return                       # core / link: / job-name target
    kind, pod, block, _, _, host = parsed
    if pod >= params.pods:
        raise ValueError(
            f"{where}: target {target!r} names pod {pod} but the "
            f"cluster has {params.pods} pods")
    if block is not None and block >= params.blocks_per_pod:
        raise ValueError(
            f"{where}: target {target!r} names block {block} but "
            f"pods have {params.blocks_per_pod} blocks")
    if kind is DeviceKind.HOST and host >= params.hosts_per_block:
        raise ValueError(
            f"{where}: target {target!r} names host {host} "
            f"but blocks have {params.hosts_per_block} hosts")


def faults_from_document(params: AstralParams, placed: Sequence,
                         document: dict) -> Dict[str, FaultSpec]:
    """Parse a ``{"domains": [...], "faults": [...]}`` JSON document.

    Domain entries are :class:`FaultDomain` field dicts; explicit
    fault entries are FaultSpec field dicts plus a ``"job"`` key
    naming the tenant the fault rides on (``cause`` /
    ``manifestation`` / optional ``effect`` by enum value).  Every
    entry is validated against *params* and *placed* before any
    expansion, and every error names the offending entry.
    """
    if not isinstance(document, dict):
        raise ValueError(
            f"fault document must be an object with 'domains' and/or "
            f"'faults' lists, got {type(document).__name__}")
    unknown = sorted(set(document) - {"domains", "faults"})
    if unknown:
        raise ValueError(
            f"fault document has unknown keys {unknown}; expected "
            "'domains' and/or 'faults'")
    by_name = {p.name: p for p in placed}

    domains: List[FaultDomain] = []
    for index, entry in enumerate(document.get("domains", ())):
        where = f"domains[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got "
                             f"{type(entry).__name__}")
        try:
            domain = FaultDomain(**entry)
        except TypeError as exc:
            raise ValueError(f"{where}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        try:
            domain.validate_against(params)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        domains.append(domain)

    faults = expand_domains(params, placed, domains)

    for index, entry in enumerate(document.get("faults", ())):
        where = f"faults[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got "
                             f"{type(entry).__name__}")
        fields = dict(entry)
        job = fields.pop("job", None)
        if not job:
            raise ValueError(f"{where}: missing 'job' (the tenant the "
                             "fault rides on)")
        if not isinstance(job, str) \
                or not isinstance(fields.get("target", ""), str):
            raise ValueError(f"{where}: 'job' and 'target' must be "
                             f"names (strings)")
        if job not in by_name:
            raise ValueError(
                f"{where}: job {job!r} is not a placed tenant "
                f"(have {sorted(by_name)[:8]}...)"
                if len(by_name) > 8 else
                f"{where}: job {job!r} is not a placed tenant "
                f"(have {sorted(by_name)})")
        for key in ("cause", "manifestation"):
            if key not in fields:
                raise ValueError(f"{where}: missing {key!r}")
        fields["cause"] = _enum_by_value(RootCause, fields["cause"],
                                         where)
        fields["manifestation"] = _enum_by_value(
            Manifestation, fields["manifestation"], where)
        if "effect" in fields:
            fields["effect_override"] = _enum_by_value(
                Effect, fields.pop("effect"), where)
        target = fields.get("target", "")
        if target and target != job:
            _check_device_target(params, target, where)
        try:
            spec = FaultSpec(**fields)
        except TypeError as exc:
            raise ValueError(f"{where}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (spec.profile.target_kind == "job"
                and spec.effect_override is None
                and spec.target != job):
            raise ValueError(
                f"{where}: cause {spec.cause.value!r} targets the job "
                f"itself; target must be {job!r}, got {spec.target!r}")
        faults[job] = spec
    return faults
