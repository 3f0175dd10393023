"""Seeded random-but-valid scenario sampling for the fuzz campaign.

A scenario is a JSON-serialisable :class:`ScenarioSpec`: a topology
family with sampled dimensions (Astral plus the baseline variants,
varying pod counts and oversubscription), a workload (simultaneous
batches, cluster-trace-staggered multijob mixes, or a collective), and
a fault schedule (capacity degrades, link kills, flaps).  Every case is
derived from ``random.Random(f"validation:{seed}:{index}")`` — string
seeding keeps draws independent of ``PYTHONHASHSEED`` and of each
other, so ``repro validate --seed S --case I`` reproduces exactly one
case with no shared state.

Flow ids are not stored in the spec: rebuilding the flows in spec
order after :func:`~repro.network.flows.reset_flow_ids` reassigns the
same ids (and therefore the same ECMP source ports and paths), which
is what makes a spec self-contained.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster.workload import WorkloadGenerator
from ..network.flows import Flow, make_flow, reset_flow_ids
from ..topology import (
    AstralParams,
    ClosParams,
    build_astral,
    build_clos,
    build_full_interconnect_tier2,
    build_rail_only,
)
from ..topology.astral import host_name
from ..topology.elements import Topology

__all__ = [
    "FAMILIES",
    "PROFILES",
    "FaultAction",
    "FlowSpec",
    "ScenarioGenerator",
    "ScenarioSpec",
    "build_flows",
    "build_topology",
]

#: Topology families the generator samples from.
FAMILIES = ("astral", "astral_oversub", "clos", "tier2_full",
            "rail_only")

#: Workload/fault profiles, cycled by case index so a fixed-size
#: campaign always covers all of them.
PROFILES = ("batch", "timed", "degrade", "faulted", "collective",
            "hierarchical", "faulted-hierarchical", "serving")


@dataclass(frozen=True)
class FlowSpec:
    """One flow, by endpoint names (ids are assigned at build time)."""

    src: str
    dst: str
    rail: int
    size_bits: float
    start_s: float = 0.0
    job: str = ""


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault on a link.

    ``kind`` is ``degrade`` (capacity scaled by ``factor``), ``kill``
    (permanent), or ``flap`` (down, then asks to return after
    ``down_s``; the injector's hold-down defers the return).
    """

    kind: str
    link_id: int
    at_s: float
    factor: float = 1.0
    down_s: float = 0.0


@dataclass
class ScenarioSpec:
    """A self-contained, JSON-round-trippable validation case."""

    seed: int
    index: int
    family: str
    profile: str
    topo: Dict[str, Any]
    flows: List[FlowSpec] = field(default_factory=list)
    faults: List[FaultAction] = field(default_factory=list)
    #: injector hold-down window, scaled to the scenario's timescale.
    dampening_s: float = 1.0
    #: collective profile only: {kind, hosts, rail, size_bits}.
    collective: Optional[Dict[str, Any]] = None
    #: hierarchical profile only: {jobs: [...], power_caps: {...}} —
    #: the folded-vs-flat cross-check scenario.
    hierarchy: Optional[Dict[str, Any]] = None
    #: serving profile only: {scenario: ServingScenario.to_params(),
    #: probe_rate: float} — the diurnal co-schedule oracle scenario.
    serving: Optional[Dict[str, Any]] = None

    @property
    def repro_command(self) -> str:
        return f"repro validate --seed {self.seed} --case {self.index}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "index": self.index,
            "family": self.family,
            "profile": self.profile,
            "topo": dict(self.topo),
            "flows": [asdict(flow) for flow in self.flows],
            "faults": [asdict(fault) for fault in self.faults],
            "dampening_s": self.dampening_s,
            "collective": dict(self.collective)
            if self.collective else None,
            "hierarchy": dict(self.hierarchy)
            if self.hierarchy else None,
            "serving": dict(self.serving)
            if self.serving else None,
            "repro": self.repro_command,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        return cls(
            seed=data["seed"],
            index=data["index"],
            family=data["family"],
            profile=data["profile"],
            topo=dict(data["topo"]),
            flows=[FlowSpec(**flow) for flow in data["flows"]],
            faults=[FaultAction(**fault) for fault in data["faults"]],
            dampening_s=data.get("dampening_s", 1.0),
            collective=dict(data["collective"])
            if data.get("collective") else None,
            hierarchy=dict(data["hierarchy"])
            if data.get("hierarchy") else None,
            serving=dict(data["serving"])
            if data.get("serving") else None,
        )


def build_topology(spec: ScenarioSpec) -> Topology:
    """Instantiate the spec's topology (deterministic link ids)."""
    if spec.family == "clos":
        return build_clos(ClosParams(**spec.topo))
    params = AstralParams(**spec.topo)
    if spec.family == "tier2_full":
        return build_full_interconnect_tier2(params)
    if spec.family == "rail_only":
        return build_rail_only(params)
    return build_astral(params)


def build_flows(spec: ScenarioSpec) -> List[Flow]:
    """Rebuild the spec's flows with freshly-reset (stable) ids."""
    reset_flow_ids()
    flows = []
    for flow_spec in spec.flows:
        flow = make_flow(flow_spec.src, flow_spec.dst, flow_spec.rail,
                         flow_spec.size_bits, job=flow_spec.job)
        flow.start_time_s = flow_spec.start_s
        flows.append(flow)
    return flows


class ScenarioGenerator:
    """Derive :class:`ScenarioSpec` cases from one campaign seed."""

    def __init__(self, seed: int):
        self.seed = seed

    # -- sampling helpers --------------------------------------------------
    def _sample_topo(self, rng: random.Random, family: str
                     ) -> Dict[str, Any]:
        if family == "clos":
            params = rng.choice([ClosParams.tiny(), ClosParams.small()])
            return asdict(params)
        params = AstralParams(
            pods=rng.choice([1, 2]),
            blocks_per_pod=rng.choice([1, 2]),
            hosts_per_block=rng.choice([2, 4]),
            gpus_per_host=rng.choice([1, 2]),
            nic_ports=2,
            aggs_per_group=rng.choice([2, 4]),
            cores_per_group=2,
            tier3_oversubscription=rng.choice([1.5, 2.0])
            if family == "astral_oversub" else 1.0,
        )
        return asdict(params)

    def _sample_flows(self, rng: random.Random, spec: ScenarioSpec
                      ) -> List[FlowSpec]:
        topo = build_topology(spec)
        hosts = sorted(host.name for host in topo.hosts())
        rails = spec.topo["gpus_per_host"]
        if spec.family == "rail_only":
            # No Core tier: cross-pod destinations are unreachable.
            pod = rng.choice(sorted({topo.devices[h].pod for h in hosts}))
            hosts = [h for h in hosts if topo.devices[h].pod == pod]
        n_flows = rng.randint(2, min(12, len(hosts) * 2))
        flow_specs = []
        for index in range(n_flows):
            src, dst = rng.sample(hosts, 2)
            size = 10 ** rng.uniform(8.0, 11.0)
            flow_specs.append(FlowSpec(
                src=src, dst=dst, rail=rng.randrange(rails),
                size_bits=size, job=f"job{index % 3}"))
        return flow_specs

    def _stagger_starts(self, rng: random.Random,
                        flow_specs: List[FlowSpec]) -> List[FlowSpec]:
        """Give flows cluster-trace arrival structure.

        Job arrival times come from the cluster layer's seeded
        :class:`WorkloadGenerator` (an exponential interarrival
        process), rescaled onto the transfer timescale so the stagger
        overlaps the transfers instead of serialising them.
        """
        trace = WorkloadGenerator(
            seed=rng.randrange(2 ** 31)).generate(len(flow_specs))
        max_submit = max(job.submit_s for job in trace) or 1.0
        line_bps = 200e9
        horizon = 0.5 * sum(f.size_bits for f in flow_specs) \
            / line_bps / max(1, len(flow_specs) // 2)
        return [
            FlowSpec(src=f.src, dst=f.dst, rail=f.rail,
                     size_bits=f.size_bits,
                     start_s=job.submit_s / max_submit * horizon,
                     job=f.job)
            for f, job in zip(flow_specs, trace)
        ]

    def _path_links(self, spec: ScenarioSpec) -> List[int]:
        """Link ids actually crossed by the spec's flows."""
        from ..network.fabric import Fabric
        topo = build_topology(spec)
        fabric = Fabric(topo)
        flows = build_flows(spec)
        used: List[int] = []
        for path in fabric.resolve_paths(flows).values():
            for link_id in path.link_ids:
                if link_id not in used:
                    used.append(link_id)
        return used

    def _est_makespan(self, spec: ScenarioSpec) -> float:
        line_bps = 200e9
        total = sum(f.size_bits for f in spec.flows)
        latest = max((f.start_s for f in spec.flows), default=0.0)
        return latest + total / line_bps

    def _sample_faults(self, rng: random.Random, spec: ScenarioSpec
                       ) -> List[FaultAction]:
        used = self._path_links(spec)
        if not used:
            return []
        horizon = self._est_makespan(spec)
        faults = []
        for _ in range(rng.randint(1, 2)):
            link_id = rng.choice(used)
            at_s = rng.uniform(0.05, 0.8) * horizon
            if spec.profile == "degrade":
                faults.append(FaultAction(
                    kind="degrade", link_id=link_id, at_s=at_s,
                    factor=rng.uniform(0.3, 0.9)))
            else:
                kind = rng.choice(["kill", "flap"])
                faults.append(FaultAction(
                    kind=kind, link_id=link_id, at_s=at_s,
                    down_s=rng.uniform(0.1, 0.5) * horizon))
        return sorted(faults, key=lambda fault: fault.at_s)

    def _sample_hierarchy(self, rng: random.Random,
                          topo: Dict[str, Any]) -> Dict[str, Any]:
        """A pod-symmetric tenant mix for the flat-vs-folded oracle.

        One pod's blocks are decomposed into contiguous 1- or 2-block
        segments, each carrying a sampled single-rail ring job; the
        same segment layout repeats in every pod, so the placer's
        pod-major cursor lands the copies at identical pod-relative
        slots and the symmetry detector has real folds to find.  Rings
        keep the line-rate certificate true (2-block rings put at most
        one boundary leg per block per rail, under the ToR->Agg
        headroom of 2), so the cross-check can demand exact ``==`` —
        including under sampled per-pod power caps, which scale
        compute identically on both sides.
        """
        blocks = topo["blocks_per_pod"]
        hosts_per_block = topo["hosts_per_block"]
        rails = topo["gpus_per_host"]
        segments: List[int] = []
        remaining = blocks
        while remaining > 0:
            width = 2 if remaining >= 2 and rng.random() < 0.4 else 1
            segments.append(width)
            remaining -= width
        shapes = [
            {
                "n_hosts": width * hosts_per_block,
                "rail": rng.randrange(rails),
                "compute_time_s": rng.choice([0.2, 0.5]),
                "comm_size_bits": round(10 ** rng.uniform(8.5, 9.8)),
                "iterations": 3,
                "compute_noise_frac": 0.01,
                "seed": rng.randrange(100),
            }
            for width in segments
        ]
        jobs = []
        for pod in range(topo["pods"]):
            for k, shape in enumerate(shapes):
                jobs.append(dict(shape, name=f"t{pod:02d}x{k:02d}"))
        power_caps: Dict[str, float] = {}
        if rng.random() < 0.5:
            for pod in range(topo["pods"]):
                if rng.random() < 0.5:
                    power_caps[str(pod)] = rng.choice([0.6, 0.8])
        return {"jobs": jobs, "power_caps": power_caps}

    def _sample_hierarchy_faults(self, rng: random.Random,
                                 topo: Dict[str, Any],
                                 hierarchy: Dict[str, Any]) -> None:
        """Attach a fault document plus the ladder level it predicts.

        Variants cover every rung the bounded-refinement oracle needs:
        correlated domains whose member faults stay inside the
        block-level certificate (``expect_level == "block"``), a
        fail-stop switch-ASIC domain and a timestamp fault that must
        provably escalate to whole-pod refinement (``"pod"``).  The
        expected level is recorded in the spec so the oracle asserts
        the *ladder*, not just result equality.
        """
        hosts_per_block = topo["hosts_per_block"]
        per_pod = [job for job in hierarchy["jobs"]
                   if job["name"].startswith("t00")]
        starts, cursor = [], 0
        for job in per_pod:
            starts.append(cursor)
            cursor += max(1, job["n_hosts"] // hosts_per_block)
        pod = rng.randrange(topo["pods"])
        k = rng.randrange(len(per_pod))
        block = starts[k]
        job_name = f"t{pod:02d}x{k:02d}"
        variant = rng.choice(["domain-hard", "domain-gray", "asic-stop",
                              "explicit", "timed"])
        document: Dict[str, Any] = {}
        if variant == "domain-hard":
            kind = rng.choice(["power-domain", "optics-batch", "rack"])
            document["domains"] = [{
                "kind": kind, "pod": pod, "block": block,
                "size": min(2, hosts_per_block), "mode": "hard",
                "seed": rng.randrange(1000)}]
            expect = "block"
        elif variant == "domain-gray":
            kind = rng.choice(["power-domain", "optics-batch",
                               "switch-asic", "rack"])
            pool = (topo["gpus_per_host"] * topo["nic_ports"]
                    if kind == "switch-asic" else hosts_per_block)
            document["domains"] = [{
                "kind": kind, "pod": pod, "block": block,
                "size": min(2, pool), "mode": "gray",
                "seed": rng.randrange(1000)}]
            # The optics gray crawl (NIC fail-slow) degrades capacity
            # while still transmitting: off line rate, so the block
            # certificate refuses it.
            expect = "pod" if kind == "optics-batch" else "block"
        elif variant == "asic-stop":
            # SWITCH_BUG fail-stop severs paths: hash-sensitive, so the
            # certificate must refuse block scope.
            document["domains"] = [{
                "kind": "switch-asic", "pod": pod, "block": block,
                "size": 1, "mode": "hard",
                "seed": rng.randrange(1000)}]
            expect = "pod"
        elif variant == "explicit":
            host = host_name(pod, block, 0)
            fault = rng.choice([
                {"cause": "nic-error", "manifestation": "fail-hang",
                 "target": host},
                {"cause": "user-code", "manifestation": "fail-stop",
                 "target": job_name},
                {"cause": "gpu-hardware", "manifestation": "fail-stop",
                 "target": host},
                {"cause": "ccl-bug", "manifestation": "fail-hang",
                 "target": host},
            ])
            document["faults"] = [dict(fault, job=job_name,
                                       at_iteration=rng.choice([1, 2]))]
            expect = "block"
        else:
            # Timestamp onset: epoch-sensitive, always whole-pod.
            document["faults"] = [{
                "job": job_name, "cause": "nic-error",
                "manifestation": "fail-slow",
                "target": host_name(pod, block, 0),
                "at_time_s": round(rng.uniform(0.05, 0.4), 3)}]
            expect = "pod"
        hierarchy["fault_document"] = document
        hierarchy["expect_level"] = expect

    def _sample_serving(self, rng: random.Random,
                        index: int) -> Dict[str, Any]:
        """A minutes-scale diurnal serving scenario for the oracles.

        Dimensions stay tiny (2 pods, 1 block) and demand is scaled to
        a few requests/s so the whole co-schedule — trace, autoscale,
        folded pool sims, KV co-sim, capped training — runs in well
        under a second per battery invocation, of which the powercap
        identity oracle needs three.  ``power_cap_frac`` deliberately
        samples 1.0 sometimes: that is the never-binding-cap identity
        in its natural habitat rather than a synthetic transform.
        """
        scenario = {
            "preset": None,
            "dims": {
                "pods": 2,
                "blocks_per_pod": 1,
                "hosts_per_block": rng.choice([4, 8]),
                "gpus_per_host": 2,
                "aggs_per_group": 2,
                "cores_per_group": 2,
            },
            "duration_s": float(rng.choice([3600, 7200])),
            "bucket_s": float(rng.choice([900, 1800])),
            "start_hour": float(rng.choice([0, 6, 12])),
            "users_m_scale": rng.choice([0.0005, 0.001, 0.002]),
            "seed": f"{self.seed}:{index}",
            "batch_max": rng.choice([4, 8]),
            "context_len": rng.choice([512, 1024]),
            "output_len_mean": 32,
            "prefill_hosts_per_pair": 1,
            "decode_hosts_per_pair": rng.choice([2, 4]),
            "replica_hosts": 1,
            "target_util": rng.choice([0.6, 0.7]),
            "power_cap_frac": rng.choice([0.7, 0.9, 1.0]),
            "pool_window_s": float(rng.choice([20, 30])),
            "train_jobs": rng.choice([0, 4, 8]),
            "cosim_iterations": 2,
            "max_kv_flows": 8,
            "slice_prefill_hosts": 1,
            "slice_decode_hosts": 2,
            "slice_train_hosts": 2,
        }
        return {
            "scenario": scenario,
            "probe_rate": rng.choice([0.5, 1.0, 2.0]),
        }

    def _sample_collective(self, rng: random.Random, spec: ScenarioSpec
                           ) -> Dict[str, Any]:
        hosts_per_block = spec.topo["hosts_per_block"]
        n = rng.randint(3, max(3, hosts_per_block))
        hosts = [host_name(0, 0, i) for i in range(n)]
        return {
            "kind": rng.choice(["allreduce", "alltoall"]),
            "hosts": hosts,
            "rail": rng.randrange(spec.topo["gpus_per_host"]),
            "size_bits": 10 ** rng.uniform(9.6, 10.6),
        }

    # -- public API --------------------------------------------------------
    def spec(self, index: int) -> ScenarioSpec:
        """The ``index``-th case of this campaign seed."""
        rng = random.Random(f"validation:{self.seed}:{index}")
        profile = PROFILES[index % len(PROFILES)]
        if profile == "collective":
            # The collective differentials assume the Astral shape and
            # a block wide enough to host the ring.
            family = "astral"
            topo = self._sample_topo(rng, family)
            topo["hosts_per_block"] = 4
            topo["gpus_per_host"] = rng.choice([2, 4])
            topo["aggs_per_group"] = max(topo["aggs_per_group"],
                                         topo["gpus_per_host"])
            topo["cores_per_group"] = topo["aggs_per_group"]
            spec = ScenarioSpec(seed=self.seed, index=index,
                                family=family, profile=profile,
                                topo=topo)
            spec.collective = self._sample_collective(rng, spec)
            return spec
        if profile in ("hierarchical", "faulted-hierarchical"):
            # Folding is an Astral-shape property (pod/rail symmetry).
            topo = asdict(AstralParams(
                pods=rng.choice([2, 3]),
                blocks_per_pod=rng.choice([1, 2]),
                hosts_per_block=rng.choice([2, 4]),
                gpus_per_host=rng.choice([1, 2]),
                nic_ports=2,
                aggs_per_group=2,
                cores_per_group=2,
            ))
            spec = ScenarioSpec(seed=self.seed, index=index,
                                family="astral", profile=profile,
                                topo=topo)
            spec.hierarchy = self._sample_hierarchy(rng, topo)
            if profile == "faulted-hierarchical":
                self._sample_hierarchy_faults(rng, topo, spec.hierarchy)
            return spec
        if profile == "serving":
            serving = self._sample_serving(rng, index)
            topo = dict(serving["scenario"]["dims"])
            return ScenarioSpec(seed=self.seed, index=index,
                                family="astral", profile=profile,
                                topo=topo, serving=serving)
        family = rng.choice(FAMILIES)
        if profile == "faulted" and family == "rail_only":
            # Rail-only has no Core detour; a kill strands every flow
            # on the ToR pair, which tests nothing but the handler.
            family = "astral"
        spec = ScenarioSpec(seed=self.seed, index=index, family=family,
                            profile=profile,
                            topo=self._sample_topo(rng, family))
        spec.flows = self._sample_flows(rng, spec)
        if profile in ("timed", "degrade", "faulted"):
            spec.flows = self._stagger_starts(rng, spec.flows)
        if profile in ("degrade", "faulted"):
            spec.faults = self._sample_faults(rng, spec)
            spec.dampening_s = 0.2 * self._est_makespan(spec)
        return spec

    def specs(self, n_cases: int) -> List[ScenarioSpec]:
        return [self.spec(index) for index in range(n_cases)]
