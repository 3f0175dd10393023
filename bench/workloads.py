"""The benchmark workloads.

Each workload generates every input from the seed and hands the
program only those inputs.  One child process runs one workload as
``setup`` (imports and everything a user pays before the first timed
operation), ``prepare`` (untimed per-pass inputs), ``run`` (the timed,
fixed amount of work), ``verify`` (untimed digest and checks) and
``teardown``.  All are fixed-work runs, not open-loop load.

:data:`WORKLOADS` are the ones ``BENCHMARK.json`` lists.  ``twin-http``
and ``validate-sweep`` run only when named: their run times spread too
widely from run to run to serve as regression gates (see README).

``toy=True`` shrinks every workload to seconds for ``test_bench.py``;
the golden digests cover only the full sizes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import RESULTS, ROOT


@dataclass
class Outcome:
    """What one timed pass produced, as the child reports it."""

    digest: str
    attempted: int
    failed: int
    #: workload-level per-layer counters (``farm.*``, ``hierarchy.*``...)
    counters: Dict[str, float] = field(default_factory=dict)
    #: client-side latency samples in seconds, by request kind.
    latencies: Dict[str, List[float]] = field(default_factory=dict)


def sha256_json(value: Any) -> str:
    """Digest of a JSON value in canonical form (sorted keys, no
    spaces); floats keep their shortest round-trip ``repr``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    why = ""
    #: every pass in one process does the same work, so a process may
    #: run several.
    repeatable = True
    #: fewest processes per run: set-up is measured once per process,
    #: and its median needs several.
    processes = 3

    def setup(self, seed: int, trace: bool) -> Any:
        raise NotImplementedError

    def prepare(self, state: Any) -> Any:
        return None

    def run(self, state: Any, prepared: Any) -> Any:
        raise NotImplementedError

    def verify(self, state: Any, prepared: Any, output: Any) -> Outcome:
        raise NotImplementedError

    def peak_rss_mb(self, state: Any) -> float:
        """Peak RSS so far in MiB: max(self, reaped children)
        ``ru_maxrss``, which is KiB on Linux."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, children) / 1024.0

    def teardown(self, state: Any) -> Dict[str, Any]:
        """Release what ``setup`` started; returns the number of
        ``failed`` ops and, for the twin, the server-side ``trace``."""
        return {"failed": 0}


class EngineA2A(Workload):
    """Windowed all-to-all on one :class:`FabricEngine`."""

    name = "engine-a2a"
    why = ("windowed all-to-all on the flow engine: the max-min solver "
           "fill dominates the run, routing dominates set-up")

    def __init__(self, toy: bool = False):
        if toy:
            self.dims = dict(pods=1, blocks_per_pod=2, hosts_per_block=8,
                             gpus_per_host=2, aggs_per_group=2,
                             cores_per_group=2)
            self.window = 3
        else:
            self.dims = dict(pods=4, blocks_per_pod=8, hosts_per_block=32,
                             gpus_per_host=2, aggs_per_group=4,
                             cores_per_group=4)
            self.window = 8
        self.hosts = (self.dims["pods"] * self.dims["blocks_per_pod"]
                      * self.dims["hosts_per_block"])

    def setup(self, seed, trace):
        from repro.core import GpuAllocator, PlacementPolicy
        from repro.network import Fabric
        from repro.topology import AstralParams, build_astral

        topology = build_astral(AstralParams(**self.dims))
        allocation = GpuAllocator(topology).allocate(
            "bench", self.hosts, PlacementPolicy.PACKED)
        endpoints = allocation.endpoints(rail=0)
        rng = random.Random(f"bench-engine:{seed}")
        per_pair_bits = 64e9 / self.hosts
        # Each host sends to its `window` successors on rail 0, each flow
        # one or two units, all starting at t=0.
        pairs = [(src, endpoints[(index + step) % self.hosts],
                  per_pair_bits * rng.choice((1, 2)))
                 for index, src in enumerate(endpoints)
                 for step in range(1, self.window + 1)]
        fabric = Fabric(topology)
        paths = fabric.resolve_paths(self._flows(pairs))
        return {"topology": topology, "router": fabric.router,
                "pairs": pairs, "paths": paths}

    @staticmethod
    def _flows(pairs):
        from repro.network import reset_flow_ids
        from repro.network.flows import make_flow
        reset_flow_ids()
        return [make_flow(src.host, dst.host, dst.rail, bits,
                          dst_rail=dst.rail, collective="all_to_all")
                for src, dst, bits in pairs]

    def prepare(self, state):
        from repro.network import Fabric
        from repro.network.engine import FabricEngine

        # A fresh fabric (cold hop cache) over the set-up router, so
        # every pass does the same work as a one-shot run.
        fabric = Fabric(state["topology"], router=state["router"])
        return FabricEngine(fabric), self._flows(state["pairs"])

    def run(self, state, prepared):
        engine, flows = prepared
        engine.submit_many(flows, paths=state["paths"], start_time_s=0.0)
        return engine.run()

    def verify(self, state, prepared, output):
        _, flows = prepared
        finish = output.finish_times_s
        unfinished = sum(1 for flow in flows
                         if not finish.get(flow.flow_id, -1.0) >= 0.0)
        return Outcome(
            digest=sha256_json(sorted((fid, repr(t))
                                      for fid, t in finish.items())),
            attempted=len(flows), failed=unfinished)


class PaperScale(Workload):
    """Four ``execute_spec`` runs at 512K GPUs, as ``repro scale`` and
    ``repro serve`` issue them."""

    name = "paper-scale"
    why = ("512K-GPU folded runs through execute_spec: routing and the "
           "hierarchy fold dominate, the solver barely runs")
    # In-process memos (fault probes, serving step costs) make a second
    # pass cheaper than the fresh process each CLI run gets.
    repeatable = False
    # A pass takes about 17 s, so two keep a run within 45 s.
    processes = 2

    def __init__(self, toy: bool = False):
        self.scale = "4k" if toy else "512k"

    def setup(self, seed, trace):
        # The runners import these lazily; a `repro scale` process has
        # them loaded before it starts work.
        import repro.hierarchy  # noqa: F401
        import repro.resilience  # noqa: F401
        from repro.farm import TaskSpec
        from repro.hierarchy import preset_params
        from repro.serving import ServingScenario

        params = preset_params(self.scale)
        rng = random.Random(f"bench-paper:{seed}")
        domain = {"kind": "optics-batch", "pod": rng.randrange(params.pods),
                  "block": rng.randrange(params.blocks_per_pod),
                  "size": 1, "mode": "hard", "seed": seed}
        # `repro scale --gpus S` defaults: one block per tenant.
        base = {"scale": self.scale,
                "hosts_per_job": params.hosts_per_block,
                "iterations": 4, "compute_s": 0.5, "comm_bits": 8e9,
                "collective": "allreduce", "seed": seed, "tail_shapes": 1,
                "refine": "bounded", "faults": 0}
        specs = [
            TaskSpec("hierarchy-run", base, label="allreduce"),
            TaskSpec("hierarchy-run",
                     dict(base, collective="alltoall", tail_shapes=2),
                     label="alltoall-tail2"),
            # Iteration-clock onset keeps refinement at block level; a
            # timestamp onset escalates to the whole pod (see README).
            TaskSpec("hierarchy-run",
                     dict(base, fault_document={"domains": [domain]}),
                     label="optics-batch"),
            TaskSpec("serving-run",
                     {"scenario": ServingScenario(
                         preset=self.scale, seed=seed).to_params()},
                     label="serve-day"),
        ]
        return {"specs": specs, "jobs": params.pods
                * params.blocks_per_pod}

    def run(self, state, prepared):
        from repro.farm import execute_spec
        return [execute_spec(spec) for spec in state["specs"]]

    def verify(self, state, prepared, output):
        failed = 0
        job_hosts = engine_hosts = sims = memo = 0
        for spec, report in zip(state["specs"], output):
            if spec.kind == "hierarchy-run":
                if report["scenario"]["n_jobs"] != state["jobs"]:
                    failed += 1
                fold = report["fold"]
                job_hosts += report["scenario"]["n_job_hosts"]
                engine_hosts += fold["engine_hosts"]
                sims += fold["n_engine_sims"]
                memo += fold["n_memo_hits"]
            elif not report.get("slo"):
                failed += 1
        return Outcome(
            digest=sha256_json(output), attempted=len(output),
            failed=failed,
            counters={"hierarchy.engine_hosts": engine_hosts,
                      "hierarchy.fold_factor":
                          job_hosts / max(1, engine_hosts),
                      "hierarchy.engine_sims": sims,
                      "hierarchy.memo_hits": memo})


class TwinHttp(Workload):
    """Twin sessions driven over HTTP by one closed-loop client.

    One server per process; each pass drives a fresh session through
    the same operator script, so passes repeat the same work.
    """

    name = "twin-http"
    why = ("operator loop against an out-of-process twin server: writes "
           "beside reads, dominated by the pingmesh census per advance")

    def __init__(self, toy: bool = False):
        self.scale = "small" if toy else "64k"
        self.jobs = 8 if toy else 32
        # Three passes' advances must give 100 samples for the p90.
        self.boundaries = 34 if toy else 50

    def setup(self, seed, trace):
        from repro.twin.client import TwinClient
        from repro.twin.config import TwinConfig

        RESULTS.mkdir(parents=True, exist_ok=True)
        spans = RESULTS / f"twin-spans-{os.getpid()}.json"
        if trace:
            command = [sys.executable, "-m", "bench.twin_serve", str(spans)]
        else:
            command = [sys.executable, "-m", "repro", "twin", "serve"]
        server = subprocess.Popen(
            command + ["--port", "0", "--workers", "0"], cwd=ROOT,
            stdout=subprocess.PIPE, text=True)
        state = {"server": server, "spans": spans if trace else None,
                 "config": {"kind": "cluster", "scale": self.scale,
                            "seed": seed, "jobs": self.jobs,
                            "probe_interval_s": 30.0},
                 "sessions": 0}
        try:
            line = server.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"twin server did not start: {line!r}")
            state["client"] = TwinClient(
                line.split("listening on ")[1].split()[0], timeout_s=120.0)
            state["client"].wait_ready()
            # A user waits for the first session before the first boundary.
            state["ready"] = self._create(state)
        except BaseException:
            self._stop(server)
            raise
        state["script"] = self._script(
            random.Random(f"bench-twin:{seed}"), seed,
            TwinConfig(scale=self.scale).astral_params())
        return state

    @staticmethod
    def _create(state) -> str:
        session_id = f"bench-{state['sessions']}"
        state["sessions"] += 1
        state["client"].create_session(state["config"],
                                       session_id=session_id)
        return session_id

    def _script(self, rng, seed, shape):
        """Per boundary: seeded cordon + uncordon, the fault and the cap
        once each, and whether to read the telemetry stream after."""
        n = self.boundaries
        script = []
        for i in range(n):
            host = (f"p{rng.randrange(shape.pods)}"
                    f".b{rng.randrange(shape.blocks_per_pod)}"
                    f".h{rng.randrange(shape.hosts_per_block)}")
            actions = [{"kind": "cordon", "hosts": [host]},
                       {"kind": "uncordon", "hosts": [host]}]
            if i == n // 2:
                domain = {"kind": "optics-batch",
                          "pod": rng.randrange(shape.pods),
                          "block": rng.randrange(shape.blocks_per_pod),
                          "size": 1, "mode": "hard", "seed": seed,
                          "at_time_s": 0.0}
                actions.append({"kind": "inject-fault",
                                "document": {"domains": [domain]}})
            if i == 4 * n // 5:
                actions.append({"kind": "set-power-cap", "frac": 0.8})
            script.append((actions, i % (2 * n // 5) == 0))
        return script

    def prepare(self, state):
        return state.pop("ready", None) or self._create(state)

    def run(self, state, prepared):
        from repro.twin.client import TwinClientError

        client, session_id = state["client"], prepared
        latencies: Dict[str, List[float]] = {"advance": [], "action": [],
                                             "read": []}
        failed = attempted = 0

        def call(kind, fn, *args):
            nonlocal failed, attempted
            attempted += 1
            start = time.perf_counter()
            try:
                fn(session_id, *args)
            except (TwinClientError, OSError):
                failed += 1
                return
            latencies[kind].append(time.perf_counter() - start)

        for actions, read in state["script"]:
            for action in actions:
                call("action", client.action, action)
            call("advance", client.advance, 60.0)
            if read:
                call("read", client.telemetry)
        return latencies, attempted, failed

    def verify(self, state, prepared, output):
        from repro.twin.client import TwinClientError

        latencies, attempted, failed = output
        try:
            digest = state["client"].digest(prepared)
            state["client"].delete_session(prepared)
        except (TwinClientError, OSError):
            digest, failed = "", failed + 1
        return Outcome(digest=digest, attempted=attempted + 2,
                       failed=failed, latencies=latencies)

    def peak_rss_mb(self, state):
        """The server's ``VmHWM``: it holds the sessions."""
        with open(f"/proc/{state['server'].pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the twin server")

    def teardown(self, state):
        code = self._stop(state["server"])
        result = {"failed": 0 if code == 130 else 1}
        if state["spans"] is not None:
            spans = state["spans"]
            if spans.exists():
                result["trace"] = json.loads(spans.read_text())
                spans.unlink()
        return result

    @staticmethod
    def _stop(server) -> Optional[int]:
        """SIGINT, which the server must answer with exit code 130."""
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
        return server.returncode


class ValidateSweep(Workload):
    """``run_campaign`` on two farm workers into a fresh cache, then a
    warm rerun that must execute nothing.

    Cases come from campaign seed 0's first :data:`POOL` cases, all of
    which pass; the bench seed draws the same number from every
    profile.  Other campaign seeds hit known differential failures
    (see README), which would make the workload fail on some seeds.
    """

    name = "validate-sweep"
    why = ("validation campaign on two farm workers plus a warm cached "
           "rerun: farm dispatch, IPC, cache and every oracle battery")
    workers = 2
    CAMPAIGN_SEED = 0
    POOL = 960

    def __init__(self, toy: bool = False):
        self.per_profile = 2 if toy else 20

    def setup(self, seed, trace):
        from repro.validation import runner
        from repro.validation.scenarios import PROFILES

        # Case i runs profile PROFILES[i % len(PROFILES)].
        rng = random.Random(f"bench-validate:{seed}")
        width = len(PROFILES)
        indices = sorted(
            profile + width * j for profile in range(width)
            for j in rng.sample(range(self.POOL // width),
                                self.per_profile))
        return {"indices": indices, "run_campaign": runner.run_campaign,
                "profiles": PROFILES}

    def prepare(self, state):
        RESULTS.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix="farm-cache-", dir=RESULTS)

    def run(self, state, prepared):
        run_campaign, indices = state["run_campaign"], state["indices"]

        def sweep():
            return run_campaign(self.CAMPAIGN_SEED, len(indices),
                                indices=indices, workers=self.workers,
                                use_cache=True, cache_dir=prepared)

        cold = sweep()
        start = time.perf_counter()
        warm = sweep()
        return cold, warm, time.perf_counter() - start

    def verify(self, state, prepared, output):
        cold, warm, warm_s = output
        shutil.rmtree(prepared, ignore_errors=True)
        identity = cold.farm.identity()
        failed = sum(1 for case in cold.cases if not case.ok)
        if warm.farm.n_executed or warm.farm.identity() != identity:
            failed = len(cold.cases)
        exec_s = sum(result.elapsed_s for result in cold.farm.results)
        capacity = cold.farm.wall_s * self.workers
        counters = {"farm.exec_s": exec_s,
                    "farm.overhead_s": capacity - exec_s,
                    "farm.utilization": exec_s / capacity,
                    "farm.warm_s": warm_s}
        for profile in state["profiles"]:
            counters[f"validation.{profile}.exec_s"] = sum(
                case.elapsed_s for case in cold.cases
                if case.profile == profile)
        return Outcome(digest=sha256_json(identity),
                       attempted=len(cold.cases), failed=failed,
                       counters=counters)

    def peak_rss_mb(self, state):
        # Reap the pool workers first so their peak RSS is counted.
        self.teardown(state)
        return super().peak_rss_mb(state)

    def teardown(self, state):
        for process in multiprocessing.active_children():
            process.join(timeout=60)
        return {"failed": 0}


WORKLOADS = (EngineA2A, PaperScale)
#: every workload ``--workload`` accepts.
ALL_WORKLOADS = WORKLOADS + (TwinHttp, ValidateSweep)


def workload(name: str, toy: bool = False) -> Workload:
    for cls in ALL_WORKLOADS:
        if cls.name == name:
            return cls(toy=toy)
    raise KeyError(f"unknown workload {name!r}; expected one of "
                   f"{[cls.name for cls in ALL_WORKLOADS]}")
