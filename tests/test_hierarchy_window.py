"""The window is the hierarchy's one sub-topology decision.

:class:`~repro.hierarchy.fold.Window` sizes every engine
sub-simulation, renames its hosts and fault targets, and scales its
compute for power caps.  Two guards keep it that way.

Pinned reports: every other hierarchy test compares two paths of the
same tree (folded vs flat, bounded vs pod, one worker vs many).  These
sha256 digests compare the tree with itself across commits, one
scenario per window kind: a refactor of how sub-topologies are sized,
named or power-capped must leave every report — outcomes, refinement
plan, and the memo and engine counters — bit-identical.  Each scenario
names the refinement levels it drives, and the test checks they occur,
so a scenario cannot quietly stop covering its window.  A digest moves
only with a deliberate change of results; say why in CHANGES.md when
one is re-recorded.

Source scan: inside ``repro/hierarchy`` only the window calls
``rename_device``, ``pod_local_params`` or ``host_names`` with a map.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import repro.hierarchy

from repro.hierarchy import HierarchicalRun, HierJob
from repro.monitoring import FaultSpec, Manifestation, RootCause
from repro.network.flows import reset_flow_ids
from repro.topology import AstralParams


def _params(pods: int = 2, blocks: int = 2, width: int = 2
            ) -> AstralParams:
    return AstralParams(pods=pods, blocks_per_pod=blocks,
                        hosts_per_block=4, gpus_per_host=2,
                        aggs_per_group=width, cores_per_group=width)


def _block_jobs(params: AstralParams):
    return [HierJob(f"j{i}", n_hosts=params.hosts_per_block,
                    iterations=3, seed=i % 2)
            for i in range(params.pods * params.blocks_per_pod)]


def _mixed_jobs():
    """Per pod of four blocks: a two-block job, then two lone ones."""
    return [HierJob(f"j{i}", n_hosts=8 if i % 3 == 0 else 4,
                    iterations=3)
            for i in range(6)]


def _fault(cause, manifestation, target) -> FaultSpec:
    return FaultSpec(cause=cause, manifestation=manifestation,
                     target=target)


_GPU_P0B2 = {"j1": _fault(RootCause.GPU_HARDWARE,
                          Manifestation.FAIL_STOP, "p0.b2.h1")}

#: name -> (params, jobs, faults, power caps, refine mode,
#:          expected refinement levels).
SCENARIOS = {
    # One pod class, every job single-block: the block fold.
    "block-fold": (_params(), _block_jobs(_params()), {}, {},
                   "bounded", {}),
    # A capped pod splits off a second folded class.
    "block-fold-capped": (_params(), _block_jobs(_params()), {},
                          {1: 0.5}, "bounded", {}),
    # Two-block jobs: the pod fold, capped on one class.
    "pod-fold-capped": (
        _params(),
        [HierJob(f"w{i}", n_hosts=8, iterations=3) for i in range(2)],
        {}, {1: 0.75}, "bounded", {}),
    # Bounded refinement: faulted component, healthy two-block slice,
    # healthy lone block; pod 1 pod-folds.
    "bounded": (_params(blocks=4, width=3), _mixed_jobs(), _GPU_P0B2,
                {}, "bounded", {"block": 1}),
    # Single-block jobs, a block-scoped fault in pod 0: the faulted
    # block runs alone and the pod's healthy lone block folds.
    "bounded-lone-block": (
        _params(), _block_jobs(_params()),
        {"j0": _fault(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                      "p0.b0.h1")},
        {}, "bounded", {"block": 1}),
    # The same with the refined pod capped.
    "bounded-capped": (_params(blocks=4, width=3), _mixed_jobs(),
                       _GPU_P0B2, {0: 0.6}, "bounded", {"block": 1}),
    # Pod mode on the same scenario: identity pod map, one pod.
    "pod-mode": (_params(blocks=4, width=3), _mixed_jobs(), _GPU_P0B2,
                 {}, "pod", {"pod": 1}),
    # A hash-sensitive fault in pod 1 of 3: pod level, map {1: 0},
    # the refined pod capped.
    "pod-refine-capped": (
        _params(pods=3), _block_jobs(_params(pods=3)),
        {"j2": _fault(RootCause.SWITCH_BUG, Manifestation.FAIL_STOP,
                      "p1.b0.r0.g0.tor")},
        {1: 0.8}, "bounded", {"pod": 1}),
    # A cross-pod job with a host fault: pods 1 and 2 of 3 merge into
    # one group, map {1: 0, 2: 1}.
    "cross-pod-group": (
        _params(pods=3),
        [HierJob("j0", n_hosts=4, iterations=3),
         HierJob("j1", n_hosts=4, iterations=3),
         HierJob("wide", n_hosts=12, iterations=3),
         HierJob("j3", n_hosts=4, iterations=3)],
        {"wide": _fault(RootCause.GPU_HARDWARE, Manifestation.FAIL_STOP,
                        "p2.b0.h1")},
        {2: 0.9}, "bounded", {"pod": 1}),
    # A ``link:`` target on a cross-pod job: the flat fallback.
    "flat-fallback": (
        _params(),
        [HierJob("wide", n_hosts=12, iterations=3),
         HierJob("j1", n_hosts=4, iterations=3)],
        {"wide": _fault(RootCause.OPTICAL_FIBER, Manifestation.FAIL_STOP,
                        "link:3")},
        {0: 0.9}, "bounded", {"flat": 1}),
}

#: sha256 of ``json.dumps(report.to_dict(), sort_keys=True)``.
DIGESTS = {
    "block-fold":
        "8e9f284e51c71d0b535fe6b8bdd36f8f3a19ad516d8d5daf7d771ac8bbfa20cb",
    "block-fold-capped":
        "fb29828eb7a8bbfaab9aa3089acb10e0583f2020b73288885a9b97989edf3b58",
    "bounded":
        "b2dfb0862b39531cdcc3a72ac041d0d6d2cd0288c71cf9b1938b235889210825",
    "bounded-capped":
        "9fad3927b15db80333375b3e4d0ca5184fe34c7b9929a944576ef961156d54d1",
    "bounded-lone-block":
        "4fe6e436a67fec88a13d5544294af6f6d33f7ff7dbe4bbb6a14a5b6e38555bdd",
    "cross-pod-group":
        "c6b312296312519dc576ed8bcd0e37e5098853b53dbe7c26a2d56f14492ce96f",
    "flat-fallback":
        "fd3caaec8740cac9ad9395a678af0ba10092c22dd97a754581e2363e4d9a8e34",
    "pod-fold-capped":
        "509057f88ba1f26ccd91a785f4d0e35705558a6a8e63a76b6d4a61673cbc34ba",
    "pod-mode":
        "e80d6c2669513f442bcc0348ec4e973225d624aa99854359af5a12ed070173d0",
    "pod-refine-capped":
        "e498a20f62a5b17b1d950b63b97bdf039fd9785c0aedb066796bfeaae3968424",
}


def report_digest(name: str):
    params, jobs, faults, caps, mode, _ = SCENARIOS[name]
    reset_flow_ids()
    run = HierarchicalRun(params, jobs, faults=faults,
                          pod_power_caps=caps, refine=mode)
    run.run()
    blob = json.dumps(run.report.to_dict(), sort_keys=True)
    return run, hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_is_pinned(name):
    run, digest = report_digest(name)
    assert run.report.refine_levels == SCENARIOS[name][5]
    assert digest == DIGESTS[name]


#: the sub-topology decisions only the window may make.
WINDOW_CALLS = ("rename_device", "pod_local_params")
HIERARCHY = Path(repro.hierarchy.__file__).parent


def window_violations(source: str, module: str):
    """``module:line: call`` for every window decision *source* makes
    outside ``fold.Window``; ``host_names()`` without a map is the
    flat bridge's and stays allowed."""
    found = []
    for top in ast.parse(source).body:
        if (module == "fold.py" and isinstance(top, ast.ClassDef)
                and top.name == "Window"):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in WINDOW_CALLS or (
                    name == "host_names" and (node.args or node.keywords)):
                found.append(f"{module}:{node.lineno}: {name}")
    return found


class TestOneWindow:
    def test_only_the_window_sizes_and_renames(self):
        modules = sorted(HIERARCHY.glob("*.py"))
        assert len(modules) >= 8
        found = []
        for path in modules:
            found += window_violations(path.read_text(encoding="utf-8"),
                                       path.name)
        assert found == []

    def test_the_scan_sees_the_window(self):
        fold = (HIERARCHY / "fold.py").read_text(encoding="utf-8")
        for name in ("rename_device(", "pod_local_params(",
                     "host_names(self._pod_map"):
            assert name in fold

    def test_a_planted_call_fails_the_scan(self):
        planted = (
            "def sneaky(placed, params, target):\n"
            "    return (placed.host_names({0: 0}),\n"
            "            placed.host_names(block_map={1: 0}),\n"
            "            pod_local_params(params, 1),\n"
            "            astral.rename_device(target, {0: 0}),\n"
            "            placed.host_names())\n")
        assert window_violations(planted, "refine.py") == [
            "refine.py:2: host_names", "refine.py:3: host_names",
            "refine.py:4: pod_local_params",
            "refine.py:5: rename_device"]
        # The same calls inside fold.Window are the window's own.
        inside = "class Window:\n" + "".join(
            "    " + line + "\n" for line in planted.splitlines())
        assert window_violations(inside, "fold.py") == []
        assert window_violations(inside, "refine.py") != []
