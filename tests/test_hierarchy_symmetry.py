"""Placement, signatures, the line-rate certificate, and fold planning."""

from collections import Counter
from dataclasses import replace
from typing import List
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hierarchy import (HierJob, PlacedJob, analytic_outcomes,
                             detect_symmetry, job_shape,
                             line_rate_certificate, place_jobs)
from repro.hierarchy import compose, fold
from repro.hierarchy import symmetry as symmetry_module
from repro.hierarchy.symmetry import block_signature
from repro.hierarchy.symmetry import uf_find, uf_union
from repro.hierarchy.virtual import Coord, parse_host, pod_of_device
from repro.monitoring import FaultSpec, Manifestation, RootCause
from repro.topology import AstralParams
from repro.topology.astral import host_name, rename_device


def tiny(pods: int = 2) -> AstralParams:
    return AstralParams(pods=pods, blocks_per_pod=2, hosts_per_block=4,
                        gpus_per_host=2, aggs_per_group=2,
                        cores_per_group=2)


def tor_fault(pod: int, block: int = 0) -> FaultSpec:
    return FaultSpec(cause=RootCause.SWITCH_BUG,
                     manifestation=Manifestation.FAIL_SLOW,
                     target=f"p{pod}.b{block}.r0.g0.tor")


class TestVirtualNaming:
    def test_host_round_trip(self):
        assert parse_host("p3.b7.h11") == (3, 7, 11)
        with pytest.raises(ValueError):
            parse_host("cg0.c1.core")

    def test_pod_of_device(self):
        assert pod_of_device("p2.b0.h1") == 2
        assert pod_of_device("p2.b0.r1.g0.tor") == 2
        assert pod_of_device("p5.r0.g1.a2.agg") == 5
        assert pod_of_device("cg0.c3.core") is None
        assert pod_of_device("link:1234") is None

    def test_rename_device_rebases_pod_and_block(self):
        pod_map, block_map = {3: 0}, {5: 1}
        placed = PlacedJob(HierJob("j", hosts=("p3.b5.h2",)),
                           spans=((3, 5, 2, 1),))
        assert placed.host_names() == ("p3.b5.h2",)
        assert placed.host_names(pod_map, block_map) == ("p0.b1.h2",)
        assert placed.host_names(pod_map) == ("p0.b5.h2",)
        with pytest.raises(KeyError):
            placed.host_names(pod_map, {4: 0})
        assert rename_device("p3.b5.r1.g0.tor", pod_map, block_map) \
            == "p0.b1.r1.g0.tor"
        assert rename_device("p3.r1.g0.a0.agg", pod_map) \
            == "p0.r1.g0.a0.agg"
        # Cores and opaque targets pass through untouched.
        assert rename_device("cg0.c3.core", pod_map) == "cg0.c3.core"
        assert rename_device("link:99", pod_map) == "link:99"


class TestUnionFind:
    """The one union-find of the hierarchy: the smallest member of a
    set is its root, so groups come out in a fixed order."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                    max_size=25))
    def test_root_is_the_smallest_member(self, pairs):
        parent = {}
        for a, b in pairs:
            uf_union(parent, a, b)
        # Reference: merge member sets naively.
        sets = {item: {item} for item in parent}
        for a, b in pairs:
            merged = sets[a] | sets[b]
            for item in merged:
                sets[item] = merged
        assert {item: uf_find(parent, item) for item in sets} \
            == {item: min(members) for item, members in sets.items()}

    def test_unseen_item_is_a_singleton(self):
        parent = {}
        assert uf_find(parent, 7) == 7
        assert parent == {7: 7}


class TestPlacement:
    def test_contiguous_pod_major(self):
        placed = place_jobs(tiny(), [HierJob("a", n_hosts=4),
                                     HierJob("b", n_hosts=4),
                                     HierJob("c", n_hosts=4)])
        assert placed[0].host_names()[0] == "p0.b0.h0"
        assert placed[0].blocks == (0,)
        assert placed[1].blocks == (1,)        # next block, same pod
        assert placed[2].host_names()[0] == "p1.b0.h0"  # spills to pod 1
        assert placed[0].positions_in_pod() \
            == placed[2].positions_in_pod()

    def test_cross_pod_job_spans(self):
        placed = place_jobs(tiny(), [HierJob("wide", n_hosts=12)])
        assert placed[0].pods == (0, 1)
        assert not placed[0].pod_local
        with pytest.raises(ValueError):
            placed[0].pod

    def test_explicit_hosts_reserved_before_cursor(self):
        placed = place_jobs(tiny(), [
            HierJob("pinned", hosts=("p0.b0.h0", "p0.b0.h1")),
            HierJob("flow", n_hosts=2),
        ])
        assert placed[1].host_names() == ("p0.b0.h2", "p0.b0.h3")

    def test_double_pin_rejected(self):
        with pytest.raises(ValueError, match="more than one job"):
            place_jobs(tiny(), [HierJob("a", hosts=("p0.b0.h0",)),
                                HierJob("b", hosts=("p0.b0.h0",))])

    def test_exhaustion_and_duplicate_names(self):
        with pytest.raises(ValueError, match="exhausted"):
            place_jobs(tiny(), [HierJob("big", n_hosts=17)])
        with pytest.raises(ValueError, match="unique"):
            place_jobs(tiny(), [HierJob("x", n_hosts=1),
                                HierJob("x", n_hosts=1)])


def _host_at(params: AstralParams, index: int) -> Coord:
    per_block = params.hosts_per_block
    per_pod = params.blocks_per_pod * per_block
    pod, rest = divmod(index, per_pod)
    block, host = divmod(rest, per_block)
    return pod, block, host


def _oracle_place_jobs(params, jobs) -> List[tuple]:
    """The per-host placement loop ``place_jobs`` replaced, kept as the
    oracle: one cursor step and one reserved-set probe per host.  It
    yields ``(job, host names, coords)`` per job, the names taken
    verbatim from pins and built by ``host_name`` otherwise."""
    total = params.pods * params.blocks_per_pod * params.hosts_per_block
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError("job names must be unique")
    reserved = set()
    for job in jobs:
        for host in job.hosts:
            coord = parse_host(host)
            if coord in reserved:
                raise ValueError(
                    f"host {host} pinned by more than one job")
            reserved.add(coord)
    placed: List[tuple] = []
    cursor = 0
    for job in jobs:
        if job.hosts:
            coords = tuple(parse_host(host) for host in job.hosts)
            placed.append((job, tuple(job.hosts), coords))
            continue
        coords_list: List[Coord] = []
        while len(coords_list) < job.n_hosts:
            if cursor >= total:
                raise ValueError(
                    f"cluster exhausted placing job {job.name!r}: "
                    f"{total} hosts, need {job.n_hosts} more")
            coord = _host_at(params, cursor)
            cursor += 1
            if coord in reserved:
                continue
            coords_list.append(coord)
        coords = tuple(coords_list)
        placed.append(
            (job, tuple(host_name(*coord) for coord in coords), coords))
    return placed


def _rendered_place_jobs(params, jobs) -> List[tuple]:
    """``place_jobs`` in the oracle's form: names rendered from the
    placement's coordinates."""
    return [(placed.job, placed.host_names(), placed.coords)
            for placed in place_jobs(params, jobs)]


def _outcome(place, params, jobs):
    try:
        return place(params, jobs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def placement_cases(draw):
    pods, blocks = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    per_block = draw(st.integers(1, 5))
    params = AstralParams(pods=pods, blocks_per_pod=blocks,
                          hosts_per_block=per_block, gpus_per_host=1,
                          aggs_per_group=1, cores_per_group=1)
    per_pod = blocks * per_block
    # Pinned coordinates reach one past every dimension, so some lie
    # off the cursor's path; one case in ten may pin a host twice.
    coord = st.tuples(st.integers(0, pods), st.integers(0, blocks),
                      st.integers(0, per_block))
    allow_double = draw(st.integers(0, 9)) == 0
    pinned = set()
    jobs = []
    for index in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 2)) == 0:
            pins = draw(st.lists(coord, min_size=1, max_size=3,
                                 unique=True))
            if not allow_double:
                pins = [c for c in pins if c not in pinned] or pins[:0]
            if pins:
                pinned.update(pins)
                jobs.append(HierJob(f"pin{index}", hosts=tuple(
                    host_name(*c) for c in pins)))
                continue
        # Sizes straddle block and pod boundaries; long lists exhaust
        # the cluster.
        jobs.append(HierJob(f"job{index}", n_hosts=draw(
            st.integers(1, per_pod + per_block))))
    return params, jobs


class TestPlacementDifferential:
    """Block-slice placement against the per-host cursor it replaced:
    equal coordinates and rendered host names, or the same ValueError
    text."""

    @settings(max_examples=300, deadline=None)
    @given(case=placement_cases())
    def test_matches_per_host_oracle(self, case):
        params, jobs = case
        assert _outcome(_rendered_place_jobs, params, jobs) \
            == _outcome(_oracle_place_jobs, params, jobs)

    def test_skips_pins_inside_a_slice(self):
        params = tiny()
        jobs = [HierJob("pin", hosts=("p0.b0.h1", "p0.b1.h3",
                                      "p1.b0.h9")),
                HierJob("a", n_hosts=5), HierJob("b", n_hosts=6)]
        placed = place_jobs(params, jobs)
        assert _rendered_place_jobs(params, jobs) \
            == _oracle_place_jobs(params, jobs)
        assert placed[1].host_names() == ("p0.b0.h0", "p0.b0.h2",
                                          "p0.b0.h3", "p0.b1.h0",
                                          "p0.b1.h1")
        assert placed[2].host_names()[0] == "p0.b1.h2"


class TestJobShape:
    def test_name_excluded_seed_included(self):
        a = HierJob("a", n_hosts=2, seed=7)
        b = HierJob("b", n_hosts=2, seed=7)
        c = HierJob("c", n_hosts=2, seed=8)
        assert job_shape(a) == job_shape(b)
        assert job_shape(a) != job_shape(c)


class TestCertificate:
    def test_single_block_rings_certify(self):
        placed = place_jobs(tiny(), [HierJob(f"j{i}", n_hosts=4)
                                     for i in range(4)])
        assert line_rate_certificate(tiny(), placed)

    def test_alltoall_voids(self):
        placed = place_jobs(tiny(), [
            HierJob("a2a", n_hosts=4, collective="all_to_all")])
        assert not line_rate_certificate(tiny(), placed)

    def test_pod_crossing_leg_voids(self):
        placed = place_jobs(tiny(), [HierJob("wide", n_hosts=12)])
        assert not line_rate_certificate(tiny(), placed)

    def test_boundary_oversubscription_voids(self):
        # Hosts alternate blocks: every ring leg crosses the block
        # boundary, 3 exits from b0 on one rail > tor_agg/nic = 2.
        hosts = ("p0.b0.h0", "p0.b1.h0", "p0.b0.h1", "p0.b1.h1",
                 "p0.b0.h2", "p0.b1.h2")
        placed = place_jobs(tiny(), [HierJob("zigzag", hosts=hosts)])
        assert not line_rate_certificate(tiny(), placed)


class TestDetectSymmetry:
    def test_identical_pods_fold_into_one_class(self):
        placed = place_jobs(tiny(), [HierJob(f"j{i}", n_hosts=4)
                                     for i in range(4)])
        symmetry = detect_symmetry(tiny(), placed)
        assert len(symmetry.classes) == 1
        assert symmetry.classes[0].members == [0, 1]
        assert symmetry.classes[0].certified
        assert symmetry.exact

    def test_distinct_seeds_split_classes(self):
        placed = place_jobs(tiny(), [
            HierJob("j0", n_hosts=4), HierJob("j1", n_hosts=4),
            HierJob("j2", n_hosts=4, seed=1),
            HierJob("j3", n_hosts=4, seed=1)])
        symmetry = detect_symmetry(tiny(), placed)
        assert len(symmetry.classes) == 2

    def test_power_cap_splits_classes(self):
        placed = place_jobs(tiny(), [HierJob(f"j{i}", n_hosts=4)
                                     for i in range(4)])
        symmetry = detect_symmetry(tiny(), placed,
                                   power_caps={1: 0.8})
        assert len(symmetry.classes) == 2
        assert symmetry.exact           # caps rescale, don't refine

    def test_bad_power_cap_rejected(self):
        placed = place_jobs(tiny(), [HierJob("j", n_hosts=4)])
        for factor in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="power cap"):
                detect_symmetry(tiny(), placed,
                                power_caps={0: factor})

    def test_fault_refines_only_its_pod(self):
        placed = place_jobs(tiny(), [HierJob(f"j{i}", n_hosts=4)
                                     for i in range(4)])
        symmetry = detect_symmetry(tiny(), placed,
                                   faults={"j2": tor_fault(1)})
        assert len(symmetry.refined) == 1
        assert symmetry.refined[0].pods == (1,)
        assert [p.name for p in symmetry.refined[0].jobs] \
            == ["j2", "j3"]
        assert len(symmetry.classes) == 1   # pod 0 still folds
        assert symmetry.classes[0].members == [0]
        assert not symmetry.exact

    def test_cross_job_drags_its_pods_transitively(self):
        placed = place_jobs(tiny(3), [
            HierJob("local", n_hosts=8),            # pod 0
            HierJob("wide", n_hosts=16),            # pods 1-2
        ])
        symmetry = detect_symmetry(tiny(3), placed,
                                   faults={"wide": tor_fault(1)})
        assert len(symmetry.refined) == 1
        assert symmetry.refined[0].pods == (1, 2)
        assert symmetry.analytic == []
        assert len(symmetry.classes) == 1       # pod 0 untouched

    def test_healthy_cross_job_goes_analytic(self):
        placed = place_jobs(tiny(), [HierJob("wide", n_hosts=12)])
        symmetry = detect_symmetry(tiny(), placed)
        assert [p.name for p in symmetry.analytic] == ["wide"]
        assert not symmetry.exact

    def test_unlocatable_target_forces_flat_fallback(self):
        placed = place_jobs(tiny(), [HierJob("j", n_hosts=4)])
        fault = FaultSpec(cause=RootCause.OPTICAL_FIBER,
                          manifestation=Manifestation.FAIL_SLOW,
                          target="link:42")
        symmetry = detect_symmetry(tiny(), placed,
                                   faults={"j": fault})
        assert symmetry.flat_fallback
        assert len(symmetry.refined) == 1
        assert symmetry.refined[0].pods == (0, 1)

    def test_fault_on_unknown_job_rejected(self):
        placed = place_jobs(tiny(), [HierJob("j", n_hosts=4)])
        with pytest.raises(ValueError, match="unknown job"):
            detect_symmetry(tiny(), placed,
                            faults={"ghost": tor_fault(0)})


# -- symmetry on block slices against per-host slots ----------------------

def _oracle_pods(placed) -> tuple:
    return tuple(sorted({coord[0] for coord in placed.coords}))


def _oracle_blocks(placed) -> tuple:
    return tuple(sorted({coord[1] for coord in placed.coords}))


def _oracle_slots(placed, pod=None) -> tuple:
    return tuple((block, host) for q, block, host in placed.coords
                 if pod is None or q == pod)


def _oracle_pod_signature(pod, local, cross, power_cap=1.0):
    local_part = tuple(sorted(
        (job_shape(p.job), _oracle_slots(p)) for p in local))
    cross_part = tuple(sorted(
        (job_shape(p.job), _oracle_slots(p, pod), len(p.coords),
         _oracle_pods(p).index(pod))
        for p in cross))
    return (local_part, cross_part, power_cap)


def _oracle_sort_key(placed):
    return (job_shape(placed.job), _oracle_slots(placed), placed.name)


def _oracle_block_signature(block_jobs):
    return tuple(sorted(
        (job_shape(p.job), tuple(h for _, _, h in p.coords))
        for p in block_jobs))


def _oracle_block_sort_key(placed):
    return (job_shape(placed.job),
            tuple(h for _, _, h in placed.coords), placed.name)


def _oracle_certificate(params, jobs):
    """The certificate walking every ring leg host by host."""
    enter, exits = Counter(), Counter()
    for placed in jobs:
        if placed.job.collective != "allreduce":
            return False
        coords = placed.coords
        n = len(coords)
        if n < 2:
            continue
        rail = placed.job.rail
        for index, src in enumerate(coords):
            dst = coords[(index + 1) % n]
            if src[0] != dst[0]:
                return False
            if src[1] == dst[1]:
                continue
            exits[(src[0], src[1], rail)] += 1
            enter[(dst[0], dst[1], rail)] += 1
    limit = params.tor_agg_gbps / params.nic_port_gbps
    return max(list(enter.values()) + list(exits.values()),
               default=0) <= limit


def _oracle_egress_bits_by_pod(placed):
    """Pod egress bits walking every ring leg host by host."""
    job, coords = placed.job, placed.coords
    n = len(coords)
    out = {}
    if n < 2:
        return out
    if job.collective == "all_to_all":
        per_pod = {}
        for pod, _, _ in coords:
            per_pod[pod] = per_pod.get(pod, 0) + 1
        for pod, members in per_pod.items():
            out[pod] = members * (n - members) * job.comm_size_bits / n
        return out
    per_neighbor = 2.0 * (n - 1) / n * job.comm_size_bits
    for index, src in enumerate(coords):
        dst = coords[(index + 1) % n]
        if src[0] != dst[0]:
            out[src[0]] = out.get(src[0], 0.0) + per_neighbor
    return out


def _block_classes(jobs, signature, sort_key):
    """``_fold_rep_blocks``' grouping of one pod's single-block jobs:
    per block class, its blocks and each block's jobs in fold order."""
    by_block = {}
    for placed in jobs:
        by_block.setdefault(placed.blocks[0], []).append(placed)
    classes = {}
    for block in sorted(by_block):
        classes.setdefault(signature(by_block[block]), []).append(block)
    return [[(block, [p.name for p in sorted(by_block[block],
                                             key=sort_key)])
             for block in blocks] for blocks in classes.values()]


def _plan(params, symmetry, signature, sort_key, certificate):
    """Everything a fold/refine plan hands on, by job name."""
    classes = []
    for cls in symmetry.classes:
        rep_jobs = cls.jobs_by_pod[cls.rep]
        classes.append((
            cls.rep, cls.members,
            {pod: [p.name for p in jobs]
             for pod, jobs in cls.jobs_by_pod.items()},
            cls.certified, cls.foldable_by_block,
            _block_classes(rep_jobs, signature, sort_key)
            if cls.foldable_by_block else None))
    refined = [(group.pods, [p.name for p in group.jobs],
                sorted(group.faults), group.reasons,
                certificate(params, group.jobs))
               for group in symmetry.refined]
    by_block = {}
    for p in symmetry.placed:
        if p.pod_local and len(p.blocks) == 1:
            by_block.setdefault((p.pod, p.blocks[0]), []).append(p)
    block_partition = {}
    for key in sorted(by_block):
        block_partition.setdefault(
            signature(by_block[key]), []).append(key)
    return {"classes": classes, "refined": refined,
            "block_partition": list(block_partition.values()),
            "analytic": [p.name for p in symmetry.analytic],
            "broken": symmetry.broken, "exact": symmetry.exact,
            "flat_fallback": symmetry.flat_fallback,
            "certificate": certificate(params, symmetry.placed)}


def _oracle_detect_symmetry(params, placed, faults, caps):
    """``detect_symmetry`` with every span-reading piece replaced by
    its per-host form: pods and blocks from expanded coordinates, the
    pod signature and job order from ``(block, host)`` slots, and the
    certificate walking every leg."""
    with mock.patch.object(PlacedJob, "pods",
                           property(_oracle_pods)), \
            mock.patch.object(PlacedJob, "blocks",
                              property(_oracle_blocks)), \
            mock.patch.object(symmetry_module, "pod_signature",
                              _oracle_pod_signature), \
            mock.patch.object(symmetry_module, "_sort_key",
                              _oracle_sort_key), \
            mock.patch.object(symmetry_module, "line_rate_certificate",
                              _oracle_certificate):
        symmetry = detect_symmetry(params, placed, faults, caps)
        return _plan(params, symmetry, _oracle_block_signature,
                     _oracle_block_sort_key, _oracle_certificate)


@st.composite
def tiled_cases(draw):
    """Every pod carved alike — the copies a fold folds — with one
    pod's seed or a pinned job sometimes breaking the pattern."""
    pods, blocks = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    per_block = draw(st.integers(1, 4))
    params = AstralParams(pods=pods, blocks_per_pod=blocks,
                          hosts_per_block=per_block, gpus_per_host=1,
                          aggs_per_group=1, cores_per_group=1)
    per_pod = blocks * per_block
    sizes = []
    while sum(sizes) < per_pod:
        sizes.append(draw(st.integers(1, per_pod - sum(sizes))))
    seeds = [draw(st.integers(0, 1)) for _ in sizes]
    odd_pod = draw(st.sampled_from((None, None, *range(pods))))
    jobs = [HierJob(f"t{pod}x{index}", n_hosts=size,
                    seed=seed + (pod == odd_pod))
            for pod in range(pods)
            for index, (size, seed) in enumerate(zip(sizes, seeds))]
    pin = draw(st.sampled_from(("none", "natural", "shift")))
    if pin == "natural":
        # Pin one job on the hosts the cursor would give it: the
        # placement, hence every class, must not change.
        index = draw(st.integers(0, len(jobs) - 1))
        start = sum(job.n_hosts for job in jobs[:index])
        jobs[index] = replace(jobs[index], n_hosts=0, hosts=tuple(
            host_name(*_host_at(params, start + k))
            for k in range(jobs[index].n_hosts)))
    elif pin == "shift":
        # Pin a host the cursor then steps round, shifting the pods
        # after it off the pattern.
        pod = draw(st.integers(0, pods - 1))
        if jobs[-1].n_hosts > 1:
            jobs[-1] = replace(jobs[-1], n_hosts=jobs[-1].n_hosts - 1)
        jobs.append(HierJob("pin", hosts=(host_name(
            pod, draw(st.integers(0, blocks - 1)),
            draw(st.integers(0, per_block - 1))),)))
    return params, jobs


@st.composite
def symmetry_cases(draw):
    """A placement that fits (pins, multi-block and cross-pod jobs),
    two job shapes, power caps, and faults on any tier."""
    if draw(st.booleans()):
        params, jobs = draw(tiled_cases())
    else:
        params, jobs = draw(placement_cases())
        jobs = [replace(job, seed=draw(st.integers(0, 1)),
                        collective=draw(st.sampled_from(
                            ("allreduce",) * 4 + ("all_to_all",))))
                for job in jobs]
    # One to four uplink legs per block and rail before the
    # certificate voids.
    params = replace(params, tor_agg_gbps=params.nic_port_gbps
                     * draw(st.sampled_from((1, 2, 4))))
    try:
        placed = place_jobs(params, jobs)
    except ValueError:
        assume(False)
    pods = params.pods
    caps = {pod: draw(st.sampled_from((0.5, 0.8, 1.0)))
            for pod in draw(st.sets(st.integers(0, pods - 1),
                                    max_size=pods - 1))}
    faults = {}
    faulty = draw(st.booleans())
    for p in placed:
        if not faulty or draw(st.integers(0, 3)):
            continue
        pod = draw(st.integers(0, pods - 1))
        block = draw(st.integers(0, params.blocks_per_pod - 1))
        target = draw(st.sampled_from((
            p.host_names()[0], p.name, "cg0.c0.core", "link:3",
            f"p{pod}.b{block}.r0.g0.tor", f"p{pod}.r0.g0.a0.agg")))
        faults[p.name] = FaultSpec(
            cause=(RootCause.OPTICAL_FIBER if target.startswith("link:")
                   else RootCause.SWITCH_BUG),
            manifestation=Manifestation.FAIL_SLOW, target=target)
    return params, placed, faults, caps


class TestSymmetryDifferential:
    """Signing, sorting and certifying by block slices against the
    per-host slots they replaced: the same classes, reps, members,
    job order, certificates, block classes, refined groups and
    analytic tier."""

    @settings(max_examples=250, deadline=None)
    @given(case=symmetry_cases())
    def test_matches_per_host_oracle(self, case):
        params, placed, faults, caps = case
        symmetry = detect_symmetry(params, placed, faults, caps)
        assert _plan(params, symmetry, block_signature,
                     fold._block_sort_key, line_rate_certificate) \
            == _oracle_detect_symmetry(params, placed, faults, caps)

    @settings(max_examples=150, deadline=None)
    @given(case=symmetry_cases())
    def test_analytic_tier_matches_per_host_legs(self, case):
        params, placed, _, caps = case
        cross = [p for p in placed if not p.pod_local]
        expected_bits = {p.name: _oracle_egress_bits_by_pod(p)
                         for p in cross}
        assert {p.name: compose._egress_bits_by_pod(p)
                for p in cross} == expected_bits
        with mock.patch.object(compose, "_egress_bits_by_pod",
                               _oracle_egress_bits_by_pod):
            expected = analytic_outcomes(params, cross, caps)
        assert analytic_outcomes(params, cross, caps) == expected

    def test_the_wrap_around_leg_counts(self):
        # Two jobs straddle block 1; only their wrap-around legs make
        # it a second exit and a second entry, one more than a single
        # uplink (tor_agg == nic) carries.
        params = AstralParams(pods=1, blocks_per_pod=3,
                              hosts_per_block=2, gpus_per_host=1,
                              aggs_per_group=1, cores_per_group=1,
                              tor_agg_gbps=200.0, nic_port_gbps=200.0)
        placed = place_jobs(params, [HierJob("a", n_hosts=3),
                                     HierJob("b", n_hosts=3)])
        assert placed[0].spans == ((0, 0, 0, 2), (0, 1, 0, 1))
        assert not _oracle_certificate(params, placed)
        assert not line_rate_certificate(params, placed)
        assert line_rate_certificate(params, placed[:1])

    def test_a_cross_job_re_enters_a_pod(self):
        # p0 slots (b0, h3), (b0, h4) are one run once pod 1's host
        # between them is set aside.
        params = AstralParams(pods=2, blocks_per_pod=1,
                              hosts_per_block=6, gpus_per_host=1,
                              aggs_per_group=1, cores_per_group=1)
        placed = place_jobs(params, [HierJob("zig", hosts=(
            "p0.b0.h3", "p1.b0.h0", "p0.b0.h4"))])
        assert placed[0].spans == ((0, 0, 3, 1), (1, 0, 0, 1),
                                   (0, 0, 4, 1))
        assert placed[0].positions_in_pod(0) == ((0, 3, 2),)
        assert _oracle_detect_symmetry(params, placed, {}, {}) \
            == _plan(params, detect_symmetry(params, placed),
                     block_signature, fold._block_sort_key,
                     line_rate_certificate)


class TestExpansionGuard:
    """At 512K a placement is expanded to hosts only where a window
    names them: for jobs of engine-simulated windows, not per tenant."""

    def test_only_engine_windows_expand_coordinates(self, monkeypatch):
        from repro.farm.tasks import run_hierarchy

        expanded, simulated = Counter(), Counter()
        coords = PlacedJob.coords

        def counting(placed):
            expanded[placed.name] += 1
            return coords.fget(placed)

        engine_run = fold.EngineRunner.run

        def spying(runner, params, configs, faults=None):
            simulated.update(config.name for config in configs)
            return engine_run(runner, params, configs, faults)

        monkeypatch.setattr(PlacedJob, "coords", property(counting))
        monkeypatch.setattr(fold.EngineRunner, "run", spying)
        domain = {"kind": "optics-batch", "pod": 3, "block": 17,
                  "size": 1, "mode": "hard", "seed": 0}
        report = run_hierarchy({
            "scale": "512k", "collective": "allreduce", "seed": 0,
            "fault_document": {"domains": [domain]}})
        assert report["scenario"]["n_jobs"] == 512
        assert report["fold"]["n_refined_groups"] == 1
        assert sum(simulated.values()) == report["fold"]["n_engine_sims"]
        assert expanded and not expanded - simulated
        assert sum(expanded.values()) <= sum(simulated.values())
