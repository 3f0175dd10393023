"""Placement, signatures, the line-rate certificate, and fold planning."""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import (HierJob, PlacedJob, detect_symmetry,
                             job_shape, line_rate_certificate, place_jobs)
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
                           coords=((3, 5, 2),))
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
