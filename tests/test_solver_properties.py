"""Property tests driving the max-min solver core directly.

Hypothesis generates raw incidence problems — flows crossing random
subsets of capacitated links, including zero-capacity (dead) links,
loose links that leave flows line-rate-capped, and tight links that
force real contention — and checks, per problem:

* the reference kernel's allocation satisfies the max-min oracles
  (:func:`~repro.validation.check_incidence_solution`: feasibility,
  work conservation, KKT bottleneck condition);
* the vector kernel returns a bit-identical allocation (``==`` on
  the rate dicts, no tolerance) with identical ``link_visits`` — also
  after rows are retired in place, where the vector kernel reads the
  patched counts and the reference re-derives them from the raw rows;
* repeated solves of the same problem are deterministic;
* :meth:`~repro.network.solver.CompiledIncidence.live_pieces` groups
  the live rows exactly as a flood fill does, and each piece solved
  alone gets the whole problem's rates ``==``;
* a fill resumed from a :class:`~repro.network.solver.FillRecord`
  after retirements gives a cold fill's rates and freeze order bit for
  bit under both kernels, with equal ``link_visits`` across kernels,
  and a changed capacity restarts it cold;
* several problems compiled and filled as one
  :class:`~repro.network.solver.CompiledBlock` give each problem the
  incidence, record, rates and ``link_visits`` of a fill of its own,
  and keep doing so through retirements and resumed fills.

Crafted edge cases (all links tied at one share, everything
line-rate-capped, flows through dead links) pin the exact values, and
two crafted wide problems drive the CSR expanders past their
small-input loop into the vectorized range concatenation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import solver
from repro.network.solver import (
    CompiledIncidence,
    FillRecord,
    IncidenceIndex,
    SolverStats,
    compile_component,
    fill_rates_python,
    progressive_fill_vector,
    solve_incidence,
    use_backend,
)
from repro.simcore import SimulationError
from repro.validation import check_incidence_solution

LINE_RATE = 100.0


# --------------------------------------------------------------------------
# Problem generator
# --------------------------------------------------------------------------

@st.composite
def incidence_problems(draw):
    """A random incidence problem: ``(hops_of, capacity)``.

    Links are drawn from three regimes — dead (zero capacity), tight
    (forces shares below the line rate), loose (leaves members
    line-rate-capped) — and flows cross 0..4 of them.  Flat shares
    like 16.0 make exact ties across links likely, exercising the
    tie-group freeze path.
    """
    n_hops = draw(st.integers(min_value=1, max_value=8))
    hops = [f"l{i}" for i in range(n_hops)]
    capacity = {}
    for hop in hops:
        regime = draw(st.sampled_from(["dead", "tight", "loose"]))
        if regime == "dead":
            capacity[hop] = 0.0
        elif regime == "tight":
            # Mix of round numbers (tie-prone) and arbitrary floats.
            capacity[hop] = draw(st.one_of(
                st.sampled_from([16.0, 32.0, 48.0, 64.0]),
                st.floats(min_value=1.0, max_value=80.0,
                          allow_nan=False, allow_infinity=False)))
        else:
            capacity[hop] = draw(st.floats(
                min_value=150.0 * n_hops, max_value=4000.0,
                allow_nan=False, allow_infinity=False))
    n_flows = draw(st.integers(min_value=1, max_value=12))
    hops_of = {}
    for fid in range(n_flows):
        k = draw(st.integers(min_value=0, max_value=min(4, n_hops)))
        chosen = draw(st.sets(st.sampled_from(hops),
                              min_size=k, max_size=k)) if k else set()
        hops_of[fid] = tuple(sorted(chosen))
    return hops_of, capacity


def solve_python(hops_of, capacity, stats=None):
    """Run the reference kernel on a raw incidence problem."""
    with use_backend("python"):
        return solve_incidence(hops_of, capacity, LINE_RATE, stats)


def solve_vector(hops_of, capacity, stats=None):
    """Run the vector kernel on a raw incidence problem."""
    with use_backend("vector"):
        return solve_incidence(hops_of, capacity, LINE_RATE, stats)


def compile_problem(hops_of, capacity):
    """The problem's :class:`CompiledIncidence`, one column per link
    of *capacity* in order, one row per flow of *hops_of*."""
    col_of = {hop: col for col, hop in enumerate(capacity)}
    fids = list(hops_of)
    indptr, mem_cols = [0], []
    for fid in fids:
        mem_cols.extend(col_of[hop] for hop in hops_of[fid])
        indptr.append(len(mem_cols))
    return CompiledIncidence(fids, indptr, mem_cols, len(col_of))


def flood_fill(fids, hops_of):
    """The flows *fids* grouped into pieces joined by shared links:
    each piece ascending, pieces ordered by their first flow."""
    seen, pieces = set(), []
    for start in fids:
        if start in seen:
            continue
        piece, frontier = {start}, [start]
        while frontier:
            hops = set(hops_of[frontier.pop()])
            for other in fids:
                if other not in piece and hops & set(hops_of[other]):
                    piece.add(other)
                    frontier.append(other)
        seen |= piece
        pieces.append(sorted(piece))
    return pieces


# --------------------------------------------------------------------------
# Randomized properties
# --------------------------------------------------------------------------

class TestReferenceBackend:

    @given(incidence_problems())
    @settings(max_examples=120, deadline=None)
    def test_oracles_hold(self, problem):
        hops_of, capacity = problem
        rates = solve_python(hops_of, capacity)
        assert set(rates) == set(hops_of)
        violations = check_incidence_solution(
            hops_of, capacity, LINE_RATE, rates)
        assert violations == []

    @given(incidence_problems())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, problem):
        hops_of, capacity = problem
        assert solve_python(hops_of, capacity) \
            == solve_python(hops_of, capacity)


class TestVectorBackend:

    @given(incidence_problems())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_python(self, problem):
        hops_of, capacity = problem
        py_stats = SolverStats()
        vec_stats = SolverStats()
        py_rates = solve_python(hops_of, capacity, py_stats)
        vec_rates = solve_vector(hops_of, capacity, vec_stats)
        # Exact equality: same keys, same float bit patterns.
        assert vec_rates == py_rates
        assert vec_stats.link_visits == py_stats.link_visits
        assert vec_stats.solves == py_stats.solves

    @given(incidence_problems(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_after_retire(self, problem, data):
        """Retired rows: the vector kernel reads the counts and column
        view :meth:`CompiledIncidence.retire` patched, the reference
        re-derives them from ``alive`` and the raw rows."""
        hops_of, capacity = problem
        inc = compile_problem(hops_of, capacity)
        fids = list(hops_of)
        # One batched retire, repeats included: each row retires once.
        gone = data.draw(st.lists(st.sampled_from(fids),
                                  max_size=len(fids)))
        assert inc.retire(gone) == len(set(gone))
        remaining = np.fromiter(capacity.values(), dtype=np.float64)
        py_stats = SolverStats()
        vec_stats = SolverStats()
        py_rates = fill_rates_python(inc, remaining.copy(), LINE_RATE,
                                     py_stats)
        vec_rates = progressive_fill_vector(inc, remaining.copy(),
                                            LINE_RATE, vec_stats)
        assert py_rates.tolist() == vec_rates.tolist()
        assert vec_stats.link_visits == py_stats.link_visits
        assert not py_rates[~inc.alive].any()
        live = {fid: hops_of[fid] for fid in inc.fids
                if inc.alive[inc.row_of[fid]]}
        assert {fid: py_rates[inc.row_of[fid]] for fid in live} \
            == solve_python(live, capacity)

    @given(incidence_problems())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, problem):
        hops_of, capacity = problem
        assert solve_vector(hops_of, capacity) \
            == solve_vector(hops_of, capacity)


class TestLivePieces:
    """:meth:`CompiledIncidence.live_pieces` against a python flood
    fill, and the separability the engine's component split rests on:
    each piece solved alone gets the rates of the whole live problem,
    bit for bit."""

    @given(incidence_problems(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_pieces_are_the_connected_live_rows(self, problem, data):
        hops_of, capacity = problem
        inc = compile_problem(hops_of, capacity)
        fids = list(hops_of)
        for fid in data.draw(st.lists(st.sampled_from(fids),
                                      max_size=len(fids))):
            inc.retire([fid])
        live = [fid for fid in fids if inc.alive[inc.row_of[fid]]]
        pieces = [[inc.fids[row] for row in rows.tolist()]
                  for rows in inc.live_pieces()]
        assert pieces == flood_fill(live, hops_of)
        if not live:
            return
        whole = solve_python({fid: hops_of[fid] for fid in live},
                             capacity)
        for piece in pieces:
            alone = solve_python({fid: hops_of[fid] for fid in piece},
                                 capacity)
            assert alone == {fid: whole[fid] for fid in piece}

    def test_long_chain_is_one_piece(self):
        # A path graph needs many propagation rounds; retiring the
        # middle flow cuts it in two.
        hops_of = {fid: (f"l{fid}", f"l{fid + 1}") for fid in range(40)}
        capacity = {f"l{i}": 10.0 for i in range(41)}
        inc = compile_problem(hops_of, capacity)
        assert [rows.tolist() for rows in inc.live_pieces()] \
            == [list(range(40))]
        inc.retire([17])
        assert [rows.tolist() for rows in inc.live_pieces()] \
            == [list(range(17)), list(range(18, 40))]


KERNELS = (fill_rates_python, progressive_fill_vector)


def bits(rates):
    """Float bit patterns, so ``==`` tells 0.0 from -0.0."""
    return rates.view(np.int64).tolist()


def fill(kernel, inc, capacity, record, stats=None):
    """One engine-style fill: resume *record*, then run *kernel*."""
    remaining = record.resume(inc, capacity)
    return kernel(inc, remaining, LINE_RATE, stats, record)


def cold_fill(kernel, inc, capacity):
    """A from-scratch fill of *inc*'s live rows and its record."""
    record = FillRecord(inc)
    rates = kernel(inc, capacity.copy(), LINE_RATE, None, record)
    return rates, record


class TestWarmStart:
    """:meth:`FillRecord.resume` keeps the rounds a retirement cannot
    reach and replays them; the kernels run the rest.  Every resumed
    fill must equal a cold fill of the same live rows, bit for bit."""

    @given(incidence_problems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_resume_after_retire_equals_cold_fill(self, problem, data):
        hops_of, capacity = problem
        cap = np.fromiter(capacity.values(), dtype=np.float64)
        fids = list(hops_of)
        batches = data.draw(st.lists(
            st.lists(st.sampled_from(fids), unique=True,
                     max_size=len(fids)),
            min_size=1, max_size=3))
        visits = {}
        for kernel in KERNELS:
            inc = compile_problem(hops_of, capacity)
            record = FillRecord(inc)
            fill(kernel, inc, cap.copy(), record)
            visits[kernel] = []
            for batch in batches:
                inc.retire(batch)
                stats = SolverStats()
                warm = fill(kernel, inc, cap.copy(), record, stats)
                cold, cold_record = cold_fill(kernel, inc, cap)
                assert bits(warm) == bits(cold)
                assert record.shares == cold_record.shares
                assert record.round_of.tolist() \
                    == cold_record.round_of.tolist()
                assert record.starts == cold_record.starts
                end = record.starts[-1]
                assert record.cols[:end].tolist() \
                    == cold_record.cols[:end].tolist()
                visits[kernel].append(stats.link_visits)
        assert visits[fill_rates_python] \
            == visits[progressive_fill_vector]

    @given(incidence_problems(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_changed_capacity_fills_cold(self, problem, data):
        hops_of, capacity = problem
        cap = np.fromiter(capacity.values(), dtype=np.float64)
        changed = cap.copy()
        changed[data.draw(st.integers(0, cap.shape[0] - 1))] += 1.0
        fids = list(hops_of)
        retired = data.draw(st.lists(st.sampled_from(fids), unique=True,
                                     max_size=len(fids)))
        for kernel in KERNELS:
            inc = compile_problem(hops_of, capacity)
            record = FillRecord(inc)
            fill(kernel, inc, cap.copy(), record)
            inc.retire(retired)
            remaining = record.resume(inc, changed.copy())
            assert record.shares == []
            assert (record.round_of == -1).all()
            assert bits(remaining) == bits(changed)
            warm = kernel(inc, remaining, LINE_RATE, None, record)
            assert bits(warm) == bits(cold_fill(kernel, inc, changed)[0])

    @given(incidence_problems())
    @settings(max_examples=60, deadline=None)
    def test_nothing_retired_returns_the_last_rates(self, problem):
        hops_of, capacity = problem
        cap = np.fromiter(capacity.values(), dtype=np.float64)
        for kernel in KERNELS:
            inc = compile_problem(hops_of, capacity)
            record = FillRecord(inc)
            first = fill(kernel, inc, cap.copy(), record)
            stats = SolverStats()
            again = fill(kernel, inc, cap.copy(), record, stats)
            assert bits(again) == bits(first)
            assert stats.link_visits == 0

    def test_negative_residue_fills_cold(self):
        # l0 freezes flow 0 first (share -1.5 < -1.0).  Retiring flow 2
        # drops l1's count, which lowers its negative share to -2.0:
        # the first round changes, so the prefix must not be kept.
        hops_of = {0: ("l0",), 1: ("l1",), 2: ("l1",)}
        capacity = {"l0": -1.5, "l1": -2.0}
        cap = np.fromiter(capacity.values(), dtype=np.float64)
        for kernel in KERNELS:
            inc = compile_problem(hops_of, capacity)
            record = FillRecord(inc)
            fill(kernel, inc, cap.copy(), record)
            assert record.shares == [-1.5, -1.0]
            inc.retire([2])
            warm = fill(kernel, inc, cap.copy(), record)
            assert record.shares == [-2.0, -1.5]
            assert bits(warm) == bits(cold_fill(kernel, inc, cap)[0])


def index_problems(problems, shared):
    """An :class:`IncidenceIndex` over *problems*, numbering flows
    problem after problem, and each problem's flow ids.  Unless
    *shared*, each problem's links are its own; otherwise problems
    with a link name in common cross the same global column (whose
    capacity is the last problem's)."""
    index = IncidenceIndex()
    groups = []
    for i, (hops_of, capacity) in enumerate(problems):
        name = (lambda hop: hop) if shared else (lambda hop, i=i: (i, hop))
        for hop, value in capacity.items():
            index.set_capacity(name(hop), value)
        group = []
        for hops in hops_of.values():
            fid = sum(map(len, groups)) + len(group)
            index.register_flows([fid], [[name(hop) for hop in hops]])
            group.append(fid)
        groups.append(group)
    return index, groups


def cold_block_fill(kernel, block, index, stats=None):
    """A cold fill of *block* from *index*'s capacities, as the engine
    runs one: the rates and the record."""
    record = FillRecord(block.inc)
    remaining = record.resume(block.inc, index.gather_capacity(block.l2g))
    return kernel(block.inc, remaining, LINE_RATE, stats, record), record


def assert_same_problem(got, want):
    """Two compiled incidences ``==`` in every array."""
    assert got.fids == want.fids and got.row_of == want.row_of
    assert (got.n_links, got.n_alive) == (want.n_links, want.n_alive)
    for name in ("indptr", "mem_cols", "row_lens", "l_indptr", "l_lens",
                 "l_rows", "base_count", "alive"):
        assert getattr(got, name).tolist() \
            == getattr(want, name).tolist(), name


def assert_same_record(got, want):
    """Two fill records ``==`` in every field (``cols`` up to its
    filled end: the rest is never read)."""
    assert bits(got.capacity) == bits(want.capacity)
    assert got.round_of.tolist() == want.round_of.tolist()
    assert got.shares == want.shares
    assert got.starts == want.starts
    end = want.starts[-1]
    assert got.cols[:end].tolist() == want.cols[:end].tolist()


class TestBlockFill:
    """One fill of a block of problems stands for one fill of each:
    :meth:`~repro.network.solver.CompiledBlock.component` recovers each
    problem's incidence and record and
    :meth:`~repro.network.solver.CompiledBlock.link_visits` their
    work, so a component filled in a block resumes exactly as one
    filled alone."""

    @pytest.mark.parametrize("kernel", KERNELS,
                             ids=["python", "vector"])
    @given(st.lists(incidence_problems(), min_size=1, max_size=4),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_fill_is_each_problems_fill(self, kernel, problems,
                                              shared, data):
        index, groups = index_problems(problems, shared)
        block = compile_component(groups, index)
        rates, record = cold_block_fill(kernel, block, index)
        visits = 0
        for k, group in enumerate(groups):
            own = compile_component([group], index)
            stats = SolverStats()
            own_rates, own_record = cold_block_fill(kernel, own, index,
                                                    stats)
            visits += stats.link_visits
            lo, hi = block.row_starts[k:k + 2].tolist()
            assert bits(rates[lo:hi]) == bits(own_rates)

            # Retire the same rows in the block and alone, then slice
            # the problem out of the block.
            for fid in data.draw(st.lists(st.sampled_from(group),
                                          unique=True)):
                assert block.inc.retire([fid]) and own.inc.retire([fid])
            inc, l2g, part_record = block.component(k, record)
            assert_same_problem(inc, own.inc)
            assert l2g.tolist() == own.l2g.tolist()
            assert_same_record(part_record, own_record)
            # The slice resumes as the problem's own record does.
            capacity = index.gather_capacity(l2g)
            results = []
            for fill_inc, fill_record in ((inc, part_record),
                                          (own.inc, own_record)):
                stats = SolverStats()
                warm = fill(kernel, fill_inc, capacity.copy(),
                            fill_record, stats)
                end = fill_record.starts[-1]
                results.append((bits(warm), fill_record.round_of.tolist(),
                                fill_record.shares, fill_record.starts,
                                fill_record.cols[:end].tolist(),
                                stats.link_visits))
            assert results[0] == results[1]
        assert block.link_visits(record) == visits


# --------------------------------------------------------------------------
# Crafted edge cases, exact values
# --------------------------------------------------------------------------

def both_backends(hops_of, capacity):
    rates = solve_python(hops_of, capacity)
    assert solve_vector(hops_of, capacity) == rates
    return rates


class TestEdgeCases:

    def test_all_tied_single_bottleneck(self):
        # Five flows through one link: everyone gets capacity / 5.
        hops_of = {fid: ("l0",) for fid in range(5)}
        rates = both_backends(hops_of, {"l0": 40.0})
        assert rates == {fid: 8.0 for fid in range(5)}

    def test_all_links_tied_at_same_share(self):
        # Two disjoint links with identical fair share freeze in one
        # tie group; all four flows land on the exact same rate.
        hops_of = {0: ("l0",), 1: ("l0",), 2: ("l1",), 3: ("l1",)}
        rates = both_backends(hops_of, {"l0": 32.0, "l1": 32.0})
        assert rates == {0: 16.0, 1: 16.0, 2: 16.0, 3: 16.0}

    def test_line_rate_capped(self):
        # Loose links everywhere: every flow gets exactly LINE_RATE.
        hops_of = {0: ("l0",), 1: ("l0", "l1"), 2: ()}
        rates = both_backends(hops_of, {"l0": 1000.0, "l1": 900.0})
        assert rates == {0: LINE_RATE, 1: LINE_RATE, 2: LINE_RATE}

    def test_dead_link_kills_crossing_flows_only(self):
        # A flow through a zero-capacity link gets exactly 0.0 and
        # stops charging its other hops, so the survivor on the
        # shared live link takes the whole capacity (line-rate cap).
        hops_of = {0: ("l0", "l1"), 1: ("l1",)}
        rates = both_backends(hops_of, {"l0": 0.0, "l1": 80.0})
        assert rates == {0: 0.0, 1: 80.0}

    def test_flow_without_hops_gets_line_rate(self):
        rates = both_backends({0: ()}, {"l0": 7.0})
        assert rates == {0: LINE_RATE}

    def test_cascaded_bottlenecks(self):
        # Classic max-min ladder: flow 0 shares l0 with flow 1 and l1
        # with flow 2.  l0 bottlenecks first (share 10), then flow 2
        # gets the rest of l1.
        hops_of = {0: ("l0", "l1"), 1: ("l0",), 2: ("l1",)}
        rates = both_backends(hops_of, {"l0": 20.0, "l1": 60.0})
        assert rates == {0: 10.0, 1: 10.0, 2: 50.0}

    def test_miscounted_column_raises_instead_of_spinning(self):
        # One extra count on l0 (what a broken retire leaves): the
        # vector kernel freezes row 0 at 5.0, then finds l0 tied again
        # with no unfrozen member.  The reference derives its counts
        # from the rows, so it never sees the bad count.
        inc = CompiledIncidence([0, 1], [0, 1, 2], [0, 1], 2)
        inc.base_count[0] += 1
        capacity = np.array([10.0, 100.0])
        assert fill_rates_python(inc, capacity, LINE_RATE).tolist() \
            == [10.0, 100.0]
        with pytest.raises(SimulationError, match=r"tied columns \[0\]"):
            progressive_fill_vector(inc, capacity.copy(), LINE_RATE)


# --------------------------------------------------------------------------
# Wide freezes: the vectorized CSR expanders
# --------------------------------------------------------------------------

#: rows (or tied links) per crafted problem, well past the expanders'
#: small-input cut-over.
WIDE = 3 * CompiledIncidence._SMALL_N


def _shared_link_problem():
    """WIDE flows freezing together on one shared link.  Flow ``f``
    also crosses ``f % 3`` private links, and a sidekick flow on its
    first private link later takes that link's residue — so every
    expanded column shows up in some rate."""
    hops_of, capacity = {}, {"shared": WIDE / 2}
    expected = {}
    for fid in range(WIDE):
        own = tuple(f"own{fid}.{k}" for k in range(fid % 3))
        hops_of[fid] = own + ("shared",)
        expected[fid] = 0.5
        for k, hop in enumerate(own):
            capacity[hop] = 2.0 + fid / 64 + k
    for fid in range(WIDE):
        if fid % 3:
            side = WIDE + fid
            hops_of[side] = (f"own{fid}.0",)
            expected[side] = capacity[f"own{fid}.0"] - 0.5
    return hops_of, capacity, expected


def _tied_links_problem():
    """2·WIDE disjoint links of one to three flows each; the even
    links tie at share 16, the odd ones sit at share 40."""
    hops_of, capacity, expected = {}, {}, {}
    for link in range(2 * WIDE):
        share = 40.0 if link % 2 else 16.0
        capacity[f"l{link}"] = share * (link % 3 + 1)
        for _ in range(link % 3 + 1):
            fid = len(hops_of)
            hops_of[fid] = (f"l{link}",)
            expected[fid] = share
    return hops_of, capacity, expected


class TestWideExpanders:
    """``rows_cols`` and ``link_rows`` expand more than ``_SMALL_N``
    rows or columns with ``_concat_ranges``; that branch must give the
    small-input loop's rates ``==`` under both kernels."""

    @pytest.mark.parametrize("problem, expander", [
        (_shared_link_problem, "rows_cols"),
        (_tied_links_problem, "link_rows"),
    ])
    def test_wide_branch_matches_small_loop(self, monkeypatch, problem,
                                            expander):
        hops_of, capacity, expected = problem()
        widths = []
        original = getattr(CompiledIncidence, expander)

        def recording(inc, index):
            widths.append(index.shape[0])
            return original(inc, index)

        concat_calls = []
        concat = solver._concat_ranges
        monkeypatch.setattr(CompiledIncidence, expander, recording)
        monkeypatch.setattr(
            solver, "_concat_ranges",
            lambda starts, lens: concat_calls.append(1)
            or concat(starts, lens))
        rates = both_backends(hops_of, capacity)
        assert rates == expected
        assert max(widths) > CompiledIncidence._SMALL_N
        assert concat_calls

        monkeypatch.setattr(CompiledIncidence, "_SMALL_N",
                            len(hops_of) + len(capacity))
        concat_calls.clear()
        assert solve_vector(hops_of, capacity) == rates
        assert not concat_calls
