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
* repeated solves of the same problem are deterministic.

Crafted edge cases (all links tied at one share, everything
line-rate-capped, flows through dead links) pin the exact values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.solver import (
    CompiledIncidence,
    SolverStats,
    fill_rates_python,
    progressive_fill_vector,
    solve_incidence,
)
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
    return solve_incidence(hops_of, capacity, LINE_RATE, stats,
                           backend="python")


def solve_vector(hops_of, capacity, stats=None):
    """Run the vector kernel on a raw incidence problem."""
    return solve_incidence(hops_of, capacity, LINE_RATE, stats,
                           backend="vector")


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
        col_of = {hop: col for col, hop in enumerate(capacity)}
        fids = list(hops_of)
        indptr, mem_cols = [0], []
        for fid in fids:
            mem_cols.extend(col_of[hop] for hop in hops_of[fid])
            indptr.append(len(mem_cols))
        inc = CompiledIncidence(fids, indptr, mem_cols, len(col_of))
        for fid in data.draw(st.lists(st.sampled_from(fids),
                                      max_size=len(fids))):
            inc.retire(fid)
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
