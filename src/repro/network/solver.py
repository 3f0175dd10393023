"""Max-min fair-share solver core: one problem shape, two fill kernels.

Every max-min solve — :meth:`Fabric.max_min_rates` and each component
solve of :class:`~repro.network.engine.FabricEngine` — is posed the
same way: a flow×link incidence in CSR form (:class:`CompiledIncidence`,
row = flow, column = directed link) plus a per-column capacity vector.
The solver backend picks only the progressive-filling kernel that turns
that problem into per-row rates (:func:`fill_kernel`):

* ``python`` — :func:`fill_rates_python`, the reference: a pure-python
  loop over the raw CSR rows.  It derives its own per-link counts and
  member lists from ``indptr``/``mem_cols``/``alive`` and never reads
  the compiled column view or the counts :meth:`CompiledIncidence.retire`
  patches, so it stays an independent oracle for both;
* ``vector`` — :func:`progressive_fill_vector`, a numpy kernel with
  vectorized share computation, batched bottleneck-group freezing via
  boolean masks, and scatter-subtract of frozen rates.

**Choosing a kernel.**  ``vector`` always runs, except inside a
``with use_backend("python"):`` block — the one selector, used by the
backend differential and the exactness tests.  A
:class:`~repro.network.engine.FabricEngine` keeps the backend of the
scope it was built in, so it never mixes kernels mid-run;
:func:`solve_incidence` reads the scope at each call.  The one input
that carries a backend name across a process boundary, the
``validation-case`` farm param, re-enters the scope on the far side.

**Bit-identity contract.**  The two kernels return *identical floats*,
not merely close ones, because the solve is scan-order independent and
the vector kernel performs exactly the element-wise operations of the
reference:

* the bottleneck share is a pure ``min`` over per-link divisions
  ``remaining / count`` — comparison only, no rounding, so any scan
  order finds the same value;
* the tied bottleneck group is *every* live link whose share equals
  that minimum (and the minimum is strictly below the line rate), so
  tie detection is order-preserving equality, never an accumulated
  reduction;
* frozen flows subtract the same share once per (flow, hop)
  membership; the kernel uses ``np.subtract.at`` — the unbuffered
  scatter that applies per duplicate index — which reproduces the
  reference's repeated per-flow subtractions bit-for-bit.  A
  reassociated update (``remaining -= k * share``) would not.

**Resuming a fill.**  A kernel handed a :class:`FillRecord` starts
from its prefix instead of round 0 and records the round each row
freezes in.  :meth:`FillRecord.resume` keeps the prefix when the
capacity vector is bit-equal to the last fill's and the only change
since is retired rows.  Rounds before ``r``, the earliest round a
retired row froze in, are then the cold fill's rounds exactly:

* a column of a retired row was never tied before ``r`` (else that
  row would have frozen there), so its share stayed above the minimum;
* retiring a row only lowers its columns' counts, and with a
  non-negative residue a lower count never lowers a share (division is
  monotone in the divisor), so those columns stay above the minimum,
  and every other column sees exactly the old counts and subtractions;
* the prefix is replayed with one ``np.subtract.at`` over the member
  columns the record kept in freeze order — round-major, and the
  kernel's own sorted-row order within a round — so each column sees
  the cold fill's subtractions in the cold fill's order, bit for bit.

A prefix with a negative share or leaving a negative residue on a
retired row's column is dropped (``r = 0``): a smaller count could
then lower a share.  From round ``r`` the kernel runs its normal loop,
and its state there — residue, counts, unfrozen rows, live columns —
is the cold fill's, so rates, freeze rounds and the ``link_visits`` of
the rounds it runs are the cold fill's too.  A fresh record is the
cold start, ``r = 0``.

The validation harness pins this contract on every fuzz profile
(the solver-backends half of ``repro.validation.check_replay``):
finish times, event traces and :class:`SolverStats` must compare
``==`` across backends, on top of the engine-vs-batch and
flat-vs-folded ``==`` differentials that both backends must keep
exact.

**Work accounting.**  :class:`SolverStats.link_visits` counts with one
ruler across paths and backends:

* +1 per (flow, hop) membership materialized into solver structures —
  the batch path rebuilds them every solve, the engine registers them
  once per flow arrival/reroute and re-materializes them per
  component compile;
* +1 per link capacity loaded into a solve's ``remaining`` vector;
* +1 per live link per progressive-filling iteration.

The per-hop subtractions of the freeze step are deliberately uncounted
(they are proportional to the memberships already counted at
materialization).  Rounds replayed from a :class:`FillRecord` are not
link visits either: a replay only makes those uncounted subtractions,
and the capacity load of a resumed solve is counted as for any solve.

A fill of a :class:`CompiledBlock` — several components compiled as one
block-diagonal problem — counts each component's own rounds, not the
block's: the kernel runs with ``stats=None`` and
:meth:`CompiledBlock.link_visits` adds, per column, one visit per round
of its component up to the round its last member froze in.  That is
what a cold fill of each component alone counts, so a block fill and
one fill per component leave every counter ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from ..simcore import SimulationError

__all__ = [
    "HAVE_NUMPY",
    "CompiledBlock",
    "CompiledIncidence",
    "FillRecord",
    "IncidenceIndex",
    "SolverStats",
    "compile_component",
    "fill_kernel",
    "fill_rates_python",
    "progressive_fill_vector",
    "resolve_backend",
    "solve_incidence",
    "use_backend",
]

#: numpy is a hard dependency; the flag stays exported because the
#: benchmark child process (``bench/child.py``) reads it.
HAVE_NUMPY = True

#: A directed link traversal; opaque to the solver (any hashable).
Hop = Hashable


@dataclass
class SolverStats:
    """Work counters for the max-min rate solver.

    ``link_visits`` counts every per-link unit of solver work — a
    (flow, hop) membership materialization, a capacity load, or one
    fair-share evaluation inside the progressive-filling loop.  The
    epoch-global batch path and the incremental engine count with the
    same ruler (see the module docstring), so their totals are
    directly comparable.
    """

    events: int = 0
    solves: int = 0
    link_visits: int = 0
    flows_resolved: int = 0
    components_solved: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "solves": self.solves,
            "link_visits": self.link_visits,
            "flows_resolved": self.flows_resolved,
            "components_solved": self.components_solved,
        }


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------

#: The kernel of the innermost :func:`use_backend` scope; outside any
#: scope it is ``vector``, the production kernel.  A context variable,
#: so a scope covers only the thread (or asyncio task) that entered it.
_BACKEND: ContextVar[str] = ContextVar("repro_solver_backend",
                                       default="vector")


def resolve_backend(name: Optional[str] = None) -> str:
    """*name* checked against the two kernels, or with ``None`` the
    backend of the current :func:`use_backend` scope."""
    if name is None:
        return _BACKEND.get()
    if name not in ("python", "vector"):
        raise ValueError(
            f"unknown solver backend {name!r}; expected 'python' or "
            f"'vector' (choose one with repro.network.solver."
            f"use_backend)")
    return name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Run the block with *name*'s fill kernel (no-op for ``None``).

    The only way to pick a kernel.  A
    :class:`~repro.network.engine.FabricEngine` keeps the backend of
    the scope it was built in; :func:`solve_incidence` reads the scope
    when it is called.
    """
    if name is None:
        yield
        return
    token = _BACKEND.set(resolve_backend(name))
    try:
        yield
    finally:
        _BACKEND.reset(token)


def fill_kernel(backend: str) -> Callable:
    """The progressive-filling kernel of a resolved *backend* name.

    Kernels are called as ``kernel(inc, remaining, line_rate, stats,
    record)`` and return the rate per row of *inc*; the optional
    :class:`FillRecord` is the start state and receives each row's
    freeze round.  The kernel is read from this
    module's globals at call time, so a wrapper installed over
    ``progressive_fill_vector`` (the bench tracer) is the one that runs.
    """
    return fill_rates_python if backend == "python" \
        else progressive_fill_vector


# --------------------------------------------------------------------------
# Incidence representation
# --------------------------------------------------------------------------

def _concat_ranges(starts, lens):
    """Concatenate ``arange(starts[i], starts[i]+lens[i])`` ranges."""
    total = int(lens.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    offsets = _np.cumsum(lens) - lens
    return _np.repeat(starts - offsets, lens) + _np.arange(total)


class CompiledIncidence:
    """A flow×link incidence matrix in CSR form, both directions.

    Rows are flows (in the order of ``fids``), columns are directed
    links local to this problem.  ``indptr``/``mem_cols`` is the
    row-major CSR; a column-major view (``link -> member rows``) is
    derived once at construction so tie-group freezing can expand
    bottleneck links to their member flows without scanning.

    The engine retires rows in place as flows complete
    (:meth:`retire` flips ``alive`` and patches ``base_count``), so a
    compiled component survives arbitrarily many completion events
    without recompiling.
    """

    __slots__ = ("fids", "indptr", "mem_cols", "n_links", "row_lens",
                 "l_indptr", "l_lens", "l_rows", "base_count", "alive",
                 "n_alive", "row_of")

    def __init__(self, fids: Sequence[int], indptr, mem_cols,
                 n_links: int):
        np_ = _np
        self.fids = list(fids)
        self.indptr = np_.asarray(indptr, dtype=np_.int64)
        self.mem_cols = np_.asarray(mem_cols, dtype=np_.int64)
        self.n_links = int(n_links)
        n = len(self.fids)
        self.row_lens = self.indptr[1:] - self.indptr[:-1]
        counts = np_.bincount(self.mem_cols, minlength=self.n_links
                              ).astype(np_.int64)
        self.l_lens = counts
        l_indptr = np_.zeros(self.n_links + 1, dtype=np_.int64)
        np_.cumsum(counts, out=l_indptr[1:])
        self.l_indptr = l_indptr
        mem_rows = np_.repeat(np_.arange(n, dtype=np_.int64),
                              self.row_lens)
        order = np_.argsort(self.mem_cols, kind="stable")
        self.l_rows = mem_rows[order]
        self.base_count = counts.copy()
        self.alive = np_.ones(n, dtype=bool)
        self.n_alive = n
        self.row_of = {fid: row for row, fid in enumerate(self.fids)}

    @property
    def n_rows(self) -> int:
        return len(self.fids)

    @property
    def nnz(self) -> int:
        return int(self.mem_cols.shape[0])

    # Tie groups and freeze sets are usually a handful of entries, so
    # the CSR expanders take a sliced python loop below a small-N
    # threshold — same values, a fraction of the fixed numpy-call
    # overhead — and the vectorized range concat above it.
    _SMALL_N = 64

    def rows_cols(self, rows):
        """Concatenated member columns of *rows*."""
        indptr = self.indptr
        if 0 < rows.shape[0] <= self._SMALL_N:
            mem = self.mem_cols
            return _np.concatenate(
                [mem[indptr[row]:indptr[row + 1]]
                 for row in rows.tolist()])
        return self.mem_cols[
            _concat_ranges(indptr[rows], self.row_lens[rows])]

    def link_rows(self, cols):
        """Concatenated member rows of links *cols*."""
        indptr = self.l_indptr
        if 0 < cols.shape[0] <= self._SMALL_N:
            rows = self.l_rows
            return _np.concatenate(
                [rows[indptr[col]:indptr[col + 1]]
                 for col in cols.tolist()])
        return self.l_rows[
            _concat_ranges(indptr[cols], self.l_lens[cols])]

    def retire(self, fids: Iterable[int]) -> int:
        """Mark the live rows of *fids* dead and drop their memberships
        from the active counts, with one scatter.  Ids that are not a
        live row of this problem are skipped; returns how many rows
        were retired."""
        row_of = self.row_of
        alive = self.alive
        rows = [row for row in {row_of.get(fid) for fid in fids}
                if row is not None and alive[row]]
        if rows:
            rows = _np.array(rows, dtype=_np.int64)
            alive[rows] = False
            self.n_alive -= rows.shape[0]
            _np.subtract.at(self.base_count, self.rows_cols(rows), 1)
        return len(rows)

    def live_pieces(self) -> List[Any]:
        """The live rows, split into the connected pieces they form.

        Two live rows are connected when a chain of live rows sharing
        columns joins them; dead rows join nothing.  Returns one
        ascending row array per piece, ordered by first row (none when
        no row is live).

        Hook and compress over the graph whose vertices are the rows
        and the columns (column *c* is vertex ``n_rows + c``) and whose
        edges are the live rows' memberships.  Each round hooks, for
        every edge whose ends still have different roots, the larger
        root onto the smaller (``np.minimum.at``), then pointer-jumps
        until every vertex points at its root.  A vertex only ever
        points at a smaller one, so a piece's root is its least vertex,
        its first row, and the rounds end when no edge joins two roots.
        """
        np_ = _np
        n = self.n_rows
        live = np_.flatnonzero(self.alive)
        if live.shape[0] <= 1 or self.nnz == 0:
            return [live[i:i + 1] for i in range(live.shape[0])]
        owner = np_.repeat(np_.arange(n, dtype=np_.int64), self.row_lens)
        kept = self.alive[owner]
        ends_a = owner[kept]
        ends_b = self.mem_cols[kept] + n
        parent = np_.arange(n + self.n_links, dtype=np_.int64)
        while True:
            root_a = parent[ends_a]
            root_b = parent[ends_b]
            apart = np_.flatnonzero(root_a != root_b)
            if not apart.shape[0]:
                break
            ends_a = ends_a[apart]
            ends_b = ends_b[apart]
            root_a = root_a[apart]
            root_b = root_b[apart]
            np_.minimum.at(parent, np_.maximum(root_a, root_b),
                           np_.minimum(root_a, root_b))
            while True:
                jumped = parent[parent]
                if np_.array_equal(jumped, parent):
                    break
                parent = jumped
        labels = parent[live]
        order = np_.argsort(labels, kind="stable")
        cuts = np_.flatnonzero(np_.diff(labels[order])) + 1
        return np_.split(live[order], cuts)


class FillRecord:
    """The freeze order one fill of a :class:`CompiledIncidence` left
    behind, and what the fill started from.

    ``round_of[row]`` is the round in which the row froze (-1: dead, or
    not frozen yet), so after a fill ``round_of >= 0`` is the live-row
    mask the fill saw.  ``shares[k]`` is the share round *k* froze its
    rows at — the line rate for a closing round of line-rate-limited
    rows.  ``cols`` holds the member columns of the rows each round
    froze, round after round and in sorted-row order within a round;
    round *k*'s run is ``cols[starts[k]:starts[k + 1]]`` (a closing
    round adds none).  ``capacity`` is the capacity vector the fill
    started from.  Both kernels read a record as their start state and
    append the rounds they run to it; a fresh record is a cold start.
    """

    __slots__ = ("capacity", "round_of", "shares", "cols", "starts")

    def __init__(self, inc: CompiledIncidence):
        self.capacity = None
        self.round_of = _np.full(inc.n_rows, -1, dtype=_np.int64)
        self.shares: List[float] = []
        self.cols = _np.empty(inc.nnz, dtype=_np.int64)
        self.starts: List[int] = [0]

    def resume(self, inc: CompiledIncidence, capacity):
        """Ready the next fill of *inc* from *capacity*.

        Keeps the rounds of the last fill that the changes since cannot
        reach, replays their subtractions, and returns the residue to
        hand a kernel together with this record.  The prefix survives
        only when *capacity* is bit-equal to the last fill's and the
        only change since is retired rows: then rounds before
        ``r = min(round of the retired rows)`` are unchanged (see the
        module docstring).  Otherwise ``r = 0``, a cold start.
        *capacity* is kept, not consumed.
        """
        np_ = _np
        round_of = self.round_of
        r = 0
        if self.capacity is not None and np_.array_equal(
                self.capacity.view(np_.int64), capacity.view(np_.int64)):
            retired = np_.flatnonzero((round_of >= 0) & ~inc.alive)
            r = int(round_of[retired].min()) if retired.size \
                else len(self.shares)
        remaining = capacity.copy()
        if 0 < r < len(self.shares):
            # ``cols`` is round-major: each column sees the
            # subtractions of a cold fill in the same order.
            share = np_.array(self.shares[:r])
            starts = np_.array(self.starts[:r + 1])
            np_.subtract.at(remaining, self.cols[:starts[-1]],
                            np_.repeat(share, np_.diff(starts)))
            if share.min() < 0 or \
                    (remaining[inc.rows_cols(retired)] < 0).any():
                # A negative residue: a smaller count could lower a
                # retired column's share, so the prefix may not hold.
                r = 0
                remaining = capacity.copy()
        round_of[round_of >= r] = -1
        del self.shares[r:]
        del self.starts[r + 1:]
        self.capacity = capacity
        return remaining


# --------------------------------------------------------------------------
# Fill kernels
# --------------------------------------------------------------------------

def fill_rates_python(inc: CompiledIncidence, remaining,
                      line_rate: float,
                      stats: Optional[SolverStats] = None,
                      record: Optional[FillRecord] = None):
    """The reference kernel: progressive filling in pure python.

    Reads only the raw rows of *inc* — ``indptr``, ``mem_cols`` and
    ``alive``, turned into lists — and derives its own per-link member
    counts and member lists from the rows still to freeze, so comparing
    it with the vector kernel checks the compiled column view and the
    counts :meth:`CompiledIncidence.retire` patches instead of trusting
    them.  Because its counts come from the unfrozen rows themselves,
    a tied link always has an unfrozen member, so every round freezes
    at least one row and the loop needs no stall guard.  *remaining*
    is the per-link capacity (not consumed).
    Returns the rate per row as a float64 array (dead rows 0.0).

    Repeatedly: find the tightest link (smallest fair share among its
    unfrozen flows), freeze every flow crossing a link tied at that
    share, remove the consumed capacity, continue.  The source
    line-rate cap is modelled as a virtual per-flow link.  Active
    member counts are maintained incrementally and fully-frozen links
    are pruned from the scan list, so each iteration costs
    O(live links) instead of O(total memberships).

    With a *record* the fill starts from its replayed prefix (see
    :meth:`FillRecord.resume`; *remaining* is then the replayed
    residue) and appends the rounds it runs to it.
    """
    if record is None:
        record = FillRecord(inc)
    indptr = inc.indptr.tolist()
    mem_cols = inc.mem_cols.tolist()
    alive = inc.alive.tolist()
    remaining = remaining.tolist()
    round_of = record.round_of.tolist()
    shares = record.shares
    starts = record.starts
    # Columns of the rows this call freezes, appended after the prefix.
    base = starts[-1]
    frozen_cols: List[int] = []
    n_links = len(remaining)
    cols_of: List[List[int]] = []
    active_count = [0] * n_links
    members: List[List[int]] = [[] for _ in range(n_links)]
    unfrozen = set()
    rates = [0.0] * len(alive)
    for row, live_row in enumerate(alive):
        cols = mem_cols[indptr[row]:indptr[row + 1]]
        cols_of.append(cols)
        if not live_row:
            continue
        if round_of[row] >= 0:
            rates[row] = shares[round_of[row]]
            continue
        unfrozen.add(row)
        for col in cols:
            active_count[col] += 1
            members[col].append(row)
    scan = list(range(n_links))
    while unfrozen:
        bottleneck_share = line_rate
        tied: List[int] = []
        live = []
        for col in scan:
            count = active_count[col]
            if not count:
                continue
            live.append(col)
            share = remaining[col] / count
            if share < bottleneck_share:
                bottleneck_share = share
                tied = [col]
            elif tied and share == bottleneck_share:
                tied.append(col)
        scan = live
        if stats is not None:
            stats.link_visits += len(live)
        if not tied:
            # Every remaining flow is line-rate limited.
            for row in unfrozen:
                rates[row] = line_rate
                round_of[row] = len(shares)
            shares.append(line_rate)
            starts.append(base + len(frozen_cols))
            break
        # Water-filling: every link tied at the bottleneck share
        # saturates together (freezing one tied link leaves the
        # others' shares unchanged), so symmetric workloads freeze
        # whole tie groups per iteration instead of one link each.
        frozen_now = set()
        for col in tied:
            frozen_now.update(members[col])
        frozen_now &= unfrozen
        for row in sorted(frozen_now):
            rates[row] = bottleneck_share
            round_of[row] = len(shares)
            frozen_cols.extend(cols_of[row])
            for col in cols_of[row]:
                remaining[col] -= bottleneck_share
                active_count[col] -= 1
        shares.append(bottleneck_share)
        starts.append(base + len(frozen_cols))
        unfrozen -= frozen_now
    record.round_of[:] = round_of
    record.cols[base:base + len(frozen_cols)] = frozen_cols
    return _np.array(rates, dtype=_np.float64)


def _sorted_unique(values):
    """``np.unique(values)`` of a 1-d integer array the caller owns,
    which it sorts in place.  ``np.unique``'s wrapper chain costs more
    than a whole small array, and its masked-array test imports
    ``numpy.ma`` on first use."""
    values.sort(kind="stable")
    if values.shape[0] < 2:
        return values
    keep = _np.empty(values.shape[0], dtype=bool)
    keep[0] = True
    _np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def progressive_fill_vector(inc: CompiledIncidence, remaining,
                            line_rate: float,
                            stats: Optional[SolverStats] = None,
                            record: Optional[FillRecord] = None):
    """The numpy kernel: progressive filling over compiled arrays.

    *remaining* is the per-link unconsumed capacity (float64, consumed
    in place — pass a copy).  Returns the rate per row (dead rows stay
    at 0.0).  Every operation is element-wise or an order-independent
    comparison min, so the result is bit-identical to
    :func:`fill_rates_python` on the same problem — see the module
    docstring for why.  A *record* is read and extended exactly as
    the reference kernel does.

    The per-link counts come from ``inc.base_count``; if they disagree
    with the live rows (a tied link with no unfrozen member), a round
    would freeze nothing and loop forever, so it raises
    :class:`~repro.simcore.SimulationError` instead.
    """
    np_ = _np
    n = inc.n_rows
    if record is None:
        record = FillRecord(inc)
    round_of = record.round_of
    shares = record.shares
    starts = record.starts
    frozen_cols = record.cols
    end = starts[-1]
    rates = np_.zeros(n, dtype=np_.float64)
    counts = inc.base_count.copy()
    unfrozen = inc.alive.copy()
    if shares:
        # Rows of the replayed prefix keep their rounds' shares and
        # leave the counts of their columns.
        done = np_.flatnonzero(round_of >= 0)
        rates[done] = np_.array(shares)[round_of[done]]
        unfrozen[done] = False
        counts -= np_.bincount(frozen_cols[:end], minlength=inc.n_links)
        n_unfrozen = int(inc.n_alive) - int(done.size)
    else:
        n_unfrozen = int(inc.n_alive)
    scan = np_.arange(inc.n_links, dtype=np_.int64)
    while n_unfrozen:
        live_counts = counts[scan]
        live = live_counts > 0
        scan = scan[live]
        if stats is not None:
            stats.link_visits += int(scan.size)
        if scan.size:
            shares_now = remaining[scan] / live_counts[live]
            min_share = shares_now.min()
        else:
            min_share = line_rate
        if not (min_share < line_rate):
            # Every remaining flow is line-rate limited.
            rates[unfrozen] = line_rate
            round_of[unfrozen] = len(shares)
            shares.append(line_rate)
            starts.append(end)
            break
        tied = scan[shares_now == min_share]
        cand = inc.link_rows(tied)
        cand = cand[unfrozen[cand]]
        # A flow crossing several tied links must freeze (and
        # subtract) exactly once — same dedupe as the reference's
        # frozen_now set union.
        rows = _sorted_unique(cand)
        if not rows.size:
            raise SimulationError(
                f"fill round {len(shares)} froze no row: tied columns "
                f"{tied.tolist()} at share {float(min_share)!r} have no "
                f"unfrozen member (base_count disagrees with the rows)")
        rates[rows] = min_share
        round_of[rows] = len(shares)
        shares.append(float(min_share))
        unfrozen[rows] = False
        n_unfrozen -= int(rows.size)
        cols = inc.rows_cols(rows)
        np_.subtract.at(remaining, cols, min_share)
        np_.subtract.at(counts, cols, 1)
        frozen_cols[end:end + cols.shape[0]] = cols
        end += cols.shape[0]
        starts.append(end)
    return rates


def solve_incidence(hops_of: Mapping[int, Sequence[Hop]],
                    remaining: Mapping[Hop, float],
                    line_rate: float,
                    stats: Optional[SolverStats] = None
                    ) -> Dict[int, float]:
    """One-shot solve from dict-shaped inputs (batch adapter).

    *remaining* defines the link universe and initial capacities (its
    insertion order becomes the column order); *hops_of* the flows.
    The problem is compiled once and handed to the kernel of the
    current :func:`use_backend` scope; the input dict is not consumed.
    Returns the rate per flow id — bit-identical across backends.
    """
    col_of: Dict[Hop, int] = {}
    for hop in remaining:
        col_of[hop] = len(col_of)
    fids = []
    mem_cols: List[int] = []
    indptr = [0]
    for fid, hops in hops_of.items():
        fids.append(fid)
        for hop in hops:
            mem_cols.append(col_of[hop])
        indptr.append(len(mem_cols))
    inc = CompiledIncidence(fids, indptr, mem_cols, len(col_of))
    capacity = _np.fromiter(remaining.values(), dtype=_np.float64,
                            count=len(col_of))
    kernel = fill_kernel(resolve_backend())
    out = kernel(inc, capacity, line_rate, stats).tolist()
    return {fid: out[row] for row, fid in enumerate(fids)}


# --------------------------------------------------------------------------
# Persistent incidence index (engine adapter support)
# --------------------------------------------------------------------------

class IncidenceIndex:
    """Persistent flow/link column universe for an incremental solver.

    Directed links get stable integer columns on first occupancy; the
    per-column effective capacity is patched in place as links fail,
    degrade, or change PFC factors (the engine patches exactly the
    links whose capacity may have changed).  Per-flow column arrays are
    registered once per arrival instant or reroute
    (:meth:`register_flows`), so compiling a component is a pure array
    concatenation plus one ``np.unique`` — no per-membership python.
    """

    def __init__(self) -> None:
        np_ = _np
        self._col_of: Dict[Hop, int] = {}
        self._capacity = np_.zeros(64, dtype=np_.float64)
        self._flow_cols: Dict[int, Any] = {}

    def ensure_col(self, hop: Hop) -> int:
        col = self._col_of.get(hop)
        if col is None:
            col = len(self._col_of)
            self._col_of[hop] = col
            if col >= self._capacity.shape[0]:
                grown = _np.zeros(2 * self._capacity.shape[0],
                                  dtype=_np.float64)
                grown[:self._capacity.shape[0]] = self._capacity
                self._capacity = grown
        return col

    def set_capacity(self, hop: Hop, value: float) -> None:
        self._capacity[self.ensure_col(hop)] = value

    def register_flows(self, fids: Sequence[int],
                       hop_lists: Sequence[Sequence[Hop]]) -> None:
        """Give each flow of *fids* the columns of its hops, in one
        pass: a hop seen for the first time gets the next column, in
        the order the flows and their hops come."""
        col_of = self._col_of
        cols: List[int] = []
        for hops in hop_lists:
            for hop in hops:
                col = col_of.get(hop)
                cols.append(self.ensure_col(hop) if col is None else col)
        flat = _np.array(cols, dtype=_np.int64)
        flow_cols = self._flow_cols
        end = 0
        for fid, hops in zip(fids, hop_lists):
            start, end = end, end + len(hops)
            flow_cols[fid] = flat[start:end]

    def drop_flow(self, fid: int) -> None:
        self._flow_cols.pop(fid, None)

    def flow_cols(self, fid: int):
        return self._flow_cols[fid]

    def gather_capacity(self, cols):
        """Fresh per-solve ``remaining`` vector for local columns."""
        return self._capacity[cols]


class CompiledBlock:
    """Components compiled side by side as one block-diagonal problem.

    ``inc`` holds component *k*'s rows at ``row_starts[k]`` up to
    ``row_starts[k + 1]`` and its columns at ``col_starts[k]`` up to
    ``col_starts[k + 1]``; no row crosses a column of another
    component.  Within its spans a component is numbered exactly as if
    compiled alone, so a block of one component is that component's
    problem.  ``l2g`` maps block columns to global columns.

    Progressive filling is separable by component bit for bit: a
    column's residue moves only with the freezes of its own component's
    rows, at the shares that component reaches.  A fill of the block
    therefore runs each component's own rounds, at the same shares and
    freezing the same rows, merged in share order (components tied at
    one share freeze in one round).  One fill of the block stands for
    one fill per component, and :meth:`component` and
    :meth:`link_visits` recover from its record what each of those
    fills would have left and counted.
    """

    __slots__ = ("inc", "l2g", "row_starts", "col_starts")

    def __init__(self, inc: CompiledIncidence, l2g, row_starts,
                 col_starts):
        self.inc = inc
        self.l2g = l2g
        self.row_starts = row_starts
        self.col_starts = col_starts

    def link_visits(self, record: FillRecord) -> int:
        """The ``link_visits`` a cold fill of each component alone
        would have counted, summed, from the *record* of a cold fill
        of the block.

        A fill scans a column in each round up to the one its last
        live member freezes in, so a column costs one visit per round
        of its own component up to that round.  A component's rounds
        are the block rounds one of its rows froze in.
        """
        np_ = _np
        inc = self.inc
        if not inc.n_links:
            return 0
        round_of = record.round_of
        # Every compiled column has a member, so no segment is empty.
        last = np_.maximum.reduceat(round_of[inc.l_rows],
                                    inc.l_indptr[:-1])
        n_rounds = len(record.shares)
        ks = np_.arange(self.row_starts.shape[0] - 1, dtype=np_.int64)
        row_key = np_.repeat(ks, np_.diff(self.row_starts)) * n_rounds
        keys = _sorted_unique(row_key + round_of)
        col_key = np_.repeat(ks, np_.diff(self.col_starts)) * n_rounds
        own = np_.searchsorted(keys, col_key + last) \
            - np_.searchsorted(keys, col_key)
        return int(own.sum()) + inc.n_links

    def component(self, k: int, record: FillRecord
                  ) -> Tuple[CompiledIncidence, Any, FillRecord]:
        """Component *k* as a problem of its own, as compiled alone:
        ``(inc, l2g, record)``.

        The spans are closed, so every array is a slice of the block's:
        rows keep their liveness, and the counts keep the patches
        :meth:`CompiledIncidence.retire` made to the block.  The record
        is the one a cold fill of the component alone leaves: the block
        rounds its rows froze in, renumbered, and the block record's
        columns filtered to its span.  A fill resumed from it is that
        fill's resume.
        """
        np_ = _np
        inc = self.inc
        lo, hi = self.row_starts[k:k + 2].tolist()
        col_lo, col_hi = self.col_starts[k:k + 2].tolist()
        mem_lo, mem_hi = inc.indptr[[lo, hi]].tolist()
        link_lo, link_hi = inc.l_indptr[[col_lo, col_hi]].tolist()
        part = CompiledIncidence.__new__(CompiledIncidence)
        part.fids = inc.fids[lo:hi]
        part.indptr = inc.indptr[lo:hi + 1] - mem_lo
        part.mem_cols = inc.mem_cols[mem_lo:mem_hi] - col_lo
        part.n_links = col_hi - col_lo
        part.row_lens = inc.row_lens[lo:hi].copy()
        part.l_indptr = inc.l_indptr[col_lo:col_hi + 1] - link_lo
        part.l_lens = inc.l_lens[col_lo:col_hi].copy()
        part.l_rows = inc.l_rows[link_lo:link_hi] - lo
        part.base_count = inc.base_count[col_lo:col_hi].copy()
        part.alive = inc.alive[lo:hi].copy()
        part.n_alive = int(np_.count_nonzero(part.alive))
        part.row_of = {fid: row for row, fid in enumerate(part.fids)}

        own = FillRecord(part)
        own.capacity = record.capacity[col_lo:col_hi].copy()
        frozen = record.round_of[lo:hi]
        rounds = _sorted_unique(frozen.copy())
        own.round_of[:] = np_.searchsorted(rounds, frozen)
        shares = record.shares
        own.shares = [shares[r] for r in rounds.tolist()]
        cols = record.cols[:record.starts[-1]]
        pos = np_.flatnonzero((cols >= col_lo) & (cols < col_hi))
        own.cols[:pos.shape[0]] = cols[pos] - col_lo
        # The round of each kept column: the block round whose run
        # holds it, renumbered (a closing round adds no columns).
        per_round = np_.bincount(
            np_.searchsorted(
                rounds,
                np_.searchsorted(record.starts, pos, side="right") - 1),
            minlength=rounds.shape[0])
        own.starts = [0] + np_.cumsum(per_round).tolist()
        return part, self.l2g[col_lo:col_hi].copy(), own


def compile_component(groups: Sequence[Sequence[int]],
                      index: IncidenceIndex) -> CompiledBlock:
    """Compile components' flows into one block-diagonal problem.

    *groups* holds each component's flows; rows follow them component
    after component.  Columns are ordered by (component, global
    column), so each component keeps the ascending-global local
    numbering it would get compiled alone — the solve result is
    scan-order independent, so that order changes nothing observable.
    A column two groups share gets one block column per group.
    """
    np_ = _np
    fids = [fid for group in groups for fid in group]
    col_arrays = [index.flow_cols(fid) for fid in fids]
    lens = np_.fromiter((arr.shape[0] for arr in col_arrays),
                        dtype=np_.int64, count=len(col_arrays))
    indptr = np_.zeros(len(fids) + 1, dtype=np_.int64)
    np_.cumsum(lens, out=indptr[1:])
    row_starts = np_.zeros(len(groups) + 1, dtype=np_.int64)
    np_.cumsum(np_.fromiter((len(group) for group in groups),
                            dtype=np_.int64, count=len(groups)),
               out=row_starts[1:])
    if col_arrays:
        keys = np_.concatenate(col_arrays)
    else:
        keys = np_.empty(0, dtype=np_.int64)
    width = int(keys.max()) + 1 if keys.shape[0] else 1
    ks = np_.arange(len(groups) + 1, dtype=np_.int64)
    # (component, global column) keys, made in place from the global
    # columns, so a compile holds no more membership-sized arrays than
    # one of a single component.
    keys += np_.repeat(ks[:-1] * width, np_.diff(indptr[row_starts]))
    keys, local = np_.unique(keys, return_inverse=True)
    inc = CompiledIncidence(fids, indptr, local.astype(np_.int64),
                            int(keys.shape[0]))
    return CompiledBlock(inc, keys % width, row_starts,
                         np_.searchsorted(keys // width, ks))
